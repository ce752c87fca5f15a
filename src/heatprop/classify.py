"""Node classification rules built on one-vs-all heat diffusion.

Three score rules share the same K diffusions: ``vanilla`` uses the raw
temperatures, ``weighted`` rescales each label's temperatures by that label's
share of the seeds, and ``centered`` subtracts each diffusion's mean
temperature before comparing labels. Only K-1 diffusions are solved; the
last follows from the partition of unity. With K=2, ``vanilla`` is the
0.5 threshold on label 1's temperature and ``centered`` its mean threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import Graph
from .solver import (
    DirichletProblem,
    SolveInfo,
    SolverOptions,
    TemperatureField,
    solve_iterative,
)

VARIANTS = ("vanilla", "weighted", "centered")


@dataclass(frozen=True)
class SeedSet:
    """Labeled boundary nodes: ``labels[i]`` in ``[1, num_labels]`` is the
    class of seed node ``nodes[i]``. Every label in ``[1, num_labels]`` has
    at least one seed, so each one-vs-all diffusion has a hot boundary."""

    nodes: np.ndarray
    labels: np.ndarray
    num_labels: int

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=np.int64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if nodes.size != labels.size:
            raise ValidationError("every seed needs exactly one label")
        order = np.argsort(nodes)
        object.__setattr__(self, "nodes", nodes[order])
        object.__setattr__(self, "labels", labels[order])
        if self.nodes.size == 0:
            raise ValidationError("seed set must be nonempty")
        if np.any(np.diff(self.nodes) == 0):
            raise ValidationError("duplicate seed node")
        if self.num_labels < 1:
            raise ValidationError("need at least one label")
        if self.labels.min() < 1 or self.labels.max() > self.num_labels:
            raise ValidationError(f"seed labels must lie in [1, {self.num_labels}]")
        missing = np.flatnonzero(self.seed_counts()[1:] == 0) + 1
        if missing.size:
            raise ValidationError(f"label(s) without seeds: {missing.tolist()}")
        self.nodes.setflags(write=False)
        self.labels.setflags(write=False)

    @classmethod
    def from_dict(cls, seeds: dict[int, int], num_labels: int | None = None) -> "SeedSet":
        nodes = np.fromiter(seeds.keys(), dtype=np.int64, count=len(seeds))
        labels = np.fromiter((seeds[int(i)] for i in nodes), dtype=np.int64, count=len(seeds))
        if num_labels is None:
            num_labels = int(labels.max(initial=0))
        return cls(nodes=nodes, labels=labels, num_labels=num_labels)

    def seed_counts(self) -> np.ndarray:
        """Seeds per label id; entry 0 is unused."""
        return np.bincount(self.labels, minlength=self.num_labels + 1)


def one_vs_all_problem(g: Graph, seeds: SeedSet, k: int) -> DirichletProblem:
    """Dirichlet problem for label ``k``: its seeds pinned hot (1), every
    other seed pinned cold (0)."""
    if not 1 <= k <= seeds.num_labels:
        raise ValidationError(f"label {k} out of range [1, {seeds.num_labels}]")
    temps = (seeds.labels == k).astype(np.float64)
    return DirichletProblem(graph=g, boundary=seeds.nodes, boundary_temps=temps)


def one_vs_all_fields(
    g: Graph, seeds: SeedSet, opts: SolverOptions | None = None
) -> tuple[TemperatureField, ...]:
    """All K diffusions, one per label in label order.

    Only the first K-1 are solved. Converged fields sum to one at every node
    (partition of unity), so the last is ``clip(1 - sum, 0, 1)`` of the
    others; its info has stop reason ``"derived"``, 0 iterations and, as
    final change, the sum of theirs, which bounds its harmonicity defect.
    K=1 solves its one field: there is no other to derive it from.
    """
    num_labels = seeds.num_labels
    if num_labels == 1:
        return (solve_iterative(one_vs_all_problem(g, seeds, 1), opts),)
    solved = tuple(solve_iterative(one_vs_all_problem(g, seeds, k), opts) for k in range(1, num_labels))
    last = np.clip(1.0 - sum(f.values for f in solved), 0.0, 1.0)
    info = SolveInfo(
        iterations=0,
        final_change=sum(f.info.final_change for f in solved),
        stop_reason="derived",
    )
    return solved + (TemperatureField(values=last, info=info),)


def scores_from_fields(fields: tuple[TemperatureField, ...], seeds: SeedSet, variant: str) -> np.ndarray:
    """Per-node, per-label ``(n, K)`` scores of ``fields`` under ``variant``.

    Every row, seeds included, holds the variant applied to that node's
    temperatures; a seed's temperatures are its pinned 0/1 values (for
    ``centered``, the indicator minus each field's mean over all nodes).
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    raw = np.column_stack([f.values for f in fields])
    if variant == "vanilla":
        return raw
    if variant == "centered":
        return raw - raw.mean(axis=0, keepdims=True)
    # weighted: rescale by each label's share of the seeds
    counts = seeds.seed_counts()[1:].astype(np.float64)
    return raw * (counts / counts.sum())


def classify(
    fields: tuple[TemperatureField, ...], seeds: SeedSet, variant: str = "centered"
) -> tuple[np.ndarray, np.ndarray]:
    """Label every node by its highest score under ``variant``; ties go to
    the smallest label id and seed nodes keep their given labels.

    Returns ``(labels, confidence)``: the label id per node and the gap
    between the best and runner-up score (0 with a single label).
    """
    s = scores_from_fields(fields, seeds, variant)
    n, num_labels = s.shape
    labels = np.argmax(s, axis=1).astype(np.int64) + 1
    labels[seeds.nodes] = seeds.labels
    if num_labels < 2:
        return labels, np.zeros(n)
    # running best and runner-up over the K columns
    best, second = s[:, 0], np.full(n, -np.inf)
    for col in s.T[1:]:
        second = np.maximum(second, np.minimum(best, col))
        best = np.maximum(best, col)
    return labels, best - second
