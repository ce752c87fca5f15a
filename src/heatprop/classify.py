"""Node classification rules built on one-vs-all heat diffusion.

Three score rules share the same K diffusions: ``vanilla`` uses the raw
temperatures, ``weighted`` rescales each label's temperatures by that label's
share of the seeds, and ``centered`` subtracts each diffusion's mean
temperature before comparing labels. Only K-1 diffusions are solved; the
last follows from the partition of unity.
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
    class of seed node ``nodes[i]``."""

    nodes: np.ndarray
    labels: np.ndarray
    num_labels: int

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=np.int64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        order = np.argsort(nodes)
        object.__setattr__(self, "nodes", nodes[order])
        object.__setattr__(self, "labels", labels[order])
        if self.nodes.size == 0:
            raise ValidationError("seed set must be nonempty")
        if self.nodes.size != self.labels.size:
            raise ValidationError("every seed needs exactly one label")
        if np.any(np.diff(self.nodes) == 0):
            raise ValidationError("duplicate seed node")
        if self.num_labels < 1:
            raise ValidationError("need at least one label")
        if self.labels.min() < 1 or self.labels.max() > self.num_labels:
            raise ValidationError(f"seed labels must lie in [1, {self.num_labels}]")
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

    def missing_labels(self) -> np.ndarray:
        counts = self.seed_counts()
        return np.flatnonzero(counts[1:] == 0) + 1


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-node, per-label scores plus the raw diffusion fields behind them.

    Every row, seeds included, holds the variant applied to that node's
    temperatures; a seed's temperatures are its pinned 0/1 values, so its
    row is the variant applied to those (for ``centered``, the indicator
    minus each field's mean over all nodes). Classification ignores the seed
    rows: seeds keep their given labels.
    """

    scores: np.ndarray  # (n, num_labels)
    variant: str
    fields: tuple[TemperatureField, ...]


@dataclass(frozen=True)
class Classification:
    """Predicted label per node. Seed nodes retain their given labels;
    ``confidence`` is the gap between the best and runner-up score."""

    labels: np.ndarray
    confidence: np.ndarray
    seed_nodes: np.ndarray

    def non_seed_nodes(self) -> np.ndarray:
        mask = np.ones(self.labels.size, dtype=bool)
        mask[self.seed_nodes] = False
        return np.flatnonzero(mask)


def one_vs_all_problem(g: Graph, seeds: SeedSet, k: int) -> DirichletProblem | None:
    """Dirichlet problem for label ``k``: its seeds pinned hot (1), every
    other seed pinned cold (0). Returns None when all nodes are seeds (the
    interior is empty and the answer is the plain 0/1 indicator)."""
    if not 1 <= k <= seeds.num_labels:
        raise ValidationError(f"label {k} out of range [1, {seeds.num_labels}]")
    if seeds.seed_counts()[k] == 0:
        raise ValidationError(f"label {k} has no seeds")
    if seeds.nodes.size == g.n:
        return None
    temps = (seeds.labels == k).astype(np.float64)
    return DirichletProblem(graph=g, boundary=seeds.nodes, boundary_temps=temps)


def diffuse_one_vs_all(
    g: Graph, seeds: SeedSet, k: int, opts: SolverOptions | None = None
) -> TemperatureField:
    """Solve the one-vs-all Dirichlet problem for label ``k``."""
    problem = one_vs_all_problem(g, seeds, k)
    if problem is None:
        values = np.zeros(g.n)
        values[seeds.nodes] = (seeds.labels == k).astype(np.float64)
        info = SolveInfo(iterations=0, final_change=0.0, stop_reason="exact")
        return TemperatureField(values=values, info=info)
    return solve_iterative(problem, opts)


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
    missing = seeds.missing_labels()
    if missing.size:
        raise ValidationError(f"label(s) without seeds: {missing.tolist()}")
    num_labels = seeds.num_labels
    if num_labels == 1:
        return (diffuse_one_vs_all(g, seeds, 1, opts),)
    solved = tuple(diffuse_one_vs_all(g, seeds, k, opts) for k in range(1, num_labels))
    last = np.clip(1.0 - sum(f.values for f in solved), 0.0, 1.0)
    info = SolveInfo(
        iterations=0,
        final_change=sum(f.info.final_change for f in solved),
        stop_reason="derived",
    )
    return solved + (TemperatureField(values=last, info=info),)


def scores_from_fields(
    fields: tuple[TemperatureField, ...], seeds: SeedSet, variant: str
) -> ScoreMatrix:
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    raw = np.column_stack([f.values for f in fields])
    if variant == "vanilla":
        scores = raw.copy()
    elif variant == "centered":
        scores = raw - raw.mean(axis=0, keepdims=True)
    else:  # weighted: rescale by each label's share of the seeds
        counts = seeds.seed_counts()[1:].astype(np.float64)
        scores = raw * (counts / counts.sum())
    return ScoreMatrix(scores=scores, variant=variant, fields=fields)


def classification_from_scores(scores: ScoreMatrix, seeds: SeedSet) -> Classification:
    s = scores.scores
    n, num_labels = s.shape
    labels = np.argmax(s, axis=1).astype(np.int64) + 1  # ties: smallest label id
    labels[seeds.nodes] = seeds.labels
    if num_labels >= 2:
        top2 = np.partition(s, num_labels - 2, axis=1)[:, -2:]
        confidence = top2[:, 1] - top2[:, 0]
    else:
        confidence = np.zeros(n)
    return Classification(labels=labels, confidence=confidence, seed_nodes=seeds.nodes)


def classify(
    g: Graph,
    seeds: SeedSet,
    variant: str = "centered",
    opts: SolverOptions | None = None,
) -> tuple[ScoreMatrix, Classification]:
    """Run K one-vs-all diffusions and assign each non-seed node the label
    with the highest score under ``variant``. Ties go to the smallest label
    id; seed nodes keep their given labels.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    fields = one_vs_all_fields(g, seeds, opts)
    score_matrix = scores_from_fields(fields, seeds, variant)
    return score_matrix, classification_from_scores(score_matrix, seeds)


def classify_binary(
    g: Graph,
    seeds: SeedSet,
    threshold: str = "mean",
    opts: SolverOptions | None = None,
) -> Classification:
    """Two-label rule from a single diffusion (label-1 seeds hot, label-2 cold).

    ``threshold="half"`` assigns label 1 above 0.5; ``threshold="mean"``
    uses the mean temperature of the diffusion. Values at or below the
    threshold get label 2. Confidence is the distance to the threshold.
    """
    if seeds.num_labels != 2:
        raise ValidationError("binary classification requires exactly 2 labels")
    if threshold not in ("half", "mean"):
        raise ValidationError(f"unknown threshold {threshold!r}; expected 'half' or 'mean'")
    if seeds.missing_labels().size:
        raise ValidationError(f"label(s) without seeds: {seeds.missing_labels().tolist()}")
    field = diffuse_one_vs_all(g, seeds, 1, opts)
    theta = 0.5 if threshold == "half" else field.mean
    labels = np.where(field.values > theta, 1, 2).astype(np.int64)
    labels[seeds.nodes] = seeds.labels
    confidence = np.abs(field.values - theta)
    return Classification(labels=labels, confidence=confidence, seed_nodes=seeds.nodes)
