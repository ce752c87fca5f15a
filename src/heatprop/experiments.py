"""Seed-sampling policies, evaluation metrics, and repeatable benchmark runs.

One loop, ``run_experiment``, runs every (sweep point, repetition) cell of
an ``ExperimentConfig`` and records a cell that raises as a failure.

Randomness is derived from a single master seed through a documented
splittable scheme: the stream for (sweep point ``i``, repetition ``r``) is
seeded with ``SeedSequence([master_seed, i, r, stream_id])`` where stream 0
generates the graph and stream 1 samples the seeds. Repetitions are therefore
independent and order-free. The variants inside one repetition share the
graph, the seed set and the K one-vs-all fields: the fields are solved once
per repetition and each variant only rescores them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .blockmodel import (
    BlockModelParams,
    build_deterministic_block_graph,
    sbm_generate,
)
from .classify import VARIANTS, SeedSet, classification_from_scores, one_vs_all_fields, scores_from_fields
from .errors import NumericalError, ValidationError
from .graph import Graph, NodePartition, _sorted_unique
from .solver import SolverOptions

POLICY_KINDS = ("uniform", "degree", "balanced", "explicit_counts")
SWEEP_KINDS = ("seed_ratio", "size_ratio")

RAW_CSV_HEADER = ["variant", "sweep", "rep", "macro_f1", "accuracy", "wall_ms", "iters"]
AGG_CSV_HEADER = ["variant", "sweep", "mean", "std"]

MAX_SAMPLING_ATTEMPTS = 100
# share of the labeled nodes drawn as seeds when no count is given
DEFAULT_SEED_FRACTION = 0.01


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit child seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(2, np.uint64)[0])


# ---------------------------------------------------------------------------
# seed sampling


@dataclass(frozen=True)
class SamplingPolicy:
    """How to pick seed nodes from the labeled ground truth.

    ``uniform`` draws ``ceil(fraction * labeled)`` nodes uniformly without
    replacement; ``degree`` draws the same count by sequential weighted draws
    proportional to degree; ``balanced`` gives each label a quota
    proportional to its frequency (at least one); ``explicit_counts`` takes
    exactly ``counts[k-1]`` seeds for label ``k``.
    """

    kind: str
    fraction: float | None = None
    counts: tuple[int, ...] | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValidationError(f"unknown sampling kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if self.kind == "explicit_counts":
            if not self.counts:
                raise ValidationError("explicit_counts needs per-label counts")
            object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        else:
            if self.fraction is None or not 0 < self.fraction <= 1:
                raise ValidationError("fraction must lie in (0, 1]")


def sample_seeds(labels: NodePartition, g: Graph, policy: SamplingPolicy) -> SeedSet:
    """Draw a seed set under ``policy``; only labeled nodes are candidates.

    Count-based policies are redrawn (up to 100 times) until every label
    present in the ground truth received at least one seed.
    """
    rng = np.random.default_rng(policy.rng_seed)
    labeled = labels.labeled_nodes()
    if labeled.size == 0:
        raise ValidationError("no labeled nodes to sample from")
    labeled_labels = labels.labels[labeled]
    present = _sorted_unique(labeled_labels)

    if policy.kind == "explicit_counts":
        nodes = _sample_explicit(rng, labels, labeled, labeled_labels, present, policy.counts)
    elif policy.kind == "balanced":
        nodes = _sample_balanced(rng, labeled, labeled_labels, present, policy.fraction)
    else:
        nodes = _sample_by_count(rng, g, labels, labeled, labeled_labels, present, policy)
    nodes = np.sort(nodes)
    return SeedSet(nodes=nodes, labels=labels.labels[nodes], num_labels=labels.num_labels)


def _sample_by_count(rng, g, labels, labeled, labeled_labels, present, policy) -> np.ndarray:
    target = math.ceil(policy.fraction * labeled.size)
    # coverage of every present label is a hard requirement downstream
    target = max(target, present.size)
    if target > labeled.size:
        raise ValidationError(
            f"cannot draw {target} seeds from {labeled.size} labeled nodes"
        )
    for _ in range(MAX_SAMPLING_ATTEMPTS):
        if policy.kind == "uniform":
            pick = rng.choice(labeled, size=target, replace=False)
        else:  # degree: exponential race == sequential weighted draws
            keys = rng.exponential(size=labeled.size) / g.degrees[labeled]
            pick = labeled[np.argsort(keys)[:target]]
        if _sorted_unique(labels.labels[pick]).size == present.size:
            return pick
    raise ValidationError(
        f"failed to cover all {present.size} labels after {MAX_SAMPLING_ATTEMPTS} draws"
    )


def _sample_balanced(rng, labeled, labeled_labels, present, fraction) -> np.ndarray:
    parts = []
    for lab in present:
        members = labeled[labeled_labels == lab]
        quota = max(1, int(math.floor(fraction * members.size + 0.5)))
        quota = min(quota, members.size)
        parts.append(rng.choice(members, size=quota, replace=False))
    return np.concatenate(parts)


def _sample_explicit(rng, labels, labeled, labeled_labels, present, counts) -> np.ndarray:
    if len(counts) != labels.num_labels:
        raise ValidationError(
            f"expected {labels.num_labels} per-label counts, got {len(counts)}"
        )
    parts = []
    for lab in range(1, labels.num_labels + 1):
        want = counts[lab - 1]
        members = labeled[labeled_labels == lab]
        if members.size == 0:
            if want:
                raise ValidationError(f"label {lab} has no labeled nodes to sample")
            continue
        if want < 1:
            raise ValidationError(f"label {lab} is present but was allotted no seeds")
        if want > members.size:
            raise ValidationError(
                f"label {lab} has only {members.size} labeled nodes, requested {want}"
            )
        parts.append(rng.choice(members, size=want, replace=False))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# metrics


def per_class_f1(pred, truth, num_labels: int) -> np.ndarray:
    """F1 per label id 1..num_labels; empty denominators count as zero."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValidationError("prediction and truth must share an index set")
    out = np.zeros(num_labels)
    for k in range(1, num_labels + 1):
        tp = int(np.count_nonzero((pred == k) & (truth == k)))
        fp = int(np.count_nonzero((pred == k) & (truth != k)))
        fn = int(np.count_nonzero((pred != k) & (truth == k)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        out[k - 1] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return out


def macro_f1(pred, truth, num_labels: int) -> float:
    """Unweighted mean of the per-class F1 scores."""
    return float(per_class_f1(pred, truth, num_labels).mean())


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValidationError("prediction and truth must share an index set")
    return float(np.mean(pred == truth)) if pred.size else 0.0


# ---------------------------------------------------------------------------
# experiment configuration and results


@dataclass(frozen=True)
class SbmSource:
    """Resample a stochastic block model graph every repetition."""

    params: BlockModelParams


@dataclass(frozen=True)
class BlockSource:
    """Deterministic complete block graph (no graph randomness)."""

    params: BlockModelParams


@dataclass(frozen=True)
class DatasetSource:
    """A fixed, pre-loaded graph with ground-truth labels."""

    graph: Graph
    labels: NodePartition


@dataclass(frozen=True)
class Sweep:
    """One swept parameter axis.

    ``seed_ratio`` scales block 1's seed count to ``ratio * s_2`` (other
    blocks untouched); ``size_ratio`` reshapes a two-block model to
    ``n_1/n_2 = ratio`` at constant total size, seeds re-allotted in
    proportion to the new sizes at constant total seed count.
    """

    kind: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValidationError(f"unknown sweep kind {self.kind!r}; expected one of {SWEEP_KINDS}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValidationError("sweep needs at least one value")
        bad = [v for v in values if not 0 < v < math.inf]
        if bad:
            raise ValidationError(f"sweep values must be finite and positive, got {bad[0]!r}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExperimentConfig:
    source: SbmSource | BlockSource | DatasetSource
    variants: tuple[str, ...] = ("vanilla", "centered")
    repetitions: int = 10
    solver: SolverOptions = field(default_factory=SolverOptions)
    policy: SamplingPolicy | None = None
    sweep: Sweep | None = None
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.source, (SbmSource, BlockSource, DatasetSource)):
            raise ValidationError(f"experiment config needs a graph source, got {type(self.source).__name__}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be at least 1")
        if not self.variants:
            raise ValidationError("need at least one variant")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ValidationError(f"unknown variants {', '.join(unknown)}; expected one of {VARIANTS}")
        object.__setattr__(self, "variants", tuple(self.variants))
        # a sweep sets the seed counts; a policy that fixes them would override it
        sweep, policy = self.sweep, self.policy
        if sweep and policy and (sweep.kind == "seed_ratio" or policy.kind == "explicit_counts"):
            raise ValidationError(f"policy {policy.kind!r} overrides the seed counts of the {sweep.kind} sweep")
        if isinstance(self.source, DatasetSource):
            if sweep:
                raise ValidationError("parameter sweeps apply to block-model sources only")
            if policy is None:
                raise ValidationError("dataset sources need an explicit sampling policy")


@dataclass(frozen=True)
class ResultRow:
    """Metrics of one variant in one repetition. ``wall_ms`` is the time of
    the repetition's shared field solve plus this variant's scoring and
    labeling; ``iterations`` is the largest conjugate-gradient iteration count
    among the fields (0 when no field needs an iteration, as when every
    node is a seed)."""

    variant: str
    sweep: float
    rep: int
    macro_f1: float
    per_class_f1: tuple[float, ...]
    accuracy: float
    wall_ms: float
    iterations: int
    input_digest: str


@dataclass(frozen=True)
class RunFailure:
    sweep: float
    rep: int
    message: str


@dataclass(frozen=True)
class AggregateRow:
    variant: str
    sweep: float
    mean: float
    std: float


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)

    def aggregate(self) -> list[AggregateRow]:
        """Mean and (population) standard deviation of macro-F1, recomputed
        from the raw rows, grouped by (variant, sweep point)."""
        groups: dict[tuple[str, float], list[float]] = {}
        for row in self.rows:
            groups.setdefault((row.variant, row.sweep), []).append(row.macro_f1)
        out = []
        for (variant, sweep), vals in sorted(groups.items()):
            arr = np.asarray(vals)
            out.append(AggregateRow(variant=variant, sweep=sweep, mean=float(arr.mean()), std=float(arr.std())))
        return out

    def write_csv(self, path, include_timing: bool = False):
        """Raw per-run rows. Wall-clock times are written as 0.0 unless
        ``include_timing`` is set, so that output files are byte-reproducible
        under a fixed master seed."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RAW_CSV_HEADER)
            for r in self.rows:
                wall = repr(r.wall_ms) if include_timing else "0.0"
                writer.writerow(
                    [r.variant, repr(r.sweep), r.rep, repr(r.macro_f1), repr(r.accuracy), wall, r.iterations]
                )

    def write_aggregate_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(AGG_CSV_HEADER)
            for a in self.aggregate():
                writer.writerow([a.variant, repr(a.sweep), repr(a.mean), repr(a.std)])


# ---------------------------------------------------------------------------
# experiment runner


def _swept_params(params: BlockModelParams, sweep: Sweep | None, value: float) -> BlockModelParams:
    if sweep is None:
        return params
    if sweep.kind == "seed_ratio":
        if params.num_blocks < 2:
            raise ValidationError("seed_ratio sweep needs at least two blocks")
        s = list(params.seed_counts)
        s[0] = int(round(value * s[1]))
        return BlockModelParams(sizes=params.sizes, seed_counts=tuple(s), p=params.p, q=params.q)
    # size_ratio
    if params.num_blocks != 2:
        raise ValidationError("size_ratio sweep is defined for two blocks")
    n_total = params.n
    s_total = sum(params.seed_counts)
    n2 = int(round(n_total / (1.0 + value)))
    n1 = n_total - n2
    s1 = int(round(s_total * n1 / n_total))
    s1 = min(max(s1, 1), s_total - 1)
    return BlockModelParams(sizes=(n1, n2), seed_counts=(s1, s_total - s1), p=params.p, q=params.q)


def _digest(graph: Graph, seeds: SeedSet) -> str:
    h = hashlib.sha1()
    for arr in (graph.indptr, graph.indices, graph.weights, seeds.nodes, seeds.labels):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _realize(source, sweep, value, graph_seed):
    if isinstance(source, DatasetSource):
        return source.graph, source.labels, None
    params = _swept_params(source.params, sweep, value)
    if isinstance(source, SbmSource):
        graph, truth, _ = sbm_generate(params, graph_seed)
    else:
        graph, truth, _ = build_deterministic_block_graph(params)
    return graph, truth, params


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run every (sweep point, repetition, variant) cell and collect metrics.

    Within a repetition all variants score the same graph, seed set and
    fields; scoring is restricted to labeled non-seed nodes. A repetition
    that raises is recorded under ``failures`` and skipped.
    """
    table = ResultTable()
    points = cfg.sweep.values if cfg.sweep is not None else (0.0,)
    for pi, value in enumerate(points):
        for rep in range(cfg.repetitions):
            try:
                _run_one(cfg, pi, value, rep, table)
            except (ValidationError, NumericalError) as exc:
                table.failures.append(RunFailure(sweep=value, rep=rep, message=str(exc)))
    return table


def _run_one(cfg: ExperimentConfig, pi: int, value: float, rep: int, table: ResultTable):
    graph_seed = derive_seed(cfg.master_seed, pi, rep, 0)
    sample_seed = derive_seed(cfg.master_seed, pi, rep, 1)
    graph, truth, params = _realize(cfg.source, cfg.sweep, value, graph_seed)

    policy = cfg.policy
    if policy is None:
        policy = SamplingPolicy(kind="explicit_counts", counts=params.seed_counts)
    policy = replace(policy, rng_seed=sample_seed)
    seeds = sample_seeds(truth, graph, policy)
    _append_rows(table, cfg, graph, truth, seeds, value, rep)


def _append_rows(table, cfg, graph, truth, seeds, sweep, rep):
    """Solve the fields of one repetition once, then score and evaluate every
    variant on the labeled non-seed nodes."""
    digest = _digest(graph, seeds)
    eval_mask = truth.labels > 0
    eval_mask[seeds.nodes] = False
    eval_nodes = np.flatnonzero(eval_mask)
    truth_eval = truth.labels[eval_nodes]

    start = time.perf_counter()
    fields = one_vs_all_fields(graph, seeds, cfg.solver)
    solve_ms = (time.perf_counter() - start) * 1000.0
    iterations = max(f.info.iterations for f in fields)
    for variant in cfg.variants:
        start = time.perf_counter()
        result = classification_from_scores(scores_from_fields(fields, seeds, variant), seeds)
        wall_ms = solve_ms + (time.perf_counter() - start) * 1000.0
        pred = result.labels[eval_nodes]
        f1 = per_class_f1(pred, truth_eval, truth.num_labels)
        table.rows.append(
            ResultRow(
                variant=variant,
                sweep=sweep,
                rep=rep,
                macro_f1=float(f1.mean()),
                per_class_f1=tuple(f1),
                accuracy=accuracy(pred, truth_eval),
                wall_ms=wall_ms,
                iterations=iterations,
                input_digest=digest,
            )
        )
