"""Seed-sampling policies, evaluation metrics, and repeatable benchmark runs.

One loop, ``run_experiment``, runs every (sweep point, repetition) cell of
an ``ExperimentConfig``. A completed cell becomes one frozen ``Repetition``
record (sweep point, repetition, the fields' solver infos and each variant's
macro-F1 and accuracy); a cell that raises becomes a ``RunFailure``. The
result rows, the aggregate and both CSV files are derived from the records.

Randomness is derived from a single master seed through a documented
splittable scheme: the stream for (sweep point ``i``, repetition ``r``) is
seeded with ``SeedSequence([master_seed, i, r, stream_id])`` where stream 0
generates the graph and stream 1 samples the seeds. A ``seed_ratio`` sweep
leaves the graph's law alone, so every point of repetition ``r`` scores the
one graph drawn from point 0's stream 0 (common random numbers: each point's
distribution is unchanged, and the points of a curve are paired); every
other sweep draws from the point's own stream. Repetitions are therefore
independent and order-free. The variants inside one repetition share the
graph, the seed set and the K one-vs-all fields: the fields are solved once
per repetition and each variant only rescores them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blockmodel import BlockModelParams, sbm_generate
from .classify import VARIANTS, SeedSet, classify, one_vs_all_fields
from .errors import NumericalError, ValidationError
from .graph import Graph, NodePartition, _sorted_unique
from .solver import SolveInfo, SolverOptions

POLICY_KINDS = ("uniform", "degree", "balanced", "explicit_counts")
SWEEP_KINDS = ("seed_ratio", "size_ratio")

RAW_CSV_HEADER = ["variant", "sweep", "rep", "macro_f1", "accuracy", "iters"]
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
    proportional to degree; ``explicit_counts`` takes exactly ``counts[k-1]``
    seeds for label ``k``; ``balanced`` takes per-label counts too, computed
    in proportion to each label's frequency (at least one).
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

    Every label of ``labels`` is carried by some node, so every label gets
    at least one seed. ``uniform`` and ``degree`` draw one count from all
    labeled nodes and are redrawn (up to 100 times) until every label
    received a seed. ``balanced`` and ``explicit_counts`` draw a per-label
    count from each label's labeled nodes, in label order; ``balanced``
    computes its counts, ``max(1, floor(fraction * s_k + 0.5))`` for a label
    with ``s_k`` labeled nodes.
    """
    rng = np.random.default_rng(policy.rng_seed)
    labeled = labels.labeled_nodes()
    if policy.kind in ("uniform", "degree"):
        nodes = _sample_by_count(rng, g, labels, labeled, policy)
    else:
        labeled_labels = labels.labels[labeled]
        members = [labeled[labeled_labels == lab] for lab in range(1, labels.num_labels + 1)]
        counts = policy.counts
        if policy.kind == "balanced":
            counts = [max(1, math.floor(policy.fraction * m.size + 0.5)) for m in members]
        _check_counts(counts, [m.size for m in members])
        nodes = np.concatenate([rng.choice(m, size=c, replace=False) for m, c in zip(members, counts)])
    nodes = np.sort(nodes)
    return SeedSet(nodes=nodes, labels=labels.labels[nodes], num_labels=labels.num_labels)


def _check_counts(counts, sizes):
    """Raise unless ``counts[k-1]`` seeds can be drawn from the ``sizes[k-1]``
    labeled nodes of each label ``k``: every label, which has at least one
    labeled node, gets at least one seed and at most its size."""
    if len(counts) != len(sizes):
        raise ValidationError(f"expected {len(sizes)} per-label counts, got {len(counts)}")
    for lab, (want, size) in enumerate(zip(counts, sizes), start=1):
        if want < 1:
            raise ValidationError(f"label {lab} is present but was allotted no seeds")
        if want > size:
            raise ValidationError(f"label {lab} has only {size} labeled nodes, requested {want}")


def _sample_by_count(rng, g, labels, labeled, policy) -> np.ndarray:
    # SeedSet refuses a label without seeds, so every label must be drawn
    target = max(math.ceil(policy.fraction * labeled.size), labels.num_labels)
    for _ in range(MAX_SAMPLING_ATTEMPTS):
        if policy.kind == "uniform":
            pick = rng.choice(labeled, size=target, replace=False)
        else:  # degree: exponential race == sequential weighted draws
            keys = rng.exponential(size=labeled.size) / g.degrees[labeled]
            pick = labeled[np.argsort(keys)[:target]]
        if _sorted_unique(labels.labels[pick]).size == labels.num_labels:
            return pick
    raise ValidationError(
        f"failed to cover all {labels.num_labels} labels after {MAX_SAMPLING_ATTEMPTS} draws"
    )


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

    def __post_init__(self):
        if not (self.params.p <= 1 and self.params.q <= 1):
            raise ValidationError("p and q must be probabilities in (0, 1]")


@dataclass(frozen=True)
class DatasetSource:
    """A fixed, pre-loaded graph with ground-truth labels, one per node."""

    graph: Graph
    labels: NodePartition

    def __post_init__(self):
        if self.labels.labels.size != self.graph.n:
            raise ValidationError(f"{self.labels.labels.size} labels for a graph of {self.graph.n} nodes")


@dataclass(frozen=True)
class Sweep:
    """One swept parameter axis.

    ``seed_ratio`` scales block 1's seed count to ``ratio * s_2`` (other
    blocks untouched), so all its points share each repetition's graph;
    ``size_ratio`` reshapes a two-block model to ``n_1/n_2 = ratio`` at
    constant total size, seeds re-allotted in proportion to the new sizes at
    constant total seed count, and draws a graph per point.
    """

    kind: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValidationError(f"unknown sweep kind {self.kind!r}; expected one of {SWEEP_KINDS}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValidationError("sweep needs at least one value")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"sweep value {repeated[0]:g} appears more than once")
        bad = [v for v in values if not 0 < v < math.inf]
        if bad:
            raise ValidationError(f"sweep values must be finite and positive, got {bad[0]!r}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run. The source is an ``SbmSource``, drawn anew per
    repetition, or a fixed ``DatasetSource``. ``policy = None`` takes
    per-block ``explicit_counts`` from the (swept) block model. A dataset
    source needs a policy and takes no sweep."""

    source: SbmSource | DatasetSource
    variants: tuple[str, ...] = ("vanilla", "centered")
    repetitions: int = 10
    solver: SolverOptions = field(default_factory=SolverOptions)
    policy: SamplingPolicy | None = None
    sweep: Sweep | None = None
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.source, (SbmSource, DatasetSource)):
            raise ValidationError(f"experiment config needs a graph source, got {type(self.source).__name__}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be at least 1")
        if not self.variants:
            raise ValidationError("need at least one variant")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ValidationError(f"unknown variants {', '.join(unknown)}; expected one of {VARIANTS}")
        repeated = [v for i, v in enumerate(self.variants) if v in self.variants[:i]]
        if repeated:
            raise ValidationError(f"variant {repeated[0]} appears more than once")
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
        if policy and policy.kind == "explicit_counts":
            # the labels are fixed too (a block model's are its blocks), so
            # counts that cannot be drawn would fail every repetition
            if isinstance(self.source, DatasetSource):
                truth = self.source.labels
                sizes = np.bincount(truth.labels, minlength=truth.num_labels + 1)[1:]
            else:
                sizes = self.source.params.sizes
            _check_counts(policy.counts, sizes)
        if sweep:
            blocks = self.source.params.num_blocks
            if sweep.kind == "seed_ratio" and blocks < 2:
                raise ValidationError("seed_ratio sweep needs at least two blocks")
            if sweep.kind == "size_ratio" and blocks != 2:
                raise ValidationError("size_ratio sweep is defined for two blocks")
            # a point whose block model is invalid would fail every repetition
            for value in sweep.values:
                try:
                    _swept_params(self.source.params, sweep, value)
                except ValidationError as exc:
                    raise ValidationError(f"sweep value {value:g}: {exc}") from None


@dataclass(frozen=True)
class Repetition:
    """Everything one completed repetition measured: its sweep point, the
    solver outcome of each one-vs-all field, and ``(macro_f1, accuracy)`` of
    each variant, keyed in config order. Every output is derived from these."""

    sweep: float
    rep: int
    infos: tuple[SolveInfo, ...]
    scores: dict[str, tuple[float, float]]


@dataclass(frozen=True)
class RunFailure:
    sweep: float
    rep: int
    message: str


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class ResultTable:
    reps: list[Repetition] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)

    def rows(self) -> list[tuple[str, float, int, float, float, int]]:
        """``(variant, sweep, rep, macro_f1, accuracy, iterations)`` per variant
        of each repetition; ``iterations`` is the largest conjugate-gradient
        count among the fields (0 when no field needs an iteration)."""
        return [
            (variant, r.sweep, r.rep, f1, acc, max(info.iterations for info in r.infos))
            for r in self.reps
            for variant, (f1, acc) in r.scores.items()
        ]

    def aggregate(self) -> list[tuple[str, float, float, float]]:
        """``(variant, sweep, mean, std)`` of macro-F1 per (variant, sweep
        point), the standard deviation taken over the population."""
        groups: dict[tuple[str, float], list[float]] = {}
        for variant, sweep, _, f1, *_ in self.rows():
            groups.setdefault((variant, sweep), []).append(f1)
        return [(*key, float(np.mean(vals)), float(np.std(vals))) for key, vals in sorted(groups.items())]

    def write_csv(self, path):
        """Raw per-run rows; byte-reproducible under a fixed master seed."""
        _write_csv(path, RAW_CSV_HEADER, self.rows())

    def write_aggregate_csv(self, path):
        _write_csv(path, AGG_CSV_HEADER, self.aggregate())


# ---------------------------------------------------------------------------
# experiment runner


def _swept_params(params: BlockModelParams, sweep: Sweep | None, value: float) -> BlockModelParams:
    if sweep is None:
        return params
    if sweep.kind == "seed_ratio":
        s = list(params.seed_counts)
        if math.isinf(value * s[1]):
            raise ValidationError(f"block 1 seed count {value:g} * {s[1]} is not finite")
        s[0] = int(round(value * s[1]))
        return BlockModelParams(sizes=params.sizes, seed_counts=tuple(s), p=params.p, q=params.q)
    # size_ratio; ExperimentConfig admits it for two blocks only
    n_total = params.n
    s_total = sum(params.seed_counts)
    n2 = int(round(n_total / (1.0 + value)))
    n1 = n_total - n2
    s1 = int(round(s_total * n1 / n_total))
    s1 = min(max(s1, 1), s_total - 1)
    return BlockModelParams(sizes=(n1, n2), seed_counts=(s1, s_total - s1), p=params.p, q=params.q)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run every (sweep point, repetition) cell and keep one ``Repetition``
    record per completed cell, in (point, repetition) order.

    The loop runs repetition-major and holds one graph at a time, so every
    point of a ``seed_ratio`` sweep scores the same graph object and its
    cached component index. Within a repetition all variants score the same
    graph, seed set and fields; scoring is restricted to labeled non-seed
    nodes. A repetition that raises is recorded under ``failures`` and skipped.
    """
    points = cfg.sweep.values if cfg.sweep is not None else (0.0,)
    cells = {}
    for rep in range(cfg.repetitions):
        drawn = {}
        for pi, value in enumerate(points):
            try:
                cells[pi, rep] = _run_one(cfg, pi, value, rep, drawn)
            except (ValidationError, NumericalError) as exc:
                cells[pi, rep] = RunFailure(sweep=value, rep=rep, message=str(exc))
    table = ResultTable()
    for _, cell in sorted(cells.items()):
        (table.failures if isinstance(cell, RunFailure) else table.reps).append(cell)
    return table


def _run_one(cfg: ExperimentConfig, pi: int, value: float, rep: int, drawn: dict) -> Repetition:
    """Draw one repetition's graph (unless ``drawn``, the repetition's last
    draw keyed by the point index whose stream made it, already holds it)
    and seeds, solve its fields once, then score every variant on the
    labeled non-seed nodes."""
    source = cfg.source
    params = None if isinstance(source, DatasetSource) else _swept_params(source.params, cfg.sweep, value)
    gi = 0 if cfg.sweep is not None and cfg.sweep.kind == "seed_ratio" else pi
    if gi not in drawn:
        drawn.clear()  # hold one graph at a time
        if params is None:
            drawn[gi] = source.graph, source.labels
        else:
            drawn[gi] = sbm_generate(params, derive_seed(cfg.master_seed, gi, rep, 0))[:2]
    graph, truth = drawn[gi]

    policy = cfg.policy
    if policy is None:
        policy = SamplingPolicy(kind="explicit_counts", counts=params.seed_counts)
    policy = replace(policy, rng_seed=derive_seed(cfg.master_seed, pi, rep, 1))
    seeds = sample_seeds(truth, graph, policy)

    eval_mask = truth.labels > 0
    eval_mask[seeds.nodes] = False
    if not eval_mask.any():
        raise ValidationError("every labeled node is a seed: no node is left to score")
    truth_eval = truth.labels[eval_mask]
    fields = one_vs_all_fields(graph, seeds, cfg.solver)
    scores = {}
    for variant in cfg.variants:
        pred = classify(fields, seeds, variant)[0][eval_mask]
        scores[variant] = (macro_f1(pred, truth_eval, truth.num_labels), accuracy(pred, truth_eval))
    return Repetition(sweep=value, rep=rep, infos=tuple(f.info for f in fields), scores=scores)
