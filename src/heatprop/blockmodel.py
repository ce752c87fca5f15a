"""Uniform block models: exact temperature formulas, deterministic builders,
and the stochastic generator used for benchmarks.

The deterministic model is the complete weighted graph whose intra-block
pairs (self-loops included) carry weight ``p`` and whose inter-block pairs
carry weight ``q``. On that graph the one-vs-all equilibrium temperature is
constant on the non-seed nodes of each block and has a closed form, which
makes the model an exact oracle for the classifiers and for the
conjugate-gradient solver that every classification runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classify import SeedSet, one_vs_all_problem
from .errors import NumericalError, ValidationError
from .graph import BlockGraph, Graph, NodePartition, _sorted_unique, build_graph
from .solver import SolverOptions, solve_iterative


@dataclass(frozen=True)
class BlockModelParams:
    """Block sizes, per-block seed counts and the two edge weights."""

    sizes: tuple[int, ...]
    seed_counts: tuple[int, ...]
    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(v) for v in self.sizes))
        object.__setattr__(self, "seed_counts", tuple(int(v) for v in self.seed_counts))
        if len(self.sizes) < 1 or len(self.sizes) != len(self.seed_counts):
            raise ValidationError("sizes and seed_counts must be nonempty and aligned")
        for nk, sk in zip(self.sizes, self.seed_counts):
            if nk < 1:
                raise ValidationError("every block needs at least one node")
            if not 0 < sk <= nk:
                raise ValidationError(f"seed count {sk} must satisfy 0 < s <= block size {nk}")
        if not (0 < self.p < np.inf and 0 < self.q < np.inf):
            raise ValidationError("edge weights p and q must be positive and finite")

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def block_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.sizes)))


@dataclass(frozen=True)
class BlockTemperatures:
    """Equilibrium temperatures of non-seed nodes for all K one-vs-all
    diffusions: ``per_block[k - 1, b - 1]`` is block ``b``'s value in the
    diffusion where label ``k``'s seeds are pinned at 1, and ``mean[k - 1]``
    is that diffusion's mean temperature over all nodes. Vanilla scoring
    labels block ``b``'s non-seeds ``b`` iff ``per_block[b - 1, b - 1] >
    per_block[o - 1, b - 1]`` for every other label ``o``."""

    per_block: np.ndarray
    mean: np.ndarray


def closed_form_temperatures(params: BlockModelParams) -> BlockTemperatures:
    """Exact non-seed temperatures on the deterministic block graph.

    With ``a_k = s_k (p - q) + n q``, the mean temperature of label ``h``'s
    diffusion is

        mean_h = (s_h / n) * (n_h (p-q) + n q) / a_h
                 / (1 - sum_k (n_k - s_k) q / a_k)

    and its per-block values follow from ``a_h T_h = s_h (p-q) + n q mean_h``
    (hot block) and ``a_k T_k = n q mean_h`` (all others). The denominator
    does not depend on ``h``, so it is computed once. Every term is
    homogeneous in ``(p, q)``, so the result depends only on ``p / q``; both
    weights are first divided by the largest power of two not above the
    larger one, which keeps ``n q`` finite and changes no rounding.
    """
    sizes = np.asarray(params.sizes, dtype=np.float64)
    seeds = np.asarray(params.seed_counts, dtype=np.float64)
    scale = math.ldexp(1.0, math.frexp(max(params.p, params.q))[1] - 1)
    p, q, n = params.p / scale, params.q / scale, float(params.n)

    a = seeds * (p - q) + n * q  # equals s_k p + (n - s_k) q > 0
    denominator = 1.0 - float(np.sum((sizes - seeds) * q / a))
    if denominator <= 0:
        raise NumericalError("mean-temperature denominator is nonpositive; parameters out of the valid range")
    mean = (seeds / n) * (sizes * (p - q) + n * q) / a / denominator

    per_block = n * mean[:, None] * q / a
    np.fill_diagonal(per_block, (seeds * (p - q) + n * mean * q) / a)
    return BlockTemperatures(per_block=per_block, mean=mean)


def block_labels(params: BlockModelParams) -> NodePartition:
    labels = np.repeat(np.arange(1, params.num_blocks + 1), params.sizes)
    return NodePartition(labels=labels, num_labels=params.num_blocks)


def default_seeds(params: BlockModelParams) -> SeedSet:
    """First ``s_k`` nodes of each block, labeled by block id."""
    offsets = params.block_offsets()
    nodes = np.concatenate(
        [np.arange(offsets[k], offsets[k] + params.seed_counts[k]) for k in range(params.num_blocks)]
    )
    labels = np.repeat(np.arange(1, params.num_blocks + 1), params.seed_counts)
    return SeedSet(nodes=nodes, labels=labels, num_labels=params.num_blocks)


def build_deterministic_block_graph(params: BlockModelParams) -> tuple[BlockGraph, SeedSet]:
    """Complete weighted block graph, stored as its K distinct rows, with
    its ``default_seeds``; ``block_labels`` gives its ground truth.

    Every ordered intra-block pair carries weight ``p`` including a self-loop
    on each node; inter-block pairs carry weight ``q``. The self-loop makes a
    node's balance equation count the node among its own block's non-seeds,
    which is what gives the closed form its exact (not just asymptotic)
    agreement with the solver.
    """
    table = np.where(np.eye(params.num_blocks, dtype=bool), params.p, params.q)
    return BlockGraph(sizes=params.sizes, table=table), default_seeds(params)


def oracle_grid(points: int, max_block_nodes: int, rng_seed) -> list[tuple[BlockModelParams, int, float]]:
    """Compare ``closed_form_temperatures`` with ``solve_iterative`` on
    ``points`` random block models. A draw has 1-5 blocks; with ``kb``
    blocks, each has 2 to ``max(2, max_block_nodes // kb - 1)`` nodes, so
    a draw has fewer than ``max_block_nodes`` nodes whenever
    ``max_block_nodes // kb`` is at least 3. Each draw's ``BlockGraph`` is
    solved at tolerance 0, which runs conjugate gradients to rounding level.

    Returns one row ``(params, hot, gap)`` per draw, in draw order; the gap
    is the largest distance of a non-seed temperature from its block's value,
    and 0 when every node is a seed.
    """
    if points < 1:
        raise ValidationError(f"the oracle grid needs at least 1 point, got {points}")
    if max_block_nodes < 2:
        raise ValidationError(f"the oracle grid needs max_block_nodes of at least 2, got {max_block_nodes}")
    rng = np.random.default_rng(rng_seed)
    rows = []
    for _ in range(points):
        kb = int(rng.integers(1, 6))
        sizes, seeds_c = [], []
        for _ in range(kb):
            nk = int(rng.integers(2, max(3, max_block_nodes // kb)))
            sizes.append(nk)
            seeds_c.append(int(rng.integers(1, nk + 1)))
        p, q = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))
        params = BlockModelParams(sizes=tuple(sizes), seed_counts=tuple(seeds_c), p=p, q=q)
        hot = int(rng.integers(1, kb + 1))
        graph, seeds = build_deterministic_block_graph(params)
        per_block = closed_form_temperatures(params).per_block[hot - 1]
        problem = one_vs_all_problem(graph, seeds, hot)
        values = solve_iterative(problem, SolverOptions(tolerance=0.0)).values
        rows.append((params, hot, _block_disagreement(params, seeds, values, per_block)))
    return rows


def _block_disagreement(params, seeds, values, per_block) -> float:
    """Largest gap between a non-seed temperature and its block's closed form."""
    diff = np.abs(values - np.repeat(per_block, params.sizes))
    diff[seeds.nodes] = 0.0
    return float(diff.max())


def sbm_generate(
    params: BlockModelParams, rng_seed
) -> tuple[Graph, NodePartition, SeedSet]:
    """Sample a stochastic block model graph with unit edge weights.

    Each unordered pair of distinct nodes is an independent coin flip:
    probability ``p`` within a block, ``q`` across blocks; no self-loops.
    Isolated nodes are repaired by resampling that node's row (up to 100
    attempts each) so the declared block sizes are preserved. Deterministic
    for a fixed ``rng_seed``.
    """
    if not (0 < params.p <= 1 and 0 < params.q <= 1):
        raise ValidationError("p and q must be probabilities in (0, 1]")
    rng = np.random.default_rng(rng_seed)
    sizes = np.asarray(params.sizes)
    n = params.n
    offsets = params.block_offsets()

    expected_degree = (sizes - 1) * params.p + (n - sizes) * params.q
    if float(expected_degree.min()) < 1.0:
        warnings.warn(
            f"expected degree {expected_degree.min():.3g} < 1; isolated nodes are likely",
            stacklevel=2,
        )

    src_parts, dst_parts = [], []
    for k in range(params.num_blocks):
        nk = int(sizes[k])
        if nk >= 2:
            total = nk * (nk - 1) // 2
            count = int(rng.binomial(total, params.p))
            idx = _distinct_integers(rng, total, count)
            i, j = _upper_triangle_decode(idx, nk)
            src_parts.append(i + offsets[k])
            dst_parts.append(j + offsets[k])
        for l in range(k + 1, params.num_blocks):
            nl = int(sizes[l])
            total = nk * nl
            count = int(rng.binomial(total, params.q))
            idx = _distinct_integers(rng, total, count)
            src_parts.append(idx // nl + offsets[k])
            dst_parts.append(idx % nl + offsets[l])

    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    src, dst = _repair_isolated(rng, params, src, dst)
    graph = build_graph(n, (src, dst, np.ones(src.size)))
    return graph, block_labels(params), default_seeds(params)


def _repair_isolated(rng, params: BlockModelParams, src, dst) -> tuple[np.ndarray, np.ndarray]:
    n = params.n
    block_of = np.repeat(np.arange(params.num_blocks), params.sizes)
    degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    isolated = np.flatnonzero(degree == 0)
    if isolated.size == 0:
        return src, dst
    new_src, new_dst = [src], [dst]
    for u in isolated:
        row_prob = np.where(block_of == block_of[u], params.p, params.q)
        row_prob[u] = 0.0
        for _ in range(100):
            hits = np.flatnonzero(rng.random(n) < row_prob)
            if hits.size:
                new_src.append(np.full(hits.size, u, dtype=np.int64))
                new_dst.append(hits.astype(np.int64))
                break
        else:
            raise NumericalError(f"node {u} stayed isolated after 100 row resamples")
    src = np.concatenate(new_src)
    dst = np.concatenate(new_dst)
    # resampled rows may duplicate each other (two repaired nodes drawing the
    # same pair); edges are unit weight, so merge duplicates by de-duplication
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    key = _sorted_unique(lo * n + hi)
    return key // n, key % n


def _distinct_integers(rng, total: int, count: int) -> np.ndarray:
    """``count`` distinct integers sampled uniformly from ``[0, total)``.

    Draws with replacement and de-duplicates; memory stays O(count) even for
    huge populations. Symmetry of i.i.d. uniform draws makes the retained
    subset uniform over all count-subsets.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    pick = _sorted_unique(rng.integers(0, total, size=count))
    while pick.size < count:
        extra = rng.integers(0, total, size=2 * (count - pick.size) + 8)
        pick = _sorted_unique(np.concatenate([pick, extra]))
    if pick.size > count:
        pick = rng.choice(pick, size=count, replace=False)
        pick.sort()
    return pick.astype(np.int64)


def _upper_triangle_decode(idx: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices over the strict upper triangle of an m x m grid
    (row-major) back to pairs ``(i, j)`` with ``i < j``."""
    counts = np.arange(m - 1, 0, -1, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    i = np.searchsorted(starts, idx, side="right") - 1
    j = idx - starts[i] + i + 1
    return i.astype(np.int64), j.astype(np.int64)
