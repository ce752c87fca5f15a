"""Dense references that the tests check the package against.

No package path uses them: the package solves every Dirichlet problem with
``solve_iterative``. ``solve_exact`` is the direct solve that the iterative
solver and the block-model closed form are compared with, ``jacobi_sweep``
the plain relaxation step, ``dense_adjacency`` the dense view of a graph,
``dense_block_graph`` the n²-entry ``Graph`` of the deterministic block
model that its ``BlockGraph`` must match to the bit,
``two_stage_build_graph`` the CSR assembly that ``build_graph`` must
reproduce to the bit, ``validate_layout`` the layout checks that
``Graph`` must make in the same order, with the same messages, and
``closed_form_row`` the one-diffusion block-model closed form whose rows
``closed_form_temperatures`` must reproduce to the bit.
"""

import math

import numpy as np

from heatprop import (
    BlockModelParams,
    DirichletProblem,
    Graph,
    IsolatedNodeError,
    NumericalError,
    TemperatureField,
    ValidationError,
)
from heatprop.graph import BlockGraph, _edge_arrays, _format_nodes, _row_sums, transition_apply
from heatprop.solver import SolveInfo, _check_boundary_cover, _clip_to_boundary_range

DEFAULT_MAX_DENSE_UNKNOWNS = 10_000


def problem_from_dict(graph: Graph, temps: dict[int, float]) -> DirichletProblem:
    """A Dirichlet problem whose boundary temperatures are given as ``{node: temperature}``."""
    nodes = np.fromiter(temps.keys(), dtype=np.int64, count=len(temps))
    values = np.fromiter((temps[int(i)] for i in nodes), dtype=np.float64, count=len(temps))
    return DirichletProblem(graph=graph, boundary=nodes, boundary_temps=values)


def boundary_mask(problem: DirichletProblem) -> np.ndarray:
    mask = np.zeros(problem.graph.n, dtype=bool)
    mask[problem.boundary] = True
    return mask


def pinned_vector(problem: DirichletProblem) -> np.ndarray:
    """Full-length vector with boundary temperatures set, zeros elsewhere."""
    out = np.zeros(problem.graph.n)
    out[problem.boundary] = problem.boundary_temps
    return out


def dense_block_graph(params: BlockModelParams) -> Graph:
    """The complete block graph with all n² entries stored: one CSR row per
    node, holding every column in order."""
    n = params.n
    # the kb x kb block weights, expanded to one dense row per node
    templates = np.full((params.num_blocks, params.num_blocks), params.q, dtype=np.float64)
    np.fill_diagonal(templates, params.p)
    weights = np.repeat(np.repeat(templates, params.sizes, axis=1), params.sizes, axis=0).ravel()
    indptr = np.arange(n + 1, dtype=np.int64) * n
    indices = np.tile(np.arange(n, dtype=np.int64), n)
    return Graph(n=n, indptr=indptr, indices=indices, weights=weights)


def _as_csr(g: Graph | BlockGraph) -> Graph:
    """``g`` itself, or a ``BlockGraph`` of the deterministic block model
    expanded by ``dense_block_graph``: ``p`` is its table's diagonal and
    ``q`` the rest (row 0's last entry, unused with one block)."""
    if not isinstance(g, BlockGraph):
        return g
    return dense_block_graph(BlockModelParams(tuple(g.sizes), tuple(g.sizes), p=g.table[0, 0], q=g.table[0, -1]))


def dense_adjacency(g: Graph | BlockGraph) -> np.ndarray:
    """Dense adjacency matrix of a (small) graph."""
    g = _as_csr(g)
    a = np.zeros((g.n, g.n))
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    a[rows, g.indices] = g.weights
    return a


def jacobi_sweep(g: Graph, boundary_mask: np.ndarray, pinned: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One full-vector relaxation step: interior entries are replaced by the
    weighted average of their neighbors, boundary entries stay pinned."""
    return np.where(boundary_mask, pinned, transition_apply(g, t))


def solve_exact(
    problem: DirichletProblem,
    max_dense_unknowns: int = DEFAULT_MAX_DENSE_UNKNOWNS,
) -> TemperatureField:
    """Solve the interior linear system directly (dense LU with partial pivoting).

    Guarded by ``max_dense_unknowns`` because the assembled system is dense.
    The returned field is clipped to the boundary range, as the package's
    solver clips its own, which removes the rounding error of the
    factorisation at the range's ends.
    """
    _check_boundary_cover(problem)
    g = _as_csr(problem.graph)
    interior = np.flatnonzero(~boundary_mask(problem))
    k = interior.size
    if k > max_dense_unknowns:
        raise ValidationError(
            f"{k} interior unknowns exceed the dense-solve guard "
            f"({max_dense_unknowns}); use solve_iterative"
        )
    y = pinned_vector(problem)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[interior] = np.arange(k)

    system = np.eye(k)
    rhs = np.zeros(k)
    for row, node in enumerate(interior):
        sl = slice(g.indptr[node], g.indptr[node + 1])
        cols, ws = g.indices[sl], g.weights[sl] / g.degrees[node]
        local = pos[cols]
        inside = local >= 0
        system[row, local[inside]] -= ws[inside]
        rhs[row] = float(ws[~inside] @ y[cols[~inside]])

    try:
        x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular interior system: {exc}") from None

    t = y.copy()
    t[interior] = x
    info = SolveInfo(iterations=0, final_change=0.0, stop_reason="exact")
    return TemperatureField(values=_clip_to_boundary_range(problem, t), info=info)


def two_stage_build_graph(n: int, edges) -> Graph:
    """``build_graph`` in two sorts: merge duplicate pairs in canonical
    orientation first (a stable sort, so each pair's weights sum in input
    order), then mirror the off-diagonal pairs and sort the entries by
    ``row * n + col``."""
    src, dst, w = _edge_arrays(edges)
    if src.size and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValidationError(f"edge endpoint out of range [0, {n})")
    invalid = np.flatnonzero(~((w > 0) & (w < np.inf)))
    if invalid.size:
        bad = invalid[0]
        kind = "nonpositive" if w[bad] <= 0 else "non-finite"
        raise ValidationError(f"{kind} weight {w[bad]} on edge ({src[bad]}, {dst[bad]})")

    # canonical orientation, then merge duplicates
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if lo.size:
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key, lo, hi, w = key[order], lo[order], hi[order], w[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        w = np.add.reduceat(w, starts)
        lo, hi = lo[starts], hi[starts]

    loop = lo == hi
    rows = np.concatenate([lo, hi[~loop]])
    cols = np.concatenate([hi, lo[~loop]])
    vals = np.concatenate([w, w[~loop]])
    return _assemble(n, rows, cols, vals)


def _assemble(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Graph:
    # build_graph merged duplicate pairs and mirrors only off-diagonal ones, so
    # the (row, column) keys are distinct: any sort of the one-number key gives
    # the permutation of np.lexsort((cols, rows)), at a fraction of its cost
    order = np.argsort(rows * n + cols)
    rows, cols, vals = rows[order], cols[order], vals[order]
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Graph(n=n, indptr=indptr, indices=cols, weights=vals)


def validate_layout(n: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``Graph``'s layout checks in their plain form, each reading the whole
    arrays it needs: the column range by ``min``/``max``, positive weights by
    an elementwise test. Takes the arrays as ``Graph`` converts them; returns
    the row sums of the weights."""
    if n < 1:
        raise ValidationError("graph must have at least one node")
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValidationError("malformed row offsets")
    if np.any(np.diff(indptr) < 0):
        raise ValidationError("row offsets must be nondecreasing")
    if indices.size != weights.size:
        raise ValidationError("indices and weights must have equal length")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValidationError("column index out of range")
    if not np.all(weights > 0):  # also false for NaN
        raise ValidationError("all edge weights must be positive")
    # unique, sorted columns within each row: a column may fail to
    # increase only at a position where a row starts
    drops = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
    if np.any(indptr[np.searchsorted(indptr, drops)] != drops):
        raise ValidationError("column indices must be strictly increasing per row")
    with np.errstate(over="ignore"):  # an overflow is reported below
        row_sums = _row_sums(indptr, weights)
    # one check per node catches infinite weights and sums that overflow
    if not np.all(np.isfinite(row_sums)):
        raise ValidationError("edge weights and their row sums must be finite")
    if np.any(row_sums <= 0):
        bad = np.flatnonzero(row_sums <= 0)
        raise IsolatedNodeError(
            f"isolated node(s) with zero degree: {_format_nodes(bad)}", bad.tolist()
        )
    return row_sums


def closed_form_row(params: BlockModelParams, hot: int) -> tuple[np.ndarray, float]:
    """Per-block non-seed temperatures and the mean temperature of label
    ``hot``'s diffusion, computed for that one label alone."""
    if not 1 <= hot <= params.num_blocks:
        raise ValidationError(f"hot label {hot} out of range [1, {params.num_blocks}]")
    sizes = np.asarray(params.sizes, dtype=np.float64)
    seeds = np.asarray(params.seed_counts, dtype=np.float64)
    scale = math.ldexp(1.0, math.frexp(max(params.p, params.q))[1] - 1)
    p, q, n = params.p / scale, params.q / scale, float(params.n)
    h = hot - 1

    a = seeds * (p - q) + n * q  # equals s_k p + (n - s_k) q > 0
    numerator = (seeds[h] / n) * (sizes[h] * (p - q) + n * q) / a[h]
    denominator = 1.0 - float(np.sum((sizes - seeds) * q / a))
    if denominator <= 0:
        raise NumericalError("mean-temperature denominator is nonpositive; parameters out of the valid range")
    mean = numerator / denominator

    per_block = n * mean * q / a
    per_block[h] = (seeds[h] * (p - q) + n * mean * q) / a[h]
    return per_block, mean
