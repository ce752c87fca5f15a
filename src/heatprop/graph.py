"""Sparse weighted undirected graphs in compressed-row form."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IsolatedNodeError, ValidationError

@dataclass(frozen=True)
class Graph:
    """Immutable weighted undirected graph in compressed-row layout.

    The neighbors of node ``i`` are ``indices[indptr[i]:indptr[i+1]]`` with
    weights ``weights[indptr[i]:indptr[i+1]]``. Off-diagonal edges are stored
    once per incident row; a self-loop is stored once and counts once in the
    degree. Column indices are strictly increasing within each row, so every
    (row, column) entry is unique.

    ``degrees[i]`` is the sum of weights incident to ``i`` and is positive
    for every node: isolated nodes are rejected at construction time. The
    degrees are computed, not given: they are the row sums of the weights,
    taken with the row reduction ``transition_apply`` performs, so every row
    of the transition operator sums to exactly one.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "indptr", np.ascontiguousarray(self.indptr, dtype=np.int64))
        object.__setattr__(self, "indices", np.ascontiguousarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "weights", np.ascontiguousarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "degrees", self._validate())
        for arr in (self.indptr, self.indices, self.weights, self.degrees):
            arr.setflags(write=False)

    def _validate(self) -> np.ndarray:
        """Check the layout; return the row sums of the weights."""
        n, indptr, indices, weights = self.n, self.indptr, self.indices, self.weights
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
        # unique, sorted columns within each row
        if indices.size:
            # row starts may break monotonicity; a start equals indices.size
            # when the last rows are empty
            inner = np.ones(indices.size + 1, dtype=bool)
            inner[indptr[1:-1]] = False
            if np.any((np.diff(indices) <= 0) & inner[1:-1]):
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

    @cached_property
    def component_ids(self) -> np.ndarray:
        """Read-only index of each node's connected component, in the order
        of ``connected_components`` (by smallest member). Computed on first
        use and kept with the graph."""
        ids = np.empty(self.n, dtype=np.int64)
        for c, members in enumerate(connected_components(self)):
            ids[members] = c
        ids.setflags(write=False)
        return ids

    @property
    def num_edges(self) -> int:
        """Number of undirected edges; a self-loop counts as one edge."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        loops = int(np.count_nonzero(rows == self.indices))
        return (self.indices.size + loops) // 2

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(self.indptr[i], self.indptr[i + 1])
        return self.indices[sl], self.weights[sl]

    def dense_adjacency(self) -> np.ndarray:
        """Dense adjacency matrix; intended for small graphs and tests."""
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        a[rows, self.indices] = self.weights
        return a

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edge list (i <= j) with weights."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = rows <= self.indices
        return rows[keep], self.indices[keep], self.weights[keep]


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of CSR ``values`` by ``np.add.reduceat``, the reduction
    ``transition_apply`` performs; empty rows sum to zero."""
    sums = np.zeros(indptr.size - 1)
    nonempty = np.diff(indptr) > 0
    if values.size:
        sums[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return sums


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``values``, as ``np.unique`` returns
    them, by one sort and a mask. ``np.unique`` hashes integer arrays, which
    is 18-28x slower on arrays of 12.5k-55k int64 entries."""
    out = np.sort(values, axis=None)
    return out[np.concatenate(([True], out[1:] != out[:-1]))] if out.size else out


def _format_nodes(nodes, limit: int = 10) -> str:
    nodes = list(nodes)
    head = ", ".join(str(v) for v in nodes[:limit])
    if len(nodes) > limit:
        head += f", ... ({len(nodes)} total)"
    return head


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if (
        isinstance(edges, tuple)
        and len(edges) == 3
        and all(isinstance(a, np.ndarray) for a in edges)
    ):
        src, dst, w = edges
    else:
        rows = list(edges)
        if not rows:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValidationError("edges must be (i, j, w) triples")
        src, dst, w = arr[:, 0], arr[:, 1], arr[:, 2]
        if np.any(src != np.floor(src)) or np.any(dst != np.floor(dst)):
            raise ValidationError("node ids must be integers")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if not (src.shape == dst.shape == w.shape):
        raise ValidationError("edge arrays must have equal length")
    return src, dst, w


def build_graph(n: int, edges) -> Graph:
    """Build an undirected graph from an edge list.

    Parameters
    ----------
    n : total node count; ids must lie in ``[0, n)``.
    edges : sequence of ``(i, j, w)`` triples with finite ``w > 0``, or a tuple of
        three aligned arrays. Input is treated as undirected; duplicate pairs
        (in either orientation) have their weights summed. Self-loops are
        permitted.

    Raises
    ------
    ValidationError : on out-of-range ids, or weights that are not positive
        and finite.
    IsolatedNodeError : if any node ends up with zero degree.
    """
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


def transition_apply(g: Graph, v) -> np.ndarray:
    """Apply the degree-normalized adjacency operator: ``u_i = (1/d_i) sum_j A_ij v_j``.

    One pass over the stored entries. Preserves the all-ones vector exactly
    because every row of the operator sums to one: ``g.degrees`` holds the
    same ``reduceat`` row sums of the weights that this function computes.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValidationError(f"vector length {v.shape} does not match node count {g.n}")
    contrib = g.weights * v[g.indices]
    # no empty rows (degrees are positive), so reduceat segments are well formed
    return np.add.reduceat(contrib, g.indptr[:-1]) / g.degrees


def directed_to_bipartite(n: int, arcs) -> Graph:
    """Lift a directed graph on ``n`` nodes to an undirected bipartite graph on ``2n``.

    Arc ``(i, j, w)`` becomes the undirected edge ``(i, n + j, w)``. Node
    ``i`` in ``[0, n)`` is the source copy of node ``i`` (its outgoing role)
    and node ``n + i`` the destination copy (incoming role).
    """
    src, dst, w = _edge_arrays(arcs)
    if src.size and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValidationError(f"arc endpoint out of range [0, {n})")
    try:
        return build_graph(2 * n, (src, dst + n, w))
    except IsolatedNodeError as exc:
        names = [
            f"source copy of node {c}" if c < n else f"destination copy of node {c - n}"
            for c in exc.nodes
        ]
        raise IsolatedNodeError(
            "bipartite lift leaves isolated copies: " + "; ".join(names), exc.nodes
        ) from None


def connected_components(g: Graph) -> list[np.ndarray]:
    """Partition nodes by connectivity (breadth-first); each component is a
    sorted array of node ids, ordered by smallest member."""
    seen = np.zeros(g.n, dtype=bool)
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        frontier = np.array([start], dtype=np.int64)
        members = [frontier]
        while frontier.size:
            nbrs = g.indices[_concat_ranges(g.indptr, frontier)]
            nbrs = _sorted_unique(nbrs[~seen[nbrs]])
            seen[nbrs] = True
            members.append(nbrs)
            frontier = nbrs
        components.append(np.sort(np.concatenate(members)))
    return components


def _concat_ranges(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Indices of all CSR entries belonging to ``nodes``, concatenated."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)


@dataclass(frozen=True)
class NodePartition:
    """Ground-truth class labels, one optional label per node.

    ``labels[i]`` is in ``[1, num_labels]`` for labeled nodes and 0 for
    unlabeled ones.
    """

    labels: np.ndarray
    num_labels: int

    def __post_init__(self):
        object.__setattr__(self, "labels", np.ascontiguousarray(self.labels, dtype=np.int64))
        if self.num_labels < 1:
            raise ValidationError("need at least one class")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > self.num_labels):
            raise ValidationError(f"labels must lie in [0, {self.num_labels}] (0 = unlabeled)")
        self.labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.labels.size

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels > 0)
