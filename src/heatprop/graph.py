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
    degrees are computed, not given: they are the row sums of the weights by
    ``np.add.reduceat``, and ``transition_apply`` adds each row's products
    in that reduction's order (``_sum_layout``), so every row of the
    transition operator sums to exactly one.
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
        # unique, sorted columns within each row: a column may fail to
        # increase only at a position where a row starts
        drops = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
        increasing = not np.any(indptr[np.searchsorted(indptr, drops)] != drops)
        if indices.size:
            if increasing:  # a row's first and last entries are its extremes
                nonempty = np.diff(indptr) > 0
                lo, hi = indices[indptr[:-1][nonempty]].min(), indices[indptr[1:][nonempty] - 1].max()
            else:
                lo, hi = indices.min(), indices.max()
            if lo < 0 or hi >= n:
                raise ValidationError("column index out of range")
        if not weights.min(initial=np.inf) > 0:  # also false for NaN
            raise ValidationError("all edge weights must be positive")
        if not increasing:
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
        """Read-only ``connected_components`` index of the graph, computed on
        first use and kept with it."""
        ids = connected_components(self)
        ids.setflags(write=False)
        return ids

    @cached_property
    def unit_weights(self) -> bool:
        """Whether every weight is exactly 1.0, as on an unweighted graph.
        Computed on first use and kept with the graph."""
        return bool(self.weights.min() == 1.0 == self.weights.max())

    @cached_property
    def _sum_layout(self) -> _SumLayout:
        """The order in which ``transition_apply`` reads and adds the stored
        entries, built on first use and kept with the graph."""
        first, tail = self.indptr[:-1], np.diff(self.indptr) - 1
        short = np.flatnonzero(tail <= _PAIRWISE_BLOCKSIZE)
        long = np.flatnonzero(tail > _PAIRWISE_BLOCKSIZE)
        # descending by remainder and by block count, as uint8 keys, which
        # the stable argsort sorts by radix
        by_rest = short[np.argsort((7 - tail[short] % 8).astype(np.uint8), kind="stable")]
        by_blocks = short[np.argsort((_PAIRWISE_BLOCKSIZE // 8 - tail[short] // 8).astype(np.uint8), kind="stable")]
        blocks, rest = _counts_above(tail[by_blocks] // 8), _counts_above(tail[by_rest] % 8)
        rest_start = first[by_rest] + 1 + tail[by_rest] // 8 * 8
        lanes = np.arange(8)[:, None]
        positions = np.concatenate([
            *((first[by_blocks[:c]] + 1 + 8 * b + lanes).ravel() for b, c in enumerate(blocks)),
            *(rest_start[:c] + j for j, c in enumerate(rest)),
            first[by_rest],
            _concat_ranges(self.indptr, long),
        ])
        place = np.empty(self.n, dtype=np.int64)
        place[np.concatenate([by_rest, long])] = np.arange(self.n)
        return _SumLayout(
            place=place,
            columns=self.indices[positions],
            weights=None if self.unit_weights else self.weights[positions],
            blocks=blocks,
            blocked=place[by_blocks[tail[by_blocks] >= 8]],
            rest=rest,
            long_starts=np.cumsum(tail[long] + 1) - (tail[long] + 1),
        )

    @property
    def num_edges(self) -> int:
        """Number of undirected edges; a self-loop counts as one edge."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        loops = int(np.count_nonzero(rows == self.indices))
        return (self.indices.size + loops) // 2

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edge list (i <= j) with weights."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = rows <= self.indices
        return rows[keep], self.indices[keep], self.weights[keep]


@dataclass(frozen=True)
class BlockGraph:
    """Complete weighted undirected graph, stored as its K distinct rows.

    Block ``a`` is the next ``sizes[a]`` nodes, each joined to every node of
    block ``b``, itself included, with weight ``table[a, b]`` (symmetric,
    positive). ``rows[a]`` is their adjacency row and ``degrees`` their row
    sums by ``Graph``'s reduction, K·n floats in all. Every pair of nodes is
    joined, so ``component_ids`` are zeros; ``indices`` are ``rows``' columns."""

    sizes: np.ndarray
    table: np.ndarray
    rows: np.ndarray = field(init=False)
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        sizes = np.array(self.sizes, dtype=np.int64)
        rows = np.repeat(np.asarray(self.table, dtype=np.float64), sizes, axis=1)
        with np.errstate(over="ignore"):  # an overflow is reported below
            sums = _row_sums(np.arange(sizes.size + 1) * rows.shape[1], rows.ravel())
        if not np.all(np.isfinite(sums)):
            raise ValidationError("edge weights and their row sums must be finite")
        for name, arr in (("sizes", sizes), ("rows", rows), ("degrees", np.repeat(sums, sizes))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def component_ids(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.int64)

    @property
    def indices(self) -> np.ndarray:
        return np.broadcast_to(np.arange(self.n), self.rows.shape)


# numpy's pairwise sum (``pairwise_sum`` in its ``loops_utils.h.src``) splits
# a segment longer than this in two and recurses
_PAIRWISE_BLOCKSIZE = 128


@dataclass(frozen=True)
class _SumLayout:
    """A ``Graph``'s stored entries laid out for ``transition_apply``.

    ``np.add.reduceat`` takes a row's first entry and adds to it numpy's
    pairwise sum of the row's other ``L`` entries. For ``L <= 128`` that sum
    is: eight accumulators, one per lane, over the ``L // 8`` full blocks of
    8; their tree ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` (or -0.0 when there
    is no block); then the ``L % 8`` remaining entries one by one. Longer
    rows keep ``reduceat`` on their own segments. The short rows are sorted
    twice, by descending block count and by descending remainder, so that
    the rows that still add a b-th block, or a j-th remaining entry, lead
    their order. The matvec then makes one gather and one vector add per
    step."""

    place: np.ndarray  # where each row's sum is: short rows by remainder, then long rows
    columns: np.ndarray  # the column of each entry, in the order they are read
    weights: np.ndarray | None  # their weights; None when every weight is 1.0
    blocks: tuple[int, ...]  # how many rows add a b-th block, for each b
    blocked: np.ndarray  # ``place`` of each row with a block, in block order
    rest: tuple[int, ...]  # how many leading short rows add a j-th remaining entry
    long_starts: np.ndarray  # offset of each long row within the long rows' entries


def _counts_above(values: np.ndarray) -> tuple[int, ...]:
    """How many of the nonnegative ``values`` exceed j, for j < their maximum."""
    return tuple(np.cumsum(np.bincount(values)[::-1])[-2::-1].tolist())


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of CSR ``values`` by ``np.add.reduceat``, whose order of
    additions ``transition_apply`` keeps; empty rows sum to zero."""
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


def _stable_sort(key: np.ndarray, key_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted values of the nonnegative integer ``key``, all below
    ``2**key_bits``, and the stable order that sorts them, as
    ``np.argsort(key, kind="stable")`` gives them, by a radix sort, least
    significant digit first (Knuth, TAOCP vol. 3, §5.2.5): each pass sorts
    the words ``digit << p | position`` (``p`` bits hold the largest position)
    for the next ``63 - p`` bits of the keys in the order so far, masked so
    that no shift overflows. On 1.6M 64-bit keys one such value sort takes
    13 ms on an AVX-512 Xeon, ``argsort`` 52 ms and its stable kind 190 ms."""
    shift = max(key.size - 1, 0).bit_length()
    width, positions = 63 - shift, (1 << shift) - 1  # bits of a digit; of a position
    words = key << shift if key_bits <= width else (key & ((1 << width) - 1)) << shift
    words |= np.arange(key.size, dtype=words.dtype)
    words.sort()
    order = (words & positions).view(np.int64)
    for low in range(width, key_bits, width):  # the next digit, in the order so far
        np.take(key, order, out=words, mode="clip")
        words >>= low
        words &= (1 << width) - 1
        words <<= shift
        words |= np.arange(key.size, dtype=words.dtype)
        words.sort()
        order = order[np.bitwise_and(words, positions, out=words).view(np.int64)]
    if key_bits > width:  # the passes reuse one buffer, which ends with the keys
        return np.take(key, order, out=words, mode="clip"), order
    words >>= shift
    return words, order


def _format_nodes(nodes) -> str:
    nodes = list(nodes)
    head = ", ".join(str(v) for v in nodes[:10])
    if len(nodes) > 10:
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
    if any(ids.dtype.kind == "f" and np.any(ids != np.floor(ids)) for ids in (src, dst)):
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
    n : total node count; ids, in either form, must be integral and lie in ``[0, n)``.
    edges : sequence of ``(i, j, w)`` triples with finite ``w > 0``, or a tuple of
        three aligned arrays. Input is treated as undirected; duplicate pairs
        (in either orientation) have their weights summed in input order.
        Self-loops are permitted. The rows are assembled by a stable radix
        sort (``_stable_sort``) of the ``row * n + col`` keys of both
        orientations: one value sort at 1M nodes and 2.5M edges, two at 3M and 4M.
        The ``starts`` of the distinct keys are built only when duplicate
        pairs exist; each large array is freed after its last use.

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

    # both orientations of each pair (a self-loop once) under one key, row * n + col
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    off = lo != hi
    key = np.concatenate([lo * n + hi, hi[off] * n + lo[off]])
    del lo, hi
    # a stable order keeps each pair's copies in input order, so that its
    # weights sum in input order
    key, order = _stable_sort(key, (int(n) ** 2 - 1).bit_length())
    vals = np.concatenate([w, w[off]])[order]
    del order
    if np.any(key[1:] == key[:-1]):  # duplicate pairs: one entry each, weights summed
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        vals, key = np.add.reduceat(vals, starts), key[starts]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(key // n, minlength=n))))
    return Graph(n=n, indptr=indptr, indices=key % n, weights=vals)


def transition_apply(g: Graph | BlockGraph, v) -> np.ndarray:
    """Apply the degree-normalized adjacency operator: ``u_i = (1/d_i) sum_j A_ij v_j``.

    One pass over the stored entries. The row sums equal
    ``np.add.reduceat(g.weights * v[g.indices], g.indptr[:-1])`` to the bit,
    so the all-ones vector is preserved exactly (``g.degrees`` are the
    ``reduceat`` row sums of the weights): each row's products are added in
    numpy's pairwise order (see ``_SumLayout``), by one gather and one vector
    add per step in place of one segment per row. The sum of a row's entries
    after its first starts from -0.0, as numpy's does: adding -0.0 leaves
    every float as it is, -0.0 included, where +0.0 would turn -0.0 into
    +0.0. Two shortcuts leave the result the same to the bit: graphs whose
    weights are all 1.0 (``g.unit_weights``) skip the multiply, and a
    ``BlockGraph`` sums each of its K rows times ``v`` once for its block.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValidationError(f"vector length {v.shape} does not match node count {g.n}")
    if isinstance(g, BlockGraph):
        sums = np.add.reduceat((g.rows * v).ravel(), np.arange(g.sizes.size) * g.n)
        return np.repeat(sums, g.sizes) / g.degrees
    layout = g._sum_layout
    x = v.take(layout.columns)
    if layout.weights is not None:
        x *= layout.weights
    short = g.n - layout.long_starts.size
    acc = np.full(short, -0.0)  # each short row's sum after its first entry
    at = 0
    if layout.blocks:
        lanes = x[: 8 * layout.blocks[0]].reshape(8, -1)
        at = lanes.size
        for c in layout.blocks[1:]:
            lanes[:, :c] += x[at : at + 8 * c].reshape(8, c)
            at += 8 * c
        pairs = lanes[0::2] + lanes[1::2]
        acc[layout.blocked] = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for c in layout.rest:
        acc[:c] += x[at : at + c]
        at += c
    sums = np.empty(g.n)
    np.add(x[at : at + short], acc, out=sums[:short])
    if layout.long_starts.size:
        sums[short:] = np.add.reduceat(x[at + short :], layout.long_starts)
    return sums.take(layout.place) / g.degrees


def directed_to_bipartite(n: int, arcs, names=None) -> Graph:
    """Lift a directed graph on ``n`` nodes to an undirected bipartite graph on ``2n``.

    Arc ``(i, j, w)`` becomes the undirected edge ``(i, n + j, w)``. Node
    ``i`` in ``[0, n)`` is the source copy of node ``i`` (its outgoing role)
    and node ``n + i`` the destination copy (incoming role). An error names
    node ``i`` by ``names[i]`` when ``names`` is given.
    """
    src, dst, w = _edge_arrays(arcs)
    if src.size and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValidationError(f"arc endpoint out of range [0, {n})")
    try:
        return build_graph(2 * n, (src, dst + n, w))
    except IsolatedNodeError as exc:
        node = names.__getitem__ if names else int
        copies = [
            f"source copy of node {node(c)!r}" if c < n else f"destination copy of node {node(c - n)!r}"
            for c in exc.nodes[:10]
        ]
        if len(exc.nodes) > 10:
            copies.append(f"... ({len(exc.nodes)} total)")
        raise IsolatedNodeError(
            "bipartite lift leaves isolated copies: " + "; ".join(copies), exc.nodes
        ) from None


def connected_components(g: Graph) -> np.ndarray:
    """The int64 index of each node's connected component, found breadth
    first, with the components numbered 0, 1, ... by smallest member. The
    search stops once every node is seen."""
    ids = np.empty(g.n, dtype=np.int64)
    seen = np.zeros(g.n, dtype=bool)
    unseen = g.n
    component = 0
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        ids[start] = component
        unseen -= 1
        frontier = np.array([start], dtype=np.int64)
        while frontier.size and unseen:
            nbrs = g.indices[_concat_ranges(g.indptr, frontier)]
            nbrs = _sorted_unique(nbrs[~seen[nbrs]])
            seen[nbrs] = True
            ids[nbrs] = component
            unseen -= nbrs.size
            frontier = nbrs
        component += 1
        if not unseen:
            break
    return ids


def _concat_ranges(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Indices of all CSR entries belonging to ``nodes``, concatenated."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(counts.sum(), dtype=np.int64) + np.repeat(starts - offsets, counts)


@dataclass(frozen=True)
class NodePartition:
    """Ground-truth class labels, one optional label per node.

    ``labels[i]`` is in ``[1, num_labels]`` for labeled nodes and 0 for
    unlabeled ones. Every label in ``[1, num_labels]`` is carried by at
    least one node.
    """

    labels: np.ndarray
    num_labels: int

    def __post_init__(self):
        object.__setattr__(self, "labels", np.ascontiguousarray(self.labels, dtype=np.int64))
        if self.num_labels < 1:
            raise ValidationError("need at least one class")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > self.num_labels):
            raise ValidationError(f"labels must lie in [0, {self.num_labels}] (0 = unlabeled)")
        unused = np.flatnonzero(np.bincount(self.labels, minlength=self.num_labels + 1)[1:] == 0) + 1
        if unused.size:
            raise ValidationError(f"label(s) carried by no node: {unused.tolist()}")
        self.labels.setflags(write=False)

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels > 0)
