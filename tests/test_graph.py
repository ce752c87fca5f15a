import re

import numpy as np
import pytest

from heatprop import (
    BlockModelParams,
    Graph,
    IsolatedNodeError,
    NodePartition,
    ValidationError,
    build_deterministic_block_graph,
    build_graph,
    connected_components,
    directed_to_bipartite,
    sbm_generate,
    transition_apply,
)
import heatprop.graph
from heatprop.graph import BlockGraph, _sorted_unique, _stable_sort
from conftest import count_calls, dense_from_edges, path_graph, random_connected_graph
from reference import dense_adjacency, two_stage_build_graph, validate_layout


class TestBuildGraph:
    def test_single_edge_degrees(self):
        g = build_graph(2, [(0, 1, 1.0)])
        assert np.array_equal(g.degrees, [1.0, 1.0])
        assert g.num_edges == 1

    def test_path_degrees(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert np.array_equal(g.degrees, [1.0, 2.0, 1.0])

    def test_duplicate_edges_summed_then_isolation_error(self):
        with pytest.raises(IsolatedNodeError, match="2"):
            build_graph(3, [(0, 1, 2.0), (0, 1, 3.0)])
        # same edges on a 2-node graph: duplicates merge to weight 5
        g = build_graph(2, [(0, 1, 2.0), (0, 1, 3.0)])
        assert dense_adjacency(g)[0, 1] == 5.0
        assert np.array_equal(g.degrees, [5.0, 5.0])

    def test_reversed_duplicates_merge(self):
        g = build_graph(2, [(0, 1, 2.0), (1, 0, 3.0)])
        assert dense_adjacency(g)[0, 1] == 5.0

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError, match="weight"):
            build_graph(2, [(0, 1, 0.0)])
        with pytest.raises(ValidationError, match="weight"):
            build_graph(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValidationError, match="non-finite weight"):
            build_graph(3, [(0, 1, weight), (1, 2, 1.0)])

    @pytest.mark.parametrize(
        "weights, message",
        [([np.nan, np.nan], "must be positive"), ([np.inf, np.inf], "must be finite"),
         ([1e308, 1e308, 1e308, 1e308], "must be finite")],
        ids=["nan", "inf", "row-sum-overflow"],
    )
    def test_graph_rejects_non_finite_weights_and_row_sums(self, weights, message):
        # two nodes joined by one edge, or by two parallel entries whose sum overflows
        indptr, indices = ([0, 1, 2], [1, 0]) if len(weights) == 2 else ([0, 2, 4], [0, 1, 0, 1])
        with pytest.raises(ValidationError, match=message):
            Graph(n=2, indptr=np.array(indptr), indices=np.array(indices), weights=np.array(weights))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("build", [build_graph, directed_to_bipartite], ids=["build_graph", "bipartite"])
    @pytest.mark.parametrize("form", ["triples", "arrays"])
    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_rejects_fractional_ids(self, build, form, end):
        ids = (np.array([0.5, 1.7]), np.array([1.0, 2.0]))
        src, dst = ids if end == "src" else ids[::-1]
        edges = (src, dst, np.ones(2))
        with pytest.raises(ValidationError, match="node ids must be integers"):
            build(3, list(zip(*edges)) if form == "triples" else edges)

    def test_integral_float_ids_accepted(self):
        g = build_graph(3, (np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.ones(2)))
        assert g.indices.tolist() == [1, 0, 2, 1]

    def test_self_loop_counts_once_in_degree(self):
        g = build_graph(2, [(0, 0, 2.0), (0, 1, 1.0)])
        assert np.array_equal(g.degrees, [3.0, 1.0])
        assert g.num_edges == 2

    def test_adjacency_matches_independent_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = random_connected_graph(rng, n, extra_edges=n)
            # rebuild the same edge list independently
            src, dst, w = g.edges()
            dense = dense_from_edges(n, zip(src, dst, w))
            assert np.allclose(dense_adjacency(g), dense)
            assert np.allclose(dense_adjacency(g), dense_adjacency(g).T)

    def test_degree_sum_equals_twice_total_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            edges = []
            total = 0.0
            for _ in range(n * 2):
                i, j = rng.choice(n, size=2, replace=False)
                w = float(rng.uniform(0.1, 2.0))
                edges.append((int(i), int(j), w))
                total += w
            try:
                g = build_graph(n, edges)
            except IsolatedNodeError:
                continue
            assert g.degrees.sum() == pytest.approx(2.0 * total, rel=1e-12)


class TestTransitionApply:
    def test_path_averaging(self):
        g = path_graph(3)
        assert np.allclose(transition_apply(g, [1.0, 0.0, 0.0]), [0.0, 0.5, 0.0])

    def test_row_stochastic_preserves_ones(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 50)), extra_edges=10)
            out = transition_apply(g, np.ones(g.n))
            assert np.array_equal(out, np.ones(g.n))
        # a complete block graph: summed in another order, its long rows of
        # equal weights could miss one in the last bit; BlockGraph takes
        # every degree with the operator's own row reduction
        params = BlockModelParams(sizes=(50, 50), seed_counts=(1, 1), p=2 / 3, q=0.1)
        g, _ = build_deterministic_block_graph(params)
        assert np.array_equal(transition_apply(g, np.ones(g.n)), np.ones(g.n))

    def test_weighted_triangle_hand_computed(self):
        g = build_graph(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)])
        out = transition_apply(g, [1.0, 0.0, 0.0])
        assert np.allclose(out, [0.0, 2.0 / 3.0, 0.5], atol=1e-15)

    def test_matches_dense_operator(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(2, 200))
            g = random_connected_graph(rng, n, extra_edges=n // 2)
            dense = dense_adjacency(g) / g.degrees[:, None]
            v = rng.normal(size=n)
            assert np.abs(transition_apply(g, v) - dense @ v).max() < 1e-12

    @pytest.mark.parametrize(
        "case",
        ["unweighted-sbm", "merged-pairs", "weighted-karate", "complete-blocks", "complete-unit",
         "self-loop", "near-complete", "mixed-lengths-unit", "mixed-lengths-weighted"],
    )
    def test_equals_the_weighted_reduction_to_the_bit(self, case, karate):
        # unit weights skip the multiply; complete graphs built here take the
        # same sparse path; the result must not move by a bit
        rng = np.random.default_rng(185)
        if case.startswith("mixed-lengths"):
            g = mixed_length_graph(rng, weighted=case.endswith("weighted"))
            assert np.array_equal(transition_apply(g, np.ones(g.n)), np.ones(g.n))
        elif case == "unweighted-sbm":
            params = BlockModelParams(sizes=(300, 200), seed_counts=(3, 2), p=0.05, q=0.01)
            g = sbm_generate(params, 0)[0]
        elif case == "merged-pairs":
            # unit weights, half the pairs given twice in a random orientation:
            # the lightest weight is 1.0, the merged pairs weigh 2
            lo, hi, _ = random_connected_graph(rng, 200, extra_edges=300).edges()
            twice = rng.random(lo.size) < 0.5
            flip = rng.random(lo.size) < 0.5
            src = np.concatenate([lo, np.where(flip, hi, lo)[twice]])
            dst = np.concatenate([hi, np.where(flip, lo, hi)[twice]])
            g = build_graph(200, (src, dst, np.ones(src.size)))
            assert set(g.weights.tolist()) == {1.0, 2.0}
        elif case == "weighted-karate":
            lo, hi, _ = karate.graph.edges()
            g = build_graph(karate.graph.n, (lo, hi, rng.uniform(0.1, 3.0, size=lo.size)))
        elif case == "complete-blocks":
            g = complete_block_graph()
        elif case == "complete-unit":
            g = complete_block_graph((30, 20), 1.0, 1.0)
        elif case == "self-loop":
            g = build_graph(1, [(0, 0, 0.75)])
        else:
            # every pair but one self-loop: one entry short of complete
            lo, hi = np.triu_indices(25)
            keep = (lo != 3) | (hi != 3)
            g = build_graph(25, (lo[keep], hi[keep], rng.uniform(0.1, 3.0, size=keep.sum())))
        assert g.unit_weights is (case in ("unweighted-sbm", "complete-unit", "mixed-lengths-unit"))
        if case.startswith("complete") or case == "self-loop":
            assert g.indices.size == g.n * g.n
        elif case == "near-complete":
            assert g.indices.size == g.n * g.n - 1
        assert_reduction_to_the_bit(g, rng)

    def test_random_sparse_graphs_equal_the_reduction_to_the_bit(self):
        # rows of every length and both kinds of weight; a row sum of -0.0
        # must stay -0.0
        rng = np.random.default_rng(187)
        for _ in range(40):
            n = int(rng.integers(2, 400))
            src = rng.integers(0, n, size=int(rng.integers(n, 6 * n)))
            dst = rng.integers(0, n, size=src.size)
            hubs = np.repeat(rng.integers(0, n, size=3), rng.integers(0, 300, size=3))
            src = np.concatenate([src, hubs, np.arange(n)])
            dst = np.concatenate([dst, rng.integers(0, n, size=hubs.size), (np.arange(n) + 1) % n])
            weights = np.ones(src.size) if rng.random() < 0.5 else rng.uniform(1e-3, 1e3, size=src.size)
            assert_reduction_to_the_bit(build_graph(n, (src, dst, weights)), rng)

    def test_complete_graph_reads_no_column_index(self, monkeypatch):
        # a BlockGraph multiplies its rows in column order: its column index
        # is there for tracing only
        rng = np.random.default_rng(186)
        params = BlockModelParams(sizes=(40, 30, 20), seed_counts=(2, 1, 1), p=0.6, q=0.15)
        g = build_deterministic_block_graph(params)[0]
        monkeypatch.setattr(BlockGraph, "indices", property(lambda self: pytest.fail("indices read")))
        for v in (rng.normal(size=g.n), rng.uniform(size=g.n)):
            assert np.array_equal(transition_apply(g, v), transition_apply(complete_block_graph(), v))

    def test_dimension_mismatch(self):
        g = path_graph(3)
        with pytest.raises(ValidationError):
            transition_apply(g, [1.0, 2.0])


def runs_of(g: Graph) -> BlockGraph:
    """A complete graph as its runs of equal consecutive rows: one block per
    run, weighing what the run's first row holds in each run's first column."""
    w = dense_adjacency(g)
    starts = np.concatenate(([0], np.flatnonzero(np.any(w[1:] != w[:-1], axis=1)) + 1))
    return BlockGraph(sizes=np.diff(np.append(starts, g.n)), table=w[np.ix_(starts, starts)])


def _assert_same_operator(block: BlockGraph, g: Graph, rng):
    """``block`` has the degrees and the matvec of ``g``, to the bit."""
    assert block.n == g.n and np.array_equal(block.degrees, g.degrees)
    for v in (rng.normal(size=g.n), rng.uniform(size=g.n), np.ones(g.n)):
        assert np.array_equal(transition_apply(block, v), transition_apply(g, v))


class TestRowRuns:
    """A complete graph is its runs of equal consecutive rows: the
    ``BlockGraph`` of one block per run has the degrees and the matvec of
    the ``Graph`` that stores all n² entries, to the bit."""

    @pytest.mark.parametrize("sizes", [(7,), (9, 3), (5, 11, 1), (3, 5, 7, 9), (1, 3, 5, 7, 13)])
    def test_block_graphs_have_one_run_per_block(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        p, q = rng.uniform(0.2, 3.0, size=2)
        params = BlockModelParams(sizes=sizes, seed_counts=(1,) * len(sizes), p=p, q=q)
        g = build_deterministic_block_graph(params)[0]
        assert g.rows.shape == (len(sizes), params.n)
        assert np.array_equal(g.sizes, sizes)
        _assert_same_operator(g, complete_block_graph(sizes, p, q), rng)

    def test_complete_unit_graph_is_one_run(self):
        lo, hi = np.triu_indices(23)
        g = build_graph(23, (lo, hi, np.ones(lo.size)))
        assert g.indices.size == g.n * g.n and g.unit_weights
        assert runs_of(g).sizes.tolist() == [23]
        _assert_same_operator(runs_of(g), g, np.random.default_rng(3))

    def test_distinct_rows_are_runs_of_one(self):
        rng = np.random.default_rng(4)
        lo, hi = np.triu_indices(40)
        g = build_graph(40, (lo, hi, rng.uniform(0.1, 3.0, size=lo.size)))
        assert runs_of(g).sizes.tolist() == [1] * 40
        _assert_same_operator(runs_of(g), g, rng)

    def test_interleaved_blocks_split_into_runs(self):
        # a block graph whose nodes are shuffled: equal rows are not all adjacent
        rng = np.random.default_rng(5)
        block = rng.integers(0, 3, size=45)
        lo, hi = np.triu_indices(45)
        g = build_graph(45, (lo, hi, np.where(block[lo] == block[hi], 0.9, 0.2)))
        dense = g.weights.reshape(g.n, g.n).tolist()
        starts = [i for i in range(g.n) if i == 0 or dense[i] != dense[i - 1]]
        assert runs_of(g).sizes.tolist() == np.diff(starts + [g.n]).tolist()
        assert 3 < len(starts) < g.n
        _assert_same_operator(runs_of(g), g, rng)

    def test_single_node(self):
        g = build_graph(1, [(0, 0, 0.75)])
        assert runs_of(g).sizes.tolist() == [1]
        _assert_same_operator(runs_of(g), g, np.random.default_rng(6))

    def test_block_graph_multiplies_one_row_per_block(self, monkeypatch):
        params = BlockModelParams(sizes=(40, 30, 20), seed_counts=(2, 1, 1), p=0.6, q=0.15)
        g = build_deterministic_block_graph(params)[0]
        sizes = []

        class Add:
            def reduceat(self, values, starts):
                sizes.append(values.size)
                return np.add.reduceat(values, starts)

        class Numpy:
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(heatprop.graph, "np", Numpy())
        transition_apply(g, np.ones(g.n))
        assert sizes == [3 * g.n]


def assert_reduction_to_the_bit(g: Graph, rng):
    """``transition_apply`` returns the bytes of one ``np.add.reduceat`` over
    the weighted entries, on vectors that hold +0.0 and -0.0 among others."""
    vectors = [
        rng.normal(size=g.n), rng.uniform(size=g.n), np.ones(g.n), np.full(g.n, -0.0),
        rng.choice([0.0, -0.0], size=g.n), np.where(rng.random(g.n) < 0.8, -0.0, rng.normal(size=g.n)),
    ]
    for v in vectors:
        expect = np.add.reduceat(g.weights * v[g.indices], g.indptr[:-1]) / g.degrees
        assert transition_apply(g, v).tobytes() == expect.tobytes()


# row lengths on both sides of each branch of numpy's pairwise sum of the
# L entries after a row's first: L under 8, blocks of 8 up to L = 128, and
# the recursive split above
MIXED_LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 24, 25, 128, 129, 130, 257)


def mixed_length_graph(rng, weighted: bool) -> Graph:
    """Stars whose centres have the ``MIXED_LENGTHS`` above 1, each with
    leaves of its own (rows of length 1), in a shuffled numbering."""
    centres = [d for d in MIXED_LENGTHS if d > 1]
    n = len(centres) + sum(centres)
    node = rng.permutation(n)
    src = node[np.repeat(np.arange(len(centres)), centres)]
    dst = node[len(centres):]
    g = build_graph(n, (src, dst, rng.uniform(0.1, 3.0, size=src.size) if weighted else np.ones(src.size)))
    assert sorted(set(np.diff(g.indptr).tolist())) == list(MIXED_LENGTHS)
    return g


def complete_block_graph(sizes=(40, 30, 20), p=0.6, q=0.15) -> Graph:
    """The complete block graph, built through ``build_graph`` from every
    pair of nodes: weight ``p`` within a block, ``q`` across."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    lo, hi = np.triu_indices(block.size)
    return build_graph(block.size, (lo, hi, np.where(block[lo] == block[hi], p, q)))


class TestValidateMatchesReference:
    """``Graph`` accepts and rejects what ``validate_layout`` does, with the
    same exception type and message, and returns the same degrees."""

    def test_random_layouts(self):
        rng = np.random.default_rng(187)
        outcomes = {}
        for _ in range(4000):
            n, indptr, indices, weights = random_layout(rng)
            try:
                expect = validate_layout(
                    n,
                    np.ascontiguousarray(indptr, dtype=np.int64),
                    np.ascontiguousarray(indices, dtype=np.int64),
                    np.ascontiguousarray(weights, dtype=np.float64),
                )
            except ValidationError as exc:
                expect = exc
            try:
                got = Graph(n=n, indptr=indptr, indices=indices, weights=weights).degrees
            except ValidationError as exc:
                got = exc
            if isinstance(expect, Exception):
                assert type(got) is type(expect) and str(got) == str(expect), (n, indptr, indices, weights)
                key = str(expect).split(":")[0]
            else:
                assert got.tobytes() == expect.tobytes()
                key = "accepted"
            outcomes[key] = outcomes.get(key, 0) + 1
        # every check is reached, and most layouts are malformed
        assert len(outcomes) == 10, outcomes
        assert outcomes["accepted"] < 1000, outcomes


def random_layout(rng):
    """A random CSR layout with up to three defects, so that several checks
    can fail at once and their order decides the outcome."""
    n = int(rng.integers(1, 9))
    counts = rng.integers(0, n + 1, size=n) if rng.random() < 0.3 else rng.integers(1, n + 1, size=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.concatenate([np.sort(rng.choice(n, size=c, replace=False)) for c in counts]).astype(np.int64)
    weights = rng.uniform(0.1, 3.0, size=indices.size)
    for _ in range(int(rng.integers(0, 4))):
        defect = int(rng.integers(0, 10))
        nnz = indices.size
        if defect == 0 and rng.random() < 0.2:
            n = int(rng.integers(-1, 1))
        elif defect == 0:
            indptr = indptr.copy()
            where = ("shape", "first", "last")[int(rng.integers(0, 3))]
            if where == "shape":
                indptr = indptr[:-1]
            else:
                indptr[0 if where == "first" else -1] += int(rng.choice([-1, 1]))
        elif defect == 1 and indptr.size > 2:
            indptr = indptr.copy()
            i = int(rng.integers(1, indptr.size - 1))
            indptr[i] = indptr[-1] + 1  # a row offset past its successor
        elif defect == 2:
            weights = np.append(weights, 1.0)
        elif defect in (3, 4) and nnz:
            indices = indices.copy()
            indices[rng.integers(0, nnz)] = rng.choice([-1, n, n + 5, -100])
        elif defect == 5 and nnz:
            weights = weights.copy()
            weights[rng.integers(0, nnz)] = rng.choice([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 1e308])
        elif defect in (6, 7) and nnz > 1:
            # a repeated or decreasing column, inside a row or at a row start
            indices = indices.copy()
            k = int(rng.integers(1, nnz))
            indices[k] = indices[k - 1] if defect == 6 else indices[k - 1] - int(rng.integers(0, 3))
        elif defect == 8 and nnz > 1:
            indices = rng.permutation(indices)
        elif defect == 9 and n > 1:
            # empty one row, keeping the total entry count
            counts = np.diff(indptr)
            if counts.size == n and counts.min(initial=0) >= 0:
                i, j = rng.choice(n, size=2, replace=False)
                counts = counts.copy()
                counts[j] += counts[i]
                counts[i] = 0
                indptr = np.concatenate(([0], np.cumsum(counts)))
    return n, indptr, indices, weights


class TestBipartiteLift:
    def test_single_arc_places_edge_but_leaves_dead_copies(self):
        # arc (0,1) alone would put its one edge at (0, 3) while leaving the
        # source copy of 1 and the destination copy of 0 with zero degree
        with pytest.raises(IsolatedNodeError) as exc:
            directed_to_bipartite(2, [(0, 1, 1.0)])
        assert "source copy of node 1" in str(exc.value)
        assert "destination copy of node 0" in str(exc.value)

    def test_two_cycle_edges(self):
        g = directed_to_bipartite(2, [(0, 1, 1.0), (1, 0, 1.0)])
        dense = dense_adjacency(g)
        assert dense[0, 3] == 1.0 and dense[1, 2] == 1.0
        assert dense.sum() == 4.0  # exactly two undirected edges

    def test_isolated_copies_detected(self):
        # src degrees [2,1,0], dst degrees [0,1,2]: two dead copies
        with pytest.raises(IsolatedNodeError) as exc:
            directed_to_bipartite(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        assert "destination copy of node 0" in str(exc.value)
        assert "source copy of node 2" in str(exc.value)

    def test_output_is_bipartite(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            arcs = [(i, (i + 1) % n, 1.0) for i in range(n)]  # directed cycle
            extra = int(rng.integers(0, 3 * n))
            for _ in range(extra):
                i, j = rng.choice(n, size=2, replace=False)
                arcs.append((int(i), int(j), float(rng.uniform(0.5, 2.0))))
            g = directed_to_bipartite(n, arcs)
            rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
            same_side = (rows < n) == (g.indices < n)
            assert not same_side.any()


class TestConnectedComponents:
    def test_path_single_component(self):
        ids = connected_components(path_graph(3))
        assert ids.dtype == np.int64
        assert ids.tolist() == [0, 0, 0]

    def test_two_disjoint_edges(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert connected_components(g).tolist() == [0, 0, 1, 1]
        assert g.component_ids.tolist() == [0, 0, 1, 1]
        assert not g.component_ids.flags.writeable

    def test_karate_is_one_component(self, karate):
        assert connected_components(karate.graph).tolist() == [0] * 34

    def test_complete_graph_stops_after_first_expansion(self, monkeypatch):
        g = complete_block_graph((30, 20, 1), 2.0, 0.5)
        calls = count_calls(monkeypatch, heatprop.graph, "_concat_ranges")
        ids = connected_components(g)
        # node 0's neighbors are every node, so no frontier is expanded after it
        assert len(calls) == 1
        assert np.array_equal(ids, np.zeros(g.n))

    def test_many_small_components_match_union_find(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            pairs = int(rng.integers(1, 60))
            n = 2 * pairs + 1
            # random disjoint pairs, a few edges that join pairs, and a last
            # node alone with its self-loop
            order = rng.permutation(n - 1)
            extra = int(rng.integers(0, pairs // 2 + 1))
            src = np.concatenate([order[0::2], rng.integers(0, n - 1, extra), [n - 1]])
            dst = np.concatenate([order[1::2], rng.integers(0, n - 1, extra), [n - 1]])
            g = build_graph(n, (src, dst, np.ones(src.size)))
            expect = union_find_components(n, src.tolist(), dst.tolist())
            assert expect[-1] == [n - 1]
            ids = np.empty(n, dtype=np.int64)
            for c, members in enumerate(expect):
                ids[members] = c
            assert connected_components(g).tolist() == ids.tolist()
            assert g.component_ids.tolist() == ids.tolist()


def union_find_components(n, src, dst):
    """Sorted member lists of the components of the edges ``(src, dst)``,
    ordered by smallest member, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src, dst):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


class TestNodePartition:
    def test_unlabeled_nodes_allowed(self):
        labels = NodePartition(labels=np.array([0, 2, 0, 1]), num_labels=2)
        assert np.array_equal(labels.labeled_nodes(), [1, 3])

    @pytest.mark.parametrize(
        ("raw", "num_labels", "unused"),
        [([0, 0, 0, 0], 2, "[1, 2]"), ([1, 2, 1, 2], 3, "[3]"), ([3, 0, 1], 3, "[2]"), ([], 1, "[1]")],
        ids=["no-labeled", "absent-label", "gap", "empty"],
    )
    def test_unused_label_rejected(self, raw, num_labels, unused):
        # every label 1..num_labels is carried by some node
        with pytest.raises(ValidationError, match=re.escape(f"label(s) carried by no node: {unused}")):
            NodePartition(labels=np.array(raw, dtype=np.int64), num_labels=num_labels)


class TestSortedUnique:
    @pytest.mark.parametrize(
        "values",
        [
            np.empty(0, dtype=np.int64),
            np.array([7]),
            np.full(5, 3),
            np.arange(10),
            np.array([-3, 5, -3, 0, -8, 5]),
            np.random.default_rng(5).integers(-50, 50, size=1000),
        ],
        ids=["empty", "one", "all-equal", "sorted", "negative", "random"],
    )
    def test_matches_np_unique(self, values):
        out, expect = _sorted_unique(values), np.unique(values)
        assert out.dtype == expect.dtype
        assert np.array_equal(out, expect)


def keys_of_width(bits, size, dtype):
    """``size`` keys with ties whose largest is ``2**bits - 1``."""
    rng = np.random.default_rng([bits, size])
    key = rng.integers(0, 2**bits, size=size // 3, dtype=np.uint64)[rng.integers(0, size // 3, size=size)]
    key[::7] = 2**bits - 1
    return key.astype(dtype)


# beside the p position bits of size keys (10 for 1000, 11 for 1025), keys of
# 63 - p bits fill one digit and keys of 64 - p bits take two
DIGIT_BOUNDARY_KEYS = {
    f"{np.dtype(dtype).name}-{bits}-bits-{size}": keys_of_width(bits, size, dtype)
    for size in (1000, 1025)
    for bits in (63 - (size - 1).bit_length(), 64 - (size - 1).bit_length())
    for dtype in (np.int64, np.uint64)
}


@pytest.mark.parametrize(
    "key",
    [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        np.full(5, 3),
        np.arange(10)[::-1].copy(),
        np.random.default_rng(6).integers(0, 50, size=1000),
        np.random.default_rng(7).integers(0, 2**40, size=1000, dtype=np.uint64),
        np.tile(np.random.default_rng(8).integers(0, 2**64, size=300, dtype=np.uint64), 4),
        *DIGIT_BOUNDARY_KEYS.values(),
    ],
    ids=["empty", "one", "all-equal", "descending", "random", "uint64", "uint64-full", *DIGIT_BOUNDARY_KEYS],
)
def test_stable_sort_matches_stable_argsort_at_every_width(key):
    # at the key's own width and at 64 bits, which take two digits
    order = np.argsort(key, kind="stable")
    for key_bits in (int(key.max(initial=0)).bit_length(), 64):
        ranked, got = _stable_sort(key, key_bits)
        assert ranked.dtype == key.dtype and got.dtype == np.int64
        assert np.array_equal(ranked, key[order]) and np.array_equal(got, order)


def lexsort_reference(n, src, dst, w):
    """CSR arrays of ``build_graph(n, (src, dst, w))``: the same merge of
    duplicate pairs, then assembly by ``np.lexsort`` on (row, column)."""
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    order = np.argsort(lo * n + hi, kind="stable")
    lo, hi, w = lo[order], hi[order], w[order]
    key = lo * n + hi
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    lo, hi, w = lo[starts], hi[starts], np.add.reduceat(w, starts)
    off = lo != hi
    rows, cols, vals = (np.concatenate(pair) for pair in ((lo, hi[off]), (hi, lo[off]), (w, w[off])))
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return indptr, cols[order], vals[order]


def test_assembly_matches_lexsort_reference():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        m = int(rng.integers(n, 4 * n))
        # a cover of every node (self-loops included), random pairs, and
        # copies of some pairs in both orientations
        src = np.concatenate([np.arange(n), rng.integers(0, n, size=m)])
        dst = np.concatenate([rng.permutation(n), rng.integers(0, n, size=m)])
        dup = rng.integers(0, src.size, size=src.size // 3)
        flip = rng.random(dup.size) < 0.5
        a, b = np.where(flip, dst[dup], src[dup]), np.where(flip, src[dup], dst[dup])
        src, dst = np.concatenate([src, a]), np.concatenate([dst, b])
        w = rng.uniform(0.1, 3.0, size=src.size)
        g = build_graph(n, (src, dst, w))
        for got, expect in zip((g.indptr, g.indices, g.weights), lexsort_reference(n, src, dst, w)):
            assert got.tobytes() == np.asarray(expect, dtype=got.dtype).tobytes()


def assert_same_csr(got, expect):
    for name in ("indptr", "indices", "weights", "degrees"):
        assert np.array_equal(getattr(got, name), getattr(expect, name)), name


def unique_pairs(rng, n):
    """Distinct pairs covering every node, self-loops included, in a shuffled
    order and a random orientation."""
    src = np.concatenate([np.arange(n), rng.integers(0, n, size=3 * n)])
    dst = np.concatenate([rng.permutation(n), rng.integers(0, n, size=3 * n)])
    lo, hi, _ = build_graph(n, (src, dst, np.ones(src.size))).edges()
    flip = rng.random(lo.size) < 0.5
    mix = rng.permutation(lo.size)
    return np.where(flip, hi, lo)[mix], np.where(flip, lo, hi)[mix]


class TestAssemblyMatchesTwoStage:
    """``build_graph`` sorts once; its CSR arrays must equal those of the
    two-stage assembly it replaced (merge canonical pairs, then mirror and
    sort) to the bit, duplicate pairs included."""

    @pytest.mark.parametrize("repeats", [0, 1, 2, 3, 5])
    def test_pairs_repeated_in_both_orientations(self, repeats):
        # a third of the pairs get `repeats` more copies, each in a random
        # orientation; from 3 copies on, the order of the sum shows in the
        # last bit of the weight
        rng = np.random.default_rng(181 + repeats)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            src, dst = unique_pairs(rng, n)
            pick = np.repeat(rng.choice(src.size, size=src.size // 3, replace=False), repeats)
            flip = rng.random(pick.size) < 0.5
            mix = rng.permutation(src.size + pick.size)
            src, dst = (
                np.concatenate([src, np.where(flip, dst[pick], src[pick])])[mix],
                np.concatenate([dst, np.where(flip, src[pick], dst[pick])])[mix],
            )
            w = rng.uniform(0.1, 3.0, size=src.size)
            assert_same_csr(build_graph(n, (src, dst, w)), two_stage_build_graph(n, (src, dst, w)))

    def test_repeated_self_loops(self):
        rng = np.random.default_rng(183)
        n = 50
        loops = np.repeat(rng.choice(n, size=10, replace=False), 4)
        src, dst = unique_pairs(rng, n)
        src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
        mix = rng.permutation(src.size)
        w = rng.uniform(0.1, 3.0, size=src.size)
        src, dst = src[mix], dst[mix]
        assert_same_csr(build_graph(n, (src, dst, w)), two_stage_build_graph(n, (src, dst, w)))

    def test_directed_lift(self):
        rng = np.random.default_rng(184)
        n = 100
        src = np.concatenate([np.arange(n), np.arange(n), rng.integers(0, n, size=n)])
        dst = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) + 2) % n, rng.integers(0, n, size=n)])
        # three more copies of half the arcs, in the same direction
        pick = np.repeat(rng.choice(src.size, size=n // 2, replace=False), 3)
        mix = rng.permutation(src.size + pick.size)
        src, dst = np.concatenate([src, src[pick]])[mix], np.concatenate([dst, dst[pick]])[mix]
        w = rng.uniform(0.1, 3.0, size=src.size)
        g = directed_to_bipartite(n, (src, dst, w))
        assert_same_csr(g, two_stage_build_graph(2 * n, (src, dst + n, w)))
