import hashlib
import itertools

import numpy as np
import pytest

import heatprop.blockmodel
import heatprop.solver
from heatprop import (
    BlockModelParams,
    DirichletProblem,
    Graph,
    NumericalError,
    SolverOptions,
    ValidationError,
    build_deterministic_block_graph,
    closed_form_temperatures,
    sbm_generate,
    solve_iterative,
    transition_apply,
)
from heatprop.blockmodel import _distinct_integers, _upper_triangle_decode, block_labels, oracle_grid
from heatprop.classify import classify, one_vs_all_fields, one_vs_all_problem, scores_from_fields
from heatprop.experiments import Sweep, _swept_params
from heatprop.graph import BlockGraph
from conftest import count_calls
from reference import closed_form_row, dense_adjacency, dense_block_graph, solve_exact


def random_params(rng, max_nodes=200, require_p_gt_q=False):
    kb = int(rng.integers(1, 6))
    sizes, seeds = [], []
    for _ in range(kb):
        nk = int(rng.integers(2, max(3, max_nodes // kb)))
        sizes.append(nk)
        seeds.append(int(rng.integers(1, nk + 1)))
    q = float(rng.uniform(0.2, 2.0))
    p = float(rng.uniform(1.05, 3.0)) * q if require_p_gt_q else float(rng.uniform(0.2, 3.0))
    return BlockModelParams(sizes=tuple(sizes), seed_counts=tuple(seeds), p=p, q=q)


def solver_block_temps(params, hot):
    graph, seeds = build_deterministic_block_graph(params)
    problem = DirichletProblem(
        graph=graph,
        boundary=seeds.nodes,
        boundary_temps=(seeds.labels == hot).astype(float),
    )
    values = solve_exact(problem).values
    offsets = params.block_offsets()
    out = np.full(params.num_blocks, np.nan)
    for k in range(params.num_blocks):
        members = np.arange(offsets[k] + params.seed_counts[k], offsets[k + 1])
        if members.size:
            spread = values[members]
            assert np.ptp(spread) < 1e-10  # constant within a block
            out[k] = spread.mean()
    return out, values


class TestClosedForm:
    def test_worked_instance(self):
        params = BlockModelParams(sizes=(2, 2), seed_counts=(1, 1), p=2.0, q=1.0)
        bt = closed_form_temperatures(params)
        assert bt.mean[0] == pytest.approx(0.5, abs=1e-15)
        assert bt.per_block[0, 0] == pytest.approx(3 / 5, abs=1e-15)
        assert bt.per_block[0, 1] == pytest.approx(2 / 5, abs=1e-15)
        assert np.allclose(bt.per_block[0] - bt.mean[0], [0.1, -0.1], atol=1e-15)

    def test_symmetric_blocks_share_cold_temperature(self):
        params = BlockModelParams(sizes=(8, 8, 8), seed_counts=(2, 2, 2), p=1.7, q=0.6)
        bt = closed_form_temperatures(params)
        for hot in (1, 2, 3):
            cold = np.delete(bt.per_block[hot - 1], hot - 1)
            assert np.ptp(cold) < 1e-14

    def test_equal_weights_flatten_deltas(self):
        params = BlockModelParams(sizes=(5, 9), seed_counts=(2, 3), p=1.3, q=1.3)
        bt = closed_form_temperatures(params)
        assert np.abs(bt.per_block - bt.mean[:, None]).max() < 1e-14

    def test_mean_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            params = random_params(rng)
            hot = int(rng.integers(1, params.num_blocks + 1))
            bt = closed_form_temperatures(params)
            sizes = np.asarray(params.sizes, dtype=float)
            seeds = np.asarray(params.seed_counts, dtype=float)
            lhs = params.n * bt.mean[hot - 1]
            rhs = seeds[hot - 1] + float(((sizes - seeds) * bt.per_block[hot - 1]).sum())
            assert lhs == pytest.approx(rhs, abs=1e-12 * params.n)

    def test_mean_stays_in_unit_interval(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            params = random_params(rng)
            bt = closed_form_temperatures(params)
            if params.num_blocks == 1:
                # every seed is hot: the mean is exactly 1 up to rounding
                assert bt.mean[0] == pytest.approx(1.0, abs=1e-12)
            else:
                assert 0.0 < bt.mean[0] < 1.0

    def test_table_matches_the_per_label_reference(self):
        # one table equals, to the bit, the K one-label computations it
        # replaced: K = 1 to 6, p / q from 1e-4 to 1e3 with p = q among
        # them, and weights from 1e-3 up to near the float maximum
        rng = np.random.default_rng(83)
        ratios = np.concatenate([10.0 ** rng.uniform(-4, 3, size=1195), np.ones(5)])
        for i, ratio in enumerate(ratios):
            kb = 1 + i % 6
            sizes = rng.integers(1, 60, size=kb)
            seeds = rng.integers(1, sizes + 1)
            base = (1e-3, 1.0, 1e150, 1.7e308 / max(ratio, 1.0))[i % 4]
            params = BlockModelParams(tuple(sizes), tuple(seeds), p=ratio * base, q=base)
            if i % 2:
                params = BlockModelParams(tuple(sizes), tuple(seeds), p=base, q=ratio * base)
            bt = closed_form_temperatures(params)
            assert bt.per_block.shape == (kb, kb) and bt.mean.shape == (kb,)
            for hot in range(1, kb + 1):
                per_block, mean = closed_form_row(params, hot)
                assert np.array_equal(bt.per_block[hot - 1], per_block), (params, hot)
                assert np.array_equal(bt.mean[hot - 1], mean), (params, hot)

    @pytest.mark.parametrize(
        "sizes, seeds, p, q",
        [((10,), (1,), 1e-300, 1.0), ((7,), (3,), 1.0, 1e300), ((10,), (1,), 1e-17, 1.0)],
    )
    def test_table_raises_where_the_per_label_reference_raises(self, sizes, seeds, p, q):
        # on one block, p / q below half the float epsilon rounds the
        # mean-temperature denominator to zero
        params = BlockModelParams(sizes, seeds, p=p, q=q)
        for hot in range(1, params.num_blocks + 1):
            with pytest.raises(NumericalError, match="denominator is nonpositive"):
                closed_form_row(params, hot)
        with pytest.raises(NumericalError, match="denominator is nonpositive"):
            closed_form_temperatures(params)


class TestOracleAgreement:
    def test_worked_instance_temperature_vector(self):
        params = BlockModelParams(sizes=(2, 2), seed_counts=(1, 1), p=2.0, q=1.0)
        _, values = solver_block_temps(params, hot=1)
        assert np.allclose(values, [1.0, 3 / 5, 0.0, 2 / 5], atol=1e-12)

    def test_random_params_agree(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            params = random_params(rng)
            hot = int(rng.integers(1, params.num_blocks + 1))
            oracle = closed_form_temperatures(params).per_block[hot - 1]
            solved, _ = solver_block_temps(params, hot)
            mask = ~np.isnan(solved)
            assert np.abs(solved[mask] - oracle[mask]).max() < 1e-10


class TestOracleGrid:
    def test_checks_the_conjugate_gradient_solver(self, monkeypatch):
        iterative = count_calls(monkeypatch, heatprop.solver, "solve_iterative")
        rows = oracle_grid(30, 60, 0)
        # one solve per draw, run to the rounding level
        assert len(rows) == 30 and len(iterative) == len(rows)
        assert all(opts.tolerance == 0.0 for _, opts in iterative)
        assert max(gap for *_, gap in rows) < 1e-13

    def test_builds_no_ground_truth(self, monkeypatch):
        # perfbench times the grid's graphs by this function's name, so each
        # draw still calls it; the grid never reads the block labels
        built = count_calls(monkeypatch, heatprop.blockmodel, "build_deterministic_block_graph")
        labels = count_calls(monkeypatch, heatprop.blockmodel, "block_labels")
        assert len(oracle_grid(10, 30, 1)) == len(built) == 10
        assert labels == []

    def test_all_seed_draw_is_a_row_with_gap_zero(self, monkeypatch):
        solves = []

        def recorded(*args, **kwargs):
            solves.append(heatprop.solver.solve_iterative(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(heatprop.blockmodel, "solve_iterative", recorded)
        # blocks of 2 to 5 nodes: 5 of the 40 draws seed every node
        rows = oracle_grid(40, 6, 3)
        assert len(rows) == len(solves) == 40
        all_seed = [sum(params.seed_counts) == params.n for params, _, _ in rows]
        assert sum(all_seed) == 5
        for (_, _, gap), solve, full in zip(rows, solves, all_seed):
            if full:
                assert gap == 0.0 and solve.info.iterations == 0
        # the other draws are the rows that the grid gave when it skipped
        # the all-seed draws, to the bit
        kept = [
            (params.sizes, params.seed_counts, params.p, params.q, hot, gap)
            for (params, hot, gap), full in zip(rows, all_seed)
            if not full
        ]
        digest = hashlib.sha256(repr(kept).encode()).hexdigest()
        assert digest == "d278e55ba5c5de40f3a34fb6e25a926d47f3b56e233324fdcecb8e5952dc3b4f"


class TestTheoremConsistency:
    def test_centered_classification_exact_on_random_grid(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            params = random_params(rng, max_nodes=120, require_p_gt_q=True)
            if params.num_blocks < 2:
                continue
            graph, seeds = build_deterministic_block_graph(params)
            truth = block_labels(params)
            labels, _ = classify(one_vs_all_fields(graph, seeds, SolverOptions()), seeds, "centered")
            assert np.array_equal(labels, truth.labels)

    def test_delta_signs(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            params = random_params(rng, require_p_gt_q=True)
            hot = int(rng.integers(1, params.num_blocks + 1))
            bt = closed_form_temperatures(params)
            deltas = bt.per_block[hot - 1] - bt.mean[hot - 1]
            if params.num_blocks == 1:
                # every seed is hot: the field is constant and the delta is 0
                assert np.abs(deltas).max() < 1e-12
                continue
            assert deltas[hot - 1] > 0
            others = np.delete(deltas, hot - 1)
            assert (others < 0).all()


class TestVanillaCondition:
    def test_symmetric_params_true_for_all_pairs(self):
        params = BlockModelParams(sizes=(20, 20, 20), seed_counts=(3, 3, 3), p=2.0, q=1.0)
        t = closed_form_temperatures(params).per_block
        for b, o in itertools.permutations((1, 2, 3), 2):
            assert t[b - 1, b - 1] > t[o - 1, b - 1]

    def test_seed_asymmetry_false_for_starved_block(self):
        params = BlockModelParams(sizes=(50, 50), seed_counts=(10, 2), p=2.0, q=1.0)
        t = closed_form_temperatures(params).per_block
        assert t[0, 0] > t[1, 0]
        assert not t[1, 1] > t[0, 1]

    def test_condition_predicts_vanilla_misclassification(self):
        rng = np.random.default_rng(67)
        checked_failure = 0
        for _ in range(30):
            params = random_params(rng, max_nodes=100, require_p_gt_q=True)
            if params.num_blocks < 2:
                continue
            graph, seeds = build_deterministic_block_graph(params)
            truth = block_labels(params)
            fields = one_vs_all_fields(graph, seeds, SolverOptions())
            vanilla, _ = classify(fields, seeds, "vanilla")
            centered, _ = classify(fields, seeds, "centered")
            assert np.array_equal(centered, truth.labels)
            t = closed_form_temperatures(params).per_block
            offsets = params.block_offsets()
            for b in range(1, params.num_blocks + 1):
                interior = np.arange(offsets[b - 1] + params.seed_counts[b - 1], offsets[b])
                if interior.size == 0:
                    continue
                ok = all(
                    t[b - 1, b - 1] > t[o - 1, b - 1]
                    for o in range(1, params.num_blocks + 1)
                    if o != b
                )
                correct = bool(np.all(vanilla[interior] == b))
                assert correct == ok
                if not ok:
                    checked_failure += 1
        assert checked_failure > 0  # the grid must exercise the failure branch

    def test_low_seed_surrogate_agrees_in_sign(self):
        # with seed fractions at or below 1%, the simplified comparison
        # s_b (n_b (p-q) + n q) vs s_o (n_o (p-q) + n q) matches the full
        # condition on draws separated by more than its error bound.
        #
        # Bound: write d = p - q, a_k = s_k d + n q >= n q and
        # slack = 1 - sum (n_k - s_k) q / a_k > 0. By the closed form, block
        # 1's temperature in its own diffusion minus its temperature in block
        # 2's diffusion is (lhs - rhs) / (a1 slack), with
        #   lhs = s1 q (n1 d + n q) / a1 + s1 d slack,
        #   rhs = s2 q (n2 d + n q) / a2,
        # so the condition holds iff lhs > rhs. n (lhs - rhs) is the
        # surrogate S plus
        #   - s1^2 d (n1 d + n q) / a1 + s2^2 d (n2 d + n q) / a2 + n s1 d slack.
        # Each ratio (n_k d + n q) / a_k lies in (0, p/q]. Since
        # 1 / (1 + x) >= 1 - x, slack lies in
        # [(s1 + s2) / n, (s1 + s2) p / (n q)]. So with s = max(s1, s2) the
        # correction lies in [-s^2 d p/q, 3 s^2 d p/q], and |S| above
        # 3 s^2 d p/q fixes the sign of lhs - rhs.
        rng = np.random.default_rng(71)
        decisive = 0
        for _ in range(200):
            n1, n2 = int(rng.integers(200, 400)), int(rng.integers(200, 400))
            s1 = int(rng.integers(1, max(2, n1 // 100)))
            s2 = int(rng.integers(1, max(2, n2 // 100)))
            q = float(rng.uniform(0.5, 1.0))
            p = q * float(rng.uniform(1.1, 3.0))
            params = BlockModelParams(sizes=(n1, n2), seed_counts=(s1, s2), p=p, q=q)
            n = params.n
            surrogate = s1 * (n1 * (p - q) + n * q) - s2 * (n2 * (p - q) + n * q)
            if abs(surrogate) <= 3 * max(s1, s2) ** 2 * (p - q) * p / q:
                continue
            decisive += 1
            t = closed_form_temperatures(params).per_block
            assert (t[0, 0] > t[1, 0]) == (surrogate > 0)
        assert decisive > 150


class TestDeterministicBuilder:
    def test_graph_matches_analytic_degrees(self):
        params = BlockModelParams(sizes=(3, 4), seed_counts=(1, 2), p=2.5, q=0.5)
        g, seeds = build_deterministic_block_graph(params)
        truth = block_labels(params)
        assert g.n == 7
        dense = dense_adjacency(g)
        assert np.allclose(dense, dense.T)
        for i in range(7):
            for j in range(7):
                expect = 2.5 if truth.labels[i] == truth.labels[j] else 0.5
                assert dense[i, j] == expect
        # self-loops count once, which is exactly the dense row sum here
        assert np.allclose(g.degrees, dense.sum(axis=1))
        # the analytic degree n_k p + (n - n_k) q of a node in block k
        sizes = np.asarray(params.sizes, dtype=np.float64)[truth.labels - 1]
        analytic = sizes * params.p + (g.n - sizes) * params.q
        np.testing.assert_allclose(g.degrees, analytic, rtol=1e-12, atol=0)

    def test_csr_matches_fancy_index_reference(self):
        rng = np.random.default_rng(41)
        for trial in range(40):
            kb = int(rng.integers(1, 6))
            sizes = [int(v) for v in rng.integers(1, 9, size=kb)]
            sizes[int(rng.integers(0, kb))] = 1  # at least one 1-node block
            p = float(rng.uniform(0.1, 3.0))
            q = p if trial % 5 == 0 else float(rng.uniform(0.1, 3.0))
            params = BlockModelParams(sizes=tuple(sizes), seed_counts=(1,) * kb, p=p, q=q)
            g, _ = build_deterministic_block_graph(params)
            # reference: one fancy-indexed block lookup per entry of the n² graph
            n = params.n
            block_of = np.repeat(np.arange(kb), sizes)
            rows = np.repeat(np.arange(n), n)
            cols = np.tile(np.arange(n), n)
            weights = np.where(block_of[rows] == block_of[cols], p, q)
            reference = Graph(n=n, indptr=np.arange(n + 1) * n, indices=cols, weights=weights)
            # every node's row is its block's row of the K stored ones
            expect_rows = reference.weights.reshape(n, n)
            assert g.rows.dtype == expect_rows.dtype and g.rows[block_of].tobytes() == expect_rows.tobytes()
            assert g.rows.shape == (kb, n)
            assert g.degrees.dtype == reference.degrees.dtype
            assert g.degrees.tobytes() == reference.degrees.tobytes()

    def test_single_block_diffusion_is_all_ones(self):
        params = BlockModelParams(sizes=(6,), seed_counts=(2,), p=1.5, q=1.0)
        g, seeds = build_deterministic_block_graph(params)
        (f,) = one_vs_all_fields(g, seeds, SolverOptions())
        assert np.allclose(f.values, 1.0, atol=1e-12)

    def test_row_sums_that_overflow_are_rejected(self):
        params = BlockModelParams((2, 2), (1, 1), 1.7e308, 1e308)
        with pytest.raises(ValidationError, match="edge weights and their row sums must be finite"):
            build_deterministic_block_graph(params)

    def test_matches_the_dense_block_graph_to_the_bit(self):
        # the K stored rows against the n²-entry Graph: same degrees, same
        # matvecs, and the same fields and solve records for every hot label
        rng = np.random.default_rng(311)
        for _ in range(200):
            kb = int(rng.integers(1, 6))
            sizes = tuple(int(v) for v in rng.integers(1, 201, size=kb))
            seeds = tuple(int(rng.integers(1, nk + 1)) for nk in sizes)
            p, q = rng.uniform(0.2, 3.0, size=2)
            params = BlockModelParams(sizes=sizes, seed_counts=seeds, p=float(p), q=float(q))
            g, seed_set = build_deterministic_block_graph(params)
            dense = dense_block_graph(params)
            assert isinstance(g, BlockGraph) and g.n == dense.n
            assert np.array_equal(g.degrees, dense.degrees)
            for v in (rng.normal(size=g.n), rng.uniform(size=g.n), np.ones(g.n)):
                assert np.array_equal(transition_apply(g, v), transition_apply(dense, v))
            for hot in range(1, kb + 1):
                got, want = (
                    solve_iterative(one_vs_all_problem(graph, seed_set, hot), SolverOptions(tolerance=0.0))
                    for graph in (g, dense)
                )
                assert np.array_equal(got.values, want.values)
                assert got.info == want.info

    def test_equal_weights_degenerate_to_tiebreak(self):
        params = BlockModelParams(sizes=(4, 4), seed_counts=(1, 1), p=1.0, q=1.0)
        g, seeds = build_deterministic_block_graph(params)
        fields = one_vs_all_fields(g, seeds, SolverOptions())
        scores = scores_from_fields(fields, seeds, "centered")
        labels, _ = classify(fields, seeds, "centered")
        non_seed = np.setdiff1d(np.arange(g.n), seeds.nodes)
        assert np.abs(scores[non_seed]).max() < 1e-12
        assert np.all(labels[non_seed] == 1)
        # seed rows hold the centered pinned temperatures: 1 or 0 minus the
        # mean temperature 1/2
        assert np.array_equal(seeds.nodes, [0, 4])
        expect = [[0.5, -0.5], [-0.5, 0.5]]
        assert np.abs(scores[seeds.nodes] - expect).max() < 1e-12


def _solve_expected_graph(params):
    """Solve the complete block graph of ``params`` at tolerance 0. Every
    non-seed must match the closed form, and each block's non-seeds must take
    their own label under vanilla exactly when the table's condition holds.
    Returns the vanilla and centered labels, the truth and the non-seeds."""
    g, seeds = build_deterministic_block_graph(params)
    truth = block_labels(params)
    fields = one_vs_all_fields(g, seeds, SolverOptions(tolerance=0.0))
    t = closed_form_temperatures(params).per_block
    non_seed = np.setdiff1d(np.arange(g.n), seeds.nodes)
    for k, field in enumerate(fields):
        expect = np.repeat(t[k], params.sizes)
        assert np.abs(field.values - expect)[non_seed].max() <= 1e-13
    vanilla, _ = classify(fields, seeds, "vanilla")
    centered, _ = classify(fields, seeds, "centered")
    for b in range(1, params.num_blocks + 1):
        block = non_seed[truth.labels[non_seed] == b]
        ok = all(t[b - 1, b - 1] > t[o - 1, b - 1] for o in range(1, params.num_blocks + 1) if o != b)
        assert np.all(vanilla[block] == b) == ok
    return vanilla, centered, truth, non_seed


class TestFig2aExpectedGraph:
    """fig2a's own sizes and weights, solved exactly on the complete block
    graph: the non-seeds match the closed form, vanilla takes label 1 once
    block 1 holds more seeds, and centered labels both blocks right."""

    @pytest.mark.parametrize("ratio", [1, 2, 5, 10])
    def test_closed_form_and_labels(self, ratio):
        params = BlockModelParams(sizes=(5000, 5000), seed_counts=(250 * ratio, 250), p=1e-3, q=1e-4)
        vanilla, centered, truth, non_seed = _solve_expected_graph(params)
        if ratio > 1:
            assert np.all(vanilla[non_seed] == 1)
        assert np.array_equal(centered[non_seed], truth.labels[non_seed])


class TestFig2bExpectedGraph:
    """fig2b's own sizes, seeds and weights at size ratios 1, 2, 5 and 10,
    solved exactly on the complete block graph: the non-seeds match the
    closed form, vanilla puts the smaller block 2 in label 1 once the sizes
    differ, and centered labels both blocks right."""

    @pytest.mark.parametrize(
        "ratio, sizes",
        [(1, (5000, 5000)), (2, (6667, 3333)), (5, (8333, 1667)), (10, (9091, 909))],
        ids=["1", "2", "5", "10"],
    )
    def test_closed_form_and_labels(self, ratio, sizes):
        base = BlockModelParams(sizes=(5000, 5000), seed_counts=(500, 500), p=1e-3, q=1e-4)
        params = _swept_params(base, Sweep("size_ratio", (ratio,)), ratio)
        assert params.sizes == sizes
        vanilla, centered, truth, non_seed = _solve_expected_graph(params)
        block2 = non_seed[truth.labels[non_seed] == 2]
        if ratio > 1:
            assert np.all(vanilla[block2] == 1)
        else:
            assert np.array_equal(vanilla[non_seed], truth.labels[non_seed])
        assert np.array_equal(centered[non_seed], truth.labels[non_seed])


class TestSbm:
    def test_degenerate_full_probability_gives_complete_graph(self):
        params = BlockModelParams(sizes=(4, 4), seed_counts=(1, 1), p=1.0, q=1.0)
        g, _, _ = sbm_generate(params, rng_seed=0)
        assert g.num_edges == 8 * 7 // 2
        assert np.allclose(g.degrees, 7.0)

    def test_mean_degree_at_benchmark_scale(self):
        params = BlockModelParams(sizes=(5000, 5000), seed_counts=(250, 250), p=1e-3, q=1e-4)
        g, _, _ = sbm_generate(params, rng_seed=1)
        assert g.degrees.mean() == pytest.approx(5.5, abs=0.3)

    def test_deterministic_given_seed(self):
        params = BlockModelParams(sizes=(60, 40), seed_counts=(3, 2), p=0.1, q=0.02)
        g1, _, _ = sbm_generate(params, rng_seed=9)
        g2, _, _ = sbm_generate(params, rng_seed=9)
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(g1.weights, g2.weights)
        g3, _, _ = sbm_generate(params, rng_seed=10)
        assert not np.array_equal(g1.indices, g3.indices)

    def test_low_degree_warns_and_repairs_isolates(self):
        params = BlockModelParams(sizes=(20, 20), seed_counts=(1, 1), p=0.02, q=0.005)
        with pytest.warns(UserWarning, match="expected degree"):
            g, _, _ = sbm_generate(params, rng_seed=2)
        assert g.degrees.min() >= 1.0

    def test_unreachable_probability_raises_after_resamples(self):
        params = BlockModelParams(sizes=(15, 15), seed_counts=(1, 1), p=1e-12, q=1e-12)
        with pytest.warns(UserWarning):
            with pytest.raises(NumericalError, match="isolated"):
                sbm_generate(params, rng_seed=3)

    def test_rejects_probabilities_above_one(self):
        params = BlockModelParams(sizes=(4, 4), seed_counts=(1, 1), p=2.0, q=0.5)
        with pytest.raises(ValidationError, match="probabilit"):
            sbm_generate(params, rng_seed=0)

    def test_no_self_loops(self):
        params = BlockModelParams(sizes=(30, 30), seed_counts=(2, 2), p=0.2, q=0.05)
        g, _, _ = sbm_generate(params, rng_seed=4)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        assert not np.any(rows == g.indices)

    @pytest.mark.parametrize(
        "params, seed, digest",
        [
            # the sbm-sweep slot: 32 isolated nodes repaired
            (
                BlockModelParams(sizes=(5000, 5000), seed_counts=(250, 250), p=1e-3, q=1e-4),
                1,
                "25522c65499870b5aa64624eebf3e0bfb599be80593e04389a89468f5f61e80d",
            ),
            # three blocks: 56 isolated nodes repaired
            (
                BlockModelParams(sizes=(3000, 2000, 1000), seed_counts=(60, 40, 20), p=2e-3, q=3e-4),
                3,
                "b5a4e5f4054d0d5df4dacc67034d413197e634280a5c253e0b1203eecaf63298",
            ),
        ],
        ids=["two-block", "three-block"],
    )
    def test_csr_bytes_pinned(self, params, seed, digest):
        # SHA-256 of indptr, indices and weights as first drawn; a change in
        # any draw, the repair or the assembly order changes it
        g, _, _ = sbm_generate(params, rng_seed=seed)
        h = hashlib.sha256()
        for arr in (g.indptr, g.indices, g.weights):
            h.update(arr.tobytes())
        assert h.hexdigest() == digest


class TestSamplingHelpers:
    def test_triangle_decode_exhaustive(self):
        for m in (2, 3, 5, 17, 40):
            total = m * (m - 1) // 2
            idx = np.arange(total)
            i, j = _upper_triangle_decode(idx, m)
            expect = [(a, b) for a in range(m) for b in range(a + 1, m)]
            assert list(zip(i.tolist(), j.tolist())) == expect

    def test_distinct_integers_properties(self):
        rng = np.random.default_rng(73)
        for total, count in ((10, 10), (1000, 37), (10**7, 2000)):
            out = _distinct_integers(rng, total, count)
            assert out.size == count
            assert np.unique(out).size == count
            assert out.min() >= 0 and out.max() < total

    def test_distinct_integers_uniform_coverage(self):
        rng = np.random.default_rng(79)
        counts = np.zeros(6)
        for _ in range(3000):
            counts[_distinct_integers(rng, 6, 2)] += 1
        # each element appears in a 2-subset of {0..5} with probability 1/3
        expect = 3000 * 2 / 6
        sigma = np.sqrt(3000 * (1 / 3) * (2 / 3))
        assert np.abs(counts - expect).max() < 4 * sigma


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BlockModelParams(sizes=(4,), seed_counts=(0,), p=1.0, q=1.0)
        with pytest.raises(ValidationError):
            BlockModelParams(sizes=(4,), seed_counts=(5,), p=1.0, q=1.0)
        with pytest.raises(ValidationError):
            BlockModelParams(sizes=(4, 4), seed_counts=(1, 1), p=0.0, q=1.0)
        with pytest.raises(ValidationError):
            BlockModelParams(sizes=(), seed_counts=(), p=1.0, q=1.0)
        for p, q in ((np.nan, 1.0), (1.0, np.inf)):
            with pytest.raises(ValidationError, match="positive and finite"):
                BlockModelParams(sizes=(4, 4), seed_counts=(1, 1), p=p, q=q)
