import warnings

import numpy as np
import pytest

import heatprop.solver
from heatprop import (
    DirichletProblem,
    SolverOptions,
    ValidationError,
    build_graph,
    sbm_generate,
    solve_iterative,
)
from heatprop.blockmodel import BlockModelParams, build_deterministic_block_graph
from heatprop.solver import residual
from conftest import barbell_graph, count_calls, path_graph, random_connected_graph, star_graph
from reference import (
    DEFAULT_MAX_DENSE_UNKNOWNS,
    boundary_mask,
    jacobi_sweep,
    pinned_vector,
    problem_from_dict,
    solve_exact,
)

TIGHT = SolverOptions(max_iterations=10_000, tolerance=1e-12)


def make_fixture_problems():
    """Connected graphs with boundary sets, shared by the equivalence tests."""
    problems = []
    for n in (3, 4, 10, 20):
        problems.append(problem_from_dict(path_graph(n), {0: 1.0, n - 1: 0.0}))
    problems.append(problem_from_dict(star_graph(3), {1: 1.0, 2: 0.0}))
    g = build_graph(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)])
    problems.append(problem_from_dict(g, {0: 1.0}))
    bar, a, b = barbell_graph(5)
    problems.append(problem_from_dict(bar, {int(a[0]): 1.0, int(b[-1]): 0.0}))
    rng = np.random.default_rng(17)
    for n in (50, 200):
        g = random_connected_graph(rng, n, extra_edges=n)
        boundary = rng.choice(n, size=max(2, n // 10), replace=False)
        temps = rng.uniform(size=boundary.size)
        problems.append(
            DirichletProblem(graph=g, boundary=boundary, boundary_temps=temps)
        )
    for sizes, seeds, p, q in (((2, 2), (1, 1), 2.0, 1.0), ((50, 50), (10, 2), 2.0, 1.0)):
        params = BlockModelParams(sizes=sizes, seed_counts=seeds, p=p, q=q)
        g, seed_set = build_deterministic_block_graph(params)
        temps = (seed_set.labels == 1).astype(float)
        problems.append(
            DirichletProblem(graph=g, boundary=seed_set.nodes, boundary_temps=temps)
        )
    return problems


class TestIterative:
    def test_path3_neighbor_average(self):
        p = problem_from_dict(path_graph(3), {0: 1.0, 2: 0.0})
        f = solve_iterative(p, TIGHT)
        assert np.allclose(f.values, [1.0, 0.5, 0.0], atol=1e-10)

    def test_path4_linear_profile(self):
        p = problem_from_dict(path_graph(4), {0: 1.0, 3: 0.0})
        f = solve_iterative(p, TIGHT)
        assert np.allclose(f.values, [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-10)

    def test_star_hand_solved(self):
        # center c and free leaf e satisfy T_c = (1 + T_e)/3, T_e = T_c
        p = problem_from_dict(star_graph(3), {1: 1.0, 2: 0.0})
        f = solve_iterative(p, TIGHT)
        assert f.values[0] == pytest.approx(0.5, abs=1e-10)
        assert f.values[3] == pytest.approx(0.5, abs=1e-10)
        assert np.allclose(f.values, solve_exact(p).values, atol=1e-10)

    def test_reports_stop_reason(self):
        p = problem_from_dict(path_graph(10), {0: 1.0, 9: 0.0})
        f = solve_iterative(p, SolverOptions(max_iterations=3, tolerance=1e-12))
        assert f.info.stop_reason == "max_iterations"
        assert f.info.iterations == 3
        f = solve_iterative(p, SolverOptions(max_iterations=10_000, tolerance=1e-10))
        assert f.info.stop_reason == "tolerance"
        assert f.info.final_change < 1e-10

    def test_boundary_pinned_exactly(self):
        p = problem_from_dict(path_graph(5), {0: 0.3, 4: 0.9})
        f = solve_iterative(p, SolverOptions(max_iterations=5))
        assert f.values[0] == 0.3 and f.values[4] == 0.9
        # a temperature inside the boundary range, which the clip does not pin
        p = problem_from_dict(path_graph(5), {0: 0.3, 2: 0.9, 4: 1.0})
        assert solve_iterative(p, SolverOptions(max_iterations=5)).values[2] == 0.9

    def test_component_without_boundary_named(self):
        g = build_graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        p = problem_from_dict(g, {0: 1.0})
        with pytest.raises(ValidationError, match="node 2"):
            solve_iterative(p)
        with pytest.raises(ValidationError, match="no boundary"):
            solve_exact(p)
        # two seedless components: the one with the smaller smallest member
        # is named, whatever the edge order or component sizes
        g = build_graph(8, [(3, 6, 1.0), (6, 4, 1.0), (4, 5, 1.0), (7, 2, 1.0), (0, 1, 1.0)])
        p = problem_from_dict(g, {1: 1.0})
        message = "connected component containing node 2 (2 nodes) has no boundary node"
        for solver in (solve_iterative, solve_exact):
            with pytest.raises(ValidationError) as exc:
                solver(p)
            assert str(exc.value) == message

    def test_maximum_principle(self):
        # exactly within the boundary range, also before convergence
        for p in make_fixture_problems():
            lo, hi = p.boundary_temps.min(), p.boundary_temps.max()
            for f in (solve_iterative(p, SolverOptions(max_iterations=37)), solve_exact(p)):
                assert f.values.min() >= lo and f.values.max() <= hi

    @pytest.mark.parametrize("temp", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-9])
    def test_equal_boundary_temperatures_need_no_iteration(self, temp, tolerance):
        # a zero right-hand side: the constant field at once, with no 0/0
        p = make_fixture_problems()[7]  # random weighted graph, 50 nodes
        temps = np.full(p.boundary.size, temp)
        p = DirichletProblem(graph=p.graph, boundary=p.boundary, boundary_temps=temps)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            f = solve_iterative(p, SolverOptions(tolerance=tolerance))
        assert np.array_equal(f.values, np.full(p.graph.n, temp))
        assert (f.info.iterations, f.info.stop_reason, f.info.final_change) == (0, "tolerance", 0.0)

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-12])
    def test_final_change_bounds_residual_at_tolerance_stop(self, tolerance):
        # final_change is the recursively updated defect; the defect of the
        # returned field stays within a small multiple of it
        for p in make_fixture_problems():
            f = solve_iterative(p, SolverOptions(max_iterations=10_000, tolerance=tolerance))
            assert f.info.stop_reason == "tolerance"
            assert f.info.final_change < tolerance
            assert residual(p, f) <= 10 * tolerance

    def test_tolerance_zero_stops_at_rounding_level(self):
        # the recursive residual would shrink into underflow and the steps
        # turn to noise; the solve stops once the defect reaches eps * span
        tiny = problem_from_dict(path_graph(5), {0: 0.0, 4: 1e-200})
        for p in make_fixture_problems() + [tiny]:
            span = np.ptp(p.boundary_temps) or 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                f = solve_iterative(p, SolverOptions(max_iterations=10_000, tolerance=0.0))
            assert f.info.stop_reason == "tolerance" and f.info.iterations < 500
            assert residual(p, f) <= 1e-14 * span

    def test_one_matvec_per_iteration(self, monkeypatch):
        calls = count_calls(monkeypatch, heatprop.solver, "transition_apply")
        for p in make_fixture_problems()[7:9]:  # the random graphs
            calls.clear()
            f = solve_iterative(p, SolverOptions(max_iterations=3))
            assert (f.info.iterations, f.info.stop_reason) == (3, "max_iterations")
            assert f.info.final_change >= SolverOptions().tolerance
            assert len(calls) == 1 + 3
            calls.clear()
            f = solve_iterative(p)
            assert f.info.stop_reason == "tolerance"
            assert len(calls) == 1 + f.info.iterations

    def test_sweep_change_is_nonincreasing(self):
        for p in make_fixture_problems():
            mask = boundary_mask(p)
            pinned = pinned_vector(p)
            t = pinned.copy()
            changes = []
            for _ in range(40):
                t_next = jacobi_sweep(p.graph, mask, pinned, t)
                changes.append(np.abs(t_next - t).max())
                t = t_next
            diffs = np.diff(changes)
            assert (diffs <= 1e-15).all()


class TestExact:
    def test_path3(self):
        p = problem_from_dict(path_graph(3), {0: 1.0, 2: 0.0})
        assert np.allclose(solve_exact(p).values, [1.0, 0.5, 0.0], atol=1e-14)

    def test_lone_interior_is_weighted_neighbor_mean(self):
        g = build_graph(3, [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)])
        p = problem_from_dict(g, {0: 0.9, 2: 0.3})
        f = solve_exact(p)
        assert f.values[1] == pytest.approx((2.0 * 0.9 + 1.0 * 0.3) / 3.0, abs=1e-14)

    def test_guard_suggests_iterative(self):
        p = problem_from_dict(path_graph(20), {0: 1.0})
        with pytest.raises(ValidationError, match="iterative"):
            solve_exact(p, max_dense_unknowns=10)
        # the default guard runs before the dense system (800 MB here) is assembled
        p = problem_from_dict(path_graph(DEFAULT_MAX_DENSE_UNKNOWNS + 2), {0: 1.0})
        with pytest.raises(ValidationError, match=f"{DEFAULT_MAX_DENSE_UNKNOWNS + 1} interior unknowns"):
            solve_exact(p)

    def test_linearity(self):
        rng = np.random.default_rng(23)
        g = random_connected_graph(rng, 40, extra_edges=40)
        boundary = np.array([0, 5, 9, 31])
        y1 = rng.uniform(size=4)
        y2 = rng.uniform(size=4)
        alpha, beta = 1.7, -0.4
        sol = lambda y: solve_exact(DirichletProblem(graph=g, boundary=boundary, boundary_temps=y)).values
        combined = sol(alpha * y1 + beta * y2)
        assert np.abs(combined - (alpha * sol(y1) + beta * sol(y2))).max() < 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        g = random_connected_graph(rng, 30, extra_edges=25)
        perm = rng.permutation(30)
        src, dst, w = g.edges()
        g_perm = build_graph(30, (perm[src], perm[dst], w))
        boundary = np.array([0, 7, 13])
        temps = np.array([1.0, 0.25, 0.0])
        f = solve_exact(DirichletProblem(graph=g, boundary=boundary, boundary_temps=temps))
        f_perm = solve_exact(
            DirichletProblem(graph=g_perm, boundary=perm[boundary], boundary_temps=temps)
        )
        assert np.abs(f_perm.values[perm] - f.values).max() < 1e-12


class TestResidual:
    def test_exact_solution_residual_zero(self):
        for p in make_fixture_problems()[:6]:
            assert residual(p, solve_exact(p)) < 1e-12

    def test_cold_interior_on_path(self):
        p = problem_from_dict(path_graph(3), {0: 1.0, 2: 0.0})
        from heatprop.solver import TemperatureField

        f = TemperatureField(values=np.array([1.0, 0.0, 0.0]))
        assert residual(p, f) == pytest.approx(0.5)

    def test_iterative_residual_tracks_tolerance(self):
        for p in make_fixture_problems():
            f = solve_iterative(p, SolverOptions(max_iterations=50_000, tolerance=1e-8))
            assert residual(p, f) <= 1e-6


class TestEquivalence:
    def test_iterative_matches_exact_on_fixture_suite(self):
        opts = SolverOptions(max_iterations=10_000, tolerance=1e-10)
        for p in make_fixture_problems():
            fi = solve_iterative(p, opts)
            fe = solve_exact(p)
            assert np.abs(fi.values - fe.values).max() < 1e-8

    def test_sbm_2000_matches(self):
        params = BlockModelParams(sizes=(1000, 1000), seed_counts=(100, 100), p=8e-3, q=8e-4)
        g, _, seeds = sbm_generate(params, rng_seed=5)
        from heatprop import connected_components

        assert not connected_components(g).any()
        p = DirichletProblem(
            graph=g, boundary=seeds.nodes, boundary_temps=(seeds.labels == 1).astype(float)
        )
        fi = solve_iterative(p, SolverOptions(max_iterations=10_000, tolerance=1e-10))
        fe = solve_exact(p)
        assert np.abs(fi.values - fe.values).max() < 1e-8


class TestProblemValidation:
    def test_boundary_covering_every_node_solves_to_itself(self):
        # no interior node: the solve returns the boundary values untouched
        p = problem_from_dict(path_graph(3), {0: 1.0, 1: 0.3, 2: 0.0})
        f = solve_iterative(p, SolverOptions())
        assert f.values.tolist() == [1.0, 0.3, 0.0]
        assert (f.info.iterations, f.info.final_change, f.info.stop_reason) == (0, 0.0, "tolerance")
        assert residual(p, f) == 0.0

    def test_boundary_nonempty(self):
        with pytest.raises(ValidationError, match="nonempty"):
            DirichletProblem(graph=path_graph(3), boundary=np.array([], dtype=int), boundary_temps=np.array([]))

    def test_duplicate_boundary(self):
        with pytest.raises(ValidationError, match="duplicate"):
            DirichletProblem(
                graph=path_graph(3),
                boundary=np.array([0, 0]),
                boundary_temps=np.array([1.0, 0.0]),
            )
