"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its measured numbers (visible under
``pytest -s`` or in captured output on failure); stated tolerances and time
budgets are asserted.
"""

import time

import numpy as np

from heatprop import (
    BlockModelParams,
    DirichletProblem,
    ExperimentConfig,
    SbmSource,
    SeedSet,
    SolverOptions,
    Sweep,
    build_deterministic_block_graph,
    closed_form_temperatures,
    run_experiment,
    sbm_generate,
    solve_iterative,
)
from heatprop.blockmodel import block_labels
from heatprop.classify import classify, one_vs_all_fields
from heatprop.cli import main as cli_main
from heatprop.solver import residual

from reference import boundary_mask, jacobi_sweep, pinned_vector, solve_exact
from test_solver import make_fixture_problems


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


def _hot_problem(graph, seeds, hot=1):
    return DirichletProblem(
        graph=graph,
        boundary=seeds.nodes,
        boundary_temps=(seeds.labels == hot).astype(float),
    )


def _blockwise_disagreement(params, seeds, values, per_block):
    offsets = params.block_offsets()
    seeded = np.zeros(params.n, dtype=bool)
    seeded[seeds.nodes] = True
    worst = 0.0
    for k in range(params.num_blocks):
        members = np.arange(offsets[k], offsets[k + 1])
        members = members[~seeded[members]]
        if members.size:
            worst = max(worst, float(np.abs(values[members] - per_block[k]).max()))
    return worst


def test_criterion_01_oracle_agreement_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        kb = int(rng.integers(1, 6))
        sizes = [int(rng.integers(2, max(3, 200 // kb))) for _ in range(kb)]
        seeds_c = [int(rng.integers(1, nk + 1)) for nk in sizes]
        params = BlockModelParams(
            sizes=tuple(sizes),
            seed_counts=tuple(seeds_c),
            p=float(rng.uniform(0.2, 3.0)),
            q=float(rng.uniform(0.2, 3.0)),
        )
        assert params.n <= 200
        hot = int(rng.integers(1, kb + 1))
        graph, seeds = build_deterministic_block_graph(params)
        if seeds.nodes.size == graph.n:
            continue
        oracle = closed_form_temperatures(params).per_block[hot - 1]
        field = solve_exact(_hot_problem(graph, seeds, hot))
        worst = max(worst, _blockwise_disagreement(params, seeds, field.values, oracle))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"50 random parameter sets, worst per-block disagreement {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_worked_instance():
    params = BlockModelParams(sizes=(2, 2), seed_counts=(1, 1), p=2.0, q=1.0)
    oracle = closed_form_temperatures(params)
    assert abs(oracle.mean[0] - 0.5) <= 1e-12
    assert abs(oracle.per_block[0, 0] - 0.6) <= 1e-12
    assert abs(oracle.per_block[0, 1] - 0.4) <= 1e-12
    graph, seeds = build_deterministic_block_graph(params)
    field = solve_exact(_hot_problem(graph, seeds))
    assert np.abs(field.values - np.array([1.0, 0.6, 0.0, 0.4])).max() <= 1e-12
    assert abs(field.values.mean() - 0.5) <= 1e-12
    _report(2, "mean 0.5, block temperatures (0.6, 0.4) from both oracle and exact solver")


def _theorem_grid():
    """Deterministic parameter grid with p > q everywhere, covering block-size
    and seed-count ratios up to 10 in both directions plus higher block counts."""
    pq_main = ((2.0, 1.0), (1.2, 1.0), (5.0, 1.0), (1.05, 1.0))
    # two blocks, big block oversized and overseeded
    for size_ratio in (1, 2, 5, 10):
        for seed_ratio in (1, 2, 5, 10):
            for p, q in pq_main:
                yield BlockModelParams(
                    sizes=(20 * size_ratio, 20), seed_counts=(2 * seed_ratio, 2), p=p, q=q
                )
    # two blocks, seed surplus on the small block
    for size_ratio in (2, 5, 10):
        for seed_ratio in (1, 2, 5, 10):
            for p, q in pq_main:
                yield BlockModelParams(
                    sizes=(20, 20 * size_ratio), seed_counts=(2 * seed_ratio, 2), p=p, q=q
                )
    # three blocks
    for sizes in ((10, 20, 40), (30, 6, 3), (25, 25, 25), (50, 10, 5)):
        for seed_counts in ((1, 2, 3), (5, 1, 1), (2, 2, 2)):
            for p, q in ((2.0, 1.0), (1.3, 1.0), (3.0, 2.0), (1.1, 1.0)):
                yield BlockModelParams(sizes=sizes, seed_counts=seed_counts, p=p, q=q)
    # four and five blocks
    for sizes in ((8, 8, 8, 8), (24, 12, 6, 3), (40, 4, 4, 4)):
        for seed_counts in ((1, 1, 1, 1), (3, 2, 2, 1)):
            for p, q in ((2.0, 1.0), (1.5, 1.0), (1.1, 1.0)):
                yield BlockModelParams(sizes=sizes, seed_counts=seed_counts, p=p, q=q)
    for sizes in ((6, 6, 6, 6, 6), (20, 10, 5, 4, 2)):
        for seed_counts in ((1, 1, 1, 1, 1), (2, 2, 1, 1, 1)):
            for p, q in ((2.0, 1.0), (1.2, 1.0)):
                yield BlockModelParams(sizes=sizes, seed_counts=seed_counts, p=p, q=q)
    # extreme seed asymmetry, including fully seeded blocks
    for s1 in (1, 10, 50, 100):
        for s2 in (1, 10):
            for p, q in ((2.0, 1.0), (1.05, 1.0)):
                yield BlockModelParams(sizes=(100, 100), seed_counts=(s1, s2), p=p, q=q)
    for seed_counts in ((1, 1), (11, 1), (1, 11), (55, 11)):
        for p, q in ((2.0, 1.0), (1.3, 1.0), (1.05, 1.0)):
            yield BlockModelParams(sizes=(110, 11), seed_counts=seed_counts, p=p, q=q)


def test_criterion_03_theorem_consistency_grid():
    start = time.perf_counter()
    opts = SolverOptions()
    points = list(_theorem_grid())
    assert len(points) >= 200
    for params in points[:200]:
        assert params.p > params.q
        graph, seeds = build_deterministic_block_graph(params)
        truth = block_labels(params)
        labels, _ = classify(one_vs_all_fields(graph, seeds, opts), seeds, "centered")
        non_seed = np.setdiff1d(np.arange(graph.n), seeds.nodes)
        assert np.array_equal(labels[non_seed], truth.labels[non_seed]), params
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"200-point grid (size and seed ratios up to 10), accuracy 1.0 everywhere, {elapsed:.1f}s")


def test_criterion_04_vanilla_failure_witness():
    params = BlockModelParams(sizes=(50, 50), seed_counts=(10, 2), p=2.0, q=1.0)
    t = closed_form_temperatures(params).per_block
    assert not t[1, 1] > t[0, 1]
    graph, seeds = build_deterministic_block_graph(params)
    truth = block_labels(params)
    opts = SolverOptions()
    fields = one_vs_all_fields(graph, seeds, opts)
    vanilla, _ = classify(fields, seeds, "vanilla")
    centered, _ = classify(fields, seeds, "centered")
    non_seed = np.setdiff1d(np.arange(graph.n), seeds.nodes)
    block2 = non_seed[truth.labels[non_seed] == 2]
    assert block2.size == 48
    assert np.all(vanilla[block2] == 1)  # every block-2 interior node wrong
    assert np.array_equal(centered[non_seed], truth.labels[non_seed])
    _report(4, "vanilla mislabels all 48 block-2 interior nodes; centered is exact")


def test_criterion_05_solver_equivalence():
    start = time.perf_counter()
    opts = SolverOptions(max_iterations=10_000, tolerance=1e-10)
    worst_gap = 0.0
    worst_residual = 0.0
    problems = make_fixture_problems()
    params = BlockModelParams(sizes=(1000, 1000), seed_counts=(100, 100), p=8e-3, q=8e-4)
    g, _, seeds = sbm_generate(params, rng_seed=5)
    problems.append(_hot_problem(g, seeds))
    for problem in problems:
        assert problem.graph.n <= 2000
        fi = solve_iterative(problem, opts)
        fe = solve_exact(problem)
        worst_gap = max(worst_gap, float(np.abs(fi.values - fe.values).max()))
        worst_residual = max(worst_residual, residual(problem, fi))
    elapsed = time.perf_counter() - start
    assert worst_gap < 1e-8
    assert worst_residual <= 10 * opts.tolerance
    assert elapsed < 30.0
    _report(
        5,
        f"{len(problems)} fixtures: max |iterative - exact| {worst_gap:.2e}, "
        f"max residual {worst_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_sbm_seed_asymmetry_protocol():
    start = time.perf_counter()
    params = BlockModelParams(sizes=(5000, 5000), seed_counts=(250, 250), p=1e-3, q=1e-4)
    cfg = ExperimentConfig(
        source=SbmSource(params=params),
        variants=("vanilla", "centered"),
        repetitions=10,
        solver=SolverOptions(max_iterations=100, tolerance=1e-9),
        sweep=Sweep(kind="seed_ratio", values=(1.0, 10.0)),
        master_seed=0,
    )
    table = run_experiment(cfg)
    means = {(variant, sweep): mean for variant, sweep, mean, _ in table.aggregate()}
    gap = means["centered", 10.0] - means["vanilla", 10.0]
    centered_at_1 = means["centered", 1.0]
    elapsed = time.perf_counter() - start
    assert gap >= 0.10
    assert centered_at_1 >= 0.90
    assert elapsed < 300.0
    _report(
        6,
        f"ratio 10: centered - vanilla = {gap:.3f} (>= 0.10); "
        f"ratio 1: centered macro-F1 {centered_at_1:.3f} (>= 0.90); "
        f"{len(table.failures)} seedless-component repetitions skipped; {elapsed:.1f}s",
    )


def test_criterion_07_karate_two_seeds(karate):
    start = time.perf_counter()
    i0 = karate.id_map["0"]   # instructor
    i33 = karate.id_map["33"]  # administrator
    truth = karate.labels.labels
    seeds = SeedSet.from_dict({i0: int(truth[i0]), i33: int(truth[i33])}, num_labels=2)
    labels, _ = classify(one_vs_all_fields(karate.graph, seeds, SolverOptions()), seeds, "centered")
    non_seed = np.setdiff1d(np.arange(karate.graph.n), seeds.nodes)
    wrong = int((labels[non_seed] != truth[non_seed]).sum())
    elapsed = time.perf_counter() - start
    assert non_seed.size == 32
    assert wrong <= 2
    assert elapsed < 1.0
    _report(7, f"{wrong} of 32 non-seed nodes misclassified, {elapsed:.3f}s")


def test_criterion_08_bundled_fixtures_direction(tmp_path):
    for name in ("karate-uniform", "blocks2-uniform", "blocks3-uniform"):
        out_dir = tmp_path / name
        assert cli_main(["bench", "--config", name, "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "aggregate.csv").read_text().strip().splitlines()[1:]
        means = {row.split(",")[0]: float(row.split(",")[2]) for row in lines}
        assert means["centered"] >= means["vanilla"], name
    _report(8, "centered mean macro-F1 >= vanilla on all bundled fixtures (uniform 1%, 10 reps)")


def test_criterion_09_bench_determinism(tmp_path):
    # the full fig2a also drops repetitions, so its records are reordered
    # around failures
    for config in ("fig2a-small", "fig2a"):
        a, b = tmp_path / config / "a", tmp_path / config / "b"
        for out in (a, b):
            assert cli_main(["bench", "--config", config, "--out-dir", str(out)]) == 0
        for name in ("results.csv", "aggregate.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (config, name)
    _report(9, "two bench runs of fig2a-small and of fig2a under one master seed produced byte-identical CSVs")


def measure_sweep_times(problem, num_sweeps=5):
    """Wall-clock seconds of individual relaxation sweeps on ``problem``."""
    g = problem.graph
    mask = boundary_mask(problem)
    pinned = pinned_vector(problem)
    t = pinned.copy()
    times = np.zeros(num_sweeps)
    for i in range(num_sweeps):
        start = time.perf_counter()
        t = jacobi_sweep(g, mask, pinned, t)
        times[i] = time.perf_counter() - start
    return times


def test_criterion_10_sweep_cost_scales_with_edges():
    base = BlockModelParams(sizes=(5000, 5000), seed_counts=(250, 250), p=1e-3, q=1e-4)
    scaled = BlockModelParams(sizes=(5000, 5000), seed_counts=(250, 250), p=4e-3, q=4e-4)
    medians = {}
    edge_counts = {}
    for tag, params in (("m", base), ("4m", scaled)):
        g, _, seeds = sbm_generate(params, rng_seed=12)
        problem = _hot_problem(g, seeds)
        measure_sweep_times(problem, num_sweeps=2)  # warm-up
        medians[tag] = float(np.median(measure_sweep_times(problem, num_sweeps=5)))
        edge_counts[tag] = g.num_edges
    edge_factor = edge_counts["4m"] / edge_counts["m"]
    time_factor = medians["4m"] / medians["m"]
    assert 3.0 <= edge_factor <= 5.0  # the scaled graph really is ~4x the edges
    assert time_factor <= 3.0 * edge_factor
    _report(
        10,
        f"edges x{edge_factor:.2f} -> per-sweep time x{time_factor:.2f} "
        f"(median of 5; linear bound x{3.0 * edge_factor:.1f})",
    )
