import dataclasses

import numpy as np
import pytest

import heatprop.experiments
import heatprop.solver
from heatprop import (
    BlockModelParams,
    DatasetSource,
    ExperimentConfig,
    NodePartition,
    SamplingPolicy,
    SbmSource,
    SolverOptions,
    Sweep,
    ValidationError,
    accuracy,
    macro_f1,
    per_class_f1,
    run_experiment,
    sample_seeds,
)
from heatprop.classify import classify
from heatprop.cli import _config_experiment, parse_config
from heatprop.datasets import config_path
from heatprop.experiments import derive_seed
from conftest import count_calls, path_graph, random_connected_graph, star_graph


def count_field_solves(monkeypatch) -> list:
    """Record every call of ``one_vs_all_fields`` made by the experiment runner."""
    return count_calls(monkeypatch, heatprop.experiments, "one_vs_all_fields")


ONE_AND_THREE_VARIANTS = [("centered",), ("vanilla", "weighted", "centered")]


def labeled_random_graph(rng, n=60, num_labels=3):
    g = random_connected_graph(rng, n, extra_edges=n)
    labels = NodePartition(labels=rng.integers(1, num_labels + 1, size=n), num_labels=num_labels)
    return g, labels


class TestSampling:
    def test_fraction_one_takes_all_labeled(self):
        rng = np.random.default_rng(83)
        g, labels = labeled_random_graph(rng)
        seeds = sample_seeds(labels, g, SamplingPolicy(kind="uniform", fraction=1.0, rng_seed=1))
        assert np.array_equal(seeds.nodes, labels.labeled_nodes())

    def test_uniform_count_accounting(self):
        rng = np.random.default_rng(89)
        g, labels = labeled_random_graph(rng, n=97)
        for fraction in (0.1, 0.33, 0.5):
            seeds = sample_seeds(labels, g, SamplingPolicy(kind="uniform", fraction=fraction, rng_seed=2))
            assert seeds.nodes.size == int(np.ceil(fraction * 97))

    def test_explicit_counts_exact(self):
        rng = np.random.default_rng(97)
        g, labels = labeled_random_graph(rng, num_labels=2)
        policy = SamplingPolicy(kind="explicit_counts", counts=(10, 2), rng_seed=3)
        seeds = sample_seeds(labels, g, policy)
        assert seeds.nodes.size == 12
        assert np.array_equal(seeds.seed_counts()[1:], [10, 2])

    def test_every_present_label_covered(self):
        rng = np.random.default_rng(101)
        g, labels = labeled_random_graph(rng, n=200, num_labels=5)
        for kind in ("uniform", "degree"):
            seeds = sample_seeds(labels, g, SamplingPolicy(kind=kind, fraction=0.05, rng_seed=4))
            assert np.array_equal(np.unique(seeds.labels), [1, 2, 3, 4, 5])

    def test_degree_policy_single_draw_inclusion_probability(self):
        # star center holds half the total degree: 10^4 single-node draws
        # should pick it about half the time (binomial 3-sigma band)
        g = star_graph(8)
        labels = NodePartition(labels=np.ones(9, dtype=int), num_labels=1)
        trials = 10_000
        hits = 0
        base = SamplingPolicy(kind="degree", fraction=1e-9, rng_seed=0)
        for t in range(trials):
            seeds = sample_seeds(labels, g, dataclasses.replace(base, rng_seed=t))
            assert seeds.nodes.size == 1
            hits += int(seeds.nodes[0] == 0)
        p = g.degrees[0] / g.degrees.sum()  # 8/16
        sigma = np.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) < 3 * sigma

    def test_balanced_quota_proportional(self):
        rng = np.random.default_rng(103)
        labels = NodePartition(
            labels=np.repeat([1, 2], [300, 100]), num_labels=2
        )
        g = random_connected_graph(rng, 400, extra_edges=400)
        seeds = sample_seeds(labels, g, SamplingPolicy(kind="balanced", fraction=0.1, rng_seed=5))
        assert np.array_equal(seeds.seed_counts()[1:], [30, 10])

    def test_balanced_floor_of_one(self):
        rng = np.random.default_rng(107)
        labels = NodePartition(labels=np.repeat([1, 2], [390, 10]), num_labels=2)
        g = random_connected_graph(rng, 400, extra_edges=200)
        seeds = sample_seeds(labels, g, SamplingPolicy(kind="balanced", fraction=0.01, rng_seed=6))
        assert seeds.seed_counts()[2] == 1

    def test_unlabeled_nodes_never_sampled(self):
        rng = np.random.default_rng(109)
        g = random_connected_graph(rng, 50, extra_edges=50)
        raw = np.zeros(50, dtype=int)
        raw[:20] = rng.integers(1, 3, size=20)
        raw[:2] = [1, 2]
        labels = NodePartition(labels=raw, num_labels=2)
        seeds = sample_seeds(labels, g, SamplingPolicy(kind="uniform", fraction=0.5, rng_seed=7))
        assert np.all(labels.labels[seeds.nodes] > 0)
        assert seeds.nodes.size == int(np.ceil(0.5 * 20))

    def test_impossible_count_errors(self):
        rng = np.random.default_rng(113)
        g, labels = labeled_random_graph(rng, n=10, num_labels=2)
        policy = SamplingPolicy(kind="explicit_counts", counts=(50, 1), rng_seed=8)
        with pytest.raises(ValidationError, match="only"):
            sample_seeds(labels, g, policy)

    @pytest.mark.parametrize(
        ("raw", "num_labels", "policy", "message"),
        [
            # one label-2 node among 5,000: two uniform picks rarely cover it
            ([2] + [1] * 4999, 2, SamplingPolicy(kind="uniform", fraction=1e-9, rng_seed=9),
             "failed to cover all 2 labels after 100 draws"),
            ([1, 2, 1, 2], 2, SamplingPolicy(kind="explicit_counts", counts=(1, 1, 1)),
             "expected 2 per-label counts, got 3"),
            ([1, 2, 1, 2], 2, SamplingPolicy(kind="explicit_counts", counts=(1, 0)),
             "label 2 is present but was allotted no seeds"),
        ],
        ids=["no-coverage", "count-number", "no-seeds"],
    )
    def test_sampler_errors(self, raw, num_labels, policy, message):
        labels = NodePartition(labels=np.array(raw), num_labels=num_labels)
        with pytest.raises(ValidationError, match=f"^{message}"):
            sample_seeds(labels, path_graph(len(raw)), policy)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(127)
        g, labels = labeled_random_graph(rng)
        p = SamplingPolicy(kind="degree", fraction=0.2, rng_seed=99)
        s1 = sample_seeds(labels, g, p)
        s2 = sample_seeds(labels, g, p)
        assert np.array_equal(s1.nodes, s2.nodes)


class TestMetrics:
    def test_perfect_prediction(self):
        truth = np.array([1, 2, 1, 2, 3])
        assert macro_f1(truth, truth, 3) == 1.0
        assert accuracy(truth, truth) == 1.0

    def test_all_one_prediction_on_balanced_binary(self):
        truth = np.repeat([1, 2], 10)
        pred = np.ones(20, dtype=int)
        f1 = per_class_f1(pred, truth, 2)
        assert f1[0] == pytest.approx(2 / 3)
        assert f1[1] == 0.0
        assert macro_f1(pred, truth, 2) == pytest.approx(1 / 3)

    def test_single_class(self):
        truth = np.ones(5, dtype=int)
        assert macro_f1(truth, truth, 1) == 1.0

    def test_absent_class_contributes_zero(self):
        truth = np.array([1, 1, 2, 2])
        pred = np.array([1, 1, 2, 2])
        assert macro_f1(pred, truth, 3) == pytest.approx(2 / 3)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(131)
        truth = rng.integers(1, 4, size=60)
        pred = rng.integers(1, 4, size=60)
        perm = {1: 2, 2: 3, 3: 1}
        remap = np.vectorize(perm.get)
        assert macro_f1(pred, truth, 3) == pytest.approx(
            macro_f1(remap(pred), remap(truth), 3), abs=1e-15
        )


class TestRunExperiment:
    @staticmethod
    def small_cfg(**overrides):
        params = BlockModelParams(sizes=(60, 60), seed_counts=(6, 6), p=0.15, q=0.02)
        base = dict(
            source=SbmSource(params=params),
            variants=("vanilla", "centered"),
            repetitions=3,
            solver=SolverOptions(max_iterations=80),
            sweep=Sweep(kind="seed_ratio", values=(1.0, 4.0)),
            master_seed=17,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_row_grid_shape(self):
        table = run_experiment(self.small_cfg())
        rows = table.rows()
        assert len(rows) + 2 * len(table.failures) == 2 * 2 * 3
        seen = {(variant, sweep, rep) for variant, sweep, rep, *_ in rows}
        assert len(seen) == len(rows)

    def test_variants_share_graph_and_seeds_within_rep(self, monkeypatch):
        cells = count_calls(monkeypatch, heatprop.experiments, "_run_one")
        solves = count_field_solves(monkeypatch)
        table = run_experiment(self.small_cfg())
        # one field solve per repetition, shared by both variants
        assert not table.failures and len(table.reps) == 2 * 3 and len(table.rows()) == 2 * len(table.reps)
        assert len(solves) == len(cells) == len(table.reps)
        # every cell draws its own seed set
        assert len({seeds.nodes.tobytes() for _, seeds, _ in solves}) == len(cells)
        # every point of the seed_ratio sweep scores its repetition's graph,
        # and each repetition draws its own
        graphs = {}
        for (_, _, _, rep, _), (graph, _, _) in zip(cells, solves, strict=True):
            csr = tuple(a.tobytes() for a in (graph.indptr, graph.indices, graph.weights))
            graphs.setdefault(rep, set()).add(csr)
        assert sorted(graphs) == [0, 1, 2] and all(len(csr) == 1 for csr in graphs.values())
        assert len(set().union(*graphs.values())) == 3

    @pytest.mark.parametrize("kind, graph_points", [("seed_ratio", (0,)), ("size_ratio", (0, 1))])
    def test_graph_drawn_per_repetition_unless_the_sweep_changes_its_law(self, monkeypatch, kind, graph_points):
        draws = count_calls(monkeypatch, heatprop.experiments, "sbm_generate")
        solves = count_field_solves(monkeypatch)
        table = run_experiment(self.small_cfg(sweep=Sweep(kind=kind, values=(1.0, 2.0))))
        # seed_ratio: one draw per repetition, from point 0's stream;
        # size_ratio: one draw per (point, repetition) from its own stream
        expected = [derive_seed(17, pi, rep, 0) for pi in graph_points for rep in range(3)]
        assert sorted(seed for _, seed in draws) == sorted(expected)
        assert not table.failures and len(solves) == 2 * 3
        distinct = {tuple(a.tobytes() for a in (g.indptr, g.indices, g.weights)) for g, _, _ in solves}
        assert len(distinct) == len(expected)

    def test_records_in_point_then_repetition_order(self):
        # master seed 1 fails repetitions 0 and 2 of both points; the values
        # run against their config order
        params = BlockModelParams(sizes=(30, 30), seed_counts=(2, 2), p=0.1, q=0.02)
        sweep = Sweep(kind="seed_ratio", values=(4.0, 1.0))
        table = run_experiment(ExperimentConfig(source=SbmSource(params=params), repetitions=4, master_seed=1, sweep=sweep))
        assert [(r.sweep, r.rep) for r in table.reps] == [(4.0, 1), (4.0, 3), (1.0, 1), (1.0, 3)]
        assert [(f.sweep, f.rep) for f in table.failures] == [(4.0, 0), (4.0, 2), (1.0, 0), (1.0, 2)]

    def test_deterministic_table(self, monkeypatch):
        solves = count_field_solves(monkeypatch)
        t1 = run_experiment(self.small_cfg())
        t2 = run_experiment(self.small_cfg())
        assert t1.reps and t1.reps == t2.reps and t1.failures == t2.failures
        first, second = solves[: len(solves) // 2], solves[len(solves) // 2 :]
        for (g1, s1, _), (g2, s2, _) in zip(first, second, strict=True):
            assert g1.indices.tobytes() == g2.indices.tobytes()
            assert s1.nodes.tobytes() == s2.nodes.tobytes() and s1.labels.tobytes() == s2.labels.tobytes()

    def test_aggregate_recomputes_from_rows(self):
        table = run_experiment(self.small_cfg())
        for variant, sweep, mean, std in table.aggregate():
            vals = [f1 for v, s, _, f1, *_ in table.rows() if v == variant and s == sweep]
            assert mean == float(np.mean(vals))
            assert std == float(np.std(vals))

    def test_seed_asymmetry_direction(self):
        # at ratio 4 the centered rule should beat the vanilla rule on average
        table = run_experiment(self.small_cfg(repetitions=4))
        means = {(variant, sweep): mean for variant, sweep, mean, _ in table.aggregate()}
        assert means["centered", 4.0] > means["vanilla", 4.0]

    def test_dataset_source_requires_policy(self):
        rng = np.random.default_rng(137)
        g, labels = labeled_random_graph(rng)
        source = DatasetSource(graph=g, labels=labels)
        with pytest.raises(ValidationError, match="explicit sampling policy"):
            ExperimentConfig(source=source, repetitions=2, master_seed=1)
        policy = SamplingPolicy(kind="uniform", fraction=0.2)
        cfg = ExperimentConfig(source=source, repetitions=2, master_seed=1, policy=policy)
        assert len(run_experiment(cfg).rows()) == 4

    @pytest.mark.parametrize("size", [59, 61])
    def test_dataset_source_needs_one_label_per_node(self, size):
        g, labels = labeled_random_graph(np.random.default_rng(141))
        wrong = NodePartition(labels=np.resize(labels.labels, size), num_labels=labels.num_labels)
        with pytest.raises(ValidationError, match=f"{size} labels for a graph of 60 nodes"):
            DatasetSource(graph=g, labels=wrong)

    def test_dataset_source_rejects_sweep(self):
        g, labels = labeled_random_graph(np.random.default_rng(139))
        policy = SamplingPolicy(kind="uniform", fraction=0.2)
        with pytest.raises(ValidationError, match="block-model sources only"):
            ExperimentConfig(
                source=DatasetSource(graph=g, labels=labels),
                policy=policy,
                sweep=Sweep(kind="size_ratio", values=(1.0, 2.0)),
            )

    @pytest.mark.parametrize("source", [None, "karate"])
    def test_source_type_checked_at_config_time(self, source):
        with pytest.raises(ValidationError, match="needs a graph source"):
            ExperimentConfig(source=source)

    def test_unknown_variant_rejected_at_config_time(self):
        with pytest.raises(ValidationError, match="unknown variants centred"):
            self.small_cfg(variants=("vanilla", "centred"))

    def test_repeated_variant_rejected_at_config_time(self):
        with pytest.raises(ValidationError, match="^variant centered appears more than once$"):
            self.small_cfg(variants=("centered", "centered", "vanilla"))

    def test_repeated_sweep_value_rejected(self):
        with pytest.raises(ValidationError, match="^sweep value 1 appears more than once$"):
            Sweep(kind="seed_ratio", values=(1, 1.0, 2))

    @pytest.mark.parametrize(
        ("counts", "message"),
        [
            ((1, 1, 1), "expected 2 per-label counts, got 3"),
            ((0, 2), "label 1 is present but was allotted no seeds"),
            ((100, 2), "label 1 has only 17 labeled nodes, requested 100"),
        ],
    )
    def test_undrawable_explicit_counts_rejected_at_config_time(self, karate, counts, message):
        source = DatasetSource(graph=karate.graph, labels=karate.labels)
        policy = SamplingPolicy(kind="explicit_counts", counts=counts)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExperimentConfig(source=source, policy=policy)

    def test_block_model_labels_are_its_blocks(self):
        policy = SamplingPolicy(kind="explicit_counts", counts=(61, 1))
        with pytest.raises(ValidationError, match="^label 1 has only 60 labeled nodes, requested 61$"):
            self.small_cfg(sweep=None, policy=policy)
        assert self.small_cfg(sweep=None, policy=dataclasses.replace(policy, counts=(60, 1))).policy.counts == (60, 1)

    @pytest.mark.parametrize(
        ("sweep", "policy", "rejected"),
        [
            ("seed_ratio", SamplingPolicy(kind="uniform", fraction=0.1), True),
            ("seed_ratio", SamplingPolicy(kind="explicit_counts", counts=(6, 6)), True),
            ("size_ratio", SamplingPolicy(kind="explicit_counts", counts=(6, 6)), True),
            ("size_ratio", SamplingPolicy(kind="uniform", fraction=0.1), False),
        ],
    )
    def test_policy_overriding_swept_counts_rejected(self, sweep, policy, rejected):
        overrides = dict(sweep=Sweep(kind=sweep, values=(1.0, 4.0)), policy=policy)
        if rejected:
            with pytest.raises(ValidationError, match="overrides the seed counts"):
                self.small_cfg(**overrides)
        else:
            assert self.small_cfg(**overrides).policy == policy

    def test_size_ratio_sweep_reshapes_blocks(self):
        from heatprop.experiments import _swept_params

        params = BlockModelParams(sizes=(5000, 5000), seed_counts=(500, 500), p=1e-3, q=1e-4)
        swept = _swept_params(params, Sweep(kind="size_ratio", values=(4.0,)), 4.0)
        assert swept.n == 10_000
        assert swept.sizes == (8000, 2000)
        assert sum(swept.seed_counts) == 1000
        assert swept.seed_counts == (800, 200)

    @pytest.mark.parametrize("variants", ONE_AND_THREE_VARIANTS)
    def test_fields_solved_once_per_repetition(self, monkeypatch, variants):
        calls = count_field_solves(monkeypatch)
        # dense enough that no draw leaves a component without seeds
        params = BlockModelParams(sizes=(20, 20, 20), seed_counts=(1, 1, 1), p=0.5, q=0.1)
        cfg = ExperimentConfig(
            source=SbmSource(params=params),
            variants=variants,
            repetitions=3,
            sweep=Sweep(kind="seed_ratio", values=(1.0, 2.0)),
        )
        table = run_experiment(cfg)
        assert not table.failures
        assert len(table.rows()) == 2 * 3 * len(variants)
        assert len(calls) == 2 * 3

    def test_solve_budget_on_sbm_sweep_slot(self, monkeypatch):
        # one repetition of the benchmark's sbm-sweep slot shape; master seed
        # 1 draws a graph where every component holds a seed
        solves = count_calls(monkeypatch, heatprop.solver, "solve_iterative")
        matvecs = count_calls(monkeypatch, heatprop.solver, "transition_apply")
        params = BlockModelParams(sizes=(5000, 5000), seed_counts=(250, 250), p=1e-3, q=1e-4)
        cfg = ExperimentConfig(source=SbmSource(params=params), repetitions=1, master_seed=1)
        table = run_experiment(cfg)
        assert not table.failures and len(table.rows()) == 2
        # two labels: one field solved, the other derived; the record keeps
        # the outcome of both
        assert len(solves) == 1
        solved, derived = table.reps[0].infos
        iterations = solved.iterations
        # the cap check follows the tolerance check, so fewer iterations than
        # the cap means the tolerance stopped the solve
        assert solved.stop_reason == "tolerance" and iterations < SolverOptions().max_iterations
        assert derived.stop_reason == "derived" and derived.iterations == 0
        assert [row[-1] for row in table.rows()] == [iterations, iterations]
        assert len(matvecs) == 1 + iterations <= 101

    def test_failed_repetition_recorded_not_dropped(self):
        # both draws of this sparse model hold a component without a seed
        params = BlockModelParams(sizes=(30, 30), seed_counts=(2, 2), p=0.05, q=0.01)
        table = run_experiment(ExperimentConfig(source=SbmSource(params=params), repetitions=2, master_seed=3))
        assert len(table.reps) == 0
        assert len(table.failures) == 2
        assert all("has no boundary node" in failure.message for failure in table.failures)

    def test_sweep_point_with_invalid_block_model_rejected(self):
        params = BlockModelParams(sizes=(30, 30), seed_counts=(2, 2), p=0.2, q=0.05)
        sweep = Sweep(kind="seed_ratio", values=(1.0, 20.0))  # 20 wants 40 seeds in a 30-node block
        with pytest.raises(ValidationError, match="^sweep value 20: seed count 40 must satisfy"):
            ExperimentConfig(source=SbmSource(params=params), sweep=sweep)


class TestStoppingTolerance:
    def test_default_tolerance_keeps_the_labels_of_an_exact_solve(self, monkeypatch):
        # labels read only the order of each node's scores: on every cell of
        # the bundled fig2a-small, fields solved at the default tolerance
        # give the centered labels of fields solved to rounding (tolerance
        # 0) on every node, and move a vanilla label only where its two best
        # scores tie to rounding
        cfg = _config_experiment(parse_config(config_path("fig2a-small").read_text(encoding="utf-8")))
        cfg = dataclasses.replace(cfg, solver=SolverOptions())
        original = heatprop.experiments.one_vs_all_fields
        cells = []

        def both(g, seeds, opts):
            fields = original(g, seeds, opts)
            cells.append((seeds, original(g, seeds, dataclasses.replace(opts, tolerance=0.0)), fields))
            return fields

        monkeypatch.setattr(heatprop.experiments, "one_vs_all_fields", both)
        table = run_experiment(cfg)
        assert len(cells) == len(table.reps) == 20
        for seeds, exact, fields in cells:
            assert np.array_equal(classify(fields, seeds, "centered")[0], classify(exact, seeds, "centered")[0])
            exact_labels, gap = classify(exact, seeds, "vanilla")
            moved = classify(fields, seeds, "vanilla")[0] != exact_labels
            assert np.all(gap[moved] <= 8 * heatprop.solver.EPS)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(0, 1, 2, 0)
        assert a == derive_seed(0, 1, 2, 0)
        assert a != derive_seed(0, 1, 2, 1)
        assert a != derive_seed(1, 1, 2, 0)
