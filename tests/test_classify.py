import numpy as np
import pytest

import heatprop.solver
from heatprop import SeedSet, SolverOptions, TemperatureField, ValidationError, solve_iterative
from heatprop.blockmodel import BlockModelParams, block_labels, build_deterministic_block_graph
from heatprop.classify import VARIANTS, classify, one_vs_all_fields, one_vs_all_problem, scores_from_fields
from conftest import barbell_graph, count_calls, path_graph, random_connected_graph


def diffuse(g, seeds, k, opts=None):
    """The solved one-vs-all field of label ``k``."""
    return solve_iterative(one_vs_all_problem(g, seeds, k), opts)


def classify_graph(g, seeds, variant, opts=None):
    """``(labels, confidence)`` of ``variant`` on freshly solved fields."""
    return classify(one_vs_all_fields(g, seeds, opts), seeds, variant)


def scores_of(g, seeds, variant, opts=None):
    return scores_from_fields(one_vs_all_fields(g, seeds, opts), seeds, variant)


def karate_two_seeds(karate):
    i0 = karate.id_map["0"]
    i33 = karate.id_map["33"]
    lab = karate.labels.labels
    return SeedSet.from_dict({i0: int(lab[i0]), i33: int(lab[i33])}, num_labels=2)


class TestDiffuse:
    def test_karate_field_bounded_with_hot_seed(self, karate):
        seeds = karate_two_seeds(karate)
        f = diffuse(karate.graph, seeds, 1, SolverOptions())
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0
        assert f.values[karate.id_map["0"]] == 1.0

    def test_all_nodes_seeded_gives_indicator(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 1: 2, 2: 1, 3: 2})
        f = diffuse(g, seeds, 1)
        assert np.array_equal(f.values, [1.0, 0.0, 1.0, 0.0])
        assert (f.info.iterations, f.info.final_change, f.info.stop_reason) == (0, 0.0, "tolerance")

    def test_single_label_extends_to_all_ones(self):
        g = path_graph(5)
        seeds = SeedSet.from_dict({0: 1, 4: 1})
        f = diffuse(g, seeds, 1, SolverOptions())
        assert np.allclose(f.values, 1.0, atol=1e-12)

    def test_unseeded_label_rejected(self):
        # a label without seeds has no hot boundary: the seed set is refused
        with pytest.raises(ValidationError, match=r"^label\(s\) without seeds: \[2\]$"):
            SeedSet.from_dict({0: 1, 3: 1}, num_labels=2)


class TestSeedSet:
    @pytest.mark.parametrize(
        "nodes, labels, num_labels, message",
        [
            ([], [], 1, "seed set must be nonempty"),
            ([0, 1], [1], 1, "every seed needs exactly one label"),
            ([1, 0], [1, 1, 1], 1, "every seed needs exactly one label"),
            ([2, 0, 2], [1, 1, 1], 1, "duplicate seed node"),
            ([0], [1], 0, "need at least one label"),
            ([0, 1], [1, 3], 2, r"seed labels must lie in \[1, 2\]"),
            ([0, 1], [0, 1], 1, r"seed labels must lie in \[1, 1\]"),
        ],
        ids=["empty", "labels-short", "labels-long", "duplicate", "no-label", "label-above", "label-zero"],
    )
    def test_rejected(self, nodes, labels, num_labels, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SeedSet(nodes=np.array(nodes), labels=np.array(labels), num_labels=num_labels)


class TestCenter:
    @staticmethod
    def centered(values):
        """The centered score column of one field."""
        field = TemperatureField(values=np.array(values))
        return scores_from_fields((field,), SeedSet.from_dict({0: 1}), "centered")[:, 0]

    def test_simple_shift(self):
        assert np.allclose(self.centered([1.0, 0.5, 0.0]), [0.5, 0.0, -0.5], atol=1e-15)

    def test_constant_becomes_zero(self):
        assert np.abs(self.centered(np.full(7, 0.42))).max() < 1e-15

    def test_block_instance_centering(self):
        out = self.centered([1.0, 3 / 5, 0.0, 2 / 5])
        assert np.allclose(out, [0.5, 0.1, -0.5, -0.1], atol=1e-15)
        assert abs(out.mean()) < 1e-12


class TestClassify:
    def test_block_model_centered_recovers_blocks(self):
        params = BlockModelParams(sizes=(2, 2), seed_counts=(1, 1), p=2.0, q=1.0)
        g, seeds = build_deterministic_block_graph(params)
        truth = block_labels(params)
        labels, _ = classify_graph(g, seeds, "centered", SolverOptions())
        assert np.array_equal(labels, truth.labels)

    def test_seed_asymmetry_vanilla_fails_centered_does_not(self):
        params = BlockModelParams(sizes=(50, 50), seed_counts=(10, 2), p=2.0, q=1.0)
        g, seeds = build_deterministic_block_graph(params)
        truth = block_labels(params)
        fields = one_vs_all_fields(g, seeds, SolverOptions())
        vanilla, _ = classify(fields, seeds, "vanilla")
        centered, _ = classify(fields, seeds, "centered")
        non_seed = np.setdiff1d(np.arange(g.n), seeds.nodes)
        block2_interior = non_seed[truth.labels[non_seed] == 2]
        assert np.all(vanilla[block2_interior] == 1)
        assert np.array_equal(centered, truth.labels)

    def test_all_seeds_gives_one_hot_scores(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 1: 2, 2: 1, 3: 2})
        fields = one_vs_all_fields(g, seeds)
        expect = np.zeros((4, 2))
        expect[[0, 2], 0] = 1.0
        expect[[1, 3], 1] = 1.0
        assert np.array_equal(scores_from_fields(fields, seeds, "vanilla"), expect)
        assert np.array_equal(classify(fields, seeds, "vanilla")[0], [1, 2, 1, 2])
        assert max(f.info.iterations for f in fields) == 0

    def test_components_computed_once_per_graph(self, monkeypatch):
        import heatprop.graph

        calls = count_calls(monkeypatch, heatprop.graph, "connected_components")
        g = random_connected_graph(np.random.default_rng(12), 30, extra_edges=20)
        seeds = SeedSet.from_dict({0: 1, 1: 2, 2: 2, 3: 3, 4: 3, 5: 3})
        fields = one_vs_all_fields(g, seeds)
        one_vs_all_fields(g, seeds)
        assert len(fields) == 3
        assert calls == [(g,)]
        # every pair of a block graph's nodes is joined: it is never searched
        params = BlockModelParams(sizes=(10, 10, 10), seed_counts=(1, 2, 3), p=2.0, q=1.0)
        block, block_seeds = build_deterministic_block_graph(params)
        one_vs_all_fields(block, block_seeds)
        assert calls == [(g,)]

    def test_missing_label_errors_before_solving(self):
        # the seed set is refused at construction, so no field is solved
        with pytest.raises(ValidationError, match=r"^label\(s\) without seeds: \[2, 3\]$"):
            SeedSet(nodes=np.array([0, 3]), labels=np.array([1, 1]), num_labels=3)

    def test_centered_columns_have_zero_mean(self, karate):
        seeds = karate_two_seeds(karate)
        scores = scores_of(karate.graph, seeds, "centered", SolverOptions())
        assert np.abs(scores.mean(axis=0)).max() < 1e-10

    def test_vanilla_columns_in_unit_interval(self, karate):
        seeds = karate_two_seeds(karate)
        scores = scores_of(karate.graph, seeds, "vanilla", SolverOptions())
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_weighted_rescales_by_seed_share(self, karate):
        seeds = karate_two_seeds(karate)
        fields = one_vs_all_fields(karate.graph, seeds, SolverOptions())
        raw = scores_from_fields(fields, seeds, "vanilla")
        weighted = scores_from_fields(fields, seeds, "weighted")
        assert np.allclose(weighted, raw * 0.5)

    def test_deterministic_bitwise(self, karate):
        seeds = karate_two_seeds(karate)
        opts = SolverOptions(max_iterations=60, tolerance=1e-9)
        f1 = one_vs_all_fields(karate.graph, seeds, opts)
        f2 = one_vs_all_fields(karate.graph, seeds, opts)
        assert np.array_equal(scores_from_fields(f1, seeds, "centered"), scores_from_fields(f2, seeds, "centered"))
        (l1, c1), (l2, c2) = classify(f1, seeds, "centered"), classify(f2, seeds, "centered")
        assert np.array_equal(l1, l2)
        assert np.array_equal(c1, c2)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 40, extra_edges=50)
        nodes = rng.choice(40, size=9, replace=False)
        labels = np.repeat([1, 2, 3], 3)
        seeds = SeedSet(nodes=nodes, labels=labels, num_labels=3)
        perm = {1: 3, 2: 1, 3: 2}
        seeds_p = SeedSet(
            nodes=nodes, labels=np.array([perm[v] for v in labels]), num_labels=3
        )
        labels, _ = classify_graph(g, seeds, "centered", SolverOptions())
        labels_p, _ = classify_graph(g, seeds_p, "centered", SolverOptions())
        assert np.array_equal(np.vectorize(perm.get)(labels), labels_p)

    def test_column_shift_does_not_change_centered_labels(self):
        rng = np.random.default_rng(37)
        g = random_connected_graph(rng, 30, extra_edges=30)
        nodes = rng.choice(30, size=6, replace=False)
        seeds = SeedSet(nodes=nodes, labels=np.repeat([1, 2, 3], 2), num_labels=3)
        fields = one_vs_all_fields(g, seeds, SolverOptions())
        shifted = tuple(
            TemperatureField(values=f.values + c) for f, c in zip(fields, (0.7, -2.0, 13.0))
        )
        base, _ = classify(fields, seeds, "centered")
        moved, _ = classify(shifted, seeds, "centered")
        assert np.array_equal(base, moved)

    def test_confidence_is_score_gap(self):
        params = BlockModelParams(sizes=(3, 3), seed_counts=(1, 1), p=3.0, q=1.0)
        g, seeds = build_deterministic_block_graph(params)
        fields = one_vs_all_fields(g, seeds, SolverOptions())
        s = np.sort(scores_from_fields(fields, seeds, "centered"), axis=1)
        assert np.allclose(classify(fields, seeds, "centered")[1], s[:, -1] - s[:, -2])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_single_label_has_zero_confidence(self, variant):
        g = path_graph(5)
        seeds = SeedSet.from_dict({0: 1, 4: 1})
        labels, confidence = classify_graph(g, seeds, variant)
        assert labels.tolist() == [1] * 5
        assert np.array_equal(confidence, np.zeros(5))

    @pytest.mark.parametrize("num_labels", [2, 3, 5, 8])
    def test_confidence_equals_the_partition_gap_to_the_bit(self, num_labels):
        # the running top two gives the gap that np.partition gives, ties included
        rng = np.random.default_rng(43)
        seeds = SeedSet(nodes=np.arange(num_labels), labels=np.arange(1, num_labels + 1), num_labels=num_labels)
        for trial in range(100):
            n = int(rng.integers(num_labels, 300))
            raw = rng.normal(size=(n, num_labels))
            if trial % 2:  # a coarse grid: many tied best and runner-up scores
                raw = rng.integers(0, 4, size=(n, num_labels)) / 4.0
            fields = tuple(TemperatureField(values=col) for col in raw.T)
            top2 = np.partition(raw, num_labels - 2, axis=1)[:, -2:]
            confidence = classify(fields, seeds, "vanilla")[1]
            assert confidence.tobytes() == (top2[:, 1] - top2[:, 0]).tobytes()


def three_label_seeds(rng, n):
    nodes = rng.choice(n, size=9, replace=False)
    return SeedSet(nodes=nodes, labels=np.repeat([1, 2, 3], 3), num_labels=3)


class TestPartitionOfUnity:
    @pytest.mark.parametrize("num_labels", [1, 2, 3])
    def test_solves_per_mode(self, monkeypatch, num_labels):
        iterative = count_calls(monkeypatch, heatprop.solver, "solve_iterative")
        g = random_connected_graph(np.random.default_rng(41), 30, extra_edges=30)
        labels = np.arange(1, num_labels + 1)
        seeds = SeedSet(nodes=labels - 1, labels=labels, num_labels=num_labels)
        fields = one_vs_all_fields(g, seeds)
        # K=1 has no other field to derive from
        assert len(iterative) == max(num_labels - 1, 1)
        assert len(fields) == num_labels

    def test_derived_field_matches_solved(self):
        rng = np.random.default_rng(43)
        g = random_connected_graph(rng, 200, extra_edges=200)
        seeds = three_label_seeds(rng, 200)
        # the bound compares field values, which the default tolerance,
        # chosen for the labels, does not bring within 1e-8
        opts = SolverOptions(tolerance=1e-9)
        fields = one_vs_all_fields(g, seeds, opts)
        solved = diffuse(g, seeds, 3, opts)
        assert np.abs(fields[2].values - solved.values).max() < 1e-8
        assert [f.info.stop_reason for f in fields] == ["tolerance", "tolerance", "derived"]
        assert fields[2].info.iterations == 0
        assert fields[2].info.final_change == sum(f.info.final_change for f in fields[:2])

    def test_fields_sum_to_one(self):
        rng = np.random.default_rng(47)
        opts = SolverOptions()
        for n in (40, 200):
            g = random_connected_graph(rng, n, extra_edges=n)
            fields = one_vs_all_fields(g, three_label_seeds(rng, n), opts)
            total = sum(f.values for f in fields)
            assert np.abs(total - 1.0).max() <= len(fields) * opts.tolerance

    def test_maximum_principle_before_convergence(self):
        # the unclipped 1 - sum leaves [0, 1] after 5 and 8 iterations here
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 200, extra_edges=200)
        seeds = three_label_seeds(rng, 200)
        for cap in (5, 8, 100):
            fields = one_vs_all_fields(g, seeds, SolverOptions(max_iterations=cap))
            assert all(f.values.min() >= 0.0 and f.values.max() <= 1.0 for f in fields)


class TestClassifyBinary:
    """``classify`` with K=2: ``vanilla`` thresholds label 1's temperature at
    0.5, ``centered`` at its mean."""

    def test_karate_mean_threshold(self, karate):
        seeds = karate_two_seeds(karate)
        labels, _ = classify_graph(karate.graph, seeds, "centered", SolverOptions())
        truth = karate.labels.labels
        non = np.setdiff1d(np.arange(karate.graph.n), seeds.nodes)
        wrong = int((labels[non] != truth[non]).sum())
        assert non.size == 32
        assert wrong <= 1

    def test_barbell_both_thresholds(self):
        g, a, b = barbell_graph(5)
        seeds = SeedSet.from_dict({int(a[0]): 1, int(b[-1]): 2})
        for variant in ("vanilla", "centered"):
            labels, _ = classify_graph(g, seeds, variant, SolverOptions())
            assert np.all(labels[a] == 1)
            assert np.all(labels[b] == 2)

    def test_barbell_symmetry_forces_mean_half(self):
        g, a, b = barbell_graph(5)
        seeds = SeedSet.from_dict({int(a[0]): 1, int(b[-1]): 2})
        f = diffuse(g, seeds, 1, SolverOptions())
        assert f.values.mean() == pytest.approx(0.5, abs=1e-12)

    def test_path_tie_goes_to_label_one(self):
        g = path_graph(3)
        seeds = SeedSet.from_dict({0: 1, 2: 2})
        for variant in VARIANTS:
            labels, confidence = classify_graph(g, seeds, variant, SolverOptions())
            # node 1 scores the same for both labels: the smaller label wins
            assert labels[1] == 1
            assert confidence[1] == 0.0

    def test_confidence_distance_to_threshold(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 3: 2})
        _, confidence = classify_graph(g, seeds, "vanilla", SolverOptions())
        t = np.array([1.0, 2 / 3, 1 / 3, 0.0])
        assert np.allclose(confidence, np.abs(2 * t - 1))

    def test_matches_centered_argmax_off_ties(self, karate):
        # the two-column centered argmax reduces to the mean threshold
        fixtures = [
            (karate.graph, karate_two_seeds(karate)),
        ]
        g, a, b = barbell_graph(5)
        fixtures.append((g, SeedSet.from_dict({int(a[0]): 1, int(b[-1]): 2})))
        rng = np.random.default_rng(41)
        for _ in range(5):
            gr = random_connected_graph(rng, 30, extra_edges=40)
            nodes = rng.choice(30, size=4, replace=False)
            fixtures.append(
                (gr, SeedSet(nodes=nodes, labels=np.array([1, 1, 2, 2]), num_labels=2))
            )
        for g, seeds in fixtures:
            multi, _ = classify_graph(g, seeds, "centered", SolverOptions())
            f = diffuse(g, seeds, 1, SolverOptions())
            mean = f.values.mean()
            threshold = np.where(f.values > mean, 1, 2)
            threshold[seeds.nodes] = seeds.labels
            off_tie = np.abs(f.values - mean) > 1e-9
            assert np.array_equal(threshold[off_tie], multi[off_tie])
            assert set(threshold[off_tie].tolist()) == {1, 2}
