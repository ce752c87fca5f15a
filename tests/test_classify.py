import numpy as np
import pytest

import heatprop.solver
from heatprop import (
    SeedSet,
    SolverOptions,
    TemperatureField,
    ValidationError,
    diffuse_one_vs_all,
)
from heatprop.blockmodel import BlockModelParams, build_deterministic_block_graph
from heatprop.classify import VARIANTS, classification_from_scores, classify, one_vs_all_fields, scores_from_fields
from conftest import barbell_graph, count_calls, path_graph, random_connected_graph

def karate_two_seeds(karate):
    i0 = karate.id_map["0"]
    i33 = karate.id_map["33"]
    lab = karate.labels.labels
    return SeedSet.from_dict({i0: int(lab[i0]), i33: int(lab[i33])}, num_labels=2)


class TestDiffuse:
    def test_karate_field_bounded_with_hot_seed(self, karate):
        seeds = karate_two_seeds(karate)
        f = diffuse_one_vs_all(karate.graph, seeds, 1, SolverOptions())
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0
        assert f.values[karate.id_map["0"]] == 1.0

    def test_all_nodes_seeded_gives_indicator(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 1: 2, 2: 1, 3: 2})
        f = diffuse_one_vs_all(g, seeds, 1)
        assert np.array_equal(f.values, [1.0, 0.0, 1.0, 0.0])

    def test_single_label_extends_to_all_ones(self):
        g = path_graph(5)
        seeds = SeedSet.from_dict({0: 1, 4: 1})
        f = diffuse_one_vs_all(g, seeds, 1, SolverOptions())
        assert np.allclose(f.values, 1.0, atol=1e-12)

    def test_unseeded_label_rejected(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 3: 1}, num_labels=2)
        with pytest.raises(ValidationError, match="no seeds"):
            diffuse_one_vs_all(g, seeds, 2)


class TestCenter:
    @staticmethod
    def centered(values):
        """The centered score column of one field."""
        field = TemperatureField(values=np.array(values))
        return scores_from_fields((field,), SeedSet.from_dict({0: 1}), "centered").scores[:, 0]

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
        g, truth, seeds = build_deterministic_block_graph(params)
        _, result = classify(g, seeds, "centered", SolverOptions())
        assert np.array_equal(result.labels, truth.labels)

    def test_seed_asymmetry_vanilla_fails_centered_does_not(self):
        params = BlockModelParams(sizes=(50, 50), seed_counts=(10, 2), p=2.0, q=1.0)
        g, truth, seeds = build_deterministic_block_graph(params)
        _, vanilla = classify(g, seeds, "vanilla", SolverOptions())
        _, centered = classify(g, seeds, "centered", SolverOptions())
        non_seed = np.setdiff1d(np.arange(g.n), seeds.nodes)
        block2_interior = non_seed[truth.labels[non_seed] == 2]
        assert np.all(vanilla.labels[block2_interior] == 1)
        assert np.array_equal(centered.labels, truth.labels)

    def test_all_seeds_gives_one_hot_scores(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 1: 2, 2: 1, 3: 2})
        scores, result = classify(g, seeds, "vanilla")
        assert np.array_equal(result.seed_nodes, np.arange(4))
        expect = np.zeros((4, 2))
        expect[[0, 2], 0] = 1.0
        expect[[1, 3], 1] = 1.0
        assert np.array_equal(scores.scores, expect)
        assert np.array_equal(result.labels, [1, 2, 1, 2])

    def test_components_computed_once_per_graph(self, monkeypatch):
        import heatprop.graph

        calls = count_calls(monkeypatch, heatprop.graph, "connected_components")
        params = BlockModelParams(sizes=(10, 10, 10), seed_counts=(1, 2, 3), p=2.0, q=1.0)
        g, _, seeds = build_deterministic_block_graph(params)
        scores, _ = classify(g, seeds, "vanilla")
        classify(g, seeds, "centered")
        assert len(scores.fields) == 3
        assert calls == [(g,)]

    def test_missing_label_errors_before_solving(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 3: 1}, num_labels=3)
        with pytest.raises(ValidationError, match=r"without seeds: \[2, 3\]"):
            classify(g, seeds, "vanilla")

    def test_centered_columns_have_zero_mean(self, karate):
        seeds = karate_two_seeds(karate)
        scores, _ = classify(karate.graph, seeds, "centered", SolverOptions())
        assert np.abs(scores.scores.mean(axis=0)).max() < 1e-10

    def test_vanilla_columns_in_unit_interval(self, karate):
        seeds = karate_two_seeds(karate)
        scores, _ = classify(karate.graph, seeds, "vanilla", SolverOptions())
        assert scores.scores.min() >= 0.0 and scores.scores.max() <= 1.0

    def test_weighted_rescales_by_seed_share(self, karate):
        seeds = karate_two_seeds(karate)
        raw, _ = classify(karate.graph, seeds, "vanilla", SolverOptions())
        weighted, _ = classify(karate.graph, seeds, "weighted", SolverOptions())
        assert np.allclose(weighted.scores, raw.scores * 0.5)

    def test_deterministic_bitwise(self, karate):
        seeds = karate_two_seeds(karate)
        opts = SolverOptions(max_iterations=60, tolerance=1e-9)
        s1, r1 = classify(karate.graph, seeds, "centered", opts)
        s2, r2 = classify(karate.graph, seeds, "centered", opts)
        assert np.array_equal(s1.scores, s2.scores)
        assert np.array_equal(r1.labels, r2.labels)
        assert np.array_equal(r1.confidence, r2.confidence)

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
        _, res = classify(g, seeds, "centered", SolverOptions())
        _, res_p = classify(g, seeds_p, "centered", SolverOptions())
        assert np.array_equal(np.vectorize(perm.get)(res.labels), res_p.labels)

    def test_column_shift_does_not_change_centered_labels(self):
        rng = np.random.default_rng(37)
        g = random_connected_graph(rng, 30, extra_edges=30)
        nodes = rng.choice(30, size=6, replace=False)
        seeds = SeedSet(nodes=nodes, labels=np.repeat([1, 2, 3], 2), num_labels=3)
        fields = one_vs_all_fields(g, seeds, SolverOptions())
        shifted = tuple(
            TemperatureField(values=f.values + c) for f, c in zip(fields, (0.7, -2.0, 13.0))
        )
        base = classification_from_scores(scores_from_fields(fields, seeds, "centered"), seeds)
        moved = classification_from_scores(scores_from_fields(shifted, seeds, "centered"), seeds)
        assert np.array_equal(base.labels, moved.labels)

    def test_confidence_is_score_gap(self):
        params = BlockModelParams(sizes=(3, 3), seed_counts=(1, 1), p=3.0, q=1.0)
        g, _, seeds = build_deterministic_block_graph(params)
        scores, result = classify(g, seeds, "centered", SolverOptions())
        s = np.sort(scores.scores, axis=1)
        assert np.allclose(result.confidence, s[:, -1] - s[:, -2])


def three_label_seeds(rng, n):
    nodes = rng.choice(n, size=9, replace=False)
    return SeedSet(nodes=nodes, labels=np.repeat([1, 2, 3], 3), num_labels=3)


class TestPartitionOfUnity:
    @pytest.mark.parametrize("num_labels", [1, 2, 3])
    def test_solves_per_mode(self, monkeypatch, num_labels):
        iterative = count_calls(monkeypatch, heatprop.solver, "solve_iterative")
        exact = count_calls(monkeypatch, heatprop.solver, "solve_exact")
        g = random_connected_graph(np.random.default_rng(41), 30, extra_edges=30)
        labels = np.arange(1, num_labels + 1)
        seeds = SeedSet(nodes=labels - 1, labels=labels, num_labels=num_labels)
        fields = one_vs_all_fields(g, seeds)
        # K=1 has no other field to derive from
        assert (len(iterative), len(exact)) == (max(num_labels - 1, 1), 0)
        assert len(fields) == num_labels

    def test_derived_field_matches_solved(self):
        rng = np.random.default_rng(43)
        g = random_connected_graph(rng, 200, extra_edges=200)
        seeds = three_label_seeds(rng, 200)
        fields = one_vs_all_fields(g, seeds)
        solved = diffuse_one_vs_all(g, seeds, 3)
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
        _, res = classify(karate.graph, seeds, "centered", SolverOptions())
        truth = karate.labels.labels
        non = np.setdiff1d(np.arange(karate.graph.n), seeds.nodes)
        wrong = int((res.labels[non] != truth[non]).sum())
        assert non.size == 32
        assert wrong <= 1

    def test_barbell_both_thresholds(self):
        g, a, b = barbell_graph(5)
        seeds = SeedSet.from_dict({int(a[0]): 1, int(b[-1]): 2})
        for variant in ("vanilla", "centered"):
            _, res = classify(g, seeds, variant, SolverOptions())
            assert np.all(res.labels[a] == 1)
            assert np.all(res.labels[b] == 2)

    def test_barbell_symmetry_forces_mean_half(self):
        g, a, b = barbell_graph(5)
        seeds = SeedSet.from_dict({int(a[0]): 1, int(b[-1]): 2})
        f = diffuse_one_vs_all(g, seeds, 1, SolverOptions())
        assert f.mean == pytest.approx(0.5, abs=1e-12)

    def test_path_tie_goes_to_label_one(self):
        g = path_graph(3)
        seeds = SeedSet.from_dict({0: 1, 2: 2})
        for variant in VARIANTS:
            _, res = classify(g, seeds, variant, SolverOptions())
            # node 1 scores the same for both labels: the smaller label wins
            assert res.labels[1] == 1
            assert res.confidence[1] == 0.0

    def test_confidence_distance_to_threshold(self):
        g = path_graph(4)
        seeds = SeedSet.from_dict({0: 1, 3: 2})
        _, res = classify(g, seeds, "vanilla", SolverOptions())
        t = np.array([1.0, 2 / 3, 1 / 3, 0.0])
        assert np.allclose(res.confidence, np.abs(2 * t - 1))

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
            _, multi = classify(g, seeds, "centered", SolverOptions())
            f = diffuse_one_vs_all(g, seeds, 1, SolverOptions())
            threshold = np.where(f.values > f.mean, 1, 2)
            threshold[seeds.nodes] = seeds.labels
            off_tie = np.abs(f.values - f.mean) > 1e-9
            assert np.array_equal(threshold[off_tie], multi.labels[off_tie])
            assert set(threshold[off_tie].tolist()) == {1, 2}
