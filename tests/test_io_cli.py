from pathlib import Path

import numpy as np
import pytest

from heatprop import ValidationError, build_graph, load_edge_list, load_labels
from heatprop.blockmodel import BlockModelParams, _block_disagreement, default_seeds
from heatprop.classify import classify
from heatprop.cli import _config_experiment, _fmt, _seeds_from_file, main, parse_config
from heatprop.datasets import config_path, data_path
from heatprop.io import load_dataset, write_edge_list
from heatprop.solver import SolverOptions
from conftest import random_connected_graph

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
BUNDLED_CONFIGS = sorted(path.stem for path in data_path("configs").glob("*.cfg"))


class TestLoadEdgeList:
    def test_tab_separated_path(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0\t1\n1\t2\n")
        bundle = load_edge_list(f)
        assert bundle.graph.n == 3
        assert np.array_equal(bundle.graph.degrees, [1.0, 2.0, 1.0])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("# header\n\n0\t1\n# trailing\n1\t2\n")
        assert load_edge_list(f).graph.n == 3

    def test_comma_delimiter_autodetected(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("a,b\nb,c\n")
        bundle = load_edge_list(f)
        assert bundle.graph.n == 3
        assert bundle.id_map == {"a": 0, "b": 1, "c": 2}

    def test_first_data_line_picks_delimiter(self, tmp_path):
        # a comma further down does not switch a whitespace-separated file
        f = tmp_path / "g.edges"
        f.write_text("a b\nc,x d\nf,g\n")
        with pytest.raises(ValidationError, match="line 3: expected 2 or 3 columns, got 1"):
            load_edge_list(f)
        # nor does a comment line above the first data line
        f.write_text("# src,dst\na b\nb c\n")
        assert load_edge_list(f).id_map == {"a": 0, "b": 1, "c": 2}

    def test_directed_two_cycle_becomes_bipartite(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a\tb\nb\ta\n")
        bundle = load_edge_list(f, directed=True)
        assert bundle.graph.n == 4
        assert bundle.n_original == 2
        dense = bundle.graph.dense_adjacency()
        assert dense[0, 3] == 1.0 and dense[1, 2] == 1.0

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0\t1\n0\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_edge_list(f)

    def test_nonpositive_weight_rejected(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0\t1\t2.5\n1\t2\t-1.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_edge_list(f, weighted=True)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-NaN", "Infinity", "1e999"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        f = tmp_path / "g.edges"
        f.write_text(f"0\t1\t2.5\n1\t2\t{weight}\n")
        with pytest.raises(ValidationError, match="line 2: non-finite weight"):
            load_edge_list(f, weighted=True)

    def test_unexpected_weight_column(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0\t1\t2.5\n")
        with pytest.raises(ValidationError, match="third column"):
            load_edge_list(f)

    def test_weights_parsed(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0 1 2.5\n1 2 0.5\n")
        bundle = load_edge_list(f, weighted=True)
        assert bundle.graph.dense_adjacency()[0, 1] == 2.5

    def test_round_trip_isomorphic(self, tmp_path):
        rng = np.random.default_rng(151)
        g = random_connected_graph(rng, 25, extra_edges=30)
        f = tmp_path / "g.edges"
        write_edge_list(f, g, weighted=True)
        bundle = load_edge_list(f, weighted=True)
        assert bundle.graph.n == g.n
        assert sorted(bundle.graph.degrees) == pytest.approx(sorted(g.degrees))
        dense_in = g.dense_adjacency()
        dense_out = bundle.graph.dense_adjacency()
        for i in range(g.n):
            for j in range(g.n):
                assert dense_out[bundle.id_map[str(i)], bundle.id_map[str(j)]] == pytest.approx(
                    dense_in[i, j]
                )


def per_row_write_edge_list(path, graph, id_of=None, delimiter="\t", weighted=False):
    """Reference: one write per edge."""
    src, dst, w = graph.edges()
    id_of = id_of or (lambda i: str(i))
    with open(path, "w", encoding="utf-8") as handle:
        for i, j, weight in zip(src, dst, w):
            row = [id_of(int(i)), id_of(int(j))]
            if weighted:
                row.append(repr(float(weight)))
            handle.write(delimiter.join(row) + "\n")


@pytest.mark.parametrize(
    "options",
    [{}, {"weighted": True}, {"id_of": lambda i: f"n{i}é", "delimiter": " {} "},
     {"id_of": lambda i: f"v{i:03d}", "weighted": True, "delimiter": ","}],
    ids=["unweighted", "weighted", "id_of", "id_of-weighted"],
)
def test_write_edge_list_matches_per_row_writer(tmp_path, options):
    rng = np.random.default_rng(152)
    g = random_connected_graph(rng, 40, extra_edges=60)
    src, dst, w = g.edges()
    g = build_graph(g.n, (np.append(src, 3), np.append(dst, 3), np.append(w, 0.1)))  # with a self-loop
    write_edge_list(tmp_path / "bulk", g, **options)
    per_row_write_edge_list(tmp_path / "per_row", g, **options)
    assert (tmp_path / "bulk").read_bytes() == (tmp_path / "per_row").read_bytes()


class TestLoadLabels:
    def make_bundle(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a\tb\nb\tc\n")
        return load_edge_list(f)

    def test_partial_labeling(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        lf = tmp_path / "g.labels"
        lf.write_text("a\tx\nb\ty\n")
        labels, names = load_labels(lf, bundle.id_map, bundle.n_original)
        assert labels.num_labels == 2
        assert labels.labels[bundle.id_map["c"]] == 0
        assert names == {1: "x", 2: "y"}

    def test_unknown_node_listed(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        lf = tmp_path / "g.labels"
        lf.write_text("a\tx\nzz\ty\n")
        with pytest.raises(ValidationError, match="zz"):
            load_labels(lf, bundle.id_map, bundle.n_original)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        lf = tmp_path / "g.labels"
        lf.write_text("a\tx\na\ty\n")
        with pytest.raises(ValidationError, match="conflicting"):
            load_labels(lf, bundle.id_map, bundle.n_original)

    def test_repeated_same_label_fine(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        lf = tmp_path / "g.labels"
        lf.write_text("a\tx\na\tx\nb\ty\n")
        labels, _ = load_labels(lf, bundle.id_map, bundle.n_original)
        assert labels.labels[bundle.id_map["a"]] == 1


class TestConfigParsing:
    def test_unknown_keys_listed_exhaustively(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("bogus = 1\nalso_bad = 2\nsizes = 3,3\n")
        assert "also_bad" in str(exc.value) and "bogus" in str(exc.value)

    def test_comments_and_values(self):
        got = parse_config("# c\nsizes = 4,4  # inline\np = 1e-3\n")
        assert got == {"sizes": (4, 4), "p": 1e-3}

    def test_missing_equals(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config("sizes 4,4\n")


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_classify_karate_seed_file(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0\tmr_hi\n33\tofficer\n")
        out = tmp_path / "out.csv"
        code = self.run(
            "classify", "--graph", "karate", "--seeds-file", str(seeds), "--variant",
            "centered", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node_id,label,confidence"
        assert len(lines) == 33  # header + 32 non-seed nodes
        summary = capsys.readouterr().err
        assert "iterations=" in summary and "residual=" in summary

    def test_classify_variant_outputs_differ_and_are_deterministic(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0\tmr_hi\n33\tofficer\n")
        outputs = {}
        for variant in ("vanilla", "centered"):
            paths = []
            for run in range(2):
                out = tmp_path / f"{variant}-{run}.csv"
                assert self.run(
                    "classify", "--graph", "karate", "--seeds-file", str(seeds),
                    "--variant", variant, "--out", str(out),
                ) == 0
                paths.append(out.read_bytes())
            assert paths[0] == paths[1]
            outputs[variant] = paths[0]
        assert outputs["vanilla"] != outputs["centered"]

    def test_classify_sample_without_labels_is_usage_error(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0\t1\n1\t2\n")
        code = self.run("classify", "--graph", str(edges), "--sample", "uniform")
        assert code == 1

    def test_classify_strict_tolerance_nonconvergence_exits_2(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0\tmr_hi\n33\tofficer\n")
        code = self.run(
            "classify", "--graph", "karate", "--seeds-file", str(seeds),
            "--tol", "0", "--max-iter", "3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_classify_strict_tolerance_convergence_exits_0(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0\tmr_hi\n33\tofficer\n")
        code = self.run(
            "classify", "--graph", "karate", "--seeds-file", str(seeds),
            "--tol", "0", "--max-iter", "10000", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_classify_non_finite_tolerance_exits_1(self, tmp_path, capsys, tol):
        code = self.run(
            "classify", "--graph", "karate", "--sample", "uniform", "--fraction", "0.1",
            "--tol", tol, "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: tolerance must be finite and nonnegative"]
        assert not (tmp_path / "x.csv").exists()

    def test_classify_mode_flag_is_usage_error(self, tmp_path, capsys):
        # classify has no solver choice: the flag must fail, not be ignored
        with pytest.raises(SystemExit) as exc:
            self.run(
                "classify", "--graph", "karate", "--sample", "uniform", "--mode", "exact",
                "--out", str(tmp_path / "x.csv"),
            )
        assert exc.value.code == 1
        assert "unrecognized arguments: --mode exact" in capsys.readouterr().err

    def test_classify_directed_dataset(self, tmp_path):
        edges = tmp_path / "d.edges"
        edges.write_text("a b\nb a\nb c\nc b\nc a\na c\n")
        labels = tmp_path / "d.labels"
        labels.write_text("a red\nb blue\nc red\n")
        seeds = tmp_path / "d.seeds"
        seeds.write_text("a red\nb blue\n")
        out = tmp_path / "d.csv"
        code = self.run(
            "classify", "--graph", str(edges), "--labels", str(labels), "--directed",
            "--seeds-file", str(seeds), "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("c,")

    @pytest.mark.parametrize("use_destination", [False, True])
    def test_classify_rows_match_per_node_reference(self, tmp_path, use_destination):
        rng = np.random.default_rng(153)
        names = [f"v{i}é" for i in rng.permutation(30)]
        arcs = [(i, (i + k) % 30) for i in range(30) for k in (1, 2)] + [tuple(rng.integers(0, 30, 2)) for _ in range(20)]
        edges = tmp_path / "d.edges"
        edges.write_text("".join(f"{names[i]}\t{names[j]}\n" for i, j in arcs), encoding="utf-8")
        seeds = tmp_path / "d.seeds"
        seeds.write_text(f"{names[3]}\tred\n{names[17]}\tblue\n{names[25]}\tred\n", encoding="utf-8")
        out = tmp_path / "d.csv"
        flags = ["--use-destination"] if use_destination else []
        assert self.run(
            "classify", "--graph", str(edges), "--directed", "--seeds-file", str(seeds),
            "--out", str(out), *flags,
        ) == 0

        # reference: the per-node output loop
        bundle = load_dataset(edges, directed=True)
        seed_set, label_names = _seeds_from_file(seeds, bundle, {}, use_destination)
        _, result = classify(bundle.graph, seed_set, "centered", SolverOptions())
        reverse = {v: k for k, v in bundle.id_map.items()}
        lines = ["node_id,label,confidence"]
        for original in range(bundle.n_original):
            idx = original + bundle.n_original if use_destination else original
            if idx in set(int(s) for s in seed_set.nodes):
                continue
            name = label_names.get(int(result.labels[idx]), str(int(result.labels[idx])))
            lines.append(f"{reverse[original]},{name},{_fmt(float(result.confidence[idx]))}")
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_bench_missing_config_exits_1(self, tmp_path):
        assert self.run("bench", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_bench_runs_bundled_small_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert self.run("bench", "--config", "fig2a-small", "--out-dir", str(out_dir)) == 0
        raw = (out_dir / "results.csv").read_text().strip().splitlines()
        assert raw[0] == "variant,sweep,rep,macro_f1,accuracy,wall_ms,iters"
        body = [line.split(",") for line in raw[1:]]
        sweeps = {row[1] for row in body}
        variants = {row[0] for row in body}
        assert len(sweeps) == 10 and variants == {"vanilla", "centered"}
        assert len(body) == 10 * 2 * 2  # no repetition failed
        agg = (out_dir / "aggregate.csv").read_text().strip().splitlines()
        assert agg[0] == "variant,sweep,mean,std"
        assert len(agg) == 1 + 10 * 2
        mean = {(v, float(x)): float(m) for v, x, m, _ in (line.split(",") for line in agg[1:])}
        # Fig. 2a: vanilla collapses as block 1's seeds outnumber block 2's,
        # centered does not
        assert all(mean["centered", float(r)] >= 0.95 for r in range(1, 11))
        assert mean["vanilla", 10.0] <= mean["centered", 10.0] - 0.5

    def test_bench_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run("bench", "--config", "karate-uniform", "--out-dir", str(a)) == 0
        assert self.run("bench", "--config", "karate-uniform", "--out-dir", str(b)) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()

    @pytest.mark.parametrize(
        "config", ["fig2a-small", "karate-uniform", "blocks2-uniform", "blocks3-uniform"]
    )
    def test_bench_matches_golden_outputs(self, tmp_path, config):
        # results that change on purpose regenerate these files with
        # `heatprop bench --config <name> --out-dir tests/data/golden/<name>`
        assert self.run("bench", "--config", config, "--out-dir", str(tmp_path)) == 0
        for name in ("results.csv", "aggregate.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / config / name).read_bytes(), name

    def test_bench_config_defaults(self, tmp_path):
        # the fields take 12-13 conjugate-gradient iterations, so another
        # tolerance or a cap below that shows in the iters column; the
        # decoded configs must also be equal, so that any other changed
        # default in SolverOptions or ExperimentConfig shows
        model = "sizes = 60,60\nseeds = 20,20\np = 0.3\nq = 0.05\n"
        spelled_out = model + (
            "source = sbm\nsweep = none\nvariants = vanilla,centered\nrepetitions = 10\n"
            "master_seed = 0\nmax_iterations = 100\ntolerance = 1e-9\n"
        )
        for name, text in (("minimal", model), ("spelled-out", spelled_out)):
            (tmp_path / f"{name}.cfg").write_text(text)
            assert self.run(
                "bench", "--config", str(tmp_path / f"{name}.cfg"), "--out-dir", str(tmp_path / name)
            ) == 0
        results = [(tmp_path / name / "results.csv").read_bytes() for name in ("minimal", "spelled-out")]
        assert results[0] == results[1]
        assert len(results[0].splitlines()) == 1 + 10 * 2
        assert _config_experiment(parse_config(model), None) == _config_experiment(parse_config(spelled_out), None)

    def test_bench_files_source_matches_bundled_dataset(self, tmp_path):
        common = "policy = uniform\nrepetitions = 3\n"
        files = (
            f"source = files\ngraph_file = {data_path('blocks2.edges')}\n"
            f"labels_file = {data_path('blocks2.labels')}\ndirected = false\nweighted = false\n"
        )
        for name, text in (("bundled", "source = blocks2\n"), ("files", files)):
            (tmp_path / f"{name}.cfg").write_text(common + text)
            assert self.run(
                "bench", "--config", str(tmp_path / f"{name}.cfg"), "--out-dir", str(tmp_path / name)
            ) == 0
        results = [(tmp_path / name / "results.csv").read_bytes() for name in ("bundled", "files")]
        assert results[0] == results[1]
        assert len(results[0].splitlines()) == 1 + 3 * 2

    def test_bench_config_with_bad_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = yes\n")
        assert self.run("bench", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "repetitions = ten",
            "p = abc",
            "sizes = 4,x",
            "directed = yes",
            "grid_points = many",
            "task = oracle-grid",
            "sweep = seed_ratio",
            "variants = centred",
            "policy = explicit\nsweep = seed_ratio\nsweep_values = 1,2",
            "source = karate\nsweep = size_ratio\nsweep_values = 1,2",
            "sweep = seed_ratio\nsweep_values = 1,nan",
            "sweep = seed_ratio\nsweep_values = 1,inf",
            "sweep = seed_ratio\nsweep_values = 0,1",
            "sweep = size_ratio\nsweep_values = -1,1",
            "p = nan",
            "source = blocks\np = inf",
            "tolerance = inf",
            "mode = exact",
        ],
    )
    def test_bench_malformed_config_is_one_error_line(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sizes = 20,20\nseeds = 2,2\np = 0.3\nq = 0.05\nrepetitions = 1\n" + bad + "\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_bundled_config_decodes(self, name):
        cfgv = parse_config(config_path(name).read_text(encoding="utf-8"))
        if cfgv.get("task") == "oracle_grid":
            assert isinstance(cfgv["grid_points"], int) and isinstance(cfgv["max_block_nodes"], int)
            return
        cfg = _config_experiment(cfgv, None)
        if cfg.sweep is not None:
            # the sweep draws the seed counts it sets
            assert cfg.policy is None and len(cfg.sweep.values) == 10

    @pytest.mark.parametrize("flag", ["--sizes", "--seeds"])
    def test_oracle_malformed_counts_are_usage_errors(self, capsys, flag):
        argv = {"--K": "2", "--sizes": "2,2", "--seeds": "1,1", "--p": "2", "--q": "1"}
        argv[flag] = "2,x"
        with pytest.raises(SystemExit) as exc:
            self.run("oracle", *(item for pair in argv.items() for item in pair))
        assert exc.value.code == 1
        assert f"argument {flag}" in capsys.readouterr().err

    def test_oracle_worked_instance(self, capsys):
        assert self.run("oracle", "--K", "2", "--sizes", "2,2", "--seeds", "1,1",
                        "--p", "2", "--q", "1") == 0
        out = capsys.readouterr().out
        assert "mean temperature = 0.5" in out
        assert "block 1: T = 0.6" in out
        assert "block 2: T = 0.4" in out

    def test_oracle_equal_weights_zero_deltas(self, capsys):
        assert self.run("oracle", "--K", "2", "--sizes", "5,7", "--seeds", "2,3",
                        "--p", "1.5", "--q", "1.5") == 0
        out = capsys.readouterr().out
        deltas = [
            abs(float(line.rsplit("=", 1)[1]))
            for line in out.splitlines()
            if "delta =" in line
        ]
        assert len(deltas) == 2 and max(deltas) < 1e-12

    def test_oracle_asymmetric_seeds_flag_false(self, capsys):
        assert self.run("oracle", "--K", "2", "--sizes", "50,50", "--seeds", "10,2",
                        "--p", "2", "--q", "1") == 0
        out = capsys.readouterr().out
        assert "vanilla condition block 2 vs 1: FALSE" in out
        assert "vanilla condition block 1 vs 2: TRUE" in out

    @pytest.mark.filterwarnings("error")
    def test_oracle_depends_only_on_weight_ratio(self, capsys):
        # n q overflows for weights near the float maximum unless both are scaled down first
        outputs = []
        for p, q in (("1", "1"), ("1e308", "1e308"), ("1.7", "1"), ("1.7e308", "1e308")):
            assert self.run("oracle", "--K", "2", "--sizes", "2,2", "--seeds", "1,1", "--p", p, "--q", q) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[2] == outputs[3]
        assert "mean temperature = 0.5\n" in outputs[0]
        assert outputs[0].count(": FALSE") == 2

    def test_oracle_invalid_params_exit_1(self):
        assert self.run("oracle", "--K", "2", "--sizes", "2,2", "--seeds", "3,1",
                        "--p", "2", "--q", "1") == 1

    @pytest.mark.parametrize("weights", [("nan", "1"), ("1", "inf")])
    def test_oracle_non_finite_weights_exit_1(self, capsys, weights):
        p, q = weights
        assert self.run("oracle", "--K", "2", "--sizes", "2,2", "--seeds", "1,1", "--p", p, "--q", q) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: edge weights p and q must be positive and finite"]

    def test_usage_error_exit_code_1(self):
        with pytest.raises(SystemExit) as exc:
            self.run("bench")  # missing required --config
        assert exc.value.code == 1

    def test_lemma_grid_report(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("task = oracle_grid\ngrid_points = 10\nmax_block_nodes = 60\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(out_dir)) == 0
        lines = (out_dir / "oracle_agreement.csv").read_text().strip().splitlines()
        assert lines[0].startswith("point,")
        worst = max(float(line.split(",")[-1]) for line in lines[1:])
        assert worst < 1e-10

    @pytest.mark.parametrize("points", [0, -3])
    def test_oracle_grid_without_points_exits_1(self, tmp_path, capsys, points):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"task = oracle_grid\ngrid_points = {points}\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "grid")) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: the oracle grid needs at least 1 point, got {points}"]
        assert not (tmp_path / "grid" / "oracle_agreement.csv").exists()

    @pytest.mark.parametrize("nodes", [1, -5])
    def test_oracle_grid_with_too_few_block_nodes_exits_1(self, tmp_path, capsys, nodes):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"task = oracle_grid\ngrid_points = 2\nmax_block_nodes = {nodes}\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "grid")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: the oracle grid needs max_block_nodes of at least 2, got {nodes}"
        ]
        assert not (tmp_path / "grid" / "oracle_agreement.csv").exists()

    def test_block_disagreement_matches_per_block_loop(self):
        params = BlockModelParams(sizes=(4, 1, 6), seed_counts=(2, 1, 3), p=2.0, q=0.5)
        seeds = default_seeds(params)
        rng = np.random.default_rng(5)
        values = rng.uniform(size=params.n)
        per_block = rng.uniform(size=params.num_blocks)
        offsets = params.block_offsets()
        expect = 0.0
        for k in range(params.num_blocks):
            members = [i for i in range(offsets[k], offsets[k + 1]) if i not in seeds.nodes]
            if members:
                expect = max(expect, float(np.abs(values[members] - per_block[k]).max()))
        assert _block_disagreement(params, seeds, values, per_block) == expect
