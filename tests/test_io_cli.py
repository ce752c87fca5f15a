import csv
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

import heatprop.classify
import heatprop.cli
import heatprop.io
import heatprop.solver
from heatprop import ValidationError, build_graph, load_edge_list, load_labels
from heatprop.blockmodel import BlockModelParams, _block_disagreement, default_seeds
from heatprop.classify import classify, one_vs_all_fields
from heatprop.cli import _config_experiment, _csv_field, _fmt, _seeds_from_file, main, parse_config
from heatprop.datasets import config_path, data_path, load_bundle
from heatprop.io import write_edge_list
from heatprop.solver import SolverOptions
from conftest import count_calls, random_connected_graph
from reference import dense_adjacency

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
BUNDLED_CONFIGS = sorted(path.stem for path in data_path("configs").glob("*.cfg"))
# `heatprop oracle` command lines whose stdout is kept in tests/data/golden/oracle/<name>.txt
ORACLE_GOLDENS = {
    "k1": "--sizes 10 --seeds 3 --p 2 --q 1",
    "k2": "--sizes 50,50 --seeds 10,2 --p 2 --q 1 --hot 2",
    "k3": "--sizes 8,12,20 --seeds 2,5,3 --p 1.7 --q 0.6 --hot 3",
    "k5": "--sizes 7,11,13,17,19 --seeds 1,2,3,4,5 --p 0.9 --q 1.3 --hot 4",
    "near-max-weights": "--sizes 2,2 --seeds 1,1 --p 1.7e308 --q 1e308",
}
UNREAD = "config keys that this run never reads: "
# each malformed config line (set after a valid prefix) and a part of its one error line
MALFORMED_CONFIGS = {
    "repetitions = ten": "bad value 'ten' for repetitions",
    "p = abc": "bad value 'abc' for p",
    "sizes = 4,x": "bad value '4,x' for sizes",
    "directed = yes": "bad value 'yes' for directed",
    "grid_points = many": "bad value 'many' for grid_points",
    "task = oracle-grid": "bad value 'oracle-grid' for task",
    "sweep = seed_ratio": "a sweep needs the 'sweep_values' config key",
    "variants = centred": "unknown variants centred",
    "policy = explicit\nsweep = seed_ratio\nsweep_values = 1,2": "overrides the seed counts of the seed_ratio sweep",
    "source = karate\nsweep = size_ratio\nsweep_values = 1,2": "parameter sweeps apply to block-model sources only",
    "sweep = seed_ratio\nsweep_values = 1,nan": "sweep values must be finite and positive, got nan",
    "sweep = seed_ratio\nsweep_values = 1,inf": "sweep values must be finite and positive, got inf",
    "sweep = seed_ratio\nsweep_values = 0,1": "sweep values must be finite and positive, got 0.0",
    "sweep = size_ratio\nsweep_values = -1,1": "sweep values must be finite and positive, got -1.0",
    "p = nan": "edge weights p and q must be positive and finite",
    "p = inf": "edge weights p and q must be positive and finite",
    "tolerance = inf": "tolerance must be finite and nonnegative",
    "mode = exact": "unknown config keys: mode;",
    "p = 2": "p and q must be probabilities in (0, 1]",
    "sizes = 20\nseeds = 2\nsweep = seed_ratio\nsweep_values = 1,2": "seed_ratio sweep needs at least two blocks",
    "sizes = 20,20,20\nseeds = 2,2,2\nsweep = size_ratio\nsweep_values = 1,2": "size_ratio sweep is defined for two blocks",
    "source = blocks": "unknown source 'blocks'; expected sbm, files or a bundled dataset (karate, blocks2, blocks3)",
    "source = karate\ndirected = true": "bipartite lift leaves isolated copies",
    "source = karate\npolicy = explicit\nseeds = 1,1,1": "expected 2 per-label counts, got 3",
    "source = karate\npolicy = explicit\nseeds = 0,2": "label 1 is present but was allotted no seeds",
    "source = karate\npolicy = explicit\nseeds = 100,2": "label 1 has only 17 labeled nodes, requested 100",
    "sweep = seed_ratio\nsweep_values = 1,1,2": "sweep value 1 appears more than once",
    "variants = centered,centered,vanilla": "variant centered appears more than once",
    "master_seed = -5": "bad value '-5' for master_seed",
    "sweep = seed_ratio\nsweep_values = 0.1,1": "sweep value 0.1: seed count 0 must satisfy",
    "sweep = seed_ratio\nsweep_values = 11": "sweep value 11: seed count 22 must satisfy",
    "sweep = size_ratio\nsweep_values = 100": "sweep value 100: every block needs at least one node",
    "sweep = seed_ratio\nsweep_values = 1e308": "sweep value 1e+308: block 1 seed count 1e+308 * 2 is not finite",
    "repetitions = 1\nrepetitions = 2": "config line 6: repetitions is already set on line 5",
}


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

    def test_only_a_leading_hash_marks_a_comment(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("  #\tpadded\na#1 b\n\u3000#wide padding\nb c#\n#\n", encoding="utf-8")
        assert load_edge_list(f).id_map == {"a#1": 0, "b": 1, "c#": 2}

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
        assert bundle.id_map == {"a": 0, "b": 1}
        dense = dense_adjacency(bundle.graph)
        assert dense[0, 3] == 1.0 and dense[1, 2] == 1.0

    def test_use_destination_maps_ids_to_destination_copies(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a\tb\nb\ta\n")
        bundle = load_edge_list(f, directed=True, use_destination=True)
        assert bundle.graph.n == 4
        assert bundle.id_map == {"a": 2, "b": 3}
        with pytest.raises(ValidationError, match="use_destination needs a directed edge list"):
            load_edge_list(f, use_destination=True)

    def test_isolated_copies_named_by_their_ids(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("alpha beta\nbeta gamma\n")
        with pytest.raises(ValidationError) as exc:
            load_edge_list(f, directed=True)
        assert str(exc.value) == (
            "bipartite lift leaves isolated copies: source copy of node 'gamma'; destination copy of node 'alpha'"
        )

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
        assert dense_adjacency(bundle.graph)[0, 1] == 2.5

    def test_round_trip_isomorphic(self, tmp_path):
        # the file holds no weights: the graph reads back with unit weights
        rng = np.random.default_rng(151)
        g = random_connected_graph(rng, 25, extra_edges=30)
        f = tmp_path / "g.edges"
        write_edge_list(f, g)
        bundle = load_edge_list(f)
        assert bundle.graph.n == g.n
        node = np.array([bundle.id_map[str(i)] for i in range(g.n)])
        assert np.array_equal(dense_adjacency(bundle.graph)[np.ix_(node, node)], dense_adjacency(g) > 0)


def per_row_write_edge_list(path, graph):
    """Reference: one write per edge."""
    src, dst, _ = graph.edges()
    with open(path, "w", encoding="utf-8") as handle:
        for i, j in zip(src, dst):
            handle.write(f"{int(i)}\t{int(j)}\n")


def test_write_edge_list_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(152)
    g = random_connected_graph(rng, 40, extra_edges=60)
    src, dst, w = g.edges()
    g = build_graph(g.n, (np.append(src, 3), np.append(dst, 3), np.append(w, 0.1)))  # with a self-loop
    write_edge_list(tmp_path / "bulk", g)
    per_row_write_edge_list(tmp_path / "per_row", g)
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
        labels, names = load_labels(lf, bundle.id_map, bundle.graph.n)
        assert labels.num_labels == 2
        assert labels.labels[bundle.id_map["c"]] == 0
        assert names == {1: "x", 2: "y"}

    def test_unknown_node_listed(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        lf = tmp_path / "g.labels"
        lf.write_text("a\tx\nzz\ty\n")
        with pytest.raises(ValidationError, match="zz"):
            load_labels(lf, bundle.id_map, bundle.graph.n)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        lf = tmp_path / "g.labels"
        lf.write_text("a\tx\na\ty\n")
        with pytest.raises(ValidationError, match="conflicting"):
            load_labels(lf, bundle.id_map, bundle.graph.n)

    def test_repeated_same_label_fine(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        lf = tmp_path / "g.labels"
        lf.write_text("a\tx\na\tx\nb\ty\n")
        labels, _ = load_labels(lf, bundle.id_map, bundle.graph.n)
        assert labels.labels[bundle.id_map["a"]] == 1


class TestConfigParsing:
    def test_unknown_keys_listed_exhaustively(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("bogus = 1\nalso_bad = 2\nsizes = 3,3\n")
        assert "also_bad" in str(exc.value) and "bogus" in str(exc.value)

    def test_comments_and_values(self):
        got = parse_config("# c\nsizes = 4,4  # inline\np = 1e-3\n")
        assert got == {"sizes": (4, 4), "p": 1e-3}

    def test_hash_inside_a_value_is_kept(self):
        got = parse_config("graph_file = run#1/g.edges  # a comment\n#sizes = 1\n  # indented\n")
        assert got == {"graph_file": "run#1/g.edges"}

    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_bundled_configs_decode_as_with_any_hash_a_comment(self, name):
        text = config_path(name).read_text(encoding="utf-8")
        cut_at_any_hash = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        assert parse_config(text) == parse_config(cut_at_any_hash)

    def test_missing_equals(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config("sizes 4,4\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValidationError, match="^config line 4: repetitions is already set on line 2$"):
            parse_config("sizes = 4,4\nrepetitions = 1\n# again\nrepetitions = 2\n")


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

    @pytest.mark.parametrize("graph", ["karate", "file"])
    def test_classify_use_destination_on_undirected_graph_exits_1(self, tmp_path, capsys, graph):
        # an undirected graph has no destination copies: the flag must fail,
        # not be ignored
        args = graph.split()
        if graph == "file":
            (tmp_path / "g.edges").write_text("a b\nb c\n")
            (tmp_path / "g.labels").write_text("a x\nb x\nc y\n")
            args = [str(tmp_path / "g.edges"), "--labels", str(tmp_path / "g.labels")]
        out = tmp_path / "x.csv"
        code = self.run("classify", "--graph", *args, "--sample", "uniform", "--use-destination", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --use-destination needs a directed edge list (--directed)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--directed", "error: bipartite lift leaves isolated copies: source copy of node '7'; "),
            ("--weighted", "error: {}: line 2: expected a weight column"),
            ("--delimiter ;", "error: {}: line 2: expected 2 or 3 columns, got 1"),
            ("--directed --weighted --delimiter ;", "error: {}: line 2: expected 2 or 3 columns, got 1"),
        ],
        ids=["directed", "weighted", "delimiter", "all-three"],
    )
    def test_classify_bundled_dataset_reads_the_file_flags(self, tmp_path, capsys, flags, message):
        # a bundled dataset loads on the same path as an edge-list file
        out = tmp_path / "x.csv"
        code = self.run(
            "classify", "--graph", "karate", *flags.split(), "--sample", "uniform", "--seed", "0",
            "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message.format(data_path("karate.edges"))), err
        assert not out.exists()

    def test_classify_names_at_most_ten_isolated_copies(self, tmp_path, capsys):
        # 17 copies of karate's nodes have no arc when its edges are read as arcs
        out = str(tmp_path / "x.csv")
        code = self.run("classify", "--graph", "karate", "--directed", "--sample", "uniform", "--out", out)
        assert code == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.endswith("; ... (17 total)") and err.count("copy of node") == 10, err

    def test_classify_every_node_seeded(self, tmp_path, capsys):
        seeds = tmp_path / "all.seeds"
        seeds.write_bytes(data_path("karate.labels").read_bytes())
        out = tmp_path / "x.csv"
        assert self.run("classify", "--graph", "karate", "--seeds-file", str(seeds), "--out", str(out)) == 0
        assert out.read_text() == "node_id,label,confidence\n"
        assert "classified 0 nodes | variant=centered iterations=0 residual=0 wall=" in capsys.readouterr().err

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
        bundle = load_bundle(edges, directed=True, use_destination=use_destination)
        seed_set, label_names = _seeds_from_file(seeds, bundle, {})
        labels, confidence = classify(one_vs_all_fields(bundle.graph, seed_set, SolverOptions()), seed_set, "centered")
        n = len(bundle.id_map)
        assert bundle.graph.n == 2 * n
        assert list(bundle.id_map.values()) == list(range(n, 2 * n) if use_destination else range(n))
        reverse = {v: k for k, v in bundle.id_map.items()}
        lines = ["node_id,label,confidence"]
        for original in range(n):
            idx = original + n if use_destination else original
            if idx in set(int(s) for s in seed_set.nodes):
                continue
            name = label_names.get(int(labels[idx]), str(int(labels[idx])))
            lines.append(f"{reverse[idx]},{name},{_fmt(float(confidence[idx]))}")
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "case",
        ["missing-graph", "missing-seeds-file", "graph-is-dir", "out-in-missing-dir", "edges-not-utf8",
         "missing-graph-file", "config-not-utf8"],
    )
    def test_unreadable_file_is_one_error_line(self, tmp_path, capsys, case):
        def swap(argv, flag, value):
            argv = list(argv)
            argv[argv.index(flag) + 1] = str(value)
            return argv

        edges, seeds, out, nosuch = tmp_path / "g.edges", tmp_path / "g.seeds", tmp_path / "x.csv", tmp_path / "nosuch"
        edges.write_text("a b\nb c\n")
        seeds.write_text("a x\nc y\n")
        (tmp_path / "bad.edges").write_bytes(b"a b\n\xff c\n")
        (tmp_path / "bad.cfg").write_bytes(b"# caf\xe9\nsource = karate\n")
        (tmp_path / "g.cfg").write_text(f"source = files\ngraph_file = {nosuch}\nlabels_file = {seeds}\npolicy = uniform\n")
        classify = ["classify", "--graph", str(edges), "--seeds-file", str(seeds), "--out", str(out)]
        bench = ["bench", "--config", str(tmp_path / "g.cfg"), "--out-dir", str(tmp_path / "bench")]
        argv, named = {
            "missing-graph": (swap(classify, "--graph", nosuch), nosuch),
            "missing-seeds-file": (swap(classify, "--seeds-file", nosuch), nosuch),
            "graph-is-dir": (swap(classify, "--graph", tmp_path), tmp_path),
            "out-in-missing-dir": (swap(classify, "--out", nosuch / "x.csv"), nosuch / "x.csv"),
            "edges-not-utf8": (swap(classify, "--graph", tmp_path / "bad.edges"), tmp_path / "bad.edges"),
            "missing-graph-file": (bench, nosuch),
            "config-not-utf8": (swap(bench, "--config", tmp_path / "bad.cfg"), tmp_path / "bad.cfg"),
        }[case]
        assert self.run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0], err
        assert not out.exists() and not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("out", ["nosuch/x.csv", "file/x.csv"])
    def test_classify_out_checked_before_the_solve(self, tmp_path, capsys, monkeypatch, out):
        solves = count_calls(monkeypatch, heatprop.classify, "one_vs_all_fields")
        (tmp_path / "file").write_text("")
        out = tmp_path / out
        assert self.run("classify", "--graph", "karate", "--sample", "uniform", "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0], err
        assert solves == []

    @pytest.mark.parametrize("out", ["labels.csv", "out/labels.csv"])
    def test_classify_out_relative_to_the_working_directory(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        assert self.run("classify", "--graph", "karate", "--sample", "uniform", "--out", out) == 0
        assert (tmp_path / out).read_text().startswith("node_id,label,confidence\n")

    @pytest.mark.parametrize("config, runner", [("fig2a-small", "run_experiment"), ("lemma-grid", "oracle_grid")])
    @pytest.mark.parametrize("out_dir", ["file", "file/sub"])
    def test_bench_out_dir_checked_before_the_run(self, tmp_path, capsys, monkeypatch, config, runner, out_dir):
        runs = count_calls(monkeypatch, heatprop.cli, runner)
        (tmp_path / "file").write_text("")
        assert self.run("bench", "--config", config, "--out-dir", str(tmp_path / out_dir)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path / out_dir) in err[0], err
        assert runs == []

    @pytest.mark.parametrize(
        "flags",
        ["--max-iter 0", "--tol -1", "--sample uniform --fraction 2", "--out {dir}"],
        ids=["max-iter", "tol", "fraction", "out-is-dir"],
    )
    def test_classify_rejects_flags_before_any_read(self, tmp_path, capsys, monkeypatch, flags):
        loads = count_calls(monkeypatch, heatprop.io, "load_edge_list")
        (tmp_path / "g.edges").write_text("a b\nb c\n")
        (tmp_path / "g.labels").write_text("a x\nc y\n")
        (tmp_path / "dir").mkdir()
        argv = ["classify", "--graph", str(tmp_path / "g.edges"), "--labels", str(tmp_path / "g.labels"),
                "--out", str(tmp_path / "x.csv")]
        if not flags.startswith("--sample"):
            argv += ["--sample", "uniform"]
        assert self.run(*argv, *flags.format(dir=tmp_path / "dir").split()) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert loads == []
        assert not (tmp_path / "x.csv").exists() and not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize(
        "text",
        [
            "policy = uniform\ngrid_points = 3",
            "policy = uniform\nmax_iterations = 0",
            "policy = uniform\ntolerance = -1",
            "policy = uniform\nfraction = 2",
            "policy = explicit",
            "policy = uniform\nsweep = seed_ratio\nsweep_values = 0,1",
        ],
        ids=["unread-key", "max-iterations", "tolerance", "fraction", "explicit-no-seeds", "sweep-values"],
    )
    def test_bench_rejects_keys_before_any_read(self, tmp_path, capsys, monkeypatch, text):
        loads = count_calls(monkeypatch, heatprop.io, "load_edge_list")
        (tmp_path / "g.edges").write_text("a b\nb c\n")
        (tmp_path / "g.labels").write_text("a x\nc y\n")
        cfg = tmp_path / "g.cfg"
        cfg.write_text(
            f"source = files\ngraph_file = {tmp_path / 'g.edges'}\nlabels_file = {tmp_path / 'g.labels'}\n{text}\n"
        )
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert loads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [("--fraction 2", "--fraction"), ("--seed 7", "--seed"), ("--fraction 0.5 --seed 0", "--fraction and --seed")],
        ids=["fraction", "seed", "both"],
    )
    def test_classify_sampling_flags_rejected_with_seeds_file(self, tmp_path, capsys, monkeypatch, flags, named):
        loads = count_calls(monkeypatch, heatprop.io, "load_edge_list")
        (tmp_path / "g.edges").write_text("a b\nb c\n")
        (tmp_path / "g.seeds").write_text("a x\nc y\n")
        out = tmp_path / "x.csv"
        argv = ["classify", "--graph", str(tmp_path / "g.edges"), "--seeds-file", str(tmp_path / "g.seeds")]
        assert self.run(*argv, *flags.split(), "--out", str(out)) == 1
        message = f"error: {named}: only used with --sample, not with --seeds-file"
        assert capsys.readouterr().err.splitlines() == [message]
        assert loads == []
        assert not out.exists()

    def test_classify_seeds_file_missing_a_label_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        solves = count_calls(monkeypatch, heatprop.solver, "solve_iterative")
        (tmp_path / "g.edges").write_text("a b\nb c\nc d\n")
        (tmp_path / "g.labels").write_text("a x\nb y\nc x\nd y\n")
        (tmp_path / "g.seeds").write_text("a x\nc x\n")
        out = tmp_path / "x.csv"
        assert self.run(
            "classify", "--graph", str(tmp_path / "g.edges"), "--labels", str(tmp_path / "g.labels"),
            "--seeds-file", str(tmp_path / "g.seeds"), "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.splitlines() == ["error: label(s) without seeds: [2]"]
        assert solves == []
        assert not out.exists()

    def test_classify_seed_label_missing_from_labels_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        solves = count_calls(monkeypatch, heatprop.solver, "solve_iterative")
        (tmp_path / "g.edges").write_text("a b\nb c\nc d\n")
        (tmp_path / "g.labels").write_text("a x\nb y\nc x\nd y\n")
        (tmp_path / "g.seeds").write_text("a x\nb z\n")
        out = tmp_path / "x.csv"
        assert self.run(
            "classify", "--graph", str(tmp_path / "g.edges"), "--labels", str(tmp_path / "g.labels"),
            "--seeds-file", str(tmp_path / "g.seeds"), "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed label 'z' does not appear in --labels"]
        assert solves == []
        assert not out.exists()

    def test_classify_labels_file_with_a_bundled_dataset_exits_1(self, tmp_path, capsys):
        labels = tmp_path / "g.labels"
        labels.write_bytes(data_path("karate.labels").read_bytes())
        out = tmp_path / "x.csv"
        argv = ["classify", "--graph", "karate", "--labels", str(labels), "--sample", "uniform", "--out", str(out)]
        assert self.run(*argv) == 1
        message = "error: bundled datasets already carry labels; drop the label file"
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    def test_classify_without_out_writes_stdout(self, tmp_path, capsys):
        argv = ["classify", "--graph", "karate", "--sample", "uniform", "--seed", "3"]
        assert self.run(*argv, "--out", str(tmp_path / "x.csv")) == 0
        capsys.readouterr()
        assert self.run(*argv) == 0
        captured = capsys.readouterr()
        assert captured.out == (tmp_path / "x.csv").read_text()
        assert captured.out.startswith("node_id,label,confidence\n")
        assert captured.err.startswith("classified ")

    @pytest.mark.parametrize(
        "text, repetitions",
        [
            ("source = karate\npolicy = uniform\nfraction = 1\nrepetitions = 2\n", 2),
            ("sizes = 5,5\nseeds = 5,5\np = 0.5\nq = 0.2\n", 10),
        ],
        ids=["karate-fraction-1", "sbm-all-seeds"],
    )
    def test_bench_repetition_with_no_node_to_score_fails(self, tmp_path, capsys, monkeypatch, text, repetitions):
        solves = count_calls(monkeypatch, heatprop.solver, "solve_iterative")
        cfg = tmp_path / "all-seeds.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert (out / "results.csv").read_text() == "variant,sweep,rep,macro_f1,accuracy,iters\n"
        assert (out / "aggregate.csv").read_text() == "variant,sweep,mean,std\n"
        message = "every labeled node is a seed: no node is left to score"
        expected = [f"failed: sweep=0.0 rep={rep}: {message}" for rep in range(repetitions)]
        assert capsys.readouterr().err.splitlines() == expected
        assert solves == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("", "one of the arguments --seeds-file --sample is required"),
            ("--sample uniform --seeds-file {seeds}", "argument --seeds-file: not allowed with argument --sample"),
        ],
        ids=["neither", "both"],
    )
    def test_classify_needs_exactly_one_seed_source(self, tmp_path, capsys, flags, message):
        seeds = tmp_path / "g.seeds"
        seeds.write_text("0 mr_hi\n33 officer\n")
        with pytest.raises(SystemExit) as exc:
            self.run("classify", "--graph", "karate", "--out", str(tmp_path / "x.csv"),
                     *flags.format(seeds=seeds).split())
        assert exc.value.code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == [f"heatprop classify: error: {message}"]
        assert not (tmp_path / "x.csv").exists()

    def test_classify_quotes_ids_and_labels_holding_commas(self, tmp_path):
        (tmp_path / "g.edges").write_text("a,1\tb\nb\tc\nc\td\nd\ta,1\n")
        (tmp_path / "g.labels").write_text("a,1\tx,y\nb\tz\nc\tx,y\nd\tz\n")
        out = tmp_path / "x.csv"
        assert self.run(
            "classify", "--graph", str(tmp_path / "g.edges"), "--labels", str(tmp_path / "g.labels"),
            "--sample", "uniform", "--fraction", "0.5", "--seed", "1", "--out", str(out),
        ) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["node_id", "label", "confidence"]
        assert [row[:2] for row in rows[1:]] == [["a,1", "z"], ["d", "x,y"]]
        assert all(len(row) == 3 for row in rows)

    @pytest.mark.parametrize("text", ["plain", "a,1", 'say "hi"', '"', ",", 'x,"y"'])
    def test_csv_field_quotes_as_the_csv_module(self, text):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text, "z"])
        assert _csv_field(text) + ",z\n" == buffer.getvalue()
        assert next(csv.reader([_csv_field(text)])) == [text]

    def test_bench_missing_config_exits_1(self, tmp_path):
        assert self.run("bench", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_bench_runs_bundled_small_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert self.run("bench", "--config", "fig2a-small", "--out-dir", str(out_dir)) == 0
        raw = (out_dir / "results.csv").read_text().strip().splitlines()
        assert raw[0] == "variant,sweep,rep,macro_f1,accuracy,iters"
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

    def test_karate_imbalance_centering_recovers_the_starved_label(self, tmp_path):
        # the paper's claim on real data: with 8 seeds on one karate faction
        # and 1 on the other, vanilla sends most nodes to the heavily seeded
        # label and centering undoes it. The margins come from master seeds
        # 1-7, not the config's own 0: there the mean paired difference
        # (centered - vanilla per repetition) read 0.498-0.594 and the
        # centered mean 0.925-0.941.
        assert self.run("bench", "--config", "karate-imbalance", "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "results.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        f1 = {(r["variant"], int(r["rep"])): float(r["macro_f1"]) for r in rows}
        assert len(f1) == len(rows) == 2 * 50
        paired = [f1["centered", rep] - f1["vanilla", rep] for rep in range(50)]
        assert sum(paired) / 50 >= 0.4
        assert sum(f1["centered", rep] for rep in range(50)) / 50 >= 0.9

    def test_bench_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run("bench", "--config", "karate-uniform", "--out-dir", str(a)) == 0
        assert self.run("bench", "--config", "karate-uniform", "--out-dir", str(b)) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()

    @pytest.mark.parametrize(
        "config", ["fig2a-small", "karate-uniform", "blocks2-uniform", "blocks3-uniform", "lemma-grid"]
    )
    def test_bench_matches_golden_outputs(self, tmp_path, config):
        # results that change on purpose regenerate these files with
        # `heatprop bench --config <name> --out-dir tests/data/golden/<name>`
        assert self.run("bench", "--config", config, "--out-dir", str(tmp_path)) == 0
        names = ("oracle_agreement.csv",) if config == "lemma-grid" else ("results.csv", "aggregate.csv")
        for name in names:
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / config / name).read_bytes(), name

    @pytest.mark.parametrize(
        "name", ["classify-karate", "classify-karate-balanced", "classify-karate-degree", "classify-directed"]
    )
    def test_classify_matches_golden_labels(self, tmp_path, name):
        # labels that change on purpose regenerate these files with
        # `heatprop classify --graph karate --sample uniform
        #  --out tests/data/golden/classify-karate/labels.csv`, in
        # tests/data/golden/classify-karate-<kind>, `heatprop classify --graph karate
        #  --sample <kind> --fraction 0.2 --seed 3 --out labels.csv` and, in
        # tests/data/golden/classify-directed, `heatprop classify --graph graph.edges
        #  --labels graph.labels --directed --weighted --sample uniform --out labels.csv`
        golden = GOLDEN_DIR / name
        if name == "classify-karate":
            flags = ["--graph", "karate", "--sample", "uniform"]
        elif name.startswith("classify-karate-"):
            flags = ["--graph", "karate", "--sample", name.rsplit("-", 1)[1], "--fraction", "0.2", "--seed", "3"]
        else:
            flags = ["--graph", str(golden / "graph.edges"), "--labels", str(golden / "graph.labels"),
                     "--directed", "--weighted", "--sample", "uniform"]
        out = tmp_path / "labels.csv"
        assert self.run("classify", *flags, "--out", str(out)) == 0
        assert out.read_bytes() == (golden / "labels.csv").read_bytes()

    def test_classify_seeds_file_reads_delimiter(self, tmp_path):
        # edge, label and seed files all split by --delimiter give the labels
        # of the same files split by spaces
        def records(name):
            lines = data_path(name).read_text().splitlines()
            return [line.split() for line in lines if not line.startswith("#")]

        tables = {
            "edges": [(f"v{i}", f"v{j}") for i, j in records("karate.edges")],
            "labels": [(f"v{node}", name) for node, name in records("karate.labels")],
            "seeds": [("v0", "mr_hi"), ("v33", "officer"), ("v5", "mr_hi")],
        }
        outputs = []
        for sep, flags in ((" ", []), ("::", ["--delimiter", "::"])):
            files = {}
            for kind, table in tables.items():
                files[kind] = tmp_path / f"{len(outputs)}.{kind}"
                files[kind].write_text("".join(f"{a}{sep}{b}\n" for a, b in table))
            out = tmp_path / f"{len(outputs)}.csv"
            assert self.run(
                "classify", "--graph", str(files["edges"]), "--labels", str(files["labels"]),
                "--seeds-file", str(files["seeds"]), "--out", str(out), *flags,
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 32

    def test_bench_config_defaults(self, tmp_path):
        # the fields take 9 conjugate-gradient iterations (12-13 at 1e-9), so
        # another tolerance or a cap below that shows in the iters column;
        # the decoded configs must also be equal, so that any other changed
        # default in SolverOptions or ExperimentConfig shows
        model = "sizes = 60,60\nseeds = 20,20\np = 0.3\nq = 0.05\n"
        spelled_out = model + (
            "source = sbm\nsweep = none\nvariants = vanilla,centered\nrepetitions = 10\n"
            "master_seed = 0\nmax_iterations = 100\ntolerance = 1e-6\n"
        )
        for name, text in (("minimal", model), ("spelled-out", spelled_out)):
            (tmp_path / f"{name}.cfg").write_text(text)
            assert self.run(
                "bench", "--config", str(tmp_path / f"{name}.cfg"), "--out-dir", str(tmp_path / name)
            ) == 0
        results = [(tmp_path / name / "results.csv").read_bytes() for name in ("minimal", "spelled-out")]
        assert results[0] == results[1]
        assert len(results[0].splitlines()) == 1 + 10 * 2
        assert _config_experiment(parse_config(model)) == _config_experiment(parse_config(spelled_out))

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

    def test_bench_files_source_under_a_hash_directory(self, tmp_path):
        # classify --graph reads this path, and so must a config's graph_file
        run = tmp_path / "run#1"
        run.mkdir()
        for ext in ("edges", "labels"):
            (run / f"blocks2.{ext}").write_bytes(data_path(f"blocks2.{ext}").read_bytes())
        cfg = run / "files.cfg"
        cfg.write_text(
            f"source = files\ngraph_file = {run / 'blocks2.edges'}\n"
            f"labels_file = {run / 'blocks2.labels'}  # inline\npolicy = uniform\nrepetitions = 2\n"
        )
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(run / "out")) == 0
        assert len((run / "out" / "results.csv").read_text().splitlines()) == 1 + 2 * 2

    def test_bench_directed_files_source(self, tmp_path, capsys):
        # the labels sit on the source copies of the bipartite lift, which
        # the bench classifies; the destination copies stay unlabeled
        (tmp_path / "d.edges").write_text("a b\nb c\nc d\nd a\na c\nc a\nb d\nd b\n")
        (tmp_path / "d.labels").write_text("a x\nb y\nc x\nd y\n")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(
            f"source = files\ngraph_file = {tmp_path / 'd.edges'}\nlabels_file = {tmp_path / 'd.labels'}\n"
            "directed = true\npolicy = uniform\nfraction = 0.5\nvariants = centered\nrepetitions = 2\n"
        )
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [["centered", "0.0", "0"], ["centered", "0.0", "1"]]
        assert "failed:" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--config", "fig2a-small", "--seed", "-1"],
            ["bench", "--config", "lemma-grid", "--seed", "-1"],
            ["classify", "--graph", "karate", "--sample", "uniform", "--seed", "-1"],
        ],
        ids=["bench", "oracle-grid", "classify"],
    )
    def test_negative_seed_flag_is_one_error_line(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self.run(*argv, "--out-dir" if argv[0] == "bench" else "--out", str(tmp_path / "out"))
        assert exc.value.code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == [f"heatprop {argv[0]}: error: argument --seed: invalid nonnegative_int value: '-1'"]
        assert not (tmp_path / "out").exists()

    def test_bench_config_with_bad_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = yes\n")
        assert self.run("bench", "--config", str(cfg)) == 1

    @pytest.mark.parametrize("bad", list(MALFORMED_CONFIGS))
    def test_bench_malformed_config_is_one_error_line(self, tmp_path, capsys, bad):
        # a dataset source reads no block-model keys, so its cases get a
        # prefix of keys it reads, and fail for their own reason; the prefix
        # leaves out every key the case sets, since a key may be set once
        prefix = ["policy = uniform", "repetitions = 1"]
        if not bad.startswith("source = karate"):
            prefix = ["sizes = 20,20", "seeds = 2,2", "p = 0.3", "q = 0.05", "repetitions = 1"]
        own = {line.partition("=")[0].strip() for line in bad.splitlines()}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{line}\n" for line in prefix if line.partition("=")[0].strip() not in own) + bad + "\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert MALFORMED_CONFIGS[bad] in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "sizes = 20,20\nseeds = 2,2\np = 0.3\nq = 0.05\nfraction = 0.5\ngrid_points = 7\ngraph_file = nowhere",
                f"{UNREAD}fraction, graph_file, grid_points",
            ),
            ("task = oracle_grid\ntolerance = 0.5\nsizes = 1,2", f"{UNREAD}sizes, tolerance"),
            ("source = karate\npolicy = uniform\nsweep_values = 1,2", f"{UNREAD}sweep_values"),
            (
                "source = karate\npolicy = foo",
                "config line 2: bad value 'foo' for policy (expected one of uniform, degree, balanced, explicit)",
            ),
            ("sizes = 20,20\nseeds = 2,2\np = 0.3", "a block-model source needs the 'q' config key"),
            ("source = files\ngraph_file = nowhere\npolicy = uniform", "source = files needs the 'labels_file' config key"),
            ("source = karate\npolicy = explicit", "policy = explicit needs the 'seeds' config key"),
            ("source = karate\npolicy = uniform\nvariants =", "need at least one variant"),
            (
                "sizes = 20,20\nseeds = 2,2\np = 0.3\nq = 0.05\nsweep = seed_ratio",
                "a sweep needs the 'sweep_values' config key",
            ),
        ],
        ids=[
            "sbm", "oracle-grid", "no-sweep", "policy", "no-q", "no-labels-file", "explicit-no-seeds",
            "no-variants", "no-sweep-values",
        ],
    )
    def test_bench_rejects_keys_it_does_not_read(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(text + "\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        ["source = karate\npolicy = uniform\nrepetitions = 2\n", "task = oracle_grid\ngrid_points = 3\nmax_block_nodes = 30\n"],
        ids=["experiment", "oracle-grid"],
    )
    def test_bench_seed_flag_equals_master_seed_key(self, tmp_path, config):
        # --seed sets the master seed whether or not the config names one;
        # it is not an unread key of a config without master_seed
        runs = {
            "flag": (config, ["--seed", "5"]),
            "flag-over-key": (config + "master_seed = 3\n", ["--seed", "5"]),
            "key": (config + "master_seed = 5\n", []),
            "default": (config, []),
        }
        outputs = {}
        for name, (text, flags) in runs.items():
            (tmp_path / f"{name}.cfg").write_text(text)
            out = tmp_path / name
            assert self.run("bench", "--config", str(tmp_path / f"{name}.cfg"), "--out-dir", str(out), *flags) == 0
            outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert outputs["flag"] == outputs["flag-over-key"] == outputs["key"]
        assert outputs["flag"] != outputs["default"]

    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_bundled_config_decodes(self, name):
        cfgv = parse_config(config_path(name).read_text(encoding="utf-8"))
        if cfgv.get("task") == "oracle_grid":
            assert isinstance(cfgv["grid_points"], int) and isinstance(cfgv["max_block_nodes"], int)
            return
        cfg = _config_experiment(cfgv)
        if cfg.sweep is not None:
            # the sweep draws the seed counts it sets
            assert cfg.policy is None and len(cfg.sweep.values) == 10

    @pytest.mark.parametrize("flag", ["--sizes", "--seeds"])
    def test_oracle_malformed_counts_are_usage_errors(self, capsys, flag):
        argv = {"--sizes": "2,2", "--seeds": "1,1", "--p": "2", "--q": "1"}
        argv[flag] = "2,x"
        with pytest.raises(SystemExit) as exc:
            self.run("oracle", *(item for pair in argv.items() for item in pair))
        assert exc.value.code == 1
        assert f"argument {flag}" in capsys.readouterr().err

    def test_oracle_worked_instance(self, capsys):
        assert self.run("oracle", "--sizes", "2,2", "--seeds", "1,1",
                        "--p", "2", "--q", "1") == 0
        out = capsys.readouterr().out
        assert "mean temperature = 0.5" in out
        assert "block 1: T = 0.6" in out
        assert "block 2: T = 0.4" in out

    def test_oracle_equal_weights_zero_deltas(self, capsys):
        assert self.run("oracle", "--sizes", "5,7", "--seeds", "2,3",
                        "--p", "1.5", "--q", "1.5") == 0
        out = capsys.readouterr().out
        deltas = [
            abs(float(line.rsplit("=", 1)[1]))
            for line in out.splitlines()
            if "delta =" in line
        ]
        assert len(deltas) == 2 and max(deltas) < 1e-12

    def test_oracle_asymmetric_seeds_flag_false(self, capsys):
        assert self.run("oracle", "--sizes", "50,50", "--seeds", "10,2",
                        "--p", "2", "--q", "1") == 0
        out = capsys.readouterr().out
        assert "vanilla condition block 2 vs 1: FALSE" in out
        assert "vanilla condition block 1 vs 2: TRUE" in out

    def test_oracle_builds_the_table_once(self, capsys, monkeypatch):
        # the printed row and all K(K-1) conditions are read from one table;
        # a table per condition pair would be 21 builds at K = 5
        builds = count_calls(monkeypatch, heatprop.cli, "closed_form_temperatures")
        assert self.run("oracle", "--sizes", "10,20,30,40,50", "--seeds", "1,2,3,4,5", "--p", "2", "--q", "1") == 0
        assert len(builds) == 1
        out = capsys.readouterr().out.splitlines()
        # each block holds a tenth of its nodes as seeds, so the larger block wins every pair
        assert out[6:] == [
            f"vanilla condition block {b} vs {o}: {'TRUE' if b > o else 'FALSE'}"
            for b, o in itertools.permutations(range(1, 6), 2)
        ]

    @pytest.mark.filterwarnings("error")
    def test_oracle_depends_only_on_weight_ratio(self, capsys):
        # n q overflows for weights near the float maximum unless both are scaled down first
        outputs = []
        for p, q in (("1", "1"), ("1e308", "1e308"), ("1.7", "1"), ("1.7e308", "1e308")):
            assert self.run("oracle", "--sizes", "2,2", "--seeds", "1,1", "--p", p, "--q", q) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[2] == outputs[3]
        assert "mean temperature = 0.5\n" in outputs[0]
        assert outputs[0].count(": FALSE") == 2

    def test_oracle_invalid_params_exit_1(self):
        assert self.run("oracle", "--sizes", "2,2", "--seeds", "3,1",
                        "--p", "2", "--q", "1") == 1

    @pytest.mark.parametrize("weights", [("nan", "1"), ("1", "inf")])
    def test_oracle_non_finite_weights_exit_1(self, capsys, weights):
        p, q = weights
        assert self.run("oracle", "--sizes", "2,2", "--seeds", "1,1", "--p", p, "--q", q) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: edge weights p and q must be positive and finite"]

    def test_oracle_counts_not_aligned_exit_1(self, capsys):
        assert self.run("oracle", "--sizes", "2", "--seeds", "1,1", "--p", "2", "--q", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: sizes and seed_counts must be nonempty and aligned"]

    @pytest.mark.parametrize("hot", [0, -1, 3])
    def test_oracle_hot_out_of_range_exit_1(self, capsys, hot):
        assert self.run("oracle", "--sizes", "2,2", "--seeds", "1,1", "--p", "2", "--q", "1", "--hot", str(hot)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: hot label {hot} out of range [1, 2]"]

    def test_oracle_has_no_block_count_flag(self, capsys):
        # the block count is the length of --sizes
        with pytest.raises(SystemExit) as exc:
            self.run("oracle", "--K", "2", "--sizes", "2,2", "--seeds", "1,1", "--p", "2", "--q", "1")
        assert exc.value.code == 1
        assert "unrecognized arguments: --K 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name, argv", ORACLE_GOLDENS.items(), ids=ORACLE_GOLDENS)
    def test_oracle_matches_golden_output(self, capsys, name, argv):
        # written by the per-label closed form (then called with the block
        # count as `--K <blocks> <argv>`); the one-table form prints the same bytes
        assert self.run("oracle", *argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (GOLDEN_DIR / "oracle" / f"{name}.txt").read_text(encoding="utf-8")

    def test_oracle_numerical_failure_exits_2(self, capsys):
        # p / q = 1e-300 rounds the mean-temperature denominator to zero; the
        # true temperatures are all 1
        assert self.run("oracle", "--sizes", "10", "--seeds", "1", "--p", "1e-300", "--q", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (err,) = captured.err.splitlines()
        assert err.startswith("numerical failure: mean-temperature denominator is nonpositive")

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

    def test_bundled_lemma_grid(self, tmp_path, capsys):
        assert self.run("bench", "--config", "lemma-grid", "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "oracle_agreement.csv").read_text().splitlines()
        assert lines[0] == "point,num_blocks,n,p,q,hot,max_abs_diff"
        assert len(lines) == 1 + 50
        assert max(float(line.split(",")[-1]) for line in lines[1:]) <= 1e-12

    @pytest.mark.parametrize(
        "config",
        ["blocks2-uniform", "blocks3-uniform", "fig2a-small", "karate-uniform", "lemma-grid", "all-seed-grid"],
    )
    def test_bench_reports_as_many_rows_as_it_writes(self, tmp_path, capsys, config):
        if config == "all-seed-grid":
            # blocks of 2 to 5 nodes: some draws seed every node
            config = str(tmp_path / "grid.cfg")
            Path(config).write_text("task = oracle_grid\ngrid_points = 40\nmax_block_nodes = 6\nmaster_seed = 3\n")
        assert self.run("bench", "--config", config, "--out-dir", str(tmp_path / "out")) == 0
        first = capsys.readouterr().out.splitlines()[0]
        name = "oracle_agreement.csv" if first.startswith("oracle grid: ") else "results.csv"
        reported = int(first.removeprefix("oracle grid: ").split()[0])
        written = (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()[1:]
        assert reported == len(written) > 0
        if name == "oracle_agreement.csv":
            assert [line.split(",")[0] for line in written] == [str(i) for i in range(reported)]

    @pytest.mark.parametrize("points", [0, -3])
    def test_oracle_grid_without_points_exits_1(self, tmp_path, capsys, points):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"task = oracle_grid\ngrid_points = {points}\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "grid")) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: the oracle grid needs at least 1 point, got {points}"]
        assert not (tmp_path / "grid").exists()

    @pytest.mark.parametrize("nodes", [1, -5])
    def test_oracle_grid_with_too_few_block_nodes_exits_1(self, tmp_path, capsys, nodes):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"task = oracle_grid\ngrid_points = 2\nmax_block_nodes = {nodes}\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "grid")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: the oracle grid needs max_block_nodes of at least 2, got {nodes}"
        ]
        assert not (tmp_path / "grid").exists()

    def test_oracle_grid_runs_graphs_of_fig2a_size(self, tmp_path):
        # block graphs take K·n floats, so draws of up to 12,000 nodes solve
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("task = oracle_grid\ngrid_points = 4\nmax_block_nodes = 12000\nmaster_seed = 5\n")
        assert self.run("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "grid")) == 0
        rows = [line.split(",") for line in (tmp_path / "grid" / "oracle_agreement.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert max(int(row[2]) for row in rows) > 10_000
        assert max(float(row[-1]) for row in rows) <= 1e-12

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
