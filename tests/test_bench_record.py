import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_point_holds_its_keys(tmp_path):
    recorder = load_recorder()
    path_before = sys.path[:]
    point = recorder.record_bundled(ROOT, ["fig2a-small"], repeats=1, work=tmp_path / "work")
    assert sys.path == path_before and "tracing" not in sys.modules
    path = tmp_path / "BENCH_bundled.json"
    recorder.append_point(path, point)
    recorder.append_point(path, point)  # the same commit and sources: replaced, not added
    (saved,) = json.loads(path.read_text(encoding="utf-8"))["points"]
    assert set(saved) == {
        "commit", "source_sha256", "python", "numpy", "nproc", "cpu_model", "num_threads_env",
        "HEATPROP_THREADS_before_unset", "num_threads_env_before_pinning", "repeats", "configs",
    }
    assert saved["repeats"] == 1 and list(saved["configs"]) == ["fig2a-small"]
    run = saved["configs"]["fig2a-small"]
    assert set(run) == {"wall_s", "wall_s_runs", "rows", "layers", "counters", "errors"}
    assert run["errors"] == [] and len(run["wall_s_runs"]) == 1 and run["rows"] == 40
    assert {"sbm_generate", "build_graph", "connected_components", "solve_iterative", "classify",
            "macro_f1", "write_csv", "write_aggregate_csv"} <= set(run["layers"])
    counters = run["counters"]
    assert counters["solves"] == run["layers"]["solve_iterative"]["calls"] > 0
    assert counters["matvecs"] >= counters["iterations"] > 0
    assert counters["failed_reps"] == 0


def test_always_zero_says_whether_the_checkout_has_the_function(tmp_path):
    recorder = load_recorder()
    solver = tmp_path / "src" / "heatprop" / "solver.py"
    solver.parent.mkdir(parents=True)
    solver.write_text('"""Solvers."""\n\ndef jacobi_sweep(g):\n    pass\n', encoding="utf-8")
    metrics = {"solver.sweep_ms": 0.0, "solver.exact_s": 0.0, "solver.exact_unknowns": 3.0}
    assert recorder.always_zero(tmp_path, metrics) == {
        "solver.sweep_ms": "times solver.jacobi_sweep, which this workload did not call",
        "solver.exact_s": "times solver.solve_exact, which the package no longer has",
    }
