import importlib.util
import json
import os
import subprocess
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
        "commit_date",
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


def test_points_are_kept_in_commit_date_order(tmp_path):
    # three commits dated by hand, appended out of order, then a point with
    # no commit and one of a commit the repository lacks; the third date is
    # the latest, though as text it sorts before the second
    recorder = load_recorder()
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", "-C", str(repo)]
    subprocess.run([*git, "init", "-q"], check=True)
    dates = ["2024-01-01T10:00:00+00:00", "2024-01-02T10:00:00+00:00", "2024-01-02T09:30:00-02:00"]
    commits = []
    for date in dates:
        env = {**os.environ, "GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", date], check=True, env=env)
        commits.append(subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip())
    path = tmp_path / "BENCH_x.json"
    for i in (2, 0, 1):
        recorder.append_point(path, {"commit": commits[i], "source_sha256": str(i)}, repo=repo)
    recorder.append_point(path, {"commit": None, "source_sha256": "unknown"}, repo=repo)
    recorder.append_point(path, {"commit": "0" * 40, "source_sha256": "missing"}, repo=repo)
    points = json.loads(path.read_text(encoding="utf-8"))["points"]
    assert [p["source_sha256"] for p in points] == ["0", "1", "2", "unknown", "missing"]
    assert [p["commit_date"] for p in points] == [*dates, None, None]
    # a point saved without a date gets it when the next point is added
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["points"][1]["commit_date"]
    path.write_text(json.dumps(data), encoding="utf-8")
    recorder.append_point(path, {"commit": commits[0], "source_sha256": "0"}, repo=repo)
    points = json.loads(path.read_text(encoding="utf-8"))["points"]
    assert [p["commit_date"] for p in points] == [*dates, None, None]


def test_workload_point_takes_the_median_of_repeated_untraced_runs(monkeypatch):
    # three untraced runs whose metrics differ, then one traced run; the
    # second untraced run fails and the third lacks one metric
    recorder = load_recorder()
    reports = iter([
        ({"points_per_s": 100.0, "quality": 0.9}, [0.2, 0.4]),
        None,
        ({"points_per_s": 130.0}, [0.3]),
        ({"solver.iterations": 2423.0, "solver.sweep_ms": 0.0}, [9.0]),
    ])
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append(trace)
        report = next(reports)
        if report is None:
            return None, ["run.py exited 1 with no report: boom"]
        metrics, cpu = report
        info = {"environment": {"commit": "abc", "source_sha256": "def"}, "call_cpu_s": cpu,
                "inputs_sha256": "123", "errors": []}
        return {"info": info, "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}, []

    monkeypatch.setattr(recorder, "run_perfbench", fake_run)
    point = recorder.record_workload(ROOT, "sbm-sweep", 1, 20.0, repeats=3)
    assert calls == [0, 0, 0, 1]
    assert point["repeats"] == 3 and point["commit"] == "abc"
    assert point["errors"] == ["run.py exited 1 with no report: boom"]
    assert point["end_to_end_runs"] == {"points_per_s": [100.0, 130.0], "quality": [0.9]}
    assert point["end_to_end"] == {"points_per_s": 115.0, "quality": 0.9}
    assert point["call_cpu_s_median"] == 0.3  # over every timed call of the untraced runs
    assert point["per_layer"] == {"solver.iterations": 2423.0, "solver.sweep_ms": 0.0}
    assert point["counters"] == {"solver.iterations": 2423.0}
    assert point["always_zero"] == {"solver.sweep_ms": "times solver.jacobi_sweep, which the package no longer has"}
