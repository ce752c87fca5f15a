"""Record one point of the performance trajectory in BENCH_*.json.

    python3 tools/bench_record.py [--checkout DIR ...]

For each checkout (default: this one; ``--checkout`` may be given more than
once) it

- runs ``perfbench/run.py`` unchanged, as a subprocess, on each workload at
  seed 1 for the ``run_seconds`` of BENCHMARK.json, ``REPEATS`` times
  untraced (end-to-end metrics: the median of the runs, and each run's
  value) and once traced (per-layer metrics), and reads the JSON report
  that run.py writes to ``.bench_run/reports/``. On each workload the
  checkouts take turns, one run each, so that a spell of load on the
  machine falls on all of them;
- runs ``heatprop bench`` in this process on each bundled config of the
  checkout: the median wall time of 3 runs, then one run under cProfile for
  the split by layer, with exact solver counters.

Each part adds one point per checkout to ``BENCH_<workload>.json`` and
``BENCH_bundled.json`` at the root of this repository. A point recorded again
for the same commit and sources replaces the old one. Points are kept in the
order of their commit dates, read from this repository's history (a point
whose commit it lacks goes last, in recorded order). A point opens with the
environment that the checkout's run.py reports: the commit (None without a
``.git`` directory), the source digest, the Python and numpy versions, the
core count, the CPU model and the thread variables. As in run.py,
``HEATPROP_THREADS`` is unset and the ``*_NUM_THREADS`` variables are pinned
to 1 before numpy is imported. To
record another commit, check it out elsewhere (for example with ``git
clone``) and pass it as ``--checkout``; pass the parent and the change to
compare them.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib.util
import io
import json
import os
import pstats
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
BEFORE = {k: v for k, v in sorted(os.environ.items()) if k == "HEATPROP_THREADS" or k.endswith("_NUM_THREADS")}
REPEATS = 3
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# traced metrics that time solver functions the package no longer has; they
# read 0 on every workload until the benchmark drops them. An older checkout
# may still define the function and only not call it on a workload's path.
DEAD_METRICS = {
    "solver.sweep_ms": ("times", "jacobi_sweep"),
    "solver.exact_s": ("times", "solve_exact"),
    "solver.exact_unknowns": ("counts the unknowns of", "solve_exact"),
}
# counters that repeat exactly on every run of one commit and seed
COUNTERS = ("solver.iterations", "solver.fields", "graph.components_calls", "experiments.reps_failed")
# layer -> (module file, function) whose cumulative profiled time it reports
LAYERS = {
    "sbm_generate": ("blockmodel.py", "sbm_generate"),
    "build_deterministic_block_graph": ("blockmodel.py", "build_deterministic_block_graph"),
    "build_graph": ("graph.py", "build_graph"),
    "connected_components": ("graph.py", "connected_components"),
    "solve_iterative": ("solver.py", "solve_iterative"),
    "transition_apply": ("graph.py", "transition_apply"),
    "classify": ("classify.py", "classify"),
    "macro_f1": ("experiments.py", "macro_f1"),
    "write_csv": ("experiments.py", "write_csv"),
    "write_aggregate_csv": ("experiments.py", "write_aggregate_csv"),
}


@contextlib.contextmanager
def _path_first(directory: Path):
    """Put ``directory`` first on sys.path for the block, then restore sys.path."""
    saved = sys.path[:]
    sys.path.insert(0, str(directory))
    try:
        yield
    finally:
        sys.path[:] = saved


def environment(checkout: Path) -> dict:
    """The commit and sources a point measures, and where it ran, from the
    checkout's own ``perfbench/run.py``. That module and the ones it imports
    from its directory are dropped again, so they shadow nothing later."""
    bench = checkout / "perfbench"
    spec = importlib.util.spec_from_file_location("_bench_run", bench / "run.py")
    siblings = {name: sys.modules.get(name) for name in [spec.name, *(p.stem for p in bench.glob("*.py"))]}
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    try:
        with _path_first(bench):
            spec.loader.exec_module(run)
    finally:
        for name, module in siblings.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return run.environment(BEFORE)


# ---------------------------------------------------------------------------
# perfbench workloads


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, list[str]]:
    """One ``perfbench/run.py`` run; returns its report (None when it wrote
    none) and the errors it reported or met."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    report = checkout / ".bench_run" / "reports" / f"{workload}-seed{seed}-trace{trace}.json"
    report.unlink(missing_ok=True)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 900)
    if not report.is_file():
        return None, [f"run.py exited {proc.returncode} with no report: {proc.stderr.strip()[-2000:]}"]
    data = json.loads(report.read_text(encoding="utf-8"))
    errors = list(data["info"]["errors"])
    if proc.returncode != 0 and not errors:
        errors.append(f"run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return data, errors


def record_workload(checkouts: list[Path], workload: str, seed: int, seconds: float, repeats: int) -> list[dict]:
    """One point of ``BENCH_<workload>.json`` per checkout, from ``repeats``
    untraced runs and one traced run of each. The checkouts take turns: run
    r of every checkout comes before run r + 1 of any, and the traced runs
    come last."""
    reports = [[] for _ in checkouts]
    for trace in [0] * repeats + [1]:
        for checkout, done in zip(checkouts, reports):
            done.append((trace, *run_perfbench(checkout, workload, seed, seconds, trace)))
    return [_workload_point(c, workload, seed, seconds, repeats, done) for c, done in zip(checkouts, reports)]


def _workload_point(checkout: Path, workload: str, seed: int, seconds: float, repeats: int, reports) -> dict:
    """A point from one checkout's ``(trace, report, errors)`` runs: the
    end-to-end metrics of the untraced runs and the per-layer metrics of the
    traced one, each as run.py reports them (a timing is the median over a
    slot's timed calls), with the environment of the first report. An
    end-to-end metric is the median over the runs that report it, and
    ``end_to_end_runs`` keeps each run's value in run order."""
    point, env = {"workload": workload, "seed": seed, "seconds": seconds, "repeats": repeats, "errors": []}, None
    runs, cpu = [], []
    for trace, data, errors in reports:
        point["errors"] += errors
        if data and env is None:
            env = data["info"]["environment"]
        metrics = {name: m["value"] for name, m in data["result"]["metrics"].items()} if data else {}
        if data and trace == 0:
            runs.append(metrics)
            cpu += data["info"]["call_cpu_s"]
            point["inputs_sha256"] = data["info"]["inputs_sha256"]
        if trace == 1:
            point["per_layer"] = metrics
            point["counters"] = {name: metrics[name] for name in COUNTERS if name in metrics}
            point["always_zero"] = always_zero(checkout, metrics)
    names = dict.fromkeys(name for r in runs for name in r)
    point["end_to_end_runs"] = {name: [r[name] for r in runs if name in r] for name in names}
    point["end_to_end"] = {name: statistics.median(values) for name, values in point["end_to_end_runs"].items()}
    if cpu:
        point["call_cpu_s_median"] = statistics.median(cpu)
    return {**(env or environment(checkout)), **point}


def always_zero(checkout: Path, metrics: dict) -> dict:
    """Each of DEAD_METRICS that reads 0, with why: the checkout's solver
    module lacks the function, or has it and the workload did not call it."""
    solver = (checkout / "src" / "heatprop" / "solver.py").read_text(encoding="utf-8")
    reasons = {}
    for name, (verb, function) in DEAD_METRICS.items():
        if metrics.get(name) == 0:
            defined = f"\ndef {function}(" in solver
            why = "which this workload did not call" if defined else "which the package no longer has"
            reasons[name] = f"{verb} solver.{function}, {why}"
    return reasons


# ---------------------------------------------------------------------------
# bundled configs, in process


def _import_cli(checkout: Path):
    loaded = sys.modules.get("heatprop")
    if loaded and Path(loaded.__file__).resolve().parent != checkout.resolve() / "src" / "heatprop":
        # another checkout's package: drop it, so that this one is imported
        for name in [name for name in sys.modules if name.split(".")[0] == "heatprop"]:
            del sys.modules[name]
    with _path_first(checkout / "src"):
        import heatprop.cli

    if not Path(heatprop.cli.__file__).resolve().is_relative_to(checkout.resolve() / "src"):
        raise RuntimeError(f"heatprop imported from {heatprop.cli.__file__}, not from {checkout}")
    return heatprop.cli


@contextlib.contextmanager
def _count_solves(iterations: list[int]):
    """Append the iteration count of every ``solve_iterative`` call to
    ``iterations``, in every heatprop module that binds the function."""
    import heatprop.solver

    original = heatprop.solver.solve_iterative

    def counted(*args, **kwargs):
        field = original(*args, **kwargs)
        iterations.append(field.info.iterations)
        return field

    bound = [(mod, attr) for name, mod in list(sys.modules.items()) if name.split(".")[0] == "heatprop"
             for attr, value in list(vars(mod).items()) if value is original]
    for mod, attr in bound:
        setattr(mod, attr, counted)
    try:
        yield
    finally:
        for mod, attr in bound:
            setattr(mod, attr, original)


def _bench(main, config: str, out_dir: Path) -> tuple[int, str, float]:
    """One ``heatprop bench`` call; returns its exit code, stderr and wall time."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["bench", "--config", config, "--out-dir", str(out_dir)])
    return code, err.getvalue(), time.perf_counter() - start


def _layers(profile: cProfile.Profile, package: Path) -> dict:
    """Cumulative seconds and call count of each of LAYERS that ran."""
    found = {}
    for (filename, _, func), (_, calls, _, cumulative, _) in pstats.Stats(profile).stats.items():
        if Path(filename).resolve().parent == package:
            found[Path(filename).name, func] = {"cum_s": cumulative, "calls": calls}
    return {layer: found[key] for layer, key in LAYERS.items() if key in found}


def _rows(out_dir: Path) -> int:
    csv = next((out_dir / name for name in ("results.csv", "oracle_agreement.csv") if (out_dir / name).is_file()), None)
    return len(csv.read_text(encoding="utf-8").splitlines()) - 1 if csv else 0


def record_config(main, package: Path, config: str, repeats: int, work: Path) -> dict:
    """Median wall time of ``repeats`` bench calls, then one profiled call
    for the split by layer and the exact solver counters."""
    out_dir = work / config
    runs = [_bench(main, config, out_dir) for _ in range(repeats)]
    errors = [f"exit {code}: {err.strip()[-2000:]}" for code, err, _ in runs if code != 0]
    iterations: list[int] = []
    profile = cProfile.Profile()
    with _count_solves(iterations):
        code, err, _ = profile.runcall(_bench, main, config, out_dir)
    if code != 0:
        errors.append(f"profiled run exit {code}: {err.strip()[-2000:]}")
    layers = _layers(profile, package)
    return {
        "wall_s": statistics.median(wall for *_, wall in runs),
        "wall_s_runs": [wall for *_, wall in runs],
        "rows": _rows(out_dir),
        "layers": layers,
        "counters": {
            "solves": len(iterations),
            "iterations": sum(iterations),
            "matvecs": layers.get("transition_apply", {}).get("calls", 0),
            "failed_reps": sum(line.startswith("failed:") for line in err.splitlines()),
        },
        "errors": errors,
    }


def bundled_configs(checkout: Path) -> list[str]:
    return sorted(p.stem for p in (checkout / "src" / "heatprop" / "data" / "configs").glob("*.cfg"))


def record_bundled(checkout: Path, configs: list[str], repeats: int, work: Path) -> dict:
    """A point of ``BENCH_bundled.json``: every config in ``configs`` run by
    ``record_config``, with its outputs written under ``work``."""
    cli = _import_cli(checkout)
    package = Path(cli.__file__).resolve().parent
    point = {**environment(checkout), "repeats": repeats, "configs": {}}
    for config in configs:
        point["configs"][config] = record_config(cli.main, package, config, repeats, work)
    return point


# ---------------------------------------------------------------------------


def commit_date(commit: str | None, repo: Path) -> str | None:
    """The committer date of ``commit`` in ``repo`` (ISO 8601), or None
    without a commit, without git or when ``repo`` lacks the commit."""
    if commit is None:
        return None
    try:
        proc = subprocess.run(["git", "show", "-s", "--format=%cI", commit], cwd=repo, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def append_point(path: Path, point: dict, repo: Path = ROOT) -> None:
    """Add ``point`` to the file's points, replacing any point of the same
    commit and sources. Every point gets its ``commit_date`` from ``repo``,
    the points are sorted by it, and undated points go last."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"points": []}
    same = (point["commit"], point["source_sha256"])
    points = [p for p in data["points"] if (p["commit"], p["source_sha256"]) != same] + [point]
    for p in points:
        p["commit_date"] = p.get("commit_date") or commit_date(p["commit"], repo)
    data["points"] = sorted(points, key=_in_commit_order)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _in_commit_order(point: dict) -> tuple[bool, float]:
    """Sort key: dated points by commit time, then the undated ones."""
    date = point["commit_date"]
    return date is None, datetime.fromisoformat(date).timestamp() if date else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, action="append",
                   help="source checkout to measure; repeat to measure several in turns")
    checkouts = [c.resolve() for c in p.parse_args(argv).checkout or [ROOT]]
    os.environ.pop("HEATPROP_THREADS", None)
    os.environ.update(PINNED_ENV)  # before numpy is imported
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        for checkout, point in zip(checkouts, record_workload(checkouts, workload, SEED, bench["run_seconds"], REPEATS)):
            append_point(ROOT / f"BENCH_{workload}.json", point)
            print(f"{workload} {checkout}: {point['end_to_end']} errors={point['errors']}")
    for checkout in checkouts:
        with tempfile.TemporaryDirectory() as work:
            point = record_bundled(checkout, bundled_configs(checkout), REPEATS, Path(work))
        append_point(ROOT / "BENCH_bundled.json", point)
        for name, cfg in point["configs"].items():
            print(f"{name} {checkout}: {cfg['wall_s']:.3f} s errors={cfg['errors']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
