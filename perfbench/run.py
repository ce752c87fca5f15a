"""The heatprop benchmark.

    python3 perfbench/run.py --workload sbm-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Set-up generates the workload's inputs
from --seed in a fresh child process, several times; setup_s is the median.
The inputs form a cycle of slots (see workloads.py). The measurement is a
closed loop in this one process: it calls heatprop.cli.main with the
workload's command on one slot after the other and checks each call's output.
The first call warms up and is not timed. After one timed call per slot, the
next call starts while the expected end stays within --seconds. A slot's time
is the median over its calls, and the cycle's time is the sum over the slots.
The first cycle's outputs are checked against the workload's gate. With
--trace 1 the loop is followed by one traced call per slot, which gives the
per-layer metrics and the tracing overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, where an operation is one command call. The line before it holds
the environment, the input digest and any failure kinds. Work files go to
.bench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
# file-classify's set-up takes about 1.7 s a round, the others about 0.2 s
SETUP_ROUNDS = {"sbm-sweep": 7, "file-classify": 3, "block-oracle": 7}
MAX_CALLS = 1000  # keeps the loop and its records bounded if calls get very fast
# numpy's OpenBLAS starts one thread per core by default, and its threads spin
# while they wait. On the 2-core test box that made block-oracle use both cores
# (CPU time twice the wall time) and contend with the host's other load. One
# thread keeps every workload on one core.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="heatprop benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                   help="input size; 'tiny' is for the smoke tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heatprop").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(before: dict[str, str]) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "HEATPROP_THREADS_before_unset": before.get("HEATPROP_THREADS"),
        "num_threads_env_before_pinning": {k: v for k, v in before.items() if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# set-up and calls


def set_up(args, inputs: Path) -> tuple[float, str]:
    """Generate the inputs SETUP_ROUNDS times; return the median wall time and
    the input digest, which must be the same in every round."""
    script = Path(__file__).resolve().parent / "generate.py"
    argv = [sys.executable, str(script), "--workload", args.workload, "--seed", str(args.seed),
            "--out", str(inputs), "--scale", args.scale]
    walls, digests = [], set()
    for _ in range(SETUP_ROUNDS[args.workload]):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        digests.add(workloads.files_digest(inputs))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic for this seed")
    return statistics.median(walls), digests.pop()


@dataclass
class Call:
    code: int
    wall: float
    cpu: float  # CPU seconds of the process, BLAS threads included
    stderr: str


def call(main, argv: list[str]) -> Call:
    """One in-process command call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, reported below
            traceback.print_exc()
            code = -1
    return Call(code, time.perf_counter() - start, time.process_time() - cpu, err.getvalue())


def _rel(path: Path) -> Path:
    return path.relative_to(ROOT)


def call_and_check(args, main, inputs: Path, out: Path, slot: int) -> tuple[workloads.Outcome, Call]:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = workloads.command(args.workload, args.scale, args.seed, _rel(inputs), _rel(out), slot)
    done = call(main, argv)
    return workloads.check(args.workload, args.scale, inputs, out, done.code), done


def _failure(outcome: workloads.Outcome, done: Call) -> list[str]:
    return outcome.errors + [done.stderr.strip()[-2000:]]


def measure(args, main, inputs: Path, out: Path):
    """Closed loop of calls that go round the slots of the workload's cycle.
    The first call warms up and is not timed. After one timed call per slot,
    the next call starts while the run is expected to end within
    ``args.seconds``. Stops at the first call that fails its check. Returns
    the outcomes, the calls and the errors."""
    slots = workloads.cycle(args.workload, args.scale)
    outcomes, calls, errors, digests = [], [], [], {}
    begin = time.perf_counter()
    while len(calls) < MAX_CALLS:
        slot = len(calls) % slots
        outcome, done = call_and_check(args, main, inputs, out, slot)
        outcomes.append(outcome)
        calls.append(done)
        if not outcome.ok:
            errors += _failure(outcome, done)
            break
        if digests.setdefault(slot, workloads.files_digest(out)) != workloads.files_digest(out):
            errors.append(f"calls on slot {slot} wrote different outputs")
            break
        if len(calls) <= slots:
            continue
        upcoming = statistics.median(c.wall for c in calls[len(calls) % slots::slots])
        if time.perf_counter() - begin + upcoming > args.seconds:
            break
    return outcomes, calls, errors


def cycle_wall(calls: list[Call], slots: int) -> float:
    """Wall time of one cycle: the sum over the slots of the median wall time
    of the slot's timed calls (all calls but the first)."""
    return math.fsum(
        statistics.median(calls[k].wall for k in range(1, len(calls)) if k % slots == j)
        for j in range(slots)
    )


E2E_UNITS = {"setup_s": "s", "reps_per_s": "1/s", "classify_s": "s", "points_per_s": "1/s",
             "completed_share": "ratio", "quality": "ratio", "peak_rss_mb": "MB"}


def end_to_end(cycle: list[workloads.Outcome], wall: float, quality: float, setup_s: float) -> dict[str, float]:
    """End-to-end metrics of a run from the outcomes of one call per slot and
    the cycle's wall time."""
    completed = sum(o.completed for o in cycle)
    return {
        "setup_s": setup_s,
        "reps_per_s": completed / wall,
        "classify_s": wall / len(cycle),
        "points_per_s": sum(o.rows for o in cycle) / wall,
        "completed_share": completed / sum(o.attempted for o in cycle),
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_cycle(args, inputs: Path, out: Path, untraced_wall: float):
    """One traced call per slot; returns their outcomes and calls, the
    per-layer metrics, the failure kinds and the span records."""
    import heatprop.cli

    slots = workloads.cycle(args.workload, args.scale)
    outcomes, calls = [], []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for slot in range(slots):
            outcome, done = call_and_check(args, heatprop.cli.main, inputs, out, slot)
            outcomes.append(outcome)
            calls.append(done)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"warning: not traced, missing from the package: {tracer.missing}", file=sys.stderr)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_share"] = math.fsum(c.wall for c in calls) / untraced_wall - 1
    return outcomes, calls, metrics, tracing.failure_kinds(tracer.spans), tracing.span_records(tracer.spans)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heatprop" / "__init__.py").is_file():
        print(f"error: no heatprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # the program's single-threaded default; the tracer needs one call stack
    before = {k: v for k, v in sorted(os.environ.items())
              if k == "HEATPROP_THREADS" or k.endswith("_NUM_THREADS")}
    os.environ.pop("HEATPROP_THREADS", None)
    os.environ.update(PINNED_ENV)  # before numpy is imported here or in set-up

    run_dir, reports = WORK / "work", WORK / "reports"
    inputs, out = run_dir / "inputs", run_dir / "out"
    shutil.rmtree(run_dir, ignore_errors=True)
    reports.mkdir(parents=True, exist_ok=True)
    setup_s, digest = set_up(args, inputs)

    sys.path.insert(0, str(ROOT / "src"))
    import heatprop.cli

    if not Path(heatprop.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: heatprop imported from {heatprop.cli.__file__}", file=sys.stderr)
        return 2

    outcomes, calls, errors = measure(args, heatprop.cli.main, inputs, out)
    slots = workloads.cycle(args.workload, args.scale)
    quality, wall, metrics, units, kinds = 0.0, 0.0, {}, E2E_UNITS, None
    if not errors:
        quality, errors = workloads.check_cycle(args.workload, args.scale, outcomes[:slots])
    if not errors:
        wall = cycle_wall(calls, slots)
        metrics = end_to_end(outcomes[:slots], wall, quality, setup_s)
    if args.trace and not errors:
        traced, traced_calls, metrics, kinds, spans = traced_cycle(args, inputs, out, wall)
        outcomes += traced
        calls += traced_calls
        errors += [e for o, c in zip(traced, traced_calls) if not o.ok for e in _failure(o, c)]
        units = tracing.PER_LAYER
        with open(reports / f"spans-{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as handle:
            for row in spans:
                handle.write(json.dumps(row) + "\n")

    failed = sum(not o.ok for o in outcomes)
    correct = not errors and failed == 0
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "inputs_sha256": digest,
        "command": ["heatprop", *workloads.command(args.workload, args.scale, args.seed, _rel(inputs), _rel(out), 0)],
        "cycle": slots, "cycle_wall_s": wall,
        "call_wall_s": [c.wall for c in calls], "call_cpu_s": [c.cpu for c in calls],
        "not_completed_per_cycle": sum(o.attempted - o.completed for o in outcomes[:slots]),
        "failure_kinds": kinds, "errors": errors,
        "environment": environment(before),
    }
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()} if correct else {},
    }
    report = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
