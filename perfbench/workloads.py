"""Workload definitions: how each workload's inputs are generated from a seed,
which `heatprop` command one operation runs, and the correctness gate that
checks the command's output.

A workload's inputs form a cycle of ``cycle`` slots. sbm-sweep and
block-oracle write one config per slot, each with its own master seed, so
that one call stays short and a run holds many calls; file-classify has one
slot. Calls go round the slots in order. Each call is checked on its own, and
the whole cycle is checked against the workload's gate.

Generation runs in a fresh child process (see generate.py) so that its import
and generation time is the set-up time and its memory does not count towards
the workload's peak RSS.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sbm-sweep", "file-classify", "block-oracle")

# Input shapes. "full" is the benchmark; "tiny" keeps the same code paths at a
# size the smoke tests can afford.
SCALES = {
    "full": {
        # Fig. 2a of the paper without a `policy` key, so the swept ratio really
        # changes the seed counts and vanilla collapses while centered holds.
        # About a third of the repetitions fail on a seedless component. 32 per
        # ratio in a cycle keep that share steady from seed to seed and leave
        # every ratio with completed rows (up to 60 % fail at ratio 1).
        "sbm-sweep": dict(sizes=(5000, 5000), seeds=(250, 250), p=1e-3, q=1e-4,
                          ratios=(1, 2, 5, 10), repetitions=8, cycle=4),
        # 5 x 20,000 nodes at mean degree 16 (80 % within a block), about 800k
        # edges: connected, so every classify call succeeds.
        "file-classify": dict(blocks=5, block_size=20_000, mean_degree=16.0,
                              within=0.8, fraction=0.01, cycle=1),
        "block-oracle": dict(grid_points=150, max_block_nodes=1000, cycle=4),
    },
    "tiny": {
        "sbm-sweep": dict(sizes=(300, 300), seeds=(15, 15), p=2e-2, q=2e-3,
                          ratios=(1, 2, 5, 10), repetitions=3, cycle=2),
        "file-classify": dict(blocks=5, block_size=400, mean_degree=16.0,
                              within=0.8, fraction=0.01, cycle=1),
        "block-oracle": dict(grid_points=10, max_block_nodes=100, cycle=2),
    },
}

# gates
SWEEP_MIN_CENTERED_F1 = 0.90
SWEEP_MIN_GAP_AT_LARGEST_RATIO = 0.10
ORACLE_MAX_DISAGREEMENT = 1e-9

EDGE_FILE = "graph.edges"
LABEL_FILE = "graph.labels"


def spec(workload: str, scale: str) -> dict:
    return SCALES[scale][workload]


def cycle(workload: str, scale: str) -> int:
    return spec(workload, scale)["cycle"]


def config_file(slot: int) -> str:
    return f"slot{slot}.cfg"


def master_seed(seed: int, slot: int) -> int:
    """The master seed of one slot's config, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{slot}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# input generation (runs in the set-up child process)


def generate(workload: str, scale: str, seed: int, out: Path) -> None:
    """Write the workload's input files for ``seed`` into ``out``."""
    s = spec(workload, scale)
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("sbm-sweep", "block-oracle"):
        for slot in range(s["cycle"]):
            text = _config(workload, s, master_seed(seed, slot))
            (out / config_file(slot)).write_text(text, encoding="utf-8")
    elif workload == "file-classify":
        from heatprop.blockmodel import BlockModelParams, sbm_generate
        from heatprop.io import write_edge_list

        k, nb = s["blocks"], s["block_size"]
        n = k * nb
        p = s["within"] * s["mean_degree"] / (nb - 1)
        q = (1 - s["within"]) * s["mean_degree"] / (n - nb)
        params = BlockModelParams(sizes=(nb,) * k, seed_counts=(1,) * k, p=p, q=q)
        graph, truth, _ = sbm_generate(params, seed)
        write_edge_list(out / EDGE_FILE, graph)
        text = "".join(f"{i}\tblock{lab}\n" for i, lab in enumerate(truth.labels.tolist()))
        (out / LABEL_FILE).write_text(text, encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _config(workload: str, s: dict, seed: int) -> str:
    if workload == "sbm-sweep":
        lines = [
            "source = sbm",
            f"sizes = {','.join(map(str, s['sizes']))}",
            f"seeds = {','.join(map(str, s['seeds']))}",
            f"p = {s['p']!r}",
            f"q = {s['q']!r}",
            "variants = vanilla,centered",
            "sweep = seed_ratio",
            f"sweep_values = {','.join(map(str, s['ratios']))}",
            f"repetitions = {s['repetitions']}",
            f"master_seed = {seed}",
        ]
    else:
        lines = [
            "task = oracle_grid",
            f"grid_points = {s['grid_points']}",
            f"max_block_nodes = {s['max_block_nodes']}",
            f"master_seed = {seed}",
        ]
    return "\n".join(lines) + "\n"


def files_digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of the files in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one operation: the command line and the check of its output


def command(workload: str, scale: str, seed: int, inputs: Path, out: Path, slot: int) -> list[str]:
    """Arguments for `heatprop` that one operation of ``workload`` runs on ``slot``."""
    if workload == "file-classify":
        return [
            "classify", "--graph", str(inputs / EDGE_FILE), "--labels", str(inputs / LABEL_FILE),
            "--sample", "uniform", "--fraction", repr(spec(workload, scale)["fraction"]),
            "--variant", "centered", "--seed", str(seed), "--out", str(out / "labels.csv"),
        ]
    return ["bench", "--config", str(inputs / config_file(slot)), "--out-dir", str(out)]


@dataclass
class Outcome:
    """What one command call did, read back from the files it wrote."""

    exit_code: int
    attempted: int  # repetitions, classify calls or grid points
    completed: int
    rows: int  # output rows checked by the gate
    quality: tuple[float, int] = (0.0, 0)  # sum and number of the values `quality` averages
    scores: dict[tuple[str, float], list[float]] = field(default_factory=dict)  # sbm-sweep macro-F1s
    errors: list[str] = field(default_factory=list)  # gate violations

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.errors


def check(workload: str, scale: str, inputs: Path, out: Path, exit_code: int) -> Outcome:
    """Read the outputs of one call and apply the part of the workload's gate
    that one call can meet on its own."""
    s = spec(workload, scale)
    if exit_code != 0:
        return Outcome(exit_code, _attempted(workload, s), 0, 0, errors=[f"command exited with {exit_code}"])
    if workload == "sbm-sweep":
        return _check_sweep(s, out)
    if workload == "file-classify":
        return _check_classify(s, inputs, out)
    return _check_oracle(s, out)


def check_cycle(workload: str, scale: str, outcomes: list[Outcome]) -> tuple[float, list[str]]:
    """The quality of one call per slot and the gate violations that only
    the whole cycle shows."""
    total = math.fsum(o.quality[0] for o in outcomes)
    count = sum(o.quality[1] for o in outcomes)
    errors = []
    if workload == "sbm-sweep":
        scores: dict[tuple[str, float], list[float]] = {}
        for o in outcomes:
            for key, values in o.scores.items():
                scores.setdefault(key, []).extend(values)
        errors = _sweep_gate(spec(workload, scale), scores)
    return (total / count if count else 0.0), errors


def _attempted(workload: str, s: dict) -> int:
    if workload == "sbm-sweep":
        return len(s["ratios"]) * s["repetitions"]
    if workload == "block-oracle":
        return s["grid_points"]
    return 1


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _check_sweep(s: dict, out: Path) -> Outcome:
    rows = _read_csv(out / "results.csv")
    scores: dict[tuple[str, float], list[float]] = {}
    for r in rows:
        scores.setdefault((r["variant"], float(r["sweep"])), []).append(float(r["macro_f1"]))
    errors = []
    unknown = sorted({key for key in scores if key[0] not in ("vanilla", "centered")
                      or key[1] not in map(float, s["ratios"])})
    if unknown:
        errors.append(f"rows for variants or ratios that were not asked for: {unknown}")
    completed = len({(r["sweep"], r["rep"]) for r in rows})
    centered = [v for (variant, _), values in scores.items() if variant == "centered" for v in values]
    return Outcome(0, _attempted("sbm-sweep", s), completed, len(rows),
                   (math.fsum(centered), len(centered)), scores, errors)


def _sweep_gate(s: dict, scores: dict[tuple[str, float], list[float]]) -> list[str]:
    errors = []
    for ratio in s["ratios"]:
        centered = scores.get(("centered", float(ratio)))
        if not centered:
            errors.append(f"ratio {ratio}: no completed centered repetition")
        elif _mean(centered) < SWEEP_MIN_CENTERED_F1:
            errors.append(f"ratio {ratio}: centered macro-F1 {_mean(centered):.4f} < {SWEEP_MIN_CENTERED_F1}")
    top = float(max(s["ratios"]))
    if scores.get(("centered", top)) and scores.get(("vanilla", top)):
        gap = _mean(scores[("centered", top)]) - _mean(scores[("vanilla", top)])
        if gap < SWEEP_MIN_GAP_AT_LARGEST_RATIO:
            errors.append(f"ratio {top:g}: centered - vanilla = {gap:.4f} < {SWEEP_MIN_GAP_AT_LARGEST_RATIO}")
    else:
        errors.append(f"ratio {top:g}: missing centered or vanilla rows")
    return errors


def _check_classify(s: dict, inputs: Path, out: Path) -> Outcome:
    truth = {}
    for line in (inputs / LABEL_FILE).read_text(encoding="utf-8").splitlines():
        node, name = line.split("\t")
        truth[node] = name
    rows = _read_csv(out / "labels.csv")
    n = len(truth)
    expected = n - max(math.ceil(s["fraction"] * n), s["blocks"])
    names = set(truth.values())
    errors = []
    nodes = [r["node_id"] for r in rows]
    if len(rows) != expected:
        errors.append(f"{len(rows)} output rows, expected one per non-seed node ({expected})")
    if len(set(nodes)) != len(nodes):
        errors.append("a node appears twice in the output")
    if any(node not in truth for node in nodes):
        errors.append("output names a node that is not in the graph")
    if any(r["label"] not in names for r in rows):
        errors.append("output uses a label name that is not in the label file")
    quality = 0.0 if errors else macro_f1([r["label"] for r in rows], [truth[v] for v in nodes])
    return Outcome(0, 1, 0 if errors else 1, len(rows), (quality, 1), errors=errors)


def _check_oracle(s: dict, out: Path) -> Outcome:
    rows = _read_csv(out / "oracle_agreement.csv")
    diffs = [float(r["max_abs_diff"]) for r in rows]
    errors = []
    if not diffs:
        errors.append("no grid point was checked")
    elif max(diffs) > ORACLE_MAX_DISAGREEMENT:
        errors.append(f"worst block disagreement {max(diffs):.3e} > {ORACLE_MAX_DISAGREEMENT:g}")
    agreeing = sum(d <= ORACLE_MAX_DISAGREEMENT for d in diffs)
    attempted = _attempted("block-oracle", s)
    return Outcome(0, attempted, len(rows), len(rows), (float(agreeing), attempted), errors=errors)


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def macro_f1(pred: list[str], truth: list[str]) -> float:
    """Unweighted mean over the true classes of the per-class F1 score."""
    hits = Counter(p for p, t in zip(pred, truth) if p == t)
    predicted, actual = Counter(pred), Counter(truth)
    # F1 = 2 tp / (2 tp + fp + fn) and 2 tp + fp + fn = predicted + actual
    return _mean([2 * hits[c] / (predicted[c] + actual[c]) for c in sorted(actual)])
