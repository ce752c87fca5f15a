"""Cycle arithmetic of run.py and the cycle-wide gate of workloads.py."""

import pytest

import run
import workloads
from workloads import Outcome


def _call(wall):
    return run.Call(code=0, wall=wall, cpu=wall, stderr="")


def test_cycle_wall_sums_slot_medians_and_skips_the_warm_up():
    # two slots; call 0 (slot 0) warms up and must not count
    calls = [_call(100.0), _call(2.0), _call(1.0), _call(4.0), _call(3.0), _call(1.0)]
    # slot 0: calls 2 and 4 -> median 2.0; slot 1: calls 1, 3 and 5 -> median 2.0
    assert run.cycle_wall(calls, 2) == pytest.approx(4.0)


def test_end_to_end_rates_come_from_one_cycle():
    cycle = [Outcome(0, 40, 30, 60), Outcome(0, 40, 20, 40)]
    m = run.end_to_end(cycle, wall=10.0, quality=0.95, setup_s=0.2)
    assert m["reps_per_s"] == pytest.approx(5.0)
    assert m["points_per_s"] == pytest.approx(10.0)
    assert m["classify_s"] == pytest.approx(5.0)
    assert m["completed_share"] == pytest.approx(50 / 80)
    assert set(m) == set(run.E2E_UNITS)


def _sweep(scores):
    rows = sum(len(v) for v in scores.values())
    centered = [x for (variant, _), v in scores.items() if variant == "centered" for x in v]
    return Outcome(0, 8, rows // 2, rows, (sum(centered), len(centered)), scores)


def test_sweep_gate_pools_the_slots():
    # slot 0 has no completed repetition at ratio 1; slot 1 has one
    slot0 = _sweep({("centered", 2.0): [0.97], ("vanilla", 2.0): [0.9],
                    ("centered", 5.0): [0.96], ("vanilla", 5.0): [0.7],
                    ("centered", 10.0): [0.95], ("vanilla", 10.0): [0.4]})
    slot1 = _sweep({("centered", 1.0): [0.97], ("vanilla", 1.0): [0.97]})
    quality, errors = workloads.check_cycle("sbm-sweep", "full", [slot0, slot1])
    assert errors == []
    assert quality == pytest.approx((0.97 + 0.96 + 0.95 + 0.97) / 4)
    _, errors = workloads.check_cycle("sbm-sweep", "full", [slot0])
    assert errors == ["ratio 1: no completed centered repetition"]


def test_sweep_gate_needs_the_gap_at_the_largest_ratio():
    scores = {(v, float(r)): [0.95] for v in ("centered", "vanilla") for r in (1, 2, 5, 10)}
    _, errors = workloads.check_cycle("sbm-sweep", "full", [_sweep(scores)])
    assert errors == ["ratio 10: centered - vanilla = 0.0000 < 0.1"]


def test_slot_seeds_are_fixed_by_the_benchmark_seed():
    assert workloads.master_seed(7, 0) == workloads.master_seed(7, 0)
    seeds = {workloads.master_seed(s, j) for s in range(3) for j in range(4)}
    assert len(seeds) == 12
