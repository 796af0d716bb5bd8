"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a source checkout.
"""

import os
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from steinradar import ScanConfig, emit, run_scan  # noqa: E402
from steinradar import scan as scan_module  # noqa: E402

from checks import check_scan_table  # noqa: E402
from spans import NullTracer, Span, Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, grid  # noqa: E402
import rep  # noqa: E402

SMALL = dict(nb=5.0, m=100, points=5, snr_db_min=-10.0, snr_db_max=0.0, tail_tol=1e-8)


def test_second_scan_in_one_interpreter_is_served_by_the_cache():
    # Why every timed repetition needs its own interpreter.
    cached = getattr(scan_module, "_cached_third_moment", None)
    if cached is None:
        pytest.skip("run_scan keeps no per-process T cache")
    config = ScanConfig(**dict(SMALL, snr_db_min=-9.5))
    run_scan(config)
    before = cached.cache_info().hits
    run_scan(config)
    assert cached.cache_info().hits - before == SMALL["points"]


def test_no_grid_is_timed_twice_in_one_interpreter():
    workload = WORKLOADS["low-background"]
    gate = run.Gate(workload, seed=3)
    _, detail = run.timed_run(workload, 3, 0.0, gate)
    pids = [sample["pid"] for sample in detail["samples"]]
    assert len(pids) == run.MIN_REPS
    assert len(set(pids)) == len(pids)
    assert os.getpid() not in pids
    assert gate.failed == 0 and gate.attempted == run.MIN_REPS * workload.points


def test_seeds_shift_the_grid_without_sharing_points():
    for workload in WORKLOADS.values():
        default = grid(workload, DEFAULT_SEED)
        assert default[0] == workload.snr_db_min and default[-1] == workload.snr_db_max
        grids = [set(grid(workload, seed)) for seed in range(6)]
        for i, a in enumerate(grids):
            for b in grids[i + 1:]:
                assert not a & b


def test_replica_emits_run_scan_bytes():
    config = ScanConfig(**SMALL)
    snr_grid = grid_of(config)
    tracer = Tracer()
    traced = rep.replica(config, snr_grid, tracer)
    untraced = rep.replica(config, snr_grid, NullTracer())
    want = emit(run_scan(config), config).decode()
    assert traced["payload"] == untraced["payload"] == want
    rows = [s for s in tracer.spans if s.name == "scan.row"]
    assert len(rows) == SMALL["points"]
    children = {s.parent for s in tracer.spans if s.name == "displaced.third_moment"}
    assert children == {s.sid for s in rows}


def grid_of(config):
    import numpy as np

    return [float(s) for s in np.linspace(config.snr_db_min, config.snr_db_max, config.points)]


def test_gate_counts_a_corrupted_row():
    config = ScanConfig(**SMALL)
    snr_grid = grid_of(config)
    payload = emit(run_scan(config), config).decode()
    assert check_scan_table(payload, snr_grid, config.nb, config.m, payload) == (0, [])
    lines = payload.splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))  # d no longer the closed form
    lines[2] = ",".join(cells)
    failed, messages = check_scan_table("\n".join(lines) + "\n", snr_grid, config.nb,
                                        config.m, payload)
    assert failed == 1 and "closed form" in messages[0]
    truncated = "\n".join(payload.splitlines()[:3]) + "\n"  # two rows left
    failed, _ = check_scan_table(truncated, snr_grid, config.nb, config.m, None)
    assert failed == len(snr_grid) - 2


def test_self_time_subtracts_children():
    spans = [Span(1, None, "row", 0.0, 10.0, False, {}),
             Span(2, 1, "a", 1.0, 4.0, False, {}),
             Span(3, 1, "b", 5.0, 7.0, False, {})]
    assert self_times(spans) == {1: 5.0, 2: 3.0, 3: 2.0}


def test_reference_tables_match_their_workloads():
    for name in ("headline", "low-background"):
        text = (run.REFERENCE / f"{name}.csv").read_text()
        assert len(text.splitlines()) == WORKLOADS[name].points + 1
