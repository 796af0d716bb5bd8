"""One measured repetition, run in a fresh interpreter by run.py.

    PYTHONPATH=src python3 perfbench/rep.py MODE WORKLOAD SEED [WORKERS]

MODE is one of
  scan       run_scan + emit at WORKERS, timed, untraced
  replica    the scan rebuilt row by row from the public calls that
             run_scan makes, each wrapped in a span, then emit
  crosscheck the cross-check loop, untraced
  traced-crosscheck  the same loop with a span around each call

Every mode also times a fixed kernel before and after its work (calib_s),
which run.py uses to scale the times to the host's reference speed.
Prints one JSON object on standard output.  A fresh interpreter per
repetition matters: run_scan memoises T per process, so a second scan of
the same grid in one interpreter would time the cache, not what a command
line user pays.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import struct
import sys
from time import perf_counter

import numpy as np

from steinradar import (
    DetectionParams,
    MarcumArgs,
    ScanConfig,
    ScanRow,
    SteinRadarError,
    ThermalScenario,
    TruncationPolicy,
    emit,
    error_exponent,
    heterodyne_log_pmd,
    marcum_q,
    refined_bracket,
    rel_entropy,
    rel_entropy_variance,
    run_scan,
    scenario_states,
    spectral_oracle,
    thermal_closed_forms,
    third_moment,
)
from steinradar import scan as scan_module

from spans import NullTracer, Tracer
from workloads import M, P_FA, WORKLOADS, grid, scan_kwargs


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (pool
    workers), in MiB; Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _kernel() -> float:
    s = 0.0
    for i in range(100_000):
        s += math.log1p(i * 1e-3) * 1.0001
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(1000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return s + float(a[0])


def _kernel_time(samples: int) -> float:
    times = []
    for _ in range(samples):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def calibrate(workers: int, samples: int = 3) -> float:
    """Time of a fixed kernel that mixes interpreted float loops and small
    numpy array operations, as the library does.  The host's speed drifts by
    up to 1.6x over seconds to minutes, and one of its two CPUs can be taken
    away for minutes; timing this kernel next to the work measures the speed
    the work ran at.

    With several workers the kernel runs in as many forked copies of this
    process at once (it has no threads to break): the pool balances rows
    across the CPUs, so the pool work ran at their mean speed, and the time
    returned is the harmonic mean of the copies' times.
    """
    if workers == 1:
        return _kernel_time(samples)
    children = []
    for _ in range(workers):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.write(write_end, struct.pack("d", _kernel_time(samples)))
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as fh:
            times.append(struct.unpack("d", fh.read(8))[0])
        os.waitpid(pid, 0)
    return len(times) / sum(1.0 / t for t in times)


def _cache_hits() -> int:
    """Rows that run_scan's per-process T cache served in this process."""
    cached = getattr(scan_module, "_cached_third_moment", None)
    info = getattr(cached, "cache_info", None)
    return info().hits if info else 0


def timed_scan(config: ScanConfig) -> dict:
    start = perf_counter()
    rows = run_scan(config)
    payload = emit(rows, config) if rows else b""
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "rows": len(rows),
        "payload": payload.decode(),
        "cache_hits": _cache_hits(),
    }


def replica(config: ScanConfig, snr_grid: list[float], tracer) -> dict:
    """The rows of run_scan(config) from the same public calls that its row
    function makes, in the same order, each in a span; one parent span per
    row carries snr_db, x = eta*ns and the captured mass of T."""
    policy = TruncationPolicy(tail_tol=config.tail_tol)
    rows: list[ScanRow] = []
    start = perf_counter()
    for snr_db in snr_grid:
        gamma = 10.0 ** (snr_db / 10.0)
        scenario = ThermalScenario(nb=config.nb, eta=1.0, ns=gamma * config.nb)
        x = scenario.eta * scenario.ns
        try:
            with tracer.span("scan.row", snr_db=snr_db, x=x) as row_attrs:
                params = DetectionParams(p_fa=config.p_fa, m=config.m, c=config.c)
                stats = tracer.call("gaussian.thermal_closed_forms",
                                    thermal_closed_forms, scenario)
                tm = tracer.call("displaced.third_moment", third_moment,
                                 ThermalScenario(nb=config.nb, eta=1.0, ns=x), policy)
                row_attrs["captured_mass"] = tm.captured_mass
                with tracer.span("bounds.refined_bracket"):
                    b = refined_bracket(stats.with_t(tm.t), params)
                    eps_upper = (error_exponent(b.log_refined_upper, config.m)
                                 if b.refined_upper_valid else None)
                    eps_lower = (error_exponent(b.log_refined_lower, config.m)
                                 if b.refined_lower_valid else None)
                    eps_lu = error_exponent(b.log_lambda_upper, config.m)
                    eps_ll = error_exponent(b.log_lambda_lower, config.m)
                if config.benchmark_m_convention == "per-copy":
                    eps_marcum = -tracer.call("marcum.heterodyne_log_pmd",
                                              heterodyne_log_pmd, gamma, config.p_fa)
                else:
                    eps_marcum = error_exponent(
                        tracer.call("marcum.heterodyne_log_pmd", heterodyne_log_pmd,
                                    config.m * gamma, config.p_fa),
                        config.m,
                    )
                rows.append(ScanRow(
                    snr_db=snr_db, gamma=gamma, d=stats.d, v=stats.v, t=tm.t,
                    captured_mass=tm.captured_mass, eps_first_order=stats.d,
                    eps_refined_upper=eps_upper, eps_refined_lower=eps_lower,
                    upper_valid=b.refined_upper_valid, lower_valid=b.refined_lower_valid,
                    eps_lambda_upper=eps_lu, eps_lambda_lower=eps_ll,
                    eps_marcum=eps_marcum,
                ))
        except SteinRadarError:
            pass  # the row is missing from the table, as under keep_partial
    payload = tracer.call("scan.emit", emit, rows, config) if rows else b""
    return {
        "wall_s": perf_counter() - start,
        "rows": len(rows),
        "payload": payload.decode(),
    }


def crosscheck(workload, snr_grid: list[float], tracer) -> dict:
    """Per point: general N-mode D and V, spectral_oracle D and V, and
    marcum_q at the per-copy and total-M arguments.  A point that raised
    is recorded as [snr_db, exception class name]."""
    y = math.sqrt(-2.0 * math.log(P_FA))
    results = []
    start = perf_counter()
    for snr_db in snr_grid:
        gamma = 10.0 ** (snr_db / 10.0)
        s = ThermalScenario(nb=workload.nb, eta=1.0, ns=gamma * workload.nb)
        try:
            with tracer.span("crosscheck.point", snr_db=snr_db, x=s.eta * s.ns):
                r0, r1 = tracer.call("gaussian.scenario_states", scenario_states, s)
                d = tracer.call("gaussian.rel_entropy", rel_entropy, r0, r1)
                v = tracer.call("gaussian.rel_entropy_variance", rel_entropy_variance, r0, r1)
                oracle = tracer.call("displaced.spectral_oracle", spectral_oracle, s)
                q1, p1 = tracer.call("marcum.marcum_q", marcum_q,
                                     MarcumArgs(math.sqrt(2.0 * gamma), y))
                q2, p2 = tracer.call("marcum.marcum_q", marcum_q,
                                     MarcumArgs(math.sqrt(2.0 * M * gamma), y))
        except SteinRadarError as err:
            results.append([snr_db, type(err).__name__])
        else:
            results.append([snr_db, d, v, oracle.d, oracle.v, q1, p1, q2, p2])
    wall = perf_counter() - start
    return {"wall_s": wall, "rows": sum(len(r) > 2 for r in results), "results": results}


def main(argv: list[str]) -> dict:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    snr_grid = grid(workload, seed)
    kwargs = scan_kwargs(workload, seed)
    if len(argv) > 3:
        kwargs["workers"] = int(argv[3])
    workers = kwargs["workers"] if mode == "scan" else 1
    calib_before = calibrate(workers)
    if mode == "scan":
        out = timed_scan(ScanConfig(**kwargs))
    elif mode == "replica":
        tracer = Tracer()
        out = replica(ScanConfig(**kwargs), snr_grid, tracer)
        out["spans"] = tracer.spans
    elif mode == "crosscheck":
        out = crosscheck(workload, snr_grid, NullTracer())
    elif mode == "traced-crosscheck":
        tracer = Tracer()
        out = crosscheck(workload, snr_grid, tracer)
        out["spans"] = tracer.spans
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["calib_s"] = [calib_before, calibrate(workers)]
    out["peak_rss_mb"] = _peak_rss_mb()
    out["pid"] = os.getpid()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
