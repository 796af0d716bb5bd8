"""steinradar benchmark: one workload, timed or traced, with a correctness gate.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from src/.
Workloads are defined in workloads.py.  Every measured repetition runs in a
fresh interpreter (rep.py), so no grid is ever timed twice in one process
and run_scan's per-process T cache never serves a timed scan.

--trace 0 prints the end-to-end metrics, measured untraced:
  wall_s       wall time of run_scan + emit (or of the cross-check loop)
               in a fresh interpreter, import excluded
  rows_per_s   rows (points) completed per second of that wall time
  setup_s      wall time of a fresh interpreter that imports steinradar
               and builds the workload's config
  peak_rss_mb  peak resident memory of a repetition's process
Each is the median over the run's repetitions.  The times are scaled to
the reference speed of the host: the host's speed drifts by up to 1.6x
over seconds to minutes, so each repetition also times a fixed kernel
before and after its work (rep.calibrate) and its times are multiplied by
CALIB_REF_S / kernel time.  The raw medians are in the record.
--trace 1 rebuilds the work from the same public calls with a span around
each, next to untraced run_scan at workers=1 and 2, and prints the
per-layer metrics (see LAYER_METRICS), medians over the run's passes and
scaled the same way.

Both print failed_share (failed rows / rows attempted), a provenance
record, and as the last line one JSON object with the keys correct,
attempted, failed and metrics.  The record and the spans are also written
to perfbench/out/.  Exit code 0 when every check passed, 1 when a check
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from spans import Span, self_times
from workloads import DEFAULT_SEED, M, P_FA, SCAN, WORKLOADS, grid, scan_kwargs, snr_range

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

MIN_REPS = 3
# Time of rep.calibrate()'s kernel on the reference host (2-vCPU x86-64
# virtual machine, Python 3.11, numpy 2.4) when nothing else slows it.
CALIB_REF_S = 0.020
CHILD_TIMEOUT_S = 170

LAYERS = (
    "gaussian.thermal_closed_forms",
    "gaussian.scenario_states",
    "gaussian.rel_entropy",
    "gaussian.rel_entropy_variance",
    "displaced.third_moment",
    "displaced.spectral_oracle",
    "bounds.refined_bracket",
    "marcum.heterodyne_log_pmd",
    "marcum.marcum_q",
    "scan.emit",
)

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_METRICS = {
    **{f"{name}.{kind}": unit for name in LAYERS
       for kind, unit in (("busy_s", "s"), ("calls", "count"), ("failures", "count"))},
    "displaced.third_moment.ms.p50": "ms",
    "displaced.third_moment.ms.max": "ms",
    "displaced.third_moment.growth": "ratio",
    "displaced.third_moment.min_captured_mass": "probability",
    "displaced.spectral_oracle.ms.p50": "ms",
    "marcum.heterodyne_log_pmd.us.p50": "us",
    "marcum.heterodyne_log_pmd.us.p90": "us",
    "bounds.valid_side_ratio": "ratio",
    "scan.emit.bytes": "B",
    "scan.self_s": "s",
    "scan.parallel_speedup": "ratio",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One BLAS thread per process: the pool workload already fills both
    # cores, and the library's matrices are 2x2.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    return env


def run_child(*args) -> dict:
    """One repetition in a fresh interpreter; its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), *map(str, args)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"rep.py {' '.join(map(str, args))} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_sample(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"setup exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for a layer that was never called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Gate:
    """Applies the workload's checks to every table or result list a
    repetition produces, and keeps the tally of rows attempted and failed.
    All outputs of one run must also be identical: across repetitions,
    between the traced replica and run_scan, and across worker counts."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.grid = grid(workload, seed)
        self.is_scan = workload.kind == SCAN
        self.reference = None
        if self.is_scan and seed == DEFAULT_SEED:
            ref = REFERENCE / f"{workload.name}.csv"
            if not ref.is_file():
                raise BenchError(f"missing reference table {ref}")
            self.reference = ref.read_text()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_output = None
        self.first_label = None

    def check(self, output, label: str) -> None:
        # checks imports steinradar, which main() has put on the path
        from checks import check_crosscheck_point, check_scan_table

        if self.is_scan:
            failed, messages = check_scan_table(output, self.grid, self.workload.nb, M,
                                                self.reference)
        else:
            failed, messages = 0, []
            for point in output:
                errors = check_crosscheck_point(point, self.workload.nb)
                if errors:
                    failed += 1
                    messages.append(f"snr_db={point[0]:g}: " + "; ".join(errors))
        if self.first_output is None:
            self.first_output, self.first_label = output, label
        elif output != self.first_output:
            failed = len(self.grid)
            messages.insert(0, f"output differs from {self.first_label}'s")
        self.attempted += len(self.grid)
        self.failed += failed
        self.messages.extend(f"{label}: {m}" for m in messages[:5])


def speed(rep: dict) -> float:
    """How much faster than the reference speed the repetition ran."""
    return CALIB_REF_S / statistics.mean(rep["calib_s"])


def scaled_wall(rep: dict) -> float:
    return rep["wall_s"] * speed(rep)


def timed_run(workload, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    if workload.kind == SCAN:
        setup_code = f"import steinradar; steinradar.ScanConfig(**{scan_kwargs(workload, seed)!r})"
    else:
        setup_code = f"import steinradar; steinradar.DetectionParams(p_fa={P_FA!r}, m={M!r})"
    mode = "scan" if workload.kind == SCAN else "crosscheck"
    deadline = perf_counter() + seconds
    reps = []
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        setup = setup_sample(setup_code)
        rep = run_child(mode, workload.name, seed)
        if rep.get("cache_hits"):
            raise BenchError(f"the T cache served {rep['cache_hits']} rows of a timed scan")
        gate.check(rep.pop("payload" if mode == "scan" else "results"), f"rep {len(reps)}")
        rep["setup_s"] = setup
        rep["speed"] = speed(rep)
        reps.append(rep)
    metrics = {
        "wall_s": statistics.median(scaled_wall(r) for r in reps),
        "rows_per_s": statistics.median(r["rows"] / scaled_wall(r) for r in reps),
        # the setup interpreter runs just before the repetition, so the
        # repetition's speed stands for its speed too
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    detail = {
        "reps": len(reps),
        "raw_wall_s_median": statistics.median(r["wall_s"] for r in reps),
        "raw_setup_s_median": statistics.median(r["setup_s"] for r in reps),
        "samples": [{k: r[k] for k in ("wall_s", "setup_s", "calib_s", "speed", "rows",
                                       "peak_rss_mb", "pid")} for r in reps],
    }
    return metrics, detail


def _spans(rep: dict):
    return [Span(*s) for s in rep["spans"]]


def layer_metrics(spans, scale: float) -> dict:
    """Per-layer metrics of one traced repetition; times are multiplied by
    ``scale``, the repetition's speed."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.duration * scale)
    m = {}
    for name in LAYERS:
        m[f"{name}.busy_s"] = sum(by_name.get(name, []))
        m[f"{name}.calls"] = len(by_name.get(name, []))
        m[f"{name}.failures"] = sum(s.failed for s in spans if s.name == name)
    tm_ms = [d * 1e3 for d in by_name.get("displaced.third_moment", [])]
    m["displaced.third_moment.ms.p50"] = percentile(tm_ms, 50)
    m["displaced.third_moment.ms.max"] = max(tm_ms, default=0.0)
    # T spans come in grid order, SNR ascending: compare the medians of the
    # top and bottom twentieths of the grid (a single row for short grids).
    k = max(1, len(tm_ms) // 20)
    m["displaced.third_moment.growth"] = (
        percentile(tm_ms[-k:], 50) / percentile(tm_ms[:k], 50) if tm_ms else 0.0)
    m["displaced.spectral_oracle.ms.p50"] = percentile(
        [d * 1e3 for d in by_name.get("displaced.spectral_oracle", [])], 50)
    het_us = [d * 1e6 for d in by_name.get("marcum.heterodyne_log_pmd", [])]
    m["marcum.heterodyne_log_pmd.us.p50"] = percentile(het_us, 50)
    m["marcum.heterodyne_log_pmd.us.p90"] = percentile(het_us, 90)
    return m


def self_s_by_name(spans) -> dict[str, float]:
    """Summed self time per span name, as measured: for a row span, the
    replica's own work between the layer calls."""
    own = self_times(spans)
    total = defaultdict(float)
    for s in spans:
        total[s.name] += own[s.sid]
    return dict(total)


def t_cost_table(spans) -> list[list[float]]:
    """Per-row T cost: [snr_db, x, third_moment ms as measured] in grid
    order."""
    tm = {s.parent: s.duration for s in spans if s.name == "displaced.third_moment"}
    return [[s.attrs["snr_db"], s.attrs["x"], tm[s.sid] * 1e3]
            for s in sorted(spans, key=lambda s: s.start)
            if s.name == "scan.row" and s.sid in tm]


def traced_pass(workload, seed: int, gate: Gate, label: str) -> tuple[dict, list]:
    """One traced repetition and its untraced counterparts: the layer
    metrics of this pass and its spans."""
    from checks import parse_csv

    if workload.kind != SCAN:
        traced = run_child("traced-crosscheck", workload.name, seed)
        plain = run_child("crosscheck", workload.name, seed)
        gate.check(plain["results"], f"{label} untraced")
        gate.check(traced["results"], f"{label} traced")
        spans = _spans(traced)
        m = layer_metrics(spans, speed(traced))
        m.update({
            "displaced.third_moment.min_captured_mass": 0.0,
            "bounds.valid_side_ratio": 0.0,
            "scan.emit.bytes": 0,
            "scan.self_s": 0.0,
            "scan.parallel_speedup": 0.0,
            "trace_overhead_s": scaled_wall(traced) - scaled_wall(plain),
        })
        return m, spans

    replica = run_child("replica", workload.name, seed)
    serial = run_child("scan", workload.name, seed, 1)
    parallel = run_child("scan", workload.name, seed, 2)
    gate.check(serial["payload"], f"{label} run_scan workers=1")
    gate.check(replica["payload"], f"{label} replica")
    gate.check(parallel["payload"], f"{label} run_scan workers=2")
    spans = _spans(replica)
    m = layer_metrics(spans, speed(replica))
    _, rows = parse_csv(replica["payload"])
    layer_sum = sum(m[f"{name}.busy_s"] for name in LAYERS)
    m.update({
        "displaced.third_moment.min_captured_mass": min(
            (s.attrs["captured_mass"] for s in spans if s.name == "scan.row"), default=0.0),
        "bounds.valid_side_ratio": (
            sum((r["upper_valid"] == "true") + (r["lower_valid"] == "true") for r in rows)
            / (2 * len(rows)) if rows else 0.0),
        "scan.emit.bytes": len(replica["payload"].encode()),
        "scan.self_s": scaled_wall(serial) - layer_sum,
        "scan.parallel_speedup": layer_sum / scaled_wall(parallel),
        "trace_overhead_s": scaled_wall(replica) - scaled_wall(serial),
    })
    return m, spans


def traced_run(workload, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict, list]:
    deadline = perf_counter() + seconds
    passes, all_spans = [], []
    while not passes or perf_counter() < deadline:
        m, spans = traced_pass(workload, seed, gate, f"pass {len(passes)}")
        passes.append(m)
        all_spans.append(spans)
    metrics = {name: statistics.median(p[name] for p in passes) for name in LAYER_METRICS}
    busy = {name: metrics[f"{name}.busy_s"] for name in LAYERS}
    detail = {
        "passes": len(passes),
        "layer_share": {name: b / sum(busy.values()) for name, b in busy.items() if b},
        "self_s_first_pass": self_s_by_name(all_spans[0]),
        "t_cost_vs_snr": t_cost_table(all_spans[0]),
    }
    return metrics, detail, all_spans


def git_hash() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int) -> dict:
    import numpy

    lo, hi = snr_range(workload, seed)
    return {
        "workload": workload.name,
        "seed": seed,
        "rows": workload.points,
        "snr_db_range": [lo, hi],
        "nb": workload.nb,
        "workers": workload.workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_hash(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "steinradar" / "__init__.py").is_file():
        print(f"run.py: no steinradar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = provenance(workload, args.seed)
    try:
        gate = Gate(workload, args.seed)
        if args.trace:
            metrics, detail, all_spans = traced_run(workload, args.seed, args.seconds, gate)
            units = LAYER_METRICS
        else:
            metrics, detail = timed_run(workload, args.seed, args.seconds, gate)
            all_spans = []
            units = END_TO_END_UNITS
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    failed_share = gate.failed / gate.attempted
    record.update(detail, failed_share=failed_share, failures=gate.messages[:50],
                  metrics=metrics)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if all_spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for i, spans in enumerate(all_spans):
                for s in spans:
                    fh.write(json.dumps({"pass": i, **s._asdict()}) + "\n")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(f"  {'failed_share':45s} {failed_share:.6g} ({gate.failed}/{gate.attempted})")
    for message in gate.messages[:10]:
        print(f"  FAILED {message}")
    shown = dict(record, metrics=None)
    table = shown.get("t_cost_vs_snr")
    if table and len(table) > 25:
        shown["t_cost_vs_snr"] = table[:: -(-len(table) // 25)]
    print("record " + json.dumps(shown))
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
