"""Record the benchmark's results as BENCH_<workload>.json at the repo root.

    python3 tools/bench_record.py

For every workload of BENCHMARK.json this runs perfbench/run.py for the
benchmark's run_seconds at the default seed, once with --trace 0 and once
with --trace 1, reads the records those runs leave in perfbench/out/, and
writes:

  end_to_end  wall_s, rows_per_s, setup_s and peak_rss_mb: the untraced
              run's own median, and the quartiles over its repetitions
              scaled with run.py's helpers
  busy_s      the traced run's per-layer busy time (median over passes)
  host        nproc, Python and numpy versions, and the git hash measured,
              with whether src/ and perfbench/ differed from it

Run it from a clean checkout of the commit being recorded.  Exit code 0
when every run passed its correctness checks, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

sys.path.insert(0, str(PERFBENCH))
from run import scaled_wall, speed  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def end_to_end_samples(record: dict) -> dict[str, list[float]]:
    """Per-repetition values of the four end-to-end metrics."""
    samples = record["samples"]
    return {
        "wall_s": [scaled_wall(s) for s in samples],
        "rows_per_s": [s["rows"] / scaled_wall(s) for s in samples],
        "setup_s": [s["setup_s"] * speed(s) for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }


def summary(median: float, values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def end_to_end(record: dict) -> dict:
    """The record's medians with the quartiles of its samples.  The samples'
    own median must be the record's: if run.py ever scales its medians in a
    way the samples here do not follow, this stops rather than write
    quartiles that disagree with the gate."""
    out = {}
    for metric, values in end_to_end_samples(record).items():
        median = record["metrics"][metric]
        if not math.isclose(statistics.median(values), median, rel_tol=1e-12):
            raise SystemExit(f"bench_record: the samples' {metric} median "
                             f"{statistics.median(values)!r} is not run.py's {median!r}")
        out[metric] = summary(median, values)
    return out


def run(workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run; its record, or SystemExit naming the failure."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"bench_record: run.py --workload {workload} --trace {trace} "
                         f"exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    stem = f"{workload}-seed{DEFAULT_SEED}-trace{trace}"
    return json.loads((PERFBENCH / "out" / f"{stem}.json").read_text())


def tree_clean() -> bool:
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no",
                           "--", "src", "perfbench"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0 and not proc.stdout.strip()


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    ok = True
    for name in (w["name"] for w in benchmark["workloads"]):
        timed = run(name, seconds, 0)
        traced = run(name, seconds, 1)
        out = {
            "workload": name,
            "seed": DEFAULT_SEED,
            "seconds": seconds,
            "reps": timed["reps"],
            "passes": traced["passes"],
            "failed_share": {"trace0": timed["failed_share"],
                             "trace1": traced["failed_share"]},
            "end_to_end": end_to_end(timed),
            "busy_s": {key[: -len(".busy_s")]: value
                       for key, value in traced["metrics"].items()
                       if key.endswith(".busy_s")},
            "host": {"nproc": timed["nproc"], "python": timed["python"],
                     "numpy": timed["numpy"], "git": timed["git"],
                     "tree_clean": tree_clean()},
        }
        ok = ok and timed["failed_share"] == 0 and traced["failed_share"] == 0
        (ROOT / f"BENCH_{name}.json").write_text(json.dumps(out, indent=1) + "\n")
        wall = out["end_to_end"]["wall_s"]
        print(f"{name}: wall_s {wall['median']:.6g} s (IQR {wall['iqr']:.3g}), "
              f"failed_share {timed['failed_share']:g}/{traced['failed_share']:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
