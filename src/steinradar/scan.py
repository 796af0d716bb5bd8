"""SNR scan assembling every curve of the detection-performance comparison.

For each SNR on a dB grid: closed-form D and V, the third moment T from the
Skellam law of the Fock-index difference, the finite-size brackets, their
per-copy error exponents, and the classical heterodyne benchmark.  Rows are
emitted as CSV or JSON; two runs with the same configuration produce
byte-identical output at any worker count, since each share of the grid
runs stage by stage with every row getting the calls it would get alone,
and the rows are assembled in grid order.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import pickle
import signal
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

import numpy as np

from .bounds import BERRY_ESSEEN_C, DetectionParams, error_exponent, refined_bracket
from .displaced import TruncationPolicy, third_moment
from .errors import SteinRadarError
from .gaussian import ThermalScenario, thermal_closed_forms
from .marcum import heterodyne_log_pmd

PER_COPY = "per-copy"
TOTAL = "total"


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters; defaults reproduce the headline comparison."""

    p_fa: float = 1e-3
    m: int = 5000
    nb: float = 600.0
    snr_db_min: float = -15.0
    snr_db_max: float = 5.0
    points: int = 200
    tail_tol: float = 1e-10
    c: float = BERRY_ESSEEN_C
    benchmark_m_convention: str = PER_COPY
    output_format: str = "csv"
    keep_partial: bool = False
    workers: int = 1

    def __post_init__(self):
        # numpy scalars pass; the rows and emit see plain numbers
        for name in ("p_fa", "nb", "snr_db_min", "snr_db_max", "tail_tol", "c"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("m", "points", "workers"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.points < 2:
            raise ValueError("points must be an integer >= 2")
        if not math.isfinite(self.snr_db_min):
            raise ValueError("snr_db_min must be finite")
        if not (self.snr_db_min < self.snr_db_max):
            raise ValueError("snr_db_min must be < snr_db_max")
        if self.benchmark_m_convention not in (PER_COPY, TOTAL):
            raise ValueError(f"benchmark_m_convention must be '{PER_COPY}' or '{TOTAL}'")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output format must be 'csv' or 'json'")
        if self.workers < 1:
            raise ValueError("workers must be an integer >= 1")
        # Wrapped-type invariants fail fast here rather than mid-scan; every
        # row reuses the two objects kept (as attributes outside the fields,
        # so equality, hashing and the metadata ignore them).
        object.__setattr__(self, "_params", DetectionParams(p_fa=self.p_fa, m=self.m, c=self.c))
        object.__setattr__(self, "_policy", TruncationPolicy(tail_tol=self.tail_tol))
        ThermalScenario(nb=self.nb, eta=1.0, ns=0.0)
        # Rows scale 10^(snr_db/10) by nb and, for the total-M benchmark, by m.
        factor = max(1.0, self.nb, self.m if self.benchmark_m_convention == TOTAL else 1)
        if not self.snr_db_max / 10.0 + math.log10(factor) < 308.0:
            raise ValueError(f"snr_db_max={self.snr_db_max:g} puts 10^(snr_db/10) * "
                             f"{factor:g} beyond the float range")


# Fields that define the numbers; execution/presentation knobs are excluded
# so that emitted metadata never varies with how the scan was run.
_CONFIG_META_FIELDS = (
    "p_fa", "m", "nb", "snr_db_min", "snr_db_max", "points", "tail_tol", "c",
    "benchmark_m_convention",
)

class ScanRow(NamedTuple):
    """One grid point: moments, exponents of every bound, benchmark."""

    snr_db: float
    gamma: float
    d: float
    v: float
    t: float
    captured_mass: float
    eps_first_order: float
    eps_refined_upper: float | None
    eps_refined_lower: float | None
    upper_valid: bool
    lower_valid: bool
    eps_lambda_upper: float
    eps_lambda_lower: float
    eps_marcum: float


def _can_fork() -> bool:
    return (hasattr(os, "fork") and sys.platform != "darwin"
            and threading.active_count() == 1)


def _share(config: ScanConfig, snr_dbs: list[float]) -> list:
    """The ScanRow at each snr_db, or the SteinRadarError that stopped it,
    computed stage by stage: each stage is one loop over the rows not yet
    failed, and each row gets the calls it would get alone, in the same
    order.  Any other exception propagates at once."""
    failed: dict[int, SteinRadarError] = {}

    def stage(step, *columns):
        out = [None] * len(snr_dbs)
        for i, args in enumerate(zip(*columns)):
            if i not in failed:
                try:
                    out[i] = step(*args)
                except SteinRadarError as err:
                    failed[i] = err
        return out

    def eps(log_pmd):                          # a blank bracket side stays None
        return None if log_pmd is None else error_exponent(log_pmd, config.m)

    # The per-copy benchmark is the total-M one at a single copy.
    copies = config.m if config.benchmark_m_convention == TOTAL else 1
    gammas = [10.0 ** (snr_db / 10.0) for snr_db in snr_dbs]
    scenarios = [ThermalScenario(nb=config.nb, eta=1.0, ns=gamma * config.nb) for gamma in gammas]
    stats = stage(thermal_closed_forms, scenarios)
    tms = stage(lambda scenario: third_moment(scenario, config._policy), scenarios)
    bounds = stage(lambda s, tm: refined_bracket(s.with_t(tm.t), config._params), stats, tms)
    log_pmds = stage(lambda gamma: heterodyne_log_pmd(copies * gamma, config.p_fa), gammas)
    rows = stage(lambda snr_db, gamma, s, tm, b, log_pmd: ScanRow(   # in field order
        snr_db, gamma, s.d, s.v, tm.t, tm.captured_mass, s.d,
        eps(b.log_refined_upper), eps(b.log_refined_lower),
        b.refined_upper_valid, b.refined_lower_valid,
        eps(b.log_lambda_upper), eps(b.log_lambda_lower),
        error_exponent(log_pmd, copies),
    ), snr_dbs, gammas, stats, tms, bounds, log_pmds)
    return [failed.get(i, row) for i, row in enumerate(rows)]


def _child_share(config: ScanConfig, snr_dbs: list[float], write_fd: int) -> NoReturn:
    """Body of a forked child: send the results of its share, or the
    exception that stopped it, to the parent as one pickle, and exit without
    unwinding into the parent's stack or flushing its inherited buffers."""
    status = 1
    try:
        try:
            message = _share(config, snr_dbs)
        except BaseException as err:         # the parent re-raises it
            message = err
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _results(config: ScanConfig, grid: list[float], workers: int) -> list:
    """_share's result at every grid point, in grid order, computed in
    round-robin shares grid[i::workers] so that each mixes cheap and dear
    rows: the process forks a child for each share but the first, computes
    that one itself, then collects the others (at workers = 1 it forks
    none).  Every child is reaped before this returns or raises."""
    results = [None] * len(grid)
    children = []                            # (share index, pid, read end) not yet reaped
    try:
        for i in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child_share(config, grid[i::workers], write_fd)
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                # Neither the parent nor a later child may hold the write
                # end, or reading the pipe never ends.
                os.close(write_fd)
            children.append((i, pid, read_fd))
        results[0::workers] = _share(config, grid[0::workers])
        while children:
            i, pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as fh:
                data = fh.read()
            message = pickle.loads(data) if data else None    # while the child exits
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read_fd)
            if message is None:
                raise ChildProcessError(f"the scan process of rows {i}::{workers} ended "
                                        f"without a result (wait status {status})")
            if isinstance(message, BaseException):
                raise message
            results[i::workers] = message
        return results
    finally:
        for _, pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_scan(config: ScanConfig) -> list[ScanRow]:
    """All scan rows, ordered by snr_db ascending.

    On a numerical failure (a SteinRadarError) the scan aborts with
    the offending snr_db in the message, unless config.keep_partial is set,
    in which case the failed rows are skipped with a warning each; if every
    row failed, SteinRadarError names them all.  With workers > 1 the rows
    are shared among forked processes, but only where fork is safe: not on
    macOS, whose system libraries may not survive it, and not in a process
    that already runs other threads.  Elsewhere they run serially.
    """
    grid = [float(s) for s in np.linspace(config.snr_db_min, config.snr_db_max, config.points)]
    workers = min(config.workers, len(grid), os.cpu_count() or 1) if _can_fork() else 1
    results = _results(config, grid, workers)
    rows: list[ScanRow] = []
    for snr_db, res in zip(grid, results):
        if isinstance(res, ScanRow):
            rows.append(res)
        elif config.keep_partial:
            # no registry, so the "default" filter reports a repeated scan's skips again
            warnings.warn_explicit(f"scan point snr_db={snr_db:g} failed: {res}", UserWarning,
                                   __file__, run_scan.__code__.co_firstlineno,
                                   module=__name__, registry=None)
        else:
            raise type(res)(f"scan point snr_db={snr_db:g} failed: {res}")
    if not rows:
        failed = ", ".join(f"snr_db={snr_db:g} ({type(err).__name__})"
                           for snr_db, err in zip(grid, results))
        raise SteinRadarError(f"every scan point failed: {failed}")
    return rows


# One %-template per CSV row, by which refined sides are blank: "%.0s"
# takes a blank side's None and prints nothing; every number takes "%.12g",
# and the two flags, which follow the sides, "true" or "false".
_CSV_ROW = {
    (upper, lower): ",".join({"eps_refined_upper": "%.12g" if upper else "%.0s",
                              "eps_refined_lower": "%.12g" if lower else "%.0s",
                              "upper_valid": "%s", "lower_valid": "%s"}.get(name, "%.12g")
                             for name in ScanRow._fields)
    for upper in (True, False) for lower in (True, False)
}
_CSV_FLAG = ("false", "true")
_FLAGS_AT = ScanRow._fields.index("upper_valid")


def emit(rows: list[ScanRow], config: ScanConfig, meta: bool = False) -> bytes:
    """Serialize rows per config.output_format.

    CSV: exact header naming every row field in order, floats with 12
    significant digits ("%.12g"), the validity flags as true or false, LF
    line endings, invalid bound sides as empty fields; each row is one
    %-template from _CSV_ROW, chosen by which sides are blank.  `meta`
    prepends the defining config as '# ' comment lines.
    JSON: an object {"config": ..., "rows": [...]} with booleans for the
    validity flags and null for invalid sides.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    cfg = {name: getattr(config, name) for name in _CONFIG_META_FIELDS}
    if config.output_format == "json":
        payload = {"config": cfg, "rows": [row._asdict() for row in rows]}
        return (json.dumps(payload, indent=2) + "\n").encode()
    lines = []
    if meta:
        lines.extend(f"# {name} = {value!r}" for name, value in cfg.items())
    lines.append(",".join(ScanRow._fields))
    lines.extend(_CSV_ROW[row.eps_refined_upper is not None, row.eps_refined_lower is not None]
                 % (row[:_FLAGS_AT] + (_CSV_FLAG[row.upper_valid], _CSV_FLAG[row.lower_valid])
                    + row[_FLAGS_AT + 2:])
                 for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _build_parser() -> argparse.ArgumentParser:
    # Each config flag's dest is its ScanConfig field, and an absent one keeps its default.
    parser = argparse.ArgumentParser(
        prog="steinradar-scan",
        description="Sweep SNR and tabulate finite-size detection-error "
        "exponents against the heterodyne benchmark.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--pfa", dest="p_fa", type=float, help="false-alarm probability")
    parser.add_argument("--copies", dest="m", type=int, help="number of copies M")
    parser.add_argument("--nb", type=float, help="background thermal photons")
    parser.add_argument("--snr-db-min", type=float)
    parser.add_argument("--snr-db-max", type=float)
    parser.add_argument("--points", type=int)
    parser.add_argument("--tail-tol", type=float,
                        help="neglected probability mass per scan point")
    parser.add_argument("--bek-c", dest="c", type=float, help="Berry-Esseen constant")
    parser.add_argument("--benchmark-m-convention", choices=[PER_COPY, TOTAL],
                        help="how M enters the heterodyne benchmark exponent")
    parser.add_argument("--format", dest="output_format", choices=["csv", "json"])
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--meta", action="store_true",
                        help="embed the config as CSV comment lines")
    parser.add_argument("--keep-partial", action="store_true",
                        help="skip failed scan points instead of aborting")
    parser.add_argument("--workers", type=int,
                        help="parallel row evaluation (output is identical at any level)")
    return parser


def main(argv=None) -> int:
    opts = vars(_build_parser().parse_args(argv))
    output, meta = opts.pop("output", None), opts.pop("meta", False)
    try:
        config = ScanConfig(**opts)
    except ValueError as err:
        print(f"steinradar-scan: config error: {err}", file=sys.stderr)
        return 2
    failure = None
    with warnings.catch_warnings(record=True) as skipped:
        warnings.simplefilter("always")
        try:
            rows = run_scan(config)
            payload = emit(rows, config, meta=meta)
        except SteinRadarError as err:
            failure = err
    # run_scan warns of each point that --keep-partial skips, in grid order
    for w in skipped:
        print(f"steinradar-scan: {w.message}", file=sys.stderr)
    if failure is not None:
        print(f"steinradar-scan: numerical failure: {failure}", file=sys.stderr)
        return 3
    if output is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        try:
            with open(output, "wb") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"steinradar-scan: cannot write {output}: {err}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
