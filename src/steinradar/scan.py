"""SNR scan assembling every curve of the detection-performance comparison.

For each SNR on a dB grid: closed-form D and V, the third moment T from the
Skellam law of the Fock-index difference, the finite-size brackets, their
per-copy error exponents, and the classical heterodyne benchmark.  Rows are
emitted as CSV or JSON; two runs with the same configuration produce
byte-identical output at any worker count, since every row is computed in
isolation and assembled in grid order.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

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
        if not (isinstance(self.points, numbers.Integral) and self.points >= 2):
            raise ValueError("points must be an integer >= 2")
        if not math.isfinite(self.snr_db_min):
            raise ValueError("snr_db_min must be finite")
        if not (self.snr_db_min < self.snr_db_max):
            raise ValueError("snr_db_min must be < snr_db_max")
        if self.benchmark_m_convention not in (PER_COPY, TOTAL):
            raise ValueError(f"benchmark_m_convention must be '{PER_COPY}' or '{TOTAL}'")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output format must be 'csv' or 'json'")
        if not (isinstance(self.workers, numbers.Integral) and self.workers >= 1):
            raise ValueError("workers must be an integer >= 1")
        # Wrapped-type invariants fail fast here rather than mid-scan.
        DetectionParams(p_fa=self.p_fa, m=self.m, c=self.c)
        TruncationPolicy(tail_tol=self.tail_tol)
        ThermalScenario(nb=self.nb, eta=1.0, ns=0.0)
        # Rows scale 10^(snr_db/10) by nb and, for the total-M benchmark, by m.
        factor = max(1.0, self.nb, self.m if self.benchmark_m_convention == TOTAL else 1)
        if not self.snr_db_max / 10.0 + math.log10(factor) < 308.0:
            raise ValueError(f"snr_db_max={self.snr_db_max:g} puts 10^(snr_db/10) * "
                             f"{factor:g} beyond the float range")
        # numpy scalars pass the checks above; emit writes plain numbers
        for name in ("p_fa", "nb", "snr_db_min", "snr_db_max", "tail_tol", "c"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("m", "points", "workers"):
            object.__setattr__(self, name, int(getattr(self, name)))


# Fields that define the numbers; execution/presentation knobs are excluded
# so that emitted metadata never varies with how the scan was run.
_CONFIG_META_FIELDS = (
    "p_fa", "m", "nb", "snr_db_min", "snr_db_max", "points", "tail_tol", "c",
    "benchmark_m_convention",
)

@dataclass(frozen=True)
class ScanRow:
    """One grid point: moments, exponents of every bound, benchmark."""

    snr_db: float
    gamma: float
    d: float
    v: float
    t: float
    captured_mass: float
    eps_first_order: float
    eps_refined_upper: Optional[float]
    eps_refined_lower: Optional[float]
    upper_valid: bool
    lower_valid: bool
    eps_lambda_upper: float
    eps_lambda_lower: float
    eps_marcum: float


_ROW_FIELDS = tuple(f.name for f in fields(ScanRow))


def _row_or_failure(config: ScanConfig, snr_db: float):
    """The ScanRow at snr_db, or (snr_db, error) on a SteinRadarError."""
    def eps(log_pmd):                          # a blank bracket side stays None
        return None if log_pmd is None else error_exponent(log_pmd, config.m)

    try:
        gamma = 10.0 ** (snr_db / 10.0)
        scenario = ThermalScenario(nb=config.nb, eta=1.0, ns=gamma * config.nb)
        stats = thermal_closed_forms(scenario)
        tm = third_moment(scenario, TruncationPolicy(tail_tol=config.tail_tol))
        bounds = refined_bracket(stats.with_t(tm.t),
                                 DetectionParams(p_fa=config.p_fa, m=config.m, c=config.c))
        # The per-copy benchmark is the total-M one at a single copy.
        copies = config.m if config.benchmark_m_convention == TOTAL else 1
        return ScanRow(
            snr_db=snr_db,
            gamma=gamma,
            d=stats.d,
            v=stats.v,
            t=tm.t,
            captured_mass=tm.captured_mass,
            eps_first_order=stats.d,
            eps_refined_upper=eps(bounds.log_refined_upper),
            eps_refined_lower=eps(bounds.log_refined_lower),
            upper_valid=bounds.refined_upper_valid,
            lower_valid=bounds.refined_lower_valid,
            eps_lambda_upper=eps(bounds.log_lambda_upper),
            eps_lambda_lower=eps(bounds.log_lambda_lower),
            eps_marcum=error_exponent(heterodyne_log_pmd(copies * gamma, config.p_fa), copies),
        )
    except SteinRadarError as err:
        return (snr_db, err)


def run_scan(config: ScanConfig) -> list[ScanRow]:
    """All scan rows, ordered by snr_db ascending.

    On a numerical failure (a SteinRadarError) the scan aborts with
    the offending snr_db in the message, unless config.keep_partial is set,
    in which case the failed rows are skipped with a warning each; if every
    row failed, SteinRadarError names them all.
    """
    grid = [float(s) for s in np.linspace(config.snr_db_min, config.snr_db_max, config.points)]
    # The pool forks all its workers up front, so it gets no more than there
    # are rows or CPUs.
    workers = min(config.workers, len(grid), os.cpu_count() or 1)
    if workers > 1:
        # Four chunks per worker: one IPC round trip per chunk instead of per
        # row, while rows whose cost rises with SNR still balance.
        chunksize = -(-len(grid) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_row_or_failure, [config] * len(grid), grid,
                                    chunksize=chunksize))
    else:
        results = [_row_or_failure(config, s) for s in grid]
    rows: list[ScanRow] = []
    for res in results:
        if isinstance(res, ScanRow):
            rows.append(res)
        else:
            snr_db, err = res
            if config.keep_partial:
                warnings.warn(f"scan point snr_db={snr_db:g} failed: {err}")
            else:
                raise type(err)(f"scan point snr_db={snr_db:g} failed: {err}")
    if not rows:
        failed = ", ".join(f"snr_db={snr_db:g} ({type(err).__name__})"
                           for snr_db, err in results)
        raise SteinRadarError(f"every scan point failed: {failed}")
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


def emit(rows: list[ScanRow], config: ScanConfig, meta: bool = False) -> bytes:
    """Serialize rows per config.output_format.

    CSV: exact header naming every row field in order, floats with 12
    significant digits, LF line endings, invalid bound sides as empty
    fields; `meta` prepends the defining config as '# ' comment lines.
    JSON: an object {"config": ..., "rows": [...]} with booleans for the
    validity flags and null for invalid sides.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    cfg = {name: getattr(config, name) for name in _CONFIG_META_FIELDS}
    if config.output_format == "json":
        payload = {
            "config": cfg,
            "rows": [
                {name: getattr(row, name) for name in _ROW_FIELDS} for row in rows
            ],
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    lines = []
    if meta:
        lines.extend(f"# {name} = {value!r}" for name, value in cfg.items())
    lines.append(",".join(_ROW_FIELDS))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in _ROW_FIELDS))
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
    try:
        rows = run_scan(config)
        payload = emit(rows, config, meta=meta)
    except SteinRadarError as err:
        print(f"steinradar-scan: numerical failure: {err}", file=sys.stderr)
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
