"""Workload definitions and their seeded SNR grids.

Three workloads, chosen so that a change to the third moment T, to the
Marcum series or to the process pool each does most of its work in one
workload and little in another:

* ``headline``: the paper's comparison through ``run_scan`` + ``emit`` at the
  CLI defaults (nb=600, per-copy benchmark, serial).  The Laguerre sweep in
  ``displaced.third_moment`` is nearly all of the time.
* ``low-background``: ``run_scan`` + ``emit`` at nb=0.1 with the total-M
  benchmark on a dense grid at workers=2.  Rows are cheap, the heterodyne
  series dominates and T is a minor share, so a T-only change should barely
  move it; it is also the only workload where the pool runs on cheap rows.
* ``crosscheck``: the library's second routes called directly (general
  N-mode formulas, ``spectral_oracle``, ``marcum_q``).  It runs no scan and
  keeps T on the Laguerre route, so it is the bypass workload for a T rewrite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCAN = "scan"
CROSSCHECK = "crosscheck"
DEFAULT_SEED = 0
P_FA = 1e-3
M = 5000
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    points: int
    snr_db_min: float
    snr_db_max: float
    nb: float
    convention: str = "per-copy"
    workers: int = 1


# Sizes keep one repetition between 0.7 and 2.3 s, so that a 35 s run holds
# 12 to 30 repetitions in fresh interpreters and its medians are steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("headline", SCAN, points=3, snr_db_min=-15.0, snr_db_max=5.0, nb=600.0),
        Workload("low-background", SCAN, points=1000, snr_db_min=-10.0, snr_db_max=20.0,
                 nb=0.1, convention="total", workers=2),
        Workload("crosscheck", CROSSCHECK, points=200, snr_db_min=-15.0, snr_db_max=5.0,
                 nb=10.0),
    )
}


def grid_shift(w: Workload, seed: int) -> float:
    """Shift in dB applied to the whole grid for ``seed``.

    A golden-ratio sequence in [-1/64, 1/64] of one grid step: distinct seeds
    never share grid points, seed 0 is the unshifted grid, and the shift is
    small enough that the cost of a row, which grows steeply with SNR, moves
    by about a percent at most between seeds.
    """
    u = (seed * _GOLDEN) % 1.0
    step = (w.snr_db_max - w.snr_db_min) / (w.points - 1)
    return (u - round(u)) * step / 32.0


def snr_range(w: Workload, seed: int) -> tuple[float, float]:
    shift = grid_shift(w, seed)
    return w.snr_db_min + shift, w.snr_db_max + shift


def scan_kwargs(w: Workload, seed: int) -> dict:
    """``ScanConfig`` arguments of a scan workload; failed rows are kept out
    of the table and counted, not raised."""
    lo, hi = snr_range(w, seed)
    return dict(p_fa=P_FA, m=M, nb=w.nb, snr_db_min=lo, snr_db_max=hi,
                points=w.points, benchmark_m_convention=w.convention,
                keep_partial=True, workers=w.workers)


def grid(w: Workload, seed: int) -> list[float]:
    """SNR grid in dB, built exactly as ``run_scan`` builds its own."""
    lo, hi = snr_range(w, seed)
    return [float(s) for s in np.linspace(lo, hi, w.points)]
