"""Bit pins: each file that pins results bit for bit, as rows `key,value`,
with its keys and the function that computes a key's value.  Sets whose bits
depend on the host's floating-point kernels (numpy's SIMD dispatch for exp,
log and their kin, OpenBLAS's dgemv in the oracle's mass sums) are recorded
in data/pins/<fingerprint()>/, the others in data/.  `PYTHONPATH=src:tests
python -m pins` rewrites every set under this host's fingerprint, and the
--meta table.  Imports numpy and steinradar only, so it runs without pytest."""

import contextlib
import hashlib
import io
import os
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from steinradar import ThermalScenario, spectral_oracle, third_moment, transition_prob
from steinradar.scan import main

DATA = Path(__file__).parent / "data"


def fingerprint() -> str:
    """First 16 hex digits of a sha256 over the float64 results, on a fixed
    seeded probe, of numpy's exp, expm1, log, log1p and arcsinh, its 128-term
    block sums and cumsum, and one 16-row vector-matrix product."""
    x = np.random.default_rng(2021).uniform(0.0, 8.0, 4096)
    results = (np.exp(-4.0 * x), np.expm1(-x / 4.0), np.log(x), np.log1p(x), np.arcsinh(8.0 * x),
               x.reshape(-1, 128).sum(axis=1), np.cumsum(x), np.exp(-x[:16]) @ x.reshape(16, -1))
    return hashlib.sha256(b"".join(r.tobytes() for r in results)).hexdigest()[:16]


def _cli(args: str) -> str:
    """The exit code and the sha256 of the stdout and stderr of
    `steinradar-scan ARGS`, run in-process."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out)             # main writes to sys.stdout.buffer
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(args.split())
    stdout.detach()
    digests = (hashlib.sha256(b).hexdigest() for b in (out.getvalue(), err.getvalue().encode()))
    return ",".join([str(code), *digests])


def _third_moment(key: str) -> str:
    """float.hex of T and its captured mass at (nb, snr_db), ns = 10**(snr_db/10) nb."""
    nb, snr_db = map(float, key.split(","))
    r = third_moment(ThermalScenario(nb=nb, eta=1.0, ns=10.0 ** (snr_db / 10.0) * nb))
    return f"{r.t.hex()},{r.captured_mass.hex()}"


def _oracle(key: str) -> str:
    """float.hex of spectral_oracle's d, v and t at (nb, ns), or of transition_prob(k, l, x)."""
    call, args = key.split(",")
    if call == "transition_prob":
        k, l, x = args.split()
        return transition_prob(int(k), int(l), float(x)).hex()
    nb, ns = map(float, args.split())
    r = spectral_oracle(ThermalScenario(nb=nb, eta=1.0, ns=ns))
    return f"{r.d.hex()} {r.v.hex()} {r.t.hex()}"


class PinSet(NamedTuple):
    name: str
    columns: str
    keys: list[str]                 # each row's first columns, in order
    value: Callable[[str], str]     # the rest of a key's row
    kernels: bool                   # recorded per kernel fingerprint

    def path(self) -> Path:
        return (DATA / "pins" / fingerprint() if self.kernels else DATA) / self.name

    def lines(self) -> list[str]:
        return [self.columns, *(f"{key},{self.value(key)}" for key in self.keys)]


LOWBG = "--nb 0.1 --benchmark-m-convention total --snr-db-min -10 --snr-db-max 20 --points 1000"
PARTIAL = "--nb 600 --snr-db-min 20 --snr-db-max 28 --points 5 --keep-partial"
CLI = "args,exit_code,stdout_sha256,stderr_sha256"
SWEEPS = [(600.0, 60.0), (600.0, 600.0), (600.0, 6e3), (1.0, 1e4), (1.0, 1e5), (0.1, 1e5),
          (1e-3, 1e4), (10.0, 3.0)]
SETS = (
    # the default scan's grid, and every 20th point of the low-background grid
    PinSet("third_moment_hex.csv", "nb,snr_db,t,captured_mass",
           [f"{nb!r},{s!r}" for nb, grid in ((600.0, np.linspace(-15.0, 5.0, 200)),
                                             (0.1, np.linspace(-10.0, 20.0, 1000)[::20]))
            for s in grid.tolist()], _third_moment, True),
    # every 10th point of the crosscheck grid (nb = 10), the eight sweeps of
    # test_blocked_sweep_matches_rowwise_reference, and three transition_prob calls
    PinSet("spectral_oracle_hex.csv", "call,args,hex",
           [f"spectral_oracle,{nb!r} {ns!r}" for nb, ns in
            [(10.0, 10.0 ** (s / 10.0) * 10.0) for s in np.linspace(-15.0, 5.0, 200)[::10].tolist()] + SWEEPS]
           + [f"transition_prob,{a}" for a in ("3 5 2.0", "7 3 2.5", "20000 20005 20000.0")], _oracle, True),
    # the low-background table as JSON, which prints every bit of every column
    PinSet("cli_json_sha256.csv", CLI, [f"{LOWBG} --format json", f"{LOWBG} --format json --workers 2"],
           _cli, True),
    # CSV stdout and stderr: the CSV's 12 digits held on every kernel set tried
    PinSet("cli_sha256.csv", CLI, ["", "--points 60 --workers 2", LOWBG, f"{LOWBG} --workers 2",
                                   "--nb 10 --points 200", "--nb 1e-3 --snr-db-max 60",
                                   "--nb 0.001953125 --snr-db-min 0 --snr-db-max 1 --points 2 --tail-tol 0.49",
                                   PARTIAL, f"{PARTIAL} --workers 2"], _cli, False),
)


def write() -> None:
    """Rewrite every pin set under this host's fingerprint, and the --meta table."""
    env = "".join(f", {v}={os.environ[v]}" for v in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
                  if v in os.environ)
    for pin in SETS:
        head = ["# Rows of tests/pins.py's SETS, written by `PYTHONPATH=src:tests python -m pins`"]
        if pin.kernels:
            head.append(f"# under kernel fingerprint {fingerprint()}: numpy {np.__version__}{env}")
        pin.path().parent.mkdir(parents=True, exist_ok=True)
        pin.path().write_text("\n".join([*head, *pin.lines()]) + "\n")
    main(["--meta", "--output", str(DATA / "default_scan_meta.csv")])


if __name__ == "__main__":
    write()
