"""Scan driver, emission formats, CLI contract, and determinism."""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from steinradar import CapExceeded, ScanConfig, ScanRow, SteinRadarError, emit, run_scan
from steinradar import scan as scan_mod
from steinradar.scan import _ROW_FIELDS, main

DATA = Path(__file__).parent / "data"

# cheap but nontrivial: nb=5 keeps the displaced sums tiny
SMALL = dict(nb=5.0, m=100, points=5, snr_db_min=-10.0, snr_db_max=0.0, tail_tol=1e-8)

FLOAT_FIELDS = (
    "snr_db", "gamma", "d", "v", "t", "captured_mass", "eps_first_order",
    "eps_refined_upper", "eps_refined_lower", "eps_lambda_upper",
    "eps_lambda_lower", "eps_marcum",
)
BOOL_FIELDS = ("upper_valid", "lower_valid")


def parse_csv(payload: bytes):
    """Parse emitted CSV back into per-row dicts (None for empty cells)."""
    lines = [ln for ln in payload.decode().split("\n") if ln and not ln.startswith("# ")]
    header = lines[0].split(",")
    assert header == list(_ROW_FIELDS)
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for name, cell in zip(header, cells):
            if cell == "":
                row[name] = None
            elif name in BOOL_FIELDS:
                assert cell in ("true", "false")
                row[name] = cell == "true"
            else:
                row[name] = float(cell)
        rows.append(row)
    return rows


class TestConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert (cfg.p_fa, cfg.m, cfg.nb) == (1e-3, 5000, 600.0)
        assert (cfg.snr_db_min, cfg.snr_db_max, cfg.points) == (-15.0, 5.0, 200)
        assert (cfg.tail_tol, cfg.c) == (1e-10, 0.4748)
        assert cfg.benchmark_m_convention == "per-copy"
        assert cfg.output_format == "csv"

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(points=1)
        with pytest.raises(ValueError):
            ScanConfig(snr_db_min=5.0, snr_db_max=-5.0)
        with pytest.raises(ValueError):
            ScanConfig(p_fa=1.5)
        with pytest.raises(ValueError):
            ScanConfig(benchmark_m_convention="bogus")
        with pytest.raises(ValueError):
            ScanConfig(output_format="xml")
        with pytest.raises(ValueError):
            ScanConfig(workers=0)
        # np.linspace and the shares need integers; numpy integers are fine
        for bad in (2.5, np.float64(3.0)):
            with pytest.raises(ValueError):
                ScanConfig(points=bad)
            with pytest.raises(ValueError):
                ScanConfig(workers=bad)
        cfg = ScanConfig(points=np.int64(3), workers=np.int32(2))
        assert (cfg.points, cfg.workers) == (3, 2)

    def test_rejects_non_finite(self):
        for kwargs in (dict(snr_db_max=math.inf), dict(snr_db_min=-math.inf),
                       dict(snr_db_min=math.nan), dict(nb=math.inf), dict(nb=math.nan),
                       dict(snr_db_max=4000.0),   # 10^400 overflows a float
                       dict(snr_db_max=3079.0)):  # 10^307.9 * nb overflows
            with pytest.raises(ValueError):
                ScanConfig(**kwargs)


@pytest.fixture(scope="module")
def rows():
    return run_scan(ScanConfig(**SMALL))


class TestRunScan:
    def test_grid_and_order(self, rows):
        assert len(rows) == SMALL["points"]
        dbs = [r.snr_db for r in rows]
        assert dbs == sorted(dbs)
        assert dbs[0] == -10.0 and dbs[-1] == 0.0

    def test_gamma_identity(self, rows):
        for r in rows:
            assert r.gamma == 10.0 ** (r.snr_db / 10.0)

    def test_first_order_exponent_is_d(self, rows):
        for r in rows:
            assert r.eps_first_order == r.d

    def test_flags_match_presence(self, rows):
        for r in rows:
            assert (r.eps_refined_upper is None) == (not r.upper_valid)
            assert (r.eps_refined_lower is None) == (not r.lower_valid)

    def test_lambda_exponent_width(self, rows):
        m = SMALL["m"]
        for r in rows:
            assert r.eps_lambda_lower - r.eps_lambda_upper == pytest.approx(
                2.0 * math.log(m) / m, rel=1e-12
            )

    def test_first_order_strictly_increasing(self, rows):
        eps = [r.eps_first_order for r in rows]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_captured_mass(self, rows):
        for r in rows:
            assert r.captured_mass >= 1.0 - 10.0 * SMALL["tail_tol"]

    def test_low_snr_degenerate_limit(self):
        cfg = ScanConfig(nb=5.0, m=100, points=2, snr_db_min=-80.0,
                         snr_db_max=-70.0, tail_tol=1e-8)
        low = run_scan(cfg)[0]
        assert low.eps_first_order == low.d
        assert 0.0 < low.d < 1e-7
        assert low.t < 1e-6

    def test_benchmark_conventions_differ(self):
        per_copy = run_scan(ScanConfig(**SMALL))
        total = run_scan(ScanConfig(**SMALL, benchmark_m_convention="total"))
        assert all(
            a.eps_marcum != b.eps_marcum for a, b in zip(per_copy, total)
        )
        # physics fields unaffected by the benchmark convention
        assert all(a.d == b.d and a.t == b.t for a, b in zip(per_copy, total))


class TestPartialFailure:
    # at the top of this range the certified support window of k - l is
    # wider than K_MAX_CAP at nb=50
    FAILING = dict(nb=50.0, m=100, points=3, snr_db_min=-10.0, snr_db_max=50.0,
                   tail_tol=1e-8)

    def test_abort_names_offending_point(self):
        with pytest.raises(CapExceeded, match="snr_db=50"):
            run_scan(ScanConfig(**self.FAILING))

    def test_keep_partial_skips_and_warns(self):
        with pytest.warns(UserWarning, match="snr_db=50"):
            rows = run_scan(ScanConfig(**self.FAILING, keep_partial=True))
        assert len(rows) == 2
        assert [r.snr_db for r in rows] == [-10.0, 20.0]

    def test_keep_partial_all_failed_names_points(self):
        cfg = ScanConfig(**dict(self.FAILING, snr_db_min=50.0, snr_db_max=60.0),
                         keep_partial=True)
        with pytest.warns(UserWarning):
            with pytest.raises(SteinRadarError, match="snr_db=50 .*snr_db=55 .*snr_db=60 "):
                run_scan(cfg)


class TestEmit:
    def test_single_row_csv(self, rows):
        payload = emit(rows[:1], ScanConfig(**SMALL))
        text = payload.decode()
        assert text.count("\n") == 2 and text.endswith("\n")
        assert "\r" not in text
        assert text.split("\n")[0] == ",".join(_ROW_FIELDS)

    def test_round_trip_at_twelve_digits(self, rows):
        cfg = ScanConfig(**SMALL)
        parsed = parse_csv(emit(rows, cfg))
        assert len(parsed) == len(rows)
        for row, back in zip(rows, parsed):
            for name in FLOAT_FIELDS:
                value = getattr(row, name)
                if value is None:
                    assert back[name] is None
                else:
                    assert back[name] == float(f"{value:.12g}")
            for name in BOOL_FIELDS:
                assert back[name] == getattr(row, name)

    def test_meta_comment_lines(self, rows):
        cfg = ScanConfig(**SMALL)
        text = emit(rows, cfg, meta=True).decode()
        meta_lines = [ln for ln in text.split("\n") if ln.startswith("# ")]
        assert any(ln == "# p_fa = 0.001" for ln in meta_lines)
        assert any(ln.startswith("# nb = ") for ln in meta_lines)
        # metadata precedes the header
        assert text.split("\n")[len(meta_lines)] == ",".join(_ROW_FIELDS)

    def test_json_schema(self, rows):
        cfg = ScanConfig(**SMALL, output_format="json")
        doc = json.loads(emit(rows, cfg).decode())
        assert set(doc) == {"config", "rows"}
        assert doc["config"]["nb"] == 5.0
        assert doc["config"]["points"] == 5
        assert "workers" not in doc["config"]
        assert len(doc["rows"]) == len(rows)
        for row in doc["rows"]:
            assert list(row) == list(_ROW_FIELDS)
            for name in BOOL_FIELDS:
                assert isinstance(row[name], bool)
            for name in FLOAT_FIELDS:
                assert row[name] is None or isinstance(row[name], float)

    def test_invalid_sides_emitted_as_null_not_numbers(self, rows):
        # at p_fa=1e-3, m=100 the Berry-Esseen shift makes theta_u negative
        assert any(not r.upper_valid for r in rows)
        cfg = ScanConfig(**SMALL, output_format="json")
        doc = json.loads(emit(rows, cfg).decode())
        for row in doc["rows"]:
            if not row["upper_valid"]:
                assert row["eps_refined_upper"] is None

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit([], ScanConfig(**SMALL))

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_numpy_scalars_emit_as_plain_numbers(self, rows, output_format):
        # the library accepts numpy scalars; they must not reach json.dumps
        # (TypeError on int64) or the meta lines (np.float64(5.0))
        plain = ScanConfig(**SMALL, output_format=output_format)
        as_numpy = ScanConfig(**{k: np.float64(v) if isinstance(v, float) else np.int64(v)
                                 for k, v in SMALL.items()}, output_format=output_format)
        assert emit(rows, as_numpy, meta=True) == emit(rows, plain, meta=True)


class TestDeterminism:
    def test_two_runs_identical_bytes(self):
        cfg = ScanConfig(**SMALL)
        a = emit(run_scan(cfg), cfg, meta=True)
        b = emit(run_scan(cfg), cfg, meta=True)
        assert a == b

    def test_worker_count_invisible(self):
        serial = ScanConfig(**SMALL, workers=1)
        expected = emit(run_scan(serial), serial)
        # 10^6 workers are cut to the rows and the CPUs
        for workers in (2, 10**6):
            parallel = ScanConfig(**SMALL, workers=workers)
            assert emit(run_scan(parallel), parallel) == expected

    def test_pool_no_larger_than_grid(self, monkeypatch):
        # the parent forks a child for every share but its own, all at once,
        # so there are never more processes than rows or CPUs
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        small = dict(SMALL, points=3)
        wide = ScanConfig(**small, workers=10**6)
        serial = ScanConfig(**small)
        assert emit(run_scan(wide), wide) == emit(run_scan(serial), serial)
        cpus = os.cpu_count() or 1
        assert len(forks) == (min(3, cpus) - 1 if scan_mod._can_fork() else 0)

    @pytest.mark.parametrize("index", [0, 1], ids=["parent-share", "child-share"])
    def test_bug_in_a_share_reaches_caller(self, monkeypatch, index):
        config = ScanConfig(**SMALL, workers=2)
        bad = float(np.linspace(config.snr_db_min, config.snr_db_max, config.points)[index])
        real = scan_mod._row_or_failure

        def buggy(config, snr_db):
            if snr_db == bad:
                raise ZeroDivisionError("a bug, not a numerical failure")
            return real(config, snr_db)

        monkeypatch.setattr(scan_mod, "_row_or_failure", buggy)
        with pytest.raises(ZeroDivisionError, match="a bug"):
            run_scan(config)
        with pytest.raises(ChildProcessError):     # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_dead_child_raises(self, monkeypatch):
        if (os.cpu_count() or 1) < 2 or not scan_mod._can_fork():
            pytest.skip("rows run serially here")
        parent = os.getpid()
        real = scan_mod._row_or_failure

        def dying(config, snr_db):
            if os.getpid() != parent:
                os._exit(1)
            return real(config, snr_db)

        monkeypatch.setattr(scan_mod, "_row_or_failure", dying)
        with pytest.raises(ChildProcessError, match="without a result"):
            run_scan(ScanConfig(**SMALL, workers=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_keep_partial_warnings_in_grid_order(self, monkeypatch):
        # failures in both shares of two workers: -7.5 and -2.5 are the
        # child's, -5 and 0 the parent's
        config = ScanConfig(**SMALL, workers=2, keep_partial=True)
        real = scan_mod._row_or_failure

        def failing(config, snr_db):
            if snr_db > -10.0:
                return (snr_db, CapExceeded("window too wide"))
            return real(config, snr_db)

        monkeypatch.setattr(scan_mod, "_row_or_failure", failing)
        with pytest.warns(UserWarning) as record:
            rows = run_scan(config)
        assert [r.snr_db for r in rows] == [-10.0]
        assert [str(w.message) for w in record] == [
            f"scan point snr_db={s:g} failed: window too wide" for s in (-7.5, -5, -2.5, 0)]

    def test_default_table_pinned(self, capsysbinary):
        # the default `steinradar-scan --meta` table as committed; any changed
        # byte is a changed result, to be made on purpose with this file
        assert main(["--meta"]) == 0
        assert capsysbinary.readouterr().out == (DATA / "default_scan_meta.csv").read_bytes()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "steinradar.scan", *args],
        capture_output=True, timeout=600,
    )


CLI_SMALL = ("--nb", "5", "--copies", "100", "--points", "3",
             "--snr-db-min", "-10", "--snr-db-max", "0", "--tail-tol", "1e-8")


class TestCli:
    def test_defaults_are_scan_config_defaults(self):
        # each config flag writes its ScanConfig field and states no default
        parser = scan_mod._build_parser()
        dests = {action.dest for action in parser._actions} - {"help"}
        assert dests == {f.name for f in fields(ScanConfig)} | {"output", "meta"}
        assert ScanConfig(**vars(parser.parse_args([]))) == ScanConfig()

    def test_success_csv_stdout(self):
        proc = run_cli(*CLI_SMALL)
        assert proc.returncode == 0
        rows = parse_csv(proc.stdout)
        assert len(rows) == 3
        assert rows[0]["snr_db"] == -10.0

    def test_matches_library_emit(self):
        proc = run_cli(*CLI_SMALL)
        cfg = ScanConfig(nb=5.0, m=100, points=3, snr_db_min=-10.0,
                         snr_db_max=0.0, tail_tol=1e-8)
        assert proc.stdout == emit(run_scan(cfg), cfg)

    def test_output_file(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli(*CLI_SMALL, "--output", str(out))
        assert proc.returncode == 0 and proc.stdout == b""
        assert parse_csv(out.read_bytes())

    def test_json_format(self):
        proc = run_cli(*CLI_SMALL, "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout.decode())
        assert doc["config"]["m"] == 100

    def test_meta_flag(self):
        proc = run_cli(*CLI_SMALL, "--meta")
        assert proc.returncode == 0
        assert proc.stdout.decode().startswith("# p_fa = ")

    def test_module_form_warns_nothing(self):
        # runpy warns when importing the package has already imported
        # steinradar.scan; as an error, that warning would exit 1
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "steinradar.scan",
             "--points", "2"],
            capture_output=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert len(parse_csv(proc.stdout)) == 2

    def test_config_error_exit_2(self):
        proc = run_cli("--points", "1")
        assert proc.returncode == 2
        proc = run_cli("--pfa", "1.5", "--points", "2")
        assert proc.returncode == 2
        assert b"config error" in proc.stderr

    def test_numerical_failure_exit_3(self):
        # -10 dB fits K_MAX_CAP on the Skellam route; 0 dB is the first
        # point whose certified window does not
        proc = run_cli("--nb", "20000", "--tail-tol", "1e-12", "--points", "2",
                       "--snr-db-min", "-10", "--snr-db-max", "0")
        assert proc.returncode == 3
        assert b"numerical failure" in proc.stderr
        assert b"snr_db=0 " in proc.stderr

    def test_non_finite_config_exit_2(self, capsys):
        assert main(["--snr-db-max", "inf", "--points", "2"]) == 2
        assert main(["--nb", "inf", "--points", "2"]) == 2
        assert main(["--snr-db-min", "3070", "--snr-db-max", "3079", "--points", "2"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_heterodyne_cap_exit_3(self, capsys):
        # T fits at x ~ 0.1, but at M gamma ~ 1e17 the benchmark's Bessel
        # recurrence would start past its cap
        start = time.perf_counter()
        code = main(["--copies", "1000000000000", "--nb", "1e-6",
                     "--benchmark-m-convention", "total",
                     "--snr-db-min", "50", "--snr-db-max", "51", "--points", "2"])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "snr_db=50 " in err

    def test_heterodyne_exponent_nonnegative_at_tiny_snr(self, capsys):
        # p_MD = 1 - p_fa (1 + O(gamma)) rounds to 1 here; the benchmark
        # column must not go negative, that is p_MD above 1
        assert main(["--pfa", "1e-100", "--snr-db-min", "-120", "--snr-db-max", "-100",
                     "--points", "3", "--nb", "1"]) == 0
        rows = parse_csv(capsys.readouterr().out.encode())
        assert len(rows) == 3
        assert all(row["eps_marcum"] >= 0.0 for row in rows)

    def test_tail_tol_near_floor_exit_0(self, capsys):
        # the captured mass falls short of 1 - 10*tail_tol by rounding alone
        assert main(["--tail-tol", "2.3e-16", "--points", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_keep_partial_all_failed_exit_3(self, capsys):
        with pytest.warns(UserWarning):
            code = main(["--nb", "50", "--copies", "100", "--points", "2",
                         "--snr-db-min", "50", "--snr-db-max", "60",
                         "--tail-tol", "1e-8", "--keep-partial"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "snr_db=50 " in err and "snr_db=60 " in err
