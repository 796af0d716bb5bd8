"""Scan driver, emission formats, CLI contract, and determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from steinradar import (
    CapExceeded,
    DegenerateVariance,
    DetectionParams,
    ScanConfig,
    ScanRow,
    SteinRadarError,
    ThermalScenario,
    TruncationPolicy,
    emit,
    error_exponent,
    heterodyne_log_pmd,
    refined_bracket,
    run_scan,
    thermal_closed_forms,
    third_moment,
)
from steinradar import scan as scan_mod
from steinradar.scan import main

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
    assert header == list(ScanRow._fields)
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
        # a string is not a real number, even one that reads as one
        with pytest.raises(ValueError, match="nb must be a real number"):
            ScanConfig(nb="600")

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
    # from 40 dB the certified support window of k - l reaches past
    # K_MAX_CAP at nb=50 (|d| up to 555,577 at 40 dB); 40 dB is grid index
    # 3, so at two workers it fails in the forked child's share and its
    # exception crosses the pipe
    FAILING = dict(nb=50.0, m=100, points=5, snr_db_min=10.0, snr_db_max=50.0,
                   tail_tol=1e-8)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_abort_names_offending_point(self, workers):
        with pytest.raises(CapExceeded, match="snr_db=40 failed"):
            run_scan(ScanConfig(**self.FAILING, workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_partial_skips_and_warns(self, workers):
        with pytest.warns(UserWarning) as record:
            rows = run_scan(ScanConfig(**self.FAILING, keep_partial=True, workers=workers))
        assert [r.snr_db for r in rows] == [10.0, 20.0, 30.0]
        # 40 dB is the child's, 50 dB the parent's
        assert [str(w.message).split(" failed: ")[0] for w in record] == [
            "scan point snr_db=40", "scan point snr_db=50"]

    def test_keep_partial_warns_again_when_repeated(self):
        # under the "default" filter a second identical scan in one process
        # reports its skipped points again, in the same words; "ignore" holds
        cfg = ScanConfig(**self.FAILING, keep_partial=True)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("default")
            run_scan(cfg)
            run_scan(cfg)
        assert [(w.category, str(w.message).split(" failed: ")[0]) for w in record] == [
            (UserWarning, f"scan point snr_db={s}") for s in (40, 50, 40, 50)]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("ignore")
            run_scan(cfg)
        assert record == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_partial_all_failed_names_points(self, workers):
        # 55 dB is the child's at two workers
        cfg = ScanConfig(**dict(self.FAILING, points=3, snr_db_min=50.0, snr_db_max=60.0),
                         keep_partial=True, workers=workers)
        with pytest.warns(UserWarning):
            with pytest.raises(SteinRadarError, match=r"snr_db=50 \(CapExceeded\), "
                               r"snr_db=55 \(CapExceeded\), snr_db=60 \(CapExceeded\)$"):
                run_scan(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stagewise_rows_match_rowwise_reference(self, workers):
        # each row built alone from the public calls, a failed row skipped
        cfg = ScanConfig(**self.FAILING, keep_partial=True, workers=workers)
        params = DetectionParams(p_fa=cfg.p_fa, m=cfg.m, c=cfg.c)
        policy = TruncationPolicy(tail_tol=cfg.tail_tol)

        def eps(log_pmd):
            return None if log_pmd is None else error_exponent(log_pmd, cfg.m)

        reference = []
        for snr_db in np.linspace(cfg.snr_db_min, cfg.snr_db_max, cfg.points):
            gamma = 10.0 ** (float(snr_db) / 10.0)
            scenario = ThermalScenario(nb=cfg.nb, eta=1.0, ns=gamma * cfg.nb)
            try:
                stats = thermal_closed_forms(scenario)
                tm = third_moment(scenario, policy)
                b = refined_bracket(stats.with_t(tm.t), params)
                eps_marcum = error_exponent(heterodyne_log_pmd(gamma, cfg.p_fa), 1)
            except SteinRadarError:
                continue
            reference.append(ScanRow(
                float(snr_db), gamma, stats.d, stats.v, tm.t, tm.captured_mass, stats.d,
                eps(b.log_refined_upper), eps(b.log_refined_lower),
                b.refined_upper_valid, b.refined_lower_valid,
                eps(b.log_lambda_upper), eps(b.log_lambda_lower), eps_marcum))
        with pytest.warns(UserWarning):
            rows = run_scan(cfg)
        assert len(reference) == 3
        assert rows == reference

    def test_failed_t_skips_later_stages(self, monkeypatch):
        # T raises at 40 and 50 dB; neither row reaches the bracket or the benchmark
        calls = {"refined_bracket": 0, "heterodyne_log_pmd": 0}

        def counting(name):
            real = getattr(scan_mod, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(scan_mod, name, counting(name))
        with pytest.warns(UserWarning):
            rows = run_scan(ScanConfig(**self.FAILING, keep_partial=True, workers=1))
        assert [r.snr_db for r in rows] == [10.0, 20.0, 30.0]
        assert calls == {"refined_bracket": 3, "heterodyne_log_pmd": 3}

    def test_first_failing_stage_is_reported(self, monkeypatch):
        # the -5 dB row fails in both the bracket and the benchmark, which
        # come in that order; its error is the bracket's
        cfg = ScanConfig(**SMALL, workers=1)
        x = 10.0 ** (-5.0 / 10.0)
        d = thermal_closed_forms(ThermalScenario(nb=cfg.nb, eta=1.0, ns=x * cfg.nb)).d
        real_bracket, real_pmd = scan_mod.refined_bracket, scan_mod.heterodyne_log_pmd

        def bracket(stats, params):
            if stats.d == d:
                raise DegenerateVariance("the bracket's error")
            return real_bracket(stats, params)

        def benchmark(gamma, p_fa):
            if gamma == x:
                raise CapExceeded("the benchmark's error")
            return real_pmd(gamma, p_fa)

        monkeypatch.setattr(scan_mod, "refined_bracket", bracket)
        monkeypatch.setattr(scan_mod, "heterodyne_log_pmd", benchmark)
        with pytest.raises(DegenerateVariance, match="snr_db=-5 failed: the bracket's error$"):
            run_scan(cfg)


class TestEmit:
    def test_single_row_csv(self, rows):
        payload = emit(rows[:1], ScanConfig(**SMALL))
        text = payload.decode()
        assert text.count("\n") == 2 and text.endswith("\n")
        assert "\r" not in text
        assert text.split("\n")[0] == ",".join(ScanRow._fields)

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
        assert text.split("\n")[len(meta_lines)] == ",".join(ScanRow._fields)

    def test_json_schema(self, rows):
        cfg = ScanConfig(**SMALL, output_format="json")
        doc = json.loads(emit(rows, cfg).decode())
        assert set(doc) == {"config", "rows"}
        assert doc["config"]["nb"] == 5.0
        assert doc["config"]["points"] == 5
        assert "workers" not in doc["config"]
        assert len(doc["rows"]) == len(rows)
        for row in doc["rows"]:
            assert list(row) == list(ScanRow._fields)
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

    def test_blank_side_patterns_match_field_rule(self):
        # every pattern of blank refined sides, with numpy floats among the
        # numbers, against the rule field by field: 12 significant digits,
        # an empty field for None, true or false for a flag
        def field(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            return f"{value:.12g}"

        base = ScanRow(-3.5, np.float64(0.44668359215096315), 1e-300, np.float64(2.5e12),
                       123456789.123456789, 1.0, -0.0, np.float64(-1.25e-7), 7.0, True,
                       False, np.float64(math.pi), 1e22, np.float32(0.1))
        rows = [base._replace(eps_refined_upper=upper, eps_refined_lower=lower,
                              upper_valid=upper is not None, lower_valid=lower is not None)
                for upper in (base.eps_refined_upper, None)
                for lower in (base.eps_refined_lower, None)]
        rows.append(base._replace(upper_valid=False, lower_valid=True))
        lines = emit(rows, ScanConfig(**SMALL)).decode().split("\n")
        assert lines[1:-1] == [",".join(map(field, row)) for row in rows]
        assert lines[-1] == ""

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
        real = scan_mod.heterodyne_log_pmd

        def buggy(x, p_fa):                    # the per-copy benchmark's x is gamma
            if x == 10.0 ** (bad / 10.0):
                raise ZeroDivisionError("a bug, not a numerical failure")
            return real(x, p_fa)

        monkeypatch.setattr(scan_mod, "heterodyne_log_pmd", buggy)
        with pytest.raises(ZeroDivisionError, match="a bug"):
            run_scan(config)
        with pytest.raises(ChildProcessError):     # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_dead_child_raises(self, monkeypatch):
        if (os.cpu_count() or 1) < 2 or not scan_mod._can_fork():
            pytest.skip("rows run serially here")
        parent = os.getpid()
        real = scan_mod.third_moment

        def dying(scenario, policy):
            if os.getpid() != parent:
                os._exit(1)
            return real(scenario, policy)

        monkeypatch.setattr(scan_mod, "third_moment", dying)
        with pytest.raises(ChildProcessError, match="without a result"):
            run_scan(ScanConfig(**SMALL, workers=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_keep_partial_warnings_in_grid_order(self, monkeypatch):
        # failures in both shares of two workers: -7.5 and -2.5 are the
        # child's, -5 and 0 the parent's
        config = ScanConfig(**SMALL, workers=2, keep_partial=True)
        real = scan_mod.third_moment

        def failing(scenario, policy):
            if scenario.ns > 0.5:                  # above -10 dB at nb = 5
                raise CapExceeded("window too wide")
            return real(scenario, policy)

        monkeypatch.setattr(scan_mod, "third_moment", failing)
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_low_background_table_pinned(self, workers):
        # the benchmark's low-background table (1,000 total-M rows at nb = 0.1)
        # by its sha256 as committed; any changed byte is a changed result.
        # CSV prints 12 digits; JSON prints every float at repr precision, so
        # its digest pins every bit of all 14 columns.
        # The JSON digest was recorded in e5c5ba8, with numpy 2.4.6 on an
        # x86-64 host with __cpu_baseline__ X86_V2 and dispatch targets X86_V3,
        # X86_V4, AVX512_ICL, AVX512_SPR found; with the AVX-512 targets
        # disabled (NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
        # numpy's AVX2 kernels move last bits and it reads 046b5092... instead.
        cfg = ScanConfig(nb=0.1, benchmark_m_convention="total", snr_db_min=-10.0,
                         snr_db_max=20.0, points=1000, workers=workers)
        rows = run_scan(cfg)
        digest = hashlib.sha256(emit(rows, cfg)).hexdigest()
        assert digest == "3cb26955b683eaef8cbfdeee28a9524414f42bc6d632ccb8109a11c9b3d5adb2"
        json_cfg = replace(cfg, output_format="json")
        digest = hashlib.sha256(emit(rows, json_cfg)).hexdigest()
        assert digest == "14f800900e6fd4a776d98874bfce922389818c95206c8cb2faca6f413a4741f6"

    def test_cli_invocations_pinned(self):
        # each CLI invocation of tests/data/cli_sha256.csv by its exit code and
        # the sha256 of its CSV stdout and its stderr, as committed; any
        # changed byte is a changed result, to be made on purpose with the file
        moved = [row for row in _read_cli_pins() if cli_digests(row[0]) != row]
        assert moved == []


CLI_PINS = DATA / "cli_sha256.csv"


def cli_digests(args: str) -> tuple[str, str, str, str]:
    """(args, exit code, sha256 of stdout, sha256 of stderr) of
    `steinradar-scan ARGS`, run in-process through `main`."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out)             # main writes to sys.stdout.buffer
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(args.split())
    stdout.detach()
    return (args, str(code), hashlib.sha256(out.getvalue()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


def _read_cli_pins() -> list[tuple[str, ...]]:
    lines = [ln for ln in CLI_PINS.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "args,exit_code,stdout_sha256,stderr_sha256"
    return [tuple(ln.split(",")) for ln in lines[1:]]


def write_cli_pins() -> None:
    """Record every invocation of tests/data/cli_sha256.csv again, keeping
    its header comments: `PYTHONPATH=src:tests python -c "import test_scan;
    test_scan.write_cli_pins()"`."""
    head = [ln for ln in CLI_PINS.read_text().splitlines() if ln.startswith("#")]
    rows = [",".join(cli_digests(row[0])) for row in _read_cli_pins()]
    CLI_PINS.write_text("\n".join([*head, "args,exit_code,stdout_sha256,stderr_sha256", *rows]) + "\n")


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

    def test_output_file(self, tmp_path, capsysbinary):
        # the file holds the bytes stdout gets
        assert main(list(CLI_SMALL)) == 0
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "scan.csv"
        assert main([*CLI_SMALL, "--output", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == stdout

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        # one line in the CLI's words, no traceback
        out = tmp_path / "missing" / "scan.csv"
        assert main([*CLI_SMALL, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"steinradar-scan: cannot write {out}: ")

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

    def test_low_snr_lambda_bound_above_one(self, capsysbinary):
        # below about -24 dB the second-order upper bound on p_MD exceeds 1:
        # ln lambda_upper > 0, a legal bound, printed as a negative exponent
        assert main(["--snr-db-min", "-40", "--snr-db-max", "-20", "--points", "5"]) == 0
        rows = parse_csv(capsysbinary.readouterr().out)
        assert rows[0]["eps_lambda_upper"] == pytest.approx(-0.000517872486338, rel=1e-9)
        assert rows[-1]["eps_lambda_upper"] > 0.0

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

    def test_heterodyne_past_the_old_cap_exit_0(self, capsys):
        # T fits at x ~ 0.1, and at M gamma ~ 1e17, where a Miller recurrence
        # for the benchmark would start past K_MAX_CAP, its Perron seed needs
        # no start: eps_marcum = -ln p_MD / M comes out near gamma
        start = time.perf_counter()
        code = main(["--copies", "1000000000000", "--nb", "1e-6",
                     "--benchmark-m-convention", "total",
                     "--snr-db-min", "50", "--snr-db-max", "51", "--points", "2"])
        assert time.perf_counter() - start < 5.0
        assert code == 0
        out = capsys.readouterr()
        assert out.err == ""
        rows = parse_csv(out.out.encode())
        assert len(rows) == 2
        for row in rows:
            assert row["eps_marcum"] == pytest.approx(row["gamma"], rel=1e-7)

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
        code = main(["--nb", "50", "--copies", "100", "--points", "2",
                     "--snr-db-min", "50", "--snr-db-max", "60",
                     "--tail-tol", "1e-8", "--keep-partial"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "snr_db=50 " in err and "snr_db=60 " in err
        # each skipped point first, in grid order, then the failure
        lines = err.splitlines()
        assert [line.split(" failed: ")[0] for line in lines[:2]] == [
            "steinradar-scan: scan point snr_db=50", "steinradar-scan: scan point snr_db=60"]
        assert len(lines) == 3 and lines[2].startswith("steinradar-scan: numerical failure: ")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_keep_partial_reports_skipped_points(self, workers):
        # 40 and 50 dB fail at nb=50 (40 dB in the child's share at two
        # workers): one line each, in the CLI's words, with no source
        # location, warning category or echoed source line
        proc = run_cli("--nb", "50", "--copies", "100", "--points", "5",
                       "--snr-db-min", "10", "--snr-db-max", "50", "--tail-tol", "1e-8",
                       "--keep-partial", "--workers", workers)
        assert proc.returncode == 0
        assert len(parse_csv(proc.stdout)) == 3
        lines = proc.stderr.decode().splitlines()
        assert [line.split(" failed: ")[0] for line in lines] == [
            "steinradar-scan: scan point snr_db=40", "steinradar-scan: scan point snr_db=50"]
        assert all("K_MAX_CAP" in line for line in lines)
        assert not any(".py:" in line or "Warning" in line for line in lines)


def test_public_names_resolve_once():
    # every name in __all__ is importable and listed once, so a name folded
    # into another cannot linger in the list
    import steinradar

    names = steinradar.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(steinradar, name)
    assert not any(hasattr(steinradar, n) for n in ("MassDeficit", "ModeMismatch"))
