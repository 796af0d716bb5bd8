"""Correctness gates applied to every repetition.

Each check works on one row (scan workloads) or one point (crosscheck) and
returns the list of its failures; a row with any failure counts as failed.
"""

from __future__ import annotations

import math

from steinradar import ThermalScenario, heterodyne_log_pmd, thermal_closed_forms

from workloads import P_FA

CAPTURED_MASS_MIN = 1.0 - 1e-9
REFERENCE_RTOL = 1e-9
GENERAL_RTOL = 1e-9
ORACLE_RTOL = 1e-6
MARCUM_SUM_TOL = 1e-12
LN_PMD_ATOL = 1e-9

BOOL_FIELDS = ("upper_valid", "lower_valid")
OPTIONAL_FIELDS = ("eps_refined_upper", "eps_refined_lower")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _rounding(value: float) -> float:
    """Largest error of ``value`` once printed to 12 significant digits."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0


def parse_csv(payload: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = payload.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_scan_row(row: dict[str, str], snr_db: float, nb: float, m: int) -> list[str]:
    """Gate of one emitted CSV row at grid point ``snr_db``."""
    errors = []
    values = {}
    for name, cell in row.items():
        if name in BOOL_FIELDS:
            if cell not in ("true", "false"):
                errors.append(f"{name}={cell!r} is not a flag")
        elif cell == "" and name in OPTIONAL_FIELDS:
            values[name] = None
        else:
            try:
                values[name] = float(cell)
            except ValueError:
                errors.append(f"{name}={cell!r} is not a number")
                continue
            if not math.isfinite(values[name]):
                errors.append(f"{name}={cell} is not finite")
    if errors:
        return errors
    if row["snr_db"] != _fmt(snr_db):
        errors.append(f"snr_db {row['snr_db']} is not grid point {_fmt(snr_db)}")
    for name, flag in (("eps_refined_upper", "upper_valid"), ("eps_refined_lower", "lower_valid")):
        if (values[name] is None) != (row[flag] == "false"):
            errors.append(f"{name} present={values[name] is not None} but {flag}={row[flag]}")
    if values["captured_mass"] < CAPTURED_MASS_MIN:
        errors.append(f"captured_mass {values['captured_mass']} < {CAPTURED_MASS_MIN}")
    if not values["t"] >= values["v"] ** 1.5:
        errors.append(f"Lyapunov violated: t={values['t']} < v^1.5")
    closed = thermal_closed_forms(
        ThermalScenario(nb=nb, eta=1.0, ns=10.0 ** (snr_db / 10.0) * nb))
    for name, want in (("d", closed.d), ("v", closed.v)):
        if row[name] != _fmt(want):
            errors.append(f"{name}={row[name]} differs from closed form {_fmt(want)}")
    # The lower bound on p_MD sits 2 ln M below the upper one, so its
    # exponent is 2 ln M / M larger, up to the rounding of both fields.
    lower, upper = values["eps_lambda_lower"], values["eps_lambda_upper"]
    slack = _rounding(lower) + _rounding(upper) + 1e-15 * max(abs(lower), abs(upper))
    if abs(lower - upper - 2.0 * math.log(m) / m) > slack:
        errors.append(f"lambda exponents differ by {lower - upper}, not 2 ln M / M")
    return errors


def check_scan_table(payload: str, snr_grid: list[float], nb: float, m: int,
                     reference: str | None) -> tuple[int, list[str]]:
    """Gate of a whole emitted table: (failed rows, messages).

    Rows missing from the table (points that raised under keep_partial)
    fail; eps_first_order must increase strictly; with a reference table,
    every field must match it to REFERENCE_RTOL and flags and empty fields
    exactly.
    """
    header, rows = parse_csv(payload)
    by_snr = {row.get("snr_db"): row for row in rows}
    ref_rows = None
    if reference is not None:
        ref_header, ref_list = parse_csv(reference)
        if ref_header != header or len(ref_list) != len(snr_grid):
            return len(snr_grid), ["table layout differs from the reference table"]
        ref_rows = ref_list
    failed = 0
    messages = []
    prev = -math.inf
    for i, snr_db in enumerate(snr_grid):
        row = by_snr.get(_fmt(snr_db))
        if row is None:
            failed += 1
            messages.append(f"snr_db={snr_db:g}: row missing")
            continue
        errors = check_scan_row(row, snr_db, nb, m)
        if not errors:
            eps = float(row["eps_first_order"])
            if not eps > prev:
                errors.append("eps_first_order not strictly increasing")
            prev = eps
        if not errors and ref_rows is not None:
            errors.extend(_reference_mismatches(row, ref_rows[i]))
        if errors:
            failed += 1
            messages.append(f"snr_db={snr_db:g}: " + "; ".join(errors))
    if len(rows) != len(by_snr) or len(rows) > len(snr_grid):
        failed = max(failed, 1)
        messages.append("table has duplicate or extra rows")
    return failed, messages


def _reference_mismatches(row: dict[str, str], ref: dict[str, str]) -> list[str]:
    errors = []
    for name, want in ref.items():
        got = row[name]
        if name in BOOL_FIELDS or want == "" or got == "":
            if got != want:
                errors.append(f"{name}={got!r}, reference {want!r}")
        elif not math.isclose(float(got), float(want), rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            errors.append(f"{name}={got}, reference {want}")
    return errors


def check_crosscheck_point(point: list, nb: float) -> list[str]:
    """Acceptance tolerances of the library's second routes at one point."""
    if len(point) != 9:
        return [f"raised {point[1]}"]
    snr_db, d, v, oracle_d, oracle_v, q1, p1, q2, p2 = point
    gamma = 10.0 ** (snr_db / 10.0)
    closed = thermal_closed_forms(ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb))
    errors = []
    for what, got, want, tol in (
        ("general D", d, closed.d, GENERAL_RTOL),
        ("general V", v, closed.v, GENERAL_RTOL),
        ("spectral_oracle D", oracle_d, closed.d, ORACLE_RTOL),
        ("spectral_oracle V", oracle_v, closed.v, ORACLE_RTOL),
    ):
        if not abs(got - want) < tol * abs(want):
            errors.append(f"{what} {got} vs closed form {want}")
    for what, q, p in (("per-copy", q1, p1), ("total-M", q2, p2)):
        if not abs(q + p - 1.0) < MARCUM_SUM_TOL:
            errors.append(f"{what} marcum_q: |q + p - 1| = {abs(q + p - 1.0):.3g}")
    ln_pmd = heterodyne_log_pmd(gamma, P_FA)
    if not (p1 > 0.0 and abs(math.log(p1) - ln_pmd) < LN_PMD_ATOL):
        errors.append(f"per-copy ln p {math.log(p1) if p1 > 0 else -math.inf} "
                      f"vs heterodyne_log_pmd {ln_pmd}")
    return errors
