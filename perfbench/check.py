"""Output checker: compares a command's output files with stored references.

Numbers are compared with a tolerance of 1e-9, relative for magnitudes
above 1; strings and booleans must match exactly. The `meta` block of
JSON outputs and the `#` comment lines of CSV outputs are not compared:
they record provenance (seed, grids, the calibrated variant), not
results. Suprema over a rate grid (`fig1` actual rates and the
calibration values) are checked one-sided: they may not fall below the
reference, because an underestimated false-positive rate errs on the
unsafe side, but may rise by up to 5e-3, room for a certified supremum
that searches the grid more thoroughly.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

__all__ = ["check_outputs"]

TOL = 1e-9
SUP_RISE = 5e-3

# (below, above) allowed around a reference value, by CSV column or JSON path.
_SUPREMUM = (TOL, SUP_RISE)
_RULES = {
    "alpha_actual": _SUPREMUM,
    "calibration.value": _SUPREMUM,
    "calibration.candidates": _SUPREMUM,
    "calibration.residual": (SUP_RISE, SUP_RISE),
}


def _rule(where: str):
    for prefix, rule in _RULES.items():
        if where == prefix or where.startswith(prefix + "."):
            return rule
    return (TOL, TOL)


def _compare_number(got, ref, where, rule, problems):
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        problems.append(f"{where}: expected a number, got {got!r}")
        return
    if math.isnan(ref) or math.isnan(got):
        if not (math.isnan(ref) and math.isnan(got)):
            problems.append(f"{where}: {got!r} vs reference {ref!r}")
        return
    below, above = rule
    scale = max(1.0, abs(ref))
    if not ref - below * scale <= got <= ref + above * scale:
        problems.append(f"{where}: {got!r} outside [{ref!r} - {below:g}, "
                        f"{ref!r} + {above:g}]")


def _compare_json(got, ref, where, problems):
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{where}: expected an object")
            return
        for key, value in ref.items():
            if key == "meta" and not where:
                continue
            path = f"{where}.{key}" if where else key
            if key not in got:
                problems.append(f"{path}: missing")
            else:
                _compare_json(got[key], value, path, problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_json(g, r, f"{where}[{i}]", problems)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        _compare_number(got, ref, where, _rule(where), problems)
    elif got != ref:
        problems.append(f"{where}: {got!r} vs reference {ref!r}")


def _csv_table(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(got_text, ref_text, name, problems):
    got_head, got_rows = _csv_table(got_text)
    ref_head, ref_rows = _csv_table(ref_text)
    if got_head != ref_head:
        problems.append(f"{name}: header {got_head} vs reference {ref_head}")
        return
    if len(got_rows) != len(ref_rows):
        problems.append(f"{name}: {len(got_rows)} rows vs reference {len(ref_rows)}")
        return
    for i, (g_row, r_row) in enumerate(zip(got_rows, ref_rows)):
        if len(g_row) != len(r_row):
            problems.append(f"{name} row {i}: {len(g_row)} cells")
            continue
        for column, g, r in zip(ref_head, g_row, r_row):
            r_num = _as_float(r)
            if r_num is None:
                if g != r:
                    problems.append(f"{name} row {i} {column}: {g!r} vs {r!r}")
                continue
            g_num = _as_float(g)
            _compare_number(g if g_num is None else g_num, r_num,
                            f"{name} row {i} {column}", _rule(column), problems)


def _check_cp_coverage(name, text, problems):
    """Clopper-Pearson coverage never drops below its nominal level."""
    match = re.search(r"_a([0-9.e-]+)\.csv$", name)
    head, rows = _csv_table(text)
    col = head.index("coverage") if "coverage" in head else None
    values = [_as_float(row[col]) if col is not None and col < len(row) else None
              for row in rows]
    if match is None or not values or None in values:
        problems.append(f"{name}: cannot read the nominal level or coverage")
        return
    floor = 1.0 - float(match.group(1)) - TOL
    low = min(values)
    if low < floor:
        problems.append(f"{name}: minimum coverage {low!r} below {floor!r}")


def _check_reproduce(got, ref, problems):
    """Same anchors in the same order, and exactly the reference's red ones."""
    rows = got.get("rows", [])
    idents = [row.get("ident") for row in rows]
    ref_idents = [row["ident"] for row in ref["rows"]]
    if idents != ref_idents:
        problems.append(f"anchors {idents} vs reference {ref_idents}")
        return
    red = [row["ident"] for row in rows if not row.get("passed")]
    ref_red = [row["ident"] for row in ref["rows"] if not row["passed"]]
    if red != ref_red:
        problems.append(f"failing anchors {red}, expected exactly {ref_red}")
    if got.get("all_pass") is not (not ref_red):
        problems.append(f"all_pass is {got.get('all_pass')!r}")


def check_outputs(ref_dir: Path, out_dir: Path, rc: int, expected_rc: int) -> list:
    """Problems found in one command's outputs; empty when they match."""
    problems = []
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    for ref_path in sorted(Path(ref_dir).iterdir()):
        name = ref_path.name
        out_path = Path(out_dir) / name
        if not out_path.is_file():
            problems.append(f"{name}: missing output file")
            continue
        got_text = out_path.read_text(encoding="utf-8")
        ref_text = ref_path.read_text(encoding="utf-8")
        if name.endswith(".csv"):
            _compare_csv(got_text, ref_text, name, problems)
            if name.startswith("coverage_clopper_pearson"):
                _check_cp_coverage(name, got_text, problems)
            continue
        try:
            got = json.loads(got_text)
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: invalid JSON ({exc.msg})")
            continue
        if name == "reproduce_report.json":
            _check_reproduce(got, json.loads(ref_text), problems)
        else:
            sub = []
            _compare_json(got, json.loads(ref_text), "", sub)
            problems.extend(f"{name}: {p}" for p in sub)
    return problems
