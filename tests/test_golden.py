"""The reported numbers of a fixed run, pinned: `pwncg fit-spectra --seed 1`
on 0.3 s of synthetic speech, and the four models' fits of five batches
chosen so that the fits' math.log steps matter (tests/helpers), against
tests/golden/ (written by tests/golden/regenerate.py).

Where the numeric environment matches the one the golden was made in
(numpy and scipy versions, and a checksum of the elementary and special
functions the fits call), the report must match byte for byte: every
likelihood, parameter, flag and count. Elsewhere the last bits of exp,
log or the Bessel functions may differ, and every number is compared to
1e-12 relative instead.
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

from helpers import golden_batch_fits, golden_outputs, numeric_environment

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return a == b
    return isinstance(b, (int, float)) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _json_close(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _json_close(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_json_close, a, b))
    return _close(a, b)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_close(a: bytes, b: bytes) -> bool:
    rows_a = list(csv.reader(io.StringIO(a.decode())))
    rows_b = list(csv.reader(io.StringIO(b.decode())))
    return len(rows_a) == len(rows_b) and all(
        len(ra) == len(rb) and all(_close(_cell(x), _cell(y)) for x, y in zip(ra, rb))
        for ra, rb in zip(rows_a, rows_b)
    )


def test_report_matches_the_golden(tmp_path):
    report, table = golden_outputs(tmp_path)
    fits = golden_batch_fits()
    want_report = (GOLDEN / "report.json").read_text()
    want_table = (GOLDEN / "report.csv").read_bytes()
    want_fits = (GOLDEN / "batches.json").read_text()
    made_in = json.loads((GOLDEN / "environment.json").read_text())
    here = numeric_environment()
    if here == made_in:
        assert report == want_report
        assert table == want_table
        assert fits == want_fits
        return
    print(
        f"exact comparison did not apply: the golden was made with {made_in}, this run has "
        f"{here}; comparing every number to {REL_TOL:g} relative"
    )
    assert _json_close(json.loads(report), json.loads(want_report))
    assert _csv_close(table, want_table)
    assert _json_close(json.loads(fits), json.loads(want_fits))


def _regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_ends_with_a_summary_of_the_changed_values():
    regenerate = _regenerate()
    old = {
        "report.json": json.dumps({"a": {"x": 2.0, "n": 3, "s": "same"}, "ok": True}),
        "report.csv": b"model,ll,converged\r\nproposed,-4.0,True\r\ngamma,1.5,True\r\n",
        "batches.json": json.dumps([1.0, 2.0]),
    }
    new = {
        "report.json": json.dumps({"a": {"x": 2.5, "n": 3, "s": "other"}, "ok": True}),
        "report.csv": b"model,ll,converged\r\nproposed,-4.2,False\r\ngamma,1.5,True\r\n",
        "batches.json": json.dumps([1.0, 2.0]),
    }
    lines, values = regenerate._changes(old, new)
    assert lines == [
        'report.json.a.s: "same" -> "other"',
        "report.json.a.x: 2.0 -> 2.5",
        "report.csv row 1: ['proposed', '-4.0', 'True'] -> ['proposed', '-4.2', 'False']",
    ]
    # four values: a JSON string and number, and two CSV cells; 0.5 / 2.0
    # beats 0.2 / 4.0
    assert regenerate._summary(values) == (
        "4 changed values; largest relative change 0.25, at report.json.a.x"
    )
    assert regenerate._summary(values[:1]) == (
        "1 changed value, none of them numeric on both sides"
    )
    assert regenerate._summary([("k", 0.0, 1e-300)]) == (
        "1 changed value; largest relative change inf, at k"
    )
    assert regenerate._changes(old, old) == ([], [])
