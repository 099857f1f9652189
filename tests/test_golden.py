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
