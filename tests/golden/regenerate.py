"""Rewrite the golden report that tests/test_golden.py compares against,
or, with --check, list how today's outputs differ from it.

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

Runs `pwncg fit-spectra --seed 1` on the golden clip (see
tests/helpers.golden_outputs) and writes the report JSON without its
per-patch records, the CSV, the fits of the golden batches
(tests/helpers.golden_batch_fits), and the numeric environment they were
made in (numpy and scipy versions, and a checksum of the functions the
fits call) next to this script. A change that moves reported numbers reruns it and
lists the changed rows.

--check writes nothing. It prints every JSON key and CSV row whose value
differs from the files here, one a line, and exits 1 if any differs.
"""

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from helpers import golden_batch_fits, golden_outputs, numeric_environment  # noqa: E402


def _outputs() -> dict:
    """The golden files' contents as this code makes them, by file name."""
    with tempfile.TemporaryDirectory() as workdir:
        report, table = golden_outputs(workdir)
    return {
        "report.json": report,
        "report.csv": table,
        "batches.json": golden_batch_fits(),
        "environment.json": json.dumps(numeric_environment(), indent=2) + "\n",
    }


def _json_changes(path: str, old, new):
    """'path: old -> new' for each leaf, key or list item that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _json_changes(f"{path}.{key}", old.get(key), new.get(key))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_changes(f"{path}[{i}]", a, b)
    elif old != new or type(old) is not type(new):
        yield f"{path}: {json.dumps(old)} -> {json.dumps(new)}"


def _csv_changes(name: str, old: bytes, new: bytes):
    """'name row i: old -> new' for each CSV row that differs (row 0 is
    the header)."""
    rows_old = list(csv.reader(io.StringIO(old.decode())))
    rows_new = list(csv.reader(io.StringIO(new.decode())))
    for i in range(max(len(rows_old), len(rows_new))):
        a = rows_old[i] if i < len(rows_old) else None
        b = rows_new[i] if i < len(rows_new) else None
        if a != b:
            yield f"{name} row {i}: {a} -> {b}"
    if rows_old == rows_new and old != new:
        yield f"{name}: the same rows in different bytes"


def _changes(files: dict) -> list:
    changes = []
    for name, new in files.items():
        old = (HERE / name).read_bytes() if isinstance(new, bytes) else (HERE / name).read_text()
        if old == new:
            continue
        if name.endswith(".csv"):
            changes += _csv_changes(name, old, new)
        else:
            found = list(_json_changes(name, json.loads(old), json.loads(new)))
            changes += found or [f"{name}: the same values in different text"]
    return changes


def main(argv) -> int:
    files = _outputs()
    if "--check" in argv:
        changes = _changes(files)
        print("\n".join(changes) if changes else f"no change from the golden files in {HERE}")
        return 1 if changes else 0
    for name, content in files.items():
        if isinstance(content, bytes):
            (HERE / name).write_bytes(content)
        else:
            (HERE / name).write_text(content)
    print(f"wrote {HERE / 'report.json'}, report.csv, batches.json and environment.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
