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
differs from the files here, one a line, then one summary line: the
count of changed values (JSON leaves and CSV cells) and the largest
relative change among the numeric ones, with its key. It exits 1 if any
differs.
"""

import csv
import io
import json
import math
import sys
import tempfile
from itertools import zip_longest
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
    """(path, old, new) for each leaf, key or list item that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _json_changes(f"{path}.{key}", old.get(key), new.get(key))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_changes(f"{path}[{i}]", a, b)
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _csv_changes(name: str, old: bytes, new: bytes):
    """('name row i', old row, new row, changed cells) for each CSV row
    that differs (row 0 is the header); the cells are (key, old, new), a
    number where the text is one."""
    rows_old = list(csv.reader(io.StringIO(old.decode())))
    rows_new = list(csv.reader(io.StringIO(new.decode())))
    header = rows_new[0] if rows_new else []
    for i, (a, b) in enumerate(zip_longest(rows_old, rows_new)):
        if a == b:
            continue
        cells = [
            (f"{name} row {i} {header[j] if i and j < len(header) else j}", _number(x), _number(y))
            for j, (x, y) in enumerate(zip_longest(a or (), b or ()))
            if x != y
        ]
        yield f"{name} row {i}", a, b, cells


def _number(text):
    """text as a float where it reads as one, else text."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def _changes(old: dict, new: dict):
    """How the outputs new differ from the golden files old, both by file
    name: the lines to print, and the changed values as (key, old, new),
    one per JSON leaf or CSV cell."""
    lines, values = [], []
    for name, content in new.items():
        before = old[name]
        if before == content:
            continue
        if name.endswith(".csv"):
            rows = list(_csv_changes(name, before, content))
            lines += [f"{key}: {a} -> {b}" for key, a, b, _ in rows]
            values += [cell for *_, cells in rows for cell in cells]
            if not rows:
                lines.append(f"{name}: the same rows in different bytes")
        else:
            found = list(_json_changes(name, json.loads(before), json.loads(content)))
            lines += [f"{key}: {json.dumps(a)} -> {json.dumps(b)}" for key, a, b in found]
            values += found
            if not found:
                lines.append(f"{name}: the same values in different text")
    return lines, values


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _summary(values) -> str:
    """One line: how many values changed, and the largest relative change
    |new - old| / |old| among those whose old and new values are both
    numbers, with its key (inf where old is 0)."""
    numeric = []
    for key, a, b in values:
        if _is_number(a) and _is_number(b):
            rel = abs(b - a) / abs(a) if a else math.inf
            numeric.append((rel, key))
    line = f"{len(values)} changed value{'s' if len(values) != 1 else ''}"
    if not numeric:
        return line + ", none of them numeric on both sides"
    rel, key = max(numeric, key=lambda t: t[0])
    return line + f"; largest relative change {rel:.3g}, at {key}"


def main(argv) -> int:
    files = _outputs()
    if "--check" in argv:
        old = {
            name: (HERE / name).read_bytes() if isinstance(new, bytes) else (HERE / name).read_text()
            for name, new in files.items()
        }
        lines, values = _changes(old, files)
        if not lines:
            print(f"no change from the golden files in {HERE}")
            return 0
        print("\n".join(lines))
        print(_summary(values))
        return 1
    for name, content in files.items():
        if isinstance(content, bytes):
            (HERE / name).write_bytes(content)
        else:
            (HERE / name).write_text(content)
    print(f"wrote {HERE / 'report.json'}, report.csv, batches.json and environment.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
