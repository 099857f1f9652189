"""Rewrite the golden report that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs `pwncg fit-spectra --seed 1` on the golden clip (see
tests/helpers.golden_outputs) and writes the report JSON without its
per-patch records, the CSV, the fits of the golden batches
(tests/helpers.golden_batch_fits), and the numeric environment they were
made in (numpy and scipy versions, and a checksum of the functions the
fits call) next to this script. A change that moves reported numbers reruns it and
lists the changed rows.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from helpers import golden_batch_fits, golden_outputs, numeric_environment  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        report, table = golden_outputs(workdir)
    (HERE / "report.json").write_text(report)
    (HERE / "report.csv").write_bytes(table)
    (HERE / "batches.json").write_text(golden_batch_fits())
    (HERE / "environment.json").write_text(json.dumps(numeric_environment(), indent=2) + "\n")
    print(f"wrote {HERE / 'report.json'}, report.csv, batches.json and environment.json")


if __name__ == "__main__":
    main()
