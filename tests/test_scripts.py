"""The reports in `scripts/` print exactly the text recorded in `tests/scripts_expected`.

After a deliberate change to a report, record its output again with
`PYTHONPATH=src python scripts/<name>.py > tests/scripts_expected/<name>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "scripts_expected"


@pytest.mark.parametrize("name", ["cyclic_demo", "matrix_report", "mb_report"])
def test_script_prints_the_recorded_text(name):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")
