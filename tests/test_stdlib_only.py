"""The package runs on the standard library alone.

Each request runs in a fresh interpreter started with -I -S: no
site-packages, no user site and no PYTHON* variables, with only the
source tree added to sys.path.  An import of anything outside the
standard library would end in a traceback, not the documented exit code.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from betabound.cli import main; sys.exit(main())"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["chi", "--g", "2", "--k", "2", "--a", "2,1", "--c", "1"], 0),
        (["type", "--g", "3", "--k", "9,3", "--a", "1,1,3", "--c", "1"], 0),
        (["kgroup", "--g", "2", "--k", "3", "--a", "0,1", "--c", "1"], 0),
        (["ample", "--g", "2", "--k", "3", "--a", "1,1", "--c", "1"], 0),
        (["beta", "--general", "3", "15"], 0),
        (["beta", "--g", "2", "--k", "3", "--a", "0,0", "--c", "1"], 4),
        (["search", "--g", "3", "--d", "7", "--format", "csv"], 0),
        (["search", "--g", "1", "--d", "5"], 2),
        (["np", "--g", "3", "--d", "40"], 0),
        (["table", "--max", "16", "--format", "markdown"], 0),
    ],
)
def test_request_runs_without_site_packages(argv, code):
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", ENTRY, str(SRC), *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert bool(proc.stdout) == (code == 0)
