"""What CI checks on other machines is checked here as well.

CI runs ``tests/console_script.sh`` against the installed package; here
it runs against the source tree, through a ``betabound`` shim on PATH
that runs ``python -m betabound.cli``.  CI's matrix starts at Python
3.10, the package's ``requires-python``, so every source and test file
must parse with the 3.10 grammar whatever Python runs the tests (this
catches newer syntax, not newer stdlib names).  The version an install
records, ``pyproject.toml``'s, is the one the package reports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import betabound

ROOT = Path(__file__).resolve().parent.parent


def test_console_script_checks_pass(tmp_path):
    shim = tmp_path / "betabound"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m betabound.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        ["bash", ROOT / "tests" / "console_script.sh"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_sources_parse_with_the_oldest_supported_grammar():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_package_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    found = re.findall(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert found == [betabound.__version__]
