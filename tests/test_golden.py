"""Golden envelopes: the exit code, rendered stdout and stderr of a fixed
set of CLI requests, covering every command, output format and error
exit, must stay byte for byte what ``tests/data/golden_envelopes.json``
records.

To re-record after an intended output change (review the diff):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from betabound.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_envelopes.json"
CASES = json.loads(GOLDEN.read_text())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_envelope_is_unchanged(case):
    assert _run(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(case["argv"]) for case in CASES], indent=1) + "\n")
