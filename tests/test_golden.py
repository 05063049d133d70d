"""Golden envelopes: the rendered stdout and exit code of a fixed set of
CLI requests, covering every command and output format, must stay byte
for byte what ``tests/data/golden_envelopes.json`` records.

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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_envelope_is_unchanged(case):
    assert _run(case["argv"]) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    cases = []
    for case in CASES:
        code, stdout = _run(case["argv"])
        cases.append({"argv": case["argv"], "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
