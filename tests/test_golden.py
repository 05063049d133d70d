"""Golden envelopes: the exit code, rendered stdout and stderr of a fixed
set of CLI requests, covering every command, output format and error
exit, must stay byte for byte what ``tests/data/golden_envelopes.json``
records.

To re-record after an intended output change (review the diff):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from betabound.cli import main
from util import perfbench_module

check = perfbench_module("checks").check
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


JSON_OK = [c for c in CASES if c["exit"] == 0 and "--format" not in c["argv"]]


@pytest.mark.parametrize("case", JSON_OK, ids=[" ".join(c["argv"]) for c in JSON_OK])
def test_outside_checker_passes_json_envelope(case):
    assert check(case["argv"], {0}, case["exit"], case["stdout"]) == []


# sha256 of the full stdout of the largest requests (0.1-0.8 MB each),
# recorded with json.dumps(indent=2, sort_keys=True) as the renderer
LARGE_STDOUT_SHA256 = {
    "search --g 3 --d 64": "0bddc24a937e62f5fea30fbffc0276fda76d5904bbe7131f2e25cc81898f0372",
    "search --g 2 --d 24 --generalized": "90605caac0d064fa21f24950cfe5c02dd3981f929e25ce90ee7482718f929fa9",
    "search --g 4 --d 10": "7538c3d542e8c2b6a45b737fe479da91af3f35dfab8442d5ac036ae40b517a5f",
    "table --max 300": "86f238c71a67c5f97122105ecad2c1d6dfbd8be00ebe3715be509e1146e9f615",
}


@pytest.mark.parametrize("argv", sorted(LARGE_STDOUT_SHA256))
def test_large_output_is_unchanged(argv):
    result = _run(argv.split())
    assert (result["exit"], result["stderr"]) == (0, "")
    assert hashlib.sha256(result["stdout"].encode()).hexdigest() == LARGE_STDOUT_SHA256[argv]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(case["argv"]) for case in CASES], indent=1) + "\n")
