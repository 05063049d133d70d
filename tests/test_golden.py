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


# sha256 of the full stdout of the largest requests (0.1-12 MB each),
# recorded with json.dumps(indent=2, sort_keys=True) as the renderer.  The
# last three walk the enumeration's progression of k_(g-1) at g = 3 and 4,
# on 1,773 (generalized), 4,282 and 6,612 certificates.
LARGE_STDOUT_SHA256 = {
    "search --g 3 --d 64": "0bddc24a937e62f5fea30fbffc0276fda76d5904bbe7131f2e25cc81898f0372",
    "search --g 2 --d 24 --generalized": "90605caac0d064fa21f24950cfe5c02dd3981f929e25ce90ee7482718f929fa9",
    "search --g 4 --d 10": "7538c3d542e8c2b6a45b737fe479da91af3f35dfab8442d5ac036ae40b517a5f",
    "table --max 300": "86f238c71a67c5f97122105ecad2c1d6dfbd8be00ebe3715be509e1146e9f615",
    "search --g 4 --d 12 --generalized": "ff7da5869c7ea1c28243263fefa9d75cc7291fd72bd56789931a9e4f6962f6ef",
    "search --g 3 --d 400": "99a9c354c591b4741485bc7c96c9e38ebfa9c9e008c22cb2896a6b266ddc278c",
    "search --g 4 --d 60 --max-k 40": "aa4bba12262da87d8ed5d211e1fe53152584837852e4ee7ee87803ef324c1ff3",
}


@pytest.mark.parametrize("argv", sorted(LARGE_STDOUT_SHA256))
def test_large_output_is_unchanged(argv):
    result = _run(argv.split())
    assert (result["exit"], result["stderr"]) == (0, "")
    assert hashlib.sha256(result["stdout"].encode()).hexdigest() == LARGE_STDOUT_SHA256[argv]


# Refusals at the candidate limit, with the count at which it was passed:
# g = 5 (limit 5,000), the zero-weight path (c = 0, every k_1 fits at once)
# and the progression of k_(g-1), which counts one candidate at a time
LARGE_REFUSALS = {
    "search --g 5 --d 24 --max-k 5 --generalized": "at least 5004 candidates, above the limit of 5000",
    "search --g 3 --d 30 --generalized --max-c 0": "at least 10020 candidates, above the limit of 10000",
    "search --g 4 --d 300 --max-a 6 --max-b 6 --max-k 100": "at least 10001 candidates, above the limit of 10000",
}


@pytest.mark.parametrize("argv", sorted(LARGE_REFUSALS))
def test_large_refusal_is_unchanged(argv):
    stderr = (
        f"error: search box has {LARGE_REFUSALS[argv]}; "
        "shrink it with --max-a, --max-b or --max-k, and --max-c with --generalized\n"
    )
    assert _run(argv.split()) == {"argv": argv.split(), "exit": 2, "stdout": "", "stderr": stderr}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(case["argv"]) for case in CASES], indent=1) + "\n")
