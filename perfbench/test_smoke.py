"""Smoke test of the benchmark, at tiny workload sizes.

    python3 -m pytest perfbench/test_smoke.py

It lives beside the benchmark, outside tests/, so the repository's test
suite (pytest testpaths = tests) stays free of timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import check  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name in expected:
        assert name in proc.stdout.split("\n{")[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("queries", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _envelope(argv):
    from betabound.cli import render, run

    return render(run(argv))


def test_checker_accepts_real_output_and_flags_corrupted_envelopes():
    beta = ["beta", "--g", "3", "--k", "9,3", "--a", "1,1,3", "--c", "1"]
    text = _envelope(beta)
    assert check(beta, frozenset({0}), 0, text) == []

    envelope = json.loads(text)
    envelope["results"]["flag_bound"]["value"] = "1/3"
    assert check(beta, frozenset({0}), 0, json.dumps(envelope))

    envelope = json.loads(text)
    envelope["results"]["chi"]["value"] += 1
    assert check(beta, frozenset({0}), 0, json.dumps(envelope))

    search = ["search", "--g", "3", "--d", "7"]
    text = _envelope(search)
    assert check(search, frozenset({0}), 0, text) == []
    envelope = json.loads(text)
    envelope["results"]["count"] += 1
    assert check(search, frozenset({0}), 0, json.dumps(envelope))

    assert check(beta, frozenset({0}), 3, "")
    assert check(beta, frozenset({0}), 0, "Traceback")
