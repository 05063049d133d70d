"""Set-up work of one CLI process: import betabound.cli and build a workload's inputs.

run.py starts this in a fresh interpreter several times and reports the
median wall time as ``setup_s``.  Usage: probe.py WORKLOAD SEED TINY(0|1)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import betabound.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
