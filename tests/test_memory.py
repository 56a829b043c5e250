"""Range commands at X = 3*10^7 (the exceptional scan at 10^7, where the
whole range took 716 MB) run within a fixed memory budget.

Each command runs in a fresh interpreter that imports the CLI first; the
growth of its peak resident set (ru_maxrss) over that import-only baseline
must stay below the budget, which whole-range arrays would exceed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BUDGET_MB = 40

_PROBE = """
import os, resource, sys
import eosieve.cli
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
rc = eosieve.cli.main(sys.argv[1:])
sys.stdout.flush()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(rc, (peak - base) / 1024, file=sys.stderr)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", "30000000"],
        ["family", "thin", "--n", "4", "--c", "2", "--limit", "30000000"],
        ["pset", "4", "6", "--limit", "30000000"],
        ["density", "4", "6", "--budget", "30000000"],
        ["experiment", "exceptional", "--n", "4", "--x-max", "10000000"],
    ],
)
def test_range_command_memory_growth_is_bounded(argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("EOS_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    rc, growth_mb = result.stderr.split()[-2:]
    assert rc == "0", result.stderr
    assert float(growth_mb) < BUDGET_MB, f"{argv}: peak RSS grew by {growth_mb} MB"
