"""Range commands at X = 3*10^7 (the exceptional scan at 10^7, where the
whole range took 716 MB), the degree-48 exceptional scan, `pset` at 10^9 and
`invariants 64 5` run within a fixed memory budget.

Each command runs in a fresh interpreter that imports the CLI first; the
growth of its peak resident set over that import-only baseline must stay
below the budget, which whole-range arrays would exceed.  The peak is the
address space's own high-water mark (VmHWM): ru_maxrss also counts the
spawning process's peak, which the child inherits across exec, so under a
large test runner it would hide any growth below that.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BUDGET_MB = 40

_PROBE = """
import os, re, sys
import eosieve.cli
def hwm():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
base = hwm()
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
rc = eosieve.cli.main(sys.argv[1:])
sys.stdout.flush()
print(rc, (hwm() - base) / 1024, file=sys.stderr)
"""


def _growth_mb(argv):
    """The exit code and the ru_maxrss growth, in MB, of one command over the CLI import."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EOS_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    rc, growth_mb = result.stderr.split()[-2:]
    assert rc == "0", result.stderr
    return float(growth_mb)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", "30000000"],
        ["family", "thin", "--n", "4", "--c", "2", "--limit", "30000000"],
        ["pset", "4", "6", "--limit", "30000000"],
        ["density", "4", "6", "--budget", "30000000"],
        ["experiment", "exceptional", "--n", "4", "--x-max", "10000000"],
        # degree-48 multiplication tables, which the table cache must not hoard
        ["experiment", "exceptional", "--n", "48", "--x-max", "1000"],
    ],
)
def test_range_command_memory_growth_is_bounded(argv):
    growth_mb = _growth_mb(argv)
    assert growth_mb < BUDGET_MB, f"{argv}: peak RSS grew by {growth_mb} MB"


# The P_g commands hold one window of primes, the residue pass's blocks and
# P_g itself (1.2 MB at 3*10^7, 34 MB at 10^9): a window-sized residue pass
# grows them by 23 MB at 3*10^7, and a second copy of P_g by 82 MB at 10^9.
@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
@pytest.mark.parametrize(
    "argv, budget_mb",
    [
        (["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", "30000000"], 16),
        (["pset", "4", "6", "--limit", "30000000"], 16),
        (["density", "4", "6", "--budget", "30000000"], 16),
        (["pset", "4", "6", "--limit", "1000000000"], 70),
    ],
)
def test_pg_commands_hold_one_window_and_one_copy_of_pg(argv, budget_mb):
    growth_mb = _growth_mb(argv)
    assert growth_mb < budget_mb, f"{argv}: peak RSS grew by {growth_mb} MB"


# An 80-bit prime radicand below psi_13: factorize proves it prime after the
# first chunk of its walk, with no list of the 78,498 primes below 10^6 as
# Python ints (3.1 MB), which a walk to 10^6 grew by 5.0 MB.
@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
def test_prime_radicand_factorizes_without_a_list_of_trial_primes():
    argv = ["invariants", "4", "1208925819614629174706189"]
    growth_mb = _growth_mb(argv)
    assert growth_mb < 3, f"{argv}: peak RSS grew by {growth_mb} MB"


# x^64 - 5 saturated at 2 from the lifted 2-saturation of x^32 - 5 (16 MB of
# growth), not from Z[theta] in 33 rounds of degree-64 tables (44 MB)
@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
def test_high_degree_saturation_starts_from_the_tower():
    argv = ["invariants", "64", "5"]
    growth_mb = _growth_mb(argv)
    assert growth_mb < 25, f"{argv}: peak RSS grew by {growth_mb} MB"
