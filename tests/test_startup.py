"""The package runs without scipy, which only the tests install.

Each check runs in a fresh interpreter, because this one has imported
scipy for the oracle tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
LARGE = REPO / "perfbench" / "large_scenario.json"

# Every subcommand with its usual exit code, at a small --n where it has
# one: reproduce exits 1 because anchor 3b is red by design.
COMMANDS = [
    (["coverage", "--n", "40"], 0),
    (["example1"], 0),
    (["example2", "--n", "40"], 0),
    (["fig1", "--n", "40", "--p-c", "0.5"], 0),
    (["decide"], 0),
    (["contract"], 0),
    (["researcher"], 0),
    (["pool"], 0),
    (["reproduce"], 1),
]

# Blocks every import of scipy and its submodules, runs the commands of
# argv[1] in turn and prints their exit codes as the last line.
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from guaranteesim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


@pytest.mark.parametrize("config", [None, LARGE], ids=["default", "large"])
def test_every_subcommand_runs_without_scipy(tmp_path, config):
    where = [] if config is None else ["--config", str(config)]
    argvs = [[*argv, *where, "--out", str(tmp_path)] for argv, _ in COMMANDS]
    proc = _python("-c", NO_SCIPY, json.dumps(argvs))
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1]) == [rc for _, rc in COMMANDS]
    assert [ln.split()[1] for ln in lines if ln.startswith("[FAIL]")] == ["3b"]


def test_importing_the_cli_leaves_scipy_unloaded():
    proc = _python("-c", "import sys, guaranteesim.cli; "
                         "print(sorted(m for m in sys.modules if 'scipy' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
