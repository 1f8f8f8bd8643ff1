"""Every subcommand runs without scipy, which only the tests install, and
writes its files with the same provenance.

The scipy checks run in a fresh interpreter, because this one has
imported scipy for the oracle tests.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from guaranteesim import cli
from guaranteesim.record import asdict

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

# The subcommands whose files record the conditioning variant they used.
VARIANT_COMMANDS = {"example2", "fig1", "reproduce"}

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


def test_importing_the_cli_leaves_fractions_decimal_and_dataclasses_unloaded():
    # every command pays for what the import loads; anchor 10's exact cdf
    # is built from Python ints, without fractions or decimal, the value
    # types are records, which generate no code as dataclasses do, and
    # numpy.random loads only when a command first makes a stream: the
    # samplers check their bit generator when called, not at import
    proc = _python("-c", "import sys, guaranteesim.cli; "
                         "print(sorted({'fractions', 'decimal', '_decimal', "
                         "'_pydecimal', 'dataclasses', 'numpy.random'} "
                         "& set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_name_every_subcommand():
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sorted(argv[0] for argv, _ in COMMANDS) == sorted(sub.choices)


@pytest.mark.parametrize("argv,rc", COMMANDS, ids=[a[0] for a, _ in COMMANDS])
def test_every_file_records_the_same_provenance(tmp_path, capsys,
                                                default_scenario, argv, rc):
    assert cli.main([*argv, "--out", str(tmp_path)]) == rc
    grids = {key: value for key, value in
             asdict(default_scenario.grids).items()
             if key != "alpha_levels"}
    with_variant = argv[0] in VARIANT_COMMANDS
    files = sorted(tmp_path.iterdir())
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            lines = text.splitlines()
            assert lines[:2] == ["# guaranteesim 0.1.0",
                                 f"# seed={default_scenario.seed}"]
            assert lines[2] == "# grids: " + " ".join(
                f"{key}={value}" for key, value in grids.items())
            assert lines[3].startswith("# fig1_variant=") == with_variant
            assert not lines[3 + with_variant].startswith("#")
        else:
            payload = json.loads(text)
            meta = payload["meta"]
            assert next(iter(payload)) == "meta"
            assert meta["tool"] == "guaranteesim 0.1.0"
            assert meta["seed"] == default_scenario.seed
            assert meta["grids"] == grids
            assert ("fig1_variant" in meta) == with_variant
    # the writer reports each file once, after the command's own lines
    out = capsys.readouterr().out.splitlines()
    assert sorted(out[-len(files):]) == [f"wrote {path}" for path in files]
    assert sum(line.startswith("wrote ") for line in out) == len(files)
