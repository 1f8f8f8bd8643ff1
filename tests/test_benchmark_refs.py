"""Every benchmark command's outputs pass the benchmark's own reference check.

perfbench/run.py runs each workload command in a child process and
counts a run whose outputs differ from perfbench/refs/ as incorrect.
Here the same commands run in-process through cli.main, on the same
scenario files, and the same check_outputs must find nothing, so a
change that moves a checked number shows in the test suite first.
run.py and the modules it imports are loaded read-only.
"""

import importlib.util
import sys
from pathlib import Path

from guaranteesim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_command_matches_its_reference(tmp_path, capsys,
                                                      monkeypatch):
    # run.py imports its siblings as top-level modules
    for name in ("tracing", "check"):
        monkeypatch.setitem(sys.modules, name, _load(name))
    run = _load("run")
    scenarios = run.write_scenarios(tmp_path, 7)
    problems = {}
    for workload, specs in run.WORKLOADS.items():
        assert specs, f"workload {workload} runs no command"
        for cmd_id, scenario, argv, expected_rc in specs:
            out = tmp_path / cmd_id
            out.mkdir()
            rc = cli.main([*argv, "--config", scenarios[scenario],
                           "--out", str(out)])
            found = run.check_outputs(run.REFS / cmd_id, out, rc, expected_rc)
            if found:
                problems[cmd_id] = found
    capsys.readouterr()
    assert problems == {}
