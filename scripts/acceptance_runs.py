#!/usr/bin/env python3
"""Run the fixed set of 21 CLI runs whose outputs a refactor must keep.

    python3 scripts/acceptance_runs.py OUT

Each run writes into OUT/<id>/: the files the command wrote, its stdout
(with OUT/<id> replaced by the token <OUT>), its stderr and its exit
code. The package is imported from this checkout's `src/`, so running
the script from two checkouts into two directories and comparing them
with `diff -r` shows whether a change kept every byte.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LARGE = str(ROOT / "perfbench" / "large_scenario.json")
TOKEN = "<OUT>"


def runs(seeded: str) -> list:
    """(id, argv) of every run; seeded is a scenario file setting seed 31337."""
    out = [(name, [name]) for name in (
        "coverage", "example1", "example2", "fig1", "decide", "contract",
        "researcher", "pool", "reproduce")]
    out += [(f"{name}_large", [name, "--config", LARGE])
            for name in ("decide", "contract", "researcher", "pool")]
    return out + [
        ("coverage_cp_n2000", ["coverage", "--proc", "clopper_pearson", "--n", "2000"]),
        ("coverage_wald_n300", ["coverage", "--proc", "wald", "--n", "300"]),
        ("coverage_wald_n10000", ["coverage", "--proc", "wald", "--n", "10000"]),
        ("fig1_n1000", ["fig1", "--n", "1000", "--p-c", "0.3", "0.5", "0.7"]),
        ("reproduce_seed31337", ["reproduce", "--config", seeded]),
        # the parser's help and error bytes
        ("coverage_help", ["coverage", "--help"]),
        ("decide_bad_bound", ["decide", "--published-bound", "7"]),
        ("decide_unknown_flag", ["decide", "--bogus"]),
    ]


def run(ident: str, argv: list, out: Path, env: dict) -> int:
    where = out / ident
    where.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "guaranteesim", *argv,
                           "--out", str(where)],
                          env=env, capture_output=True, text=True)
    for name, text in (("stdout.txt", proc.stdout), ("stderr.txt", proc.stderr)):
        (where / name).write_text(text.replace(str(where), TOKEN), encoding="utf-8")
    (where / "exit_code.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")
    return proc.returncode


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, help="directory for the runs' outputs")
    args = ap.parse_args()
    out = args.out.resolve()
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    with tempfile.TemporaryDirectory() as tmp:
        seeded = Path(tmp) / "seed31337.json"
        seeded.write_text(json.dumps({"seed": 31337}), encoding="utf-8")
        for ident, argv in runs(str(seeded)):
            print(f"{ident}: exit {run(ident, argv, out, env)}")


if __name__ == "__main__":
    main()
