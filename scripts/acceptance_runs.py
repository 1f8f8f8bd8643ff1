#!/usr/bin/env python3
"""Run the fixed set of 27 CLI runs whose outputs a refactor must keep.

    python3 scripts/acceptance_runs.py OUT
    python3 scripts/acceptance_runs.py --compare A B

Each run writes into OUT/<id>/: the files the command wrote, its stdout
(with OUT/<id> replaced by the token <OUT>), its stderr and its exit
code. The package is imported from this checkout's `src/`, so running
the script from two checkouts into two directories and comparing them
shows whether a change kept every byte.

--compare lists the files that differ byte for byte between two such
trees, each with the largest difference between its numbers (relative
for magnitudes above 1, as perfbench compares), and exits 1 when any
difference exceeds 1e-9 or a difference is not numeric at all.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LARGE = str(ROOT / "perfbench" / "large_scenario.json")
TOKEN = "<OUT>"
TOL = 1e-9
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# The scenario files the runs read, written into a temporary directory.
SCENARIOS = {
    "seed31337.json": {"seed": 31337},
    "seed7.json": {"seed": 7},
    "joint.json": {"belief": {"untruthful_weight": 0.5,
                              "conditioning": "joint_unconditional"}},
    "fraud.json": {"strategy": {"variant": "fraudulent", "guess_spread": 0.05}},
}


def runs(where: str) -> list:
    """(id, argv) of every run; where is the directory holding SCENARIOS."""
    def config(name):
        return ["--config", os.path.join(where, name)]

    out = [(name, [name]) for name in (
        "coverage", "example1", "example2", "fig1", "decide", "contract",
        "researcher", "pool", "reproduce")]
    out += [(f"{name}_large", [name, "--config", LARGE])
            for name in ("decide", "contract", "researcher", "pool")]
    return out + [
        ("coverage_cp_n2000", ["coverage", "--proc", "clopper_pearson", "--n", "2000"]),
        # the one run whose Clopper-Pearson windows span about 40% of a row
        ("coverage_cp_n10000", ["coverage", "--proc", "clopper_pearson", "--n", "10000"]),
        ("coverage_wald_n300", ["coverage", "--proc", "wald", "--n", "300"]),
        ("coverage_wald_n10000", ["coverage", "--proc", "wald", "--n", "10000"]),
        ("fig1_n1000", ["fig1", "--n", "1000", "--p-c", "0.3", "0.5", "0.7"]),
        # the one run whose dot products over arrays of rates walk windowed
        # pmf blocks: its rows, 2001 columns wide, are cut to their windows
        ("example2_n2000", ["example2", "--n", "2000"]),
        ("reproduce_seed31337", ["reproduce", *config("seed31337.json")]),
        # the seed of the perfbench runs in ROADMAP: anchor 10's bytes at a
        # third seed
        ("reproduce_seed7", ["reproduce", *config("seed7.json")]),
        # a conditioning variant that needs no calibration
        ("fig1_joint", ["fig1", *config("joint.json")]),
        # the p0 that the load check on a fraudulent strategy's guesses
        # shares with the command
        ("decide_fraud", ["decide", *config("fraud.json")]),
        ("researcher_fraud", ["researcher", *config("fraud.json")]),
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


def numeric_gap(a: str, b: str) -> float:
    """Largest |x - y| / max(1, |x|) over the paired numbers of two texts;
    inf when the texts differ anywhere outside their numbers."""
    if NUMBER.split(a) != NUMBER.split(b):
        return math.inf
    pairs = zip(NUMBER.findall(a), NUMBER.findall(b))
    return max((abs(float(x) - float(y)) / max(1.0, abs(float(x)))
                for x, y in pairs), default=0.0)


def compare(a: Path, b: Path) -> float:
    """Print each file that differs between trees a and b, with its largest
    numeric difference; return the largest over all files."""
    names = sorted({path.relative_to(root).as_posix() for root in (a, b)
                    for path in root.rglob("*") if path.is_file()})
    worst = 0.0
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            gap = math.inf
            print(f"{name}: only in {fa.parent if fa.is_file() else fb.parent}")
        elif fa.read_bytes() == fb.read_bytes():
            continue
        else:
            try:
                gap = numeric_gap(fa.read_text(encoding="utf-8"),
                                  fb.read_text(encoding="utf-8"))
            except UnicodeDecodeError:
                gap = math.inf
            print(f"{name}: differs, largest numeric difference {gap:.3g}")
        worst = max(worst, gap)
    return worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, nargs="?",
                    help="directory for the runs' outputs")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                    help="compare two output trees instead of running")
    args = ap.parse_args()
    if (args.out is None) == (args.compare is None):
        ap.error("give either OUT or --compare A B")
    if args.compare:
        worst = compare(*args.compare)
        print(f"largest difference {worst:.3g}, tolerance {TOL:g}")
        sys.exit(1 if worst > TOL else 0)
    out = args.out.resolve()
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in SCENARIOS.items():
            (Path(tmp) / name).write_text(json.dumps(data), encoding="utf-8")
        for ident, argv in runs(tmp):
            print(f"{ident}: exit {run(ident, argv, out, env)}")


if __name__ == "__main__":
    main()
