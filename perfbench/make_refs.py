"""Regenerate the reference outputs in refs/ from the current sources.

    python3 perfbench/make_refs.py

Runs every command of every workload once, untraced, with the bundled
scenario's seed, and stores its output files under refs/<command id>/.
Only do this when a change is meant to alter the numbers, and say so.
"""

import shutil
import sys

from run import REFS, WORK, WORKLOADS, spawn, write_scenarios

SEED = 20260819


def main() -> int:
    workdir = WORK / "make_refs"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenarios = write_scenarios(workdir, SEED)
    for specs in WORKLOADS.values():
        for cmd_id, scenario, argv, expected_rc in specs:
            rec = spawn(argv, scenarios[scenario], workdir, trace=False)
            if rec["rc"] != expected_rc:
                print(f"{cmd_id}: exit code {rec['rc']}, expected {expected_rc}",
                      file=sys.stderr)
                return 1
            shutil.rmtree(REFS / cmd_id, ignore_errors=True)
            shutil.copytree(rec["out"], REFS / cmd_id)
            print(f"{cmd_id}: {rec['cmd_s']:.3f} s")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
