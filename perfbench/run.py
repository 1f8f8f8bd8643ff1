"""Benchmark of the guaranteesim command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the workload's commands run one after
another, each in a fresh child process (`child.py`), the way a user
invokes the CLI, so every process starts with cold caches. The loop
repeats the workload until S seconds have passed, and always completes
at least one pass. Every command's exit code and output files are
checked against the references in `refs/` (`check.py`).

With --trace 0 it reports the end-to-end metrics:

    wall_s       summed in-process command time of one pass (median of passes)
    setup_s      child wall time (spawn to exit) minus command time, i.e.
                 interpreter start, import and teardown (median of processes)
    cmd_p50_s    median command time within a pass (median of passes)
    cmd_max_s    slowest command time within a pass (median of passes)
    peak_rss_mb  largest child maximum resident set size

With --trace 1 every pass runs untraced and then traced, and it reports
the per-layer metrics of `tracing.METRICS` from the traced passes, plus
`cli.out_bytes` (bytes of the output files of one pass) and
`trace.overhead_s` (traced minus untraced `wall_s`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it
records the machine and library versions. The workload seed is written
into each scenario's `seed`; only Monte-Carlo draws depend on it, so the
reference checks hold for any seed. Outputs of the last command, and the
spans of the last traced pass, stay in `perfbench/_work/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
from check import check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
WORK = HERE / "_work"

# Each command is (id, scenario, argv, expected exit code); the id names
# its reference directory under refs/. All scenarios keep the default
# accuracy grids, and anchor 10 keeps its fixed 10^6 draws per estimate:
# those are accuracy gates, not load settings.
WORKLOADS = {
    # Monte-Carlo dominates (anchor 10); the rest is desk-scale n = 300
    # exact work. Exit 1 with only anchor 3b red is the expected output.
    "reproduce_anchors": [
        ("reproduce", "default", ["reproduce"], 1),
    ],
    # The large-n exact path: Clopper-Pearson bisection tables, the
    # per-point pmf loop and mixture suprema. No researcher or
    # Monte-Carlo work.
    "exact_large_n": [
        ("coverage_cp_n2000", "default",
         ["coverage", "--proc", "clopper_pearson", "--n", "2000"], 0),
        ("coverage_wald_n10000", "default",
         ["coverage", "--proc", "wald", "--n", "10000"], 0),
        ("fig1_n1000", "default",
         ["fig1", "--n", "1000", "--p-c", "0.3", "0.5", "0.7"], 0),
    ],
    # The interactive path: nine light commands, where process start,
    # import and the calibration every command runs weigh most. The large
    # scenario's 8-member pool (1.68M joint outcomes) sets peak memory.
    "cli_session": [
        ("example1", "default", ["example1"], 0),
        ("decide", "default", ["decide"], 0),
        ("contract", "default", ["contract"], 0),
        ("researcher", "default", ["researcher"], 0),
        ("pool", "default", ["pool"], 0),
        ("decide_large", "large", ["decide"], 0),
        ("contract_large", "large", ["contract"], 0),
        ("researcher_large", "large", ["researcher"], 0),
        ("pool_large", "large", ["pool"], 0),
    ],
}


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def write_scenarios(workdir: Path, seed: int) -> dict:
    """Scenario files carrying the workload seed, by scenario name.

    "default" is the bundled scenario (omitted blocks fall back to it);
    "large" is `large_scenario.json`.
    """
    large = json.loads((HERE / "large_scenario.json").read_text(encoding="utf-8"))
    large["seed"] = seed
    paths = {}
    for name, data in (("default", {"seed": seed}), ("large", large)):
        path = workdir / f"{name}_scenario.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def spawn(argv, scenario_path: str, workdir: Path, trace: bool) -> dict:
    """Run one CLI command in a child process; outputs go to workdir/out."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    args = [sys.executable, str(HERE / "child.py"), str(result_path),
            "1" if trace else "0", *argv, "--config", scenario_path, "--out", str(out)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(workdir / "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(workdir / "stderr.txt"), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, child_env(), file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall_s = time.perf_counter() - start
    rc = os.waitstatus_to_exitcode(status)
    if not result_path.is_file():
        stderr = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"{' '.join(argv)}: child exited with {rc} and wrote "
                           f"no result\n{stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return {"rc": rc, "cmd_s": result["cmd_s"], "wall_s": wall_s,
            "setup_s": wall_s - result["cmd_s"], "rss_mb": usage.ru_maxrss / 1024.0,
            "out": out, "spans": result.get("spans"), "missing": result.get("missing")}


def run_command(spec, scenarios: dict, workdir: Path, trace: bool) -> dict:
    cmd_id, scenario, argv, expected_rc = spec
    rec = spawn(argv, scenarios[scenario], workdir, trace)
    rec["id"] = cmd_id
    rec["problems"] = check_outputs(REFS / cmd_id, rec["out"], rec["rc"], expected_rc)
    rec["out_bytes"] = sum(p.stat().st_size for p in rec["out"].rglob("*") if p.is_file())
    return rec


def run_pass(workload: str, scenarios: dict, workdir: Path, trace: bool) -> list:
    return [run_command(spec, scenarios, workdir, trace) for spec in WORKLOADS[workload]]


def end_to_end(passes) -> dict:
    """End-to-end metrics, as (value, unit), from untraced passes."""
    med = statistics.median
    commands = [c for p in passes for c in p]
    return {
        "wall_s": (med(sum(c["cmd_s"] for c in p) for p in passes), "s"),
        "setup_s": (med(c["setup_s"] for c in commands), "s"),
        "cmd_p50_s": (med(med(c["cmd_s"] for c in p) for p in passes), "s"),
        "cmd_max_s": (med(max(c["cmd_s"] for c in p) for p in passes), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for c in commands), "MB"),
    }


def per_layer(traced, untraced) -> tuple:
    """(metrics as (value, unit), problems) from traced and untraced passes."""
    med = statistics.median
    layers = [tracing.layer_metrics(tracing.layer_totals(c["spans"] for c in p))
              for p in traced]
    # median_low keeps counts whole: they repeat exactly from pass to pass
    metrics = {name: (statistics.median_low(m[name] for m in layers),
                      "s" if name.endswith("_s") else "count")
               for name in layers[0]}
    metrics["cli.out_bytes"] = (
        statistics.median_low(sum(c["out_bytes"] for c in p) for p in traced), "bytes")
    traced_wall = med(sum(c["cmd_s"] for c in p) for p in traced)
    overhead = traced_wall - med(sum(c["cmd_s"] for c in p) for p in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    problems = []
    # Self times partition the traced command time: cli.main is the root
    # span, so whatever they miss is wrapper cost, bounded by the overhead.
    for p, m in zip(traced, layers):
        self_sum = sum(v for k, v in m.items() if k.endswith("self_s"))
        gap = abs(self_sum - sum(c["cmd_s"] for c in p))
        if gap > abs(overhead) + 1e-3:
            problems.append(f"traced self times miss {gap:.6f} s of the command "
                            f"time, more than the overhead {overhead:.6f} s")
    missing = sorted({name for p in traced for c in p for name in c["missing"]})
    if missing:
        problems.append(f"trace targets not found: {', '.join(missing)}")
    return metrics, problems


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so spawn() stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "guaranteesim" / "cli.py").is_file():
        print(f"error: no guaranteesim sources under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenarios = write_scenarios(workdir, args.seed % 2**32)

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(run_pass(args.workload, scenarios, workdir, False))
        if args.trace:
            traced.append(run_pass(args.workload, scenarios, workdir, True))
        if time.perf_counter() >= deadline:
            break

    commands = [c for p in untraced + traced for c in p]
    failed = [c for c in commands if c["problems"]]
    for c in failed:
        print(f"FAILED {c['id']}: " + "; ".join(c["problems"][:5]), file=sys.stderr)
    if args.trace:
        metrics, problems = per_layer(traced, untraced)
        (workdir / "trace.json").write_text(json.dumps(
            {c["id"]: c["spans"] for c in traced[-1]}), encoding="utf-8")
    else:
        metrics, problems = end_to_end(untraced), []
    for problem in problems:
        print(f"TRACE {problem}", file=sys.stderr)

    for p_index, p in enumerate(untraced):
        print(f"pass {p_index}: " + ", ".join(
            f"{c['id']} {c['cmd_s']:.3f}s" for c in p))
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "passes": len(untraced)}))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
