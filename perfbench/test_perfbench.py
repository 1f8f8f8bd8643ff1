"""Self-tests of the benchmark: the output checker, the tracer and the
metric names declared in BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from check import check_outputs

REFS = run.REFS
ALL_COMMANDS = [spec for specs in run.WORKLOADS.values() for spec in specs]


def _copy_ref(tmp_path, cmd_id):
    out = tmp_path / cmd_id
    shutil.copytree(REFS / cmd_id, out)
    return out


@pytest.mark.parametrize("spec", ALL_COMMANDS, ids=[s[0] for s in ALL_COMMANDS])
def test_checker_accepts_references(spec):
    cmd_id, _, _, expected_rc = spec
    assert check_outputs(REFS / cmd_id, REFS / cmd_id, expected_rc, expected_rc) == []


def test_checker_rejects_wrong_exit_code():
    assert check_outputs(REFS / "reproduce", REFS / "reproduce", 0, 1)


def _edit_fig1(out, delta):
    path = out / "fig1.csv"
    lines = path.read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].split(",").index("alpha_actual")
    cells = lines[head + 5].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[head + 5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checker_rejects_fig1_below_reference(tmp_path):
    out = _copy_ref(tmp_path, "fig1_n1000")
    _edit_fig1(out, -1e-6)
    problems = check_outputs(REFS / "fig1_n1000", out, 0, 0)
    assert len(problems) == 1 and "alpha_actual" in problems[0]


@pytest.mark.parametrize("delta, ok", [(1e-3, True), (4.9e-3, True), (6e-3, False)])
def test_checker_allows_fig1_bounded_rise(tmp_path, delta, ok):
    out = _copy_ref(tmp_path, "fig1_n1000")
    _edit_fig1(out, delta)
    assert (check_outputs(REFS / "fig1_n1000", out, 0, 0) == []) is ok


def test_checker_rejects_changed_coverage(tmp_path):
    out = _copy_ref(tmp_path, "coverage_wald_n10000")
    path = next(out.iterdir())
    text = path.read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    p, cov, vio = last.split(",")
    changed = ",".join([p, repr(float(cov) - 1e-8), vio])
    path.write_text(text.replace(last, changed))
    assert check_outputs(REFS / "coverage_wald_n10000", out, 0, 0)


def test_checker_rejects_cp_coverage_below_nominal(tmp_path):
    out = _copy_ref(tmp_path, "coverage_cp_n2000")
    ref = next((REFS / "coverage_cp_n2000").iterdir())
    text = ref.read_text()
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[1] = "0.9"
    lines[-1] = ",".join(cells)
    (out / ref.name).write_text("\n".join(lines) + "\n")
    problems = check_outputs(REFS / "coverage_cp_n2000", out, 0, 0)
    assert any("minimum coverage" in p for p in problems)


def test_reference_reproduce_has_only_3b_red():
    report = json.loads((REFS / "reproduce" / "reproduce_report.json").read_text())
    assert [r["ident"] for r in report["rows"] if not r["passed"]] == ["3b"]
    assert report["all_pass"] is False


@pytest.mark.parametrize("ident, passed", [("3b", True), ("5", False), ("10", False)])
def test_checker_rejects_reproduce_pattern(tmp_path, ident, passed):
    out = _copy_ref(tmp_path, "reproduce")
    path = out / "reproduce_report.json"
    report = json.loads(path.read_text())
    for row in report["rows"]:
        if row["ident"] == ident:
            row["passed"] = passed
    report["all_pass"] = all(r["passed"] for r in report["rows"])
    path.write_text(json.dumps(report))
    assert check_outputs(REFS / "reproduce", out, 1, 1)


def test_checker_rejects_missing_output_file(tmp_path):
    out = _copy_ref(tmp_path, "researcher")
    (out / "researcher_summary.json").unlink()
    problems = check_outputs(REFS / "researcher", out, 0, 0)
    assert problems == ["researcher_summary.json: missing output file"]


def test_checker_ignores_meta(tmp_path):
    out = _copy_ref(tmp_path, "decide")
    path = out / "decision.json"
    doc = json.loads(path.read_text())
    doc["meta"]["fig1_variant"] = "joint_unconditional"
    doc["meta"]["seed"] = 1
    path.write_text(json.dumps(doc))
    assert check_outputs(REFS / "decide", out, 0, 0) == []
    doc["decision"]["scale"] += 1
    path.write_text(json.dumps(doc))
    assert check_outputs(REFS / "decide", out, 0, 0)


def test_layer_totals_subtract_children():
    spans = [
        ["cli", 0.0, 10.0, -1, 0],
        ["binomial.sup", 1.0, 4.0, 0, 7],
        ["binomial.pmf", 2.0, 3.0, 1, 0],
        ["binomial.pmf", 5.0, 5.5, 0, 0],
    ]
    totals = tracing.layer_totals([spans, [["cli", 20.0, 21.0, -1, 0]]])
    assert totals["cli"] == {"calls": 2, "count": 0, "self_s": pytest.approx(7.5)}
    assert totals["binomial.sup"] == {"calls": 1, "count": 7, "self_s": pytest.approx(2.0)}
    assert totals["binomial.pmf"]["calls"] == 2
    assert totals["binomial.pmf"]["self_s"] == pytest.approx(1.5)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(11.0)


def test_every_layer_in_exactly_one_self_time_metric():
    layers = {layer for layer, *_ in tracing.TARGETS}
    covered = [layer for name, field, group in tracing.METRICS
               if field == "self_s" for layer in group]
    assert sorted(covered) == sorted(layers)


def test_traced_self_times_sum_to_command_time(tmp_path):
    scenarios = run.write_scenarios(tmp_path, 5)
    spec = ("decide", "default", ["decide"], 0)
    untraced = [[run.run_command(spec, scenarios, tmp_path, trace=False)]]
    traced = [[run.run_command(spec, scenarios, tmp_path, trace=True)]]
    assert traced[0][0]["problems"] == [] and traced[0][0]["missing"] == []
    metrics, problems = run.per_layer(traced, untraced)
    assert problems == []
    overhead = metrics["trace.overhead_s"][0]
    self_sum = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    assert abs(self_sum - traced[0][0]["cmd_s"]) <= abs(overhead) + 1e-3
    assert metrics["strategies.calibration.calls"][0] == 1
    assert metrics["binomial.cp_table.rows"][0] > 0


def test_benchmark_json_names_match_runner(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    scenarios = run.write_scenarios(tmp_path, 1)
    pass_ = [run.run_command(("example1", "default", ["example1"], 0),
                             scenarios, tmp_path, trace=True)]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in run.end_to_end([pass_]).items()}
    metrics, _ = run.per_layer([pass_], [pass_])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
