"""Scenario loading, validation diagnostics, and the command-line surface."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from guaranteesim import config
from guaranteesim.binomial import PROCEDURE_KINDS, LowerBoundProcedure
from guaranteesim.cli import _build_parser, main
from guaranteesim.contracts import (
    FullGuarantee,
    ProportionalGuarantee,
    TailGuarantee,
)
from guaranteesim.config import (
    ConfigError,
    default_scenario_dict,
    load_scenario,
    scenario_from_dict,
)
from guaranteesim.decisions import AlphaSchedule
from guaranteesim.economics import PolicyEconomics
from guaranteesim.researcher import (
    UTILITY_FORMS,
    ResearcherRisk,
    RiskExchange,
    RiskTransfer,
    UtilitySpec,
    pool_expected_utility,
)
from guaranteesim.strategies import TruthfulStrategy

REPO = Path(__file__).resolve().parents[1]


def fail_to_decide(*args):
    """A runtime failure inside a command, for the CLI's error paths."""
    raise ZeroDivisionError("no decision")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return meta, body[0], rows


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return str(path)


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestDefaults:
    def test_bundled_file_matches_builtin(self):
        bundled = json.loads(
            (REPO / "configs" / "default_scenario.json").read_text())
        assert bundled == default_scenario_dict()

    def test_default_scenario_shape(self, default_scenario):
        s = default_scenario
        assert s.seed == 20260819
        assert s.economics.M == 20
        assert s.procedure.kind == "clopper_pearson"
        assert s.procedure.n == 40
        assert isinstance(s.strategy, TruthfulStrategy)
        assert s.risk_strategy == ResearcherRisk(FullGuarantee(), None)
        assert s.policy.p0 == pytest.approx(0.4, abs=1e-9)
        assert s.contract is not None and s.contract.k == -12.0
        assert len(s.pool.members) == 2

    @pytest.mark.parametrize("block,contract,hedge_type", [
        ({"variant": "none"}, FullGuarantee(), type(None)),
        ({"variant": "transfer", "retained": 0.4, "premium": 0.7},
         FullGuarantee(), RiskTransfer),
        ({"variant": "exchange", "retained": 0.3, "assumed": 0.6,
          "partner_loss": {"values": [0.0, -3.0], "probs": [0.5, 0.5]}},
         FullGuarantee(), RiskExchange),
        ({"variant": "tail_only", "k": -5.0}, TailGuarantee(-5.0), type(None)),
        ({"variant": "proportional_only", "share": 0.35},
         ProportionalGuarantee(0.35), type(None)),
    ])
    def test_risk_strategy_variants_map_to_contract_and_hedge(
            self, block, contract, hedge_type):
        risk = scenario_from_dict({"risk_strategy": block}).risk_strategy
        assert risk.contract == contract
        assert type(risk.hedge) is hedge_type

    def test_policy_p0_override(self):
        s = scenario_from_dict(
            {"policy": {"u_bar": -12.0, "alpha_belief": 0.25, "p0": 0.33}})
        assert s.policy.p0 == 0.33


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'surprise'"):
            scenario_from_dict({"surprise": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(
                {"policy": {"u_bar": -1.0, "alpha_belief": 0.1, "p0": None,
                            "extra": 2}})
        assert exc.value.key_path == ("policy", "extra")

    def test_weight_range(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict({"belief": {"untruthful_weight": 1.5}})
        assert exc.value.key_path == ("belief", "untruthful_weight")

    def test_unknown_conditioning(self):
        with pytest.raises(ConfigError, match="unknown conditioning"):
            scenario_from_dict(
                {"belief": {"untruthful_weight": 0.5,
                            "conditioning": "sideways"}})

    def test_cost_table_length(self):
        with pytest.raises(ConfigError, match="2 entries for population 3"):
            scenario_from_dict({"economics": {
                "population": 3,
                "cost": {"form": "table", "values": [1.0, 2.0]},
                "benefit": {"form": "linear", "per_success": 2.0},
            }})

    def test_schedule_belief(self):
        s = scenario_from_dict({"policy": {
            "u_bar": -12.0, "p0": None,
            "alpha_belief": {"knots": [[-40.0, 0.02], [-1.0, 0.3]]},
        }})
        assert isinstance(s.policy_alpha, AlphaSchedule)
        assert s.policy_alpha.alpha_at(-40.0) == 0.02
        with pytest.raises(ConfigError):
            scenario_from_dict({"policy": {
                "u_bar": -12.0, "p0": None,
                "alpha_belief": {"knots": [[5.0, 0.02]]},
            }})

    def test_selective_strategy_needs_arm_size(self):
        with pytest.raises(ConfigError, match="missing required key"):
            scenario_from_dict({"strategy": {"variant": "selective"}})

    def test_pool_member_list(self):
        s = scenario_from_dict({"pool": {
            "members": [
                {"base": 0.0, "values": [0.0, -5.0], "probs": [0.8, 0.2]},
                {"base": 1.0, "values": [0.0, -9.0], "probs": [0.9, 0.1]},
            ],
            "utility": {"form": "cara", "risk_aversion": 0.1},
            "shares": "equal",
        }})
        assert len(s.pool.members) == 2
        assert s.pool.members[1].base == 1.0
        assert s.pool.shares.shape == (2, 2)

    def test_pool_share_matrix_shape(self):
        # the share matrix is checked when the scenario loads
        with pytest.raises(ConfigError, match="share matrix") as exc:
            scenario_from_dict({"pool": {
                "iid": {"count": 2, "values": [0.0, -10.0], "probs": [0.7, 0.3]},
                "utility": {"form": "cara", "risk_aversion": 0.1},
                "shares": [[1.0]],
            }})
        assert exc.value.key_path == ("pool", "shares")


SECOND_MEMBER = {"pool": {
    "members": [{"base": 0.0, "values": [0.0, -5.0], "probs": [0.8, 0.2]},
                {"base": "one", "values": [0.0, -9.0], "probs": [0.9, 0.1]}],
    "utility": {"form": "cara", "risk_aversion": 0.1}}}
POOL_IID = {"count": 2, "values": [0.0, -10.0], "probs": [0.7, 0.3]}
POOL_UTILITY = {"form": "cara", "risk_aversion": 0.1}


class TestConfigMistakesExit2:
    """Mistakes that used to exit 1, or pass silently, exit 2 at their key."""

    @pytest.mark.parametrize("command,edit,key_path,line_of", [
        ("fig1", {"grids": {"sup_refine_denom": -5}},
         "grids.sup_refine_denom", '"sup_refine_denom"'),
        ("pool", {"grids": {"sup_base_denom": 1}},
         "grids.sup_base_denom", '"sup_base_denom"'),
        ("example1", {"grids": {"alpha_levels": [0.05, "x"]}},
         "grids.alpha_levels[1]", '"x"'),
        ("example1", {"seed": -1}, "seed", '"seed"'),
        ("pool", {"pool": {"iid": POOL_IID, "utility": {
            "form": "cara", "risk_aversion": 0}}}, "pool.utility", '"utility"'),
        ("pool", {"pool": {"iid": {**POOL_IID, "probs": [0.7, 0.2]}, "utility": {
            "form": "cara", "risk_aversion": 0.1}}}, "pool.iid", '"iid"'),
        ("researcher", {"contract": {"variant": "tail", "k": -12.0},
                        "risk_strategy": {"variant": "tail_only", "k": "deep"}},
         "risk_strategy.k", '"k": "deep"'),
        ("pool", SECOND_MEMBER, "pool.members[1].base", '"base": "one"'),
        ("decide", {"policy": {"u_bar": 5.0, "alpha_belief": 0.25, "p0": None}},
         "policy.u_bar", '"u_bar"'),
        ("researcher", {"policy": {"u_bar": -12.0, "alpha_belief": 0.25,
                                   "p0": 1.5}}, "policy.p0", '"p0"'),
        ("decide", {"policy": {"u_bar": -12.0, "alpha_belief": 1.5, "p0": None}},
         "policy.alpha_belief", '"alpha_belief"'),
        ("pool", {"pool": {"iid": POOL_IID, "utility": {
            "form": "cara", "risk_aversion": 0.1},
            "shares": [[0.5, 0.4], [0.5, 0.5]]}}, "pool.shares", '"shares"'),
        ("researcher", {"strategy": {"variant": "fraudulent", "guess_spread": 0.5}},
         "strategy.guess_spread", '"guess_spread"'),
        ("decide", {"procedure": {"kind": "bayes", "alpha": 0.05, "n": 40}},
         "procedure.kind", '"bayes"'),
        ("decide", {"researcher_payoff": {"impl_value": {
            "kind": "quadratic", "amount": 2.0}}},
         "researcher_payoff.impl_value.kind", '"quadratic"'),
        ("pool", {"pool": {"iid": POOL_IID, "members": [POOL_IID],
                           "utility": POOL_UTILITY}}, "pool.members", '"members"'),
        ("pool", {"pool": {"iid": POOL_IID, "utility": POOL_UTILITY},
                  "utility": {"form": "quadratic", "risk_aversion": 0.05}},
         "utility.form", '"quadratic"'),
    ], ids=["refine_denom", "base_denom", "alpha_levels", "seed", "cara_zero",
            "pool_probs", "nested_k", "member_index", "u_bar_positive",
            "p0_above_one", "alpha_belief", "share_rows", "guess_spread",
            "procedure_kind", "impl_value_kind", "pool_both_forms",
            "utility_after_the_pools"])
    def test_exit_2_with_key_path_and_line(self, tmp_path, capsys, command,
                                           edit, key_path, line_of):
        cfg = write_config(tmp_path, edit)
        lines = Path(cfg).read_text().splitlines()
        line = next(i for i, ln in enumerate(lines, 1) if line_of in ln)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config error (line {line}): {key_path}: " in err

    def test_mc_block_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mc": {"n_draws": 1000000}})
        rc = main(["example1", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown key 'mc'" in capsys.readouterr().err

    @pytest.mark.parametrize("name,content,message", [
        ("absent.json", None, "No such file or directory"),
        ("", None, "Is a directory"),
        ("latin1.json", b'{"seed": "\xff"}',
         "is not UTF-8 text: invalid start byte at byte 10"),
    ], ids=["missing", "directory", "not_utf8"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, name, content,
                                     message):
        cfg = tmp_path / name
        if content is not None:
            cfg.write_bytes(content)
        cfg = str(cfg)
        rc = main(["example1", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and message in err
        with pytest.raises(ConfigError):
            load_scenario(cfg)


NAN = float("nan")


def linear_economics(**cost):
    return {"economics": {"population": 20,
                          "cost": {"form": "linear", "unit": 1.0, **cost},
                          "benefit": {"form": "linear", "per_success": 2.5}}}


SCHEDULE = {"knots": [[-10.0, 0.1], [0.0, 0.3]]}


def benefit_per_success(beta):
    return {"economics": {**linear_economics()["economics"],
                          "benefit": {"form": "linear", "per_success": beta}}}


# loads, but no rate covers the full-population cost; at 1.0 only p = 1
# does, which leaves no threshold inside (0,1)
NO_BREAK_EVEN = benefit_per_success(0.5)
BREAK_EVEN_AT_ONE = benefit_per_success(1.0)


class TestNumbersAndSizesExit2:
    """Non-finite numbers, which used to run to the end, and oversized
    counts, which used to fail allocating, exit 2 at load."""

    @pytest.mark.parametrize("command,edit,key_path,line_of", [
        ("decide", {"policy": {"u_bar": NAN, "alpha_belief": 0.25}},
         "policy.u_bar", '"u_bar"'),
        ("decide", linear_economics(unit=NAN), "economics.cost.unit", '"unit"'),
        ("pool", {"pool": {"iid": POOL_IID, "utility": {
            "form": "cara", "risk_aversion": NAN}}},
         "pool.utility.risk_aversion", '"risk_aversion"'),
        ("decide", {"economics": {**linear_economics()["economics"],
                                  "population": 10 ** 12}},
         "economics.population", '"population"'),
        ("pool", {"pool": {"iid": {**POOL_IID, "count": 10 ** 12},
                           "utility": POOL_UTILITY}},
         "pool.iid.count", '"count"'),
        ("pool", {"pool": {"members": 5, "utility": POOL_UTILITY}},
         "pool.members", '"members"'),
        ("researcher", {"strategy": {"variant": "selective",
                                     "n_per_arm": 10 ** 12, "alpha": 0.05}},
         "strategy.n_per_arm", '"n_per_arm"'),
    ], ids=["u_bar_nan", "unit_nan", "risk_aversion_nan", "population",
            "iid_count", "members_not_a_list", "n_per_arm"])
    def test_exit_2_at_key_path_within_a_second(self, tmp_path, capsys, command,
                                                edit, key_path, line_of):
        cfg = write_config(tmp_path, edit)
        lines = Path(cfg).read_text().splitlines()
        line = next(i for i, ln in enumerate(lines, 1) if line_of in ln)
        start = time.perf_counter()
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config error (line {line}): {key_path}: " in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("command", ["coverage", "fig1"])
    def test_trial_flag_above_the_limit_exits_2(self, tmp_path, capsys, command):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", str(10 ** 12), "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert "argument --n: must lie in 1..1000000" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_omitted_v_bar_means_no_floor(self):
        s = scenario_from_dict({"utility": {"form": "cara",
                                            "risk_aversion": 0.05}})
        assert s.utility.v_bar == float("-inf")


class TestLineAnchoring:
    def test_bad_value_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "belief": {\n    "untruthful_weight": 1.5\n  }\n}\n')
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert exc.value.line == 3

    def test_a_key_is_found_inside_the_value_its_path_leads_to(self):
        raw = (
            '{\n'
            '  "pool": {"utility": {"form": "cara"}},\n'
            '  "note": "\\"utility\\": {\\"form\\": 1}",\n'
            '  "utility": {\n'
            '    "form": "linear"\n'
            '  },\n'
            '  "grid": [[0.1, 0.2],\n'
            '           [0.3, {"x": [5,\n'
            '                        6]}]],\n'
            '  "twice": 1,\n'
            '  "twice": 2\n'
            '}\n')
        assert json.loads(raw)["note"] == '"utility": {"form": 1}'
        line = config._line_of_key
        assert line(raw, ("utility",)) == 4  # not the pool's, nor the string's
        assert line(raw, ("utility", "form")) == 5
        assert line(raw, ("grid", 1)) == 8
        assert line(raw, ("grid", 1, 1, "x", 1)) == 9
        assert line(raw, ("twice",)) == 11  # the value json.loads keeps
        assert line(raw, ("utility", "v_bar")) == 4  # its deepest part present
        assert line(raw, ("absent",)) is None and line(raw, ()) is None

    @pytest.mark.parametrize("text,line,message", [
        ('{\n  "strategy": {\n    "variant": "truthful",\n    "n[0]": 2\n  }\n}\n',
         4, "strategy.n[0]: unknown key 'n[0]'"),
        ('{\n  "seed": 7,\n  "x.y": 1\n}\n', 3, "x.y: unknown key 'x.y'"),
    ], ids=["brackets_in_a_key", "dot_in_a_top_level_key"])
    def test_a_key_holding_a_dot_or_brackets_reports_its_line(
            self, tmp_path, capsys, text, line, message):
        # the key path is a tuple of keys, so a key's "." or "[0]" is not
        # read as a step into a child
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert exc.value.line == line and str(exc.value) == message
        rc = main(["example1", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error (line {line}): {message}\n"

    def test_cli_reports_config_errors_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "belief": {\n    "untruthful_weight": 1.5\n  }\n}\n')
        rc = main(["example1", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error (line 3):" in err

    def test_cli_reports_json_syntax_errors(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json\n")
        rc = main(["example1", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error (line 1): invalid JSON" in err


class TestOneListOfNames:
    """The CLI and the scenario reader offer the names the records check."""

    def test_proc_choices_are_the_procedure_kinds(self):
        coverage = _build_parser("coverage").commands["coverage"]
        proc = next(action for action in coverage._actions
                    if action.option_strings == ["--proc"])
        assert list(proc.choices) == list(PROCEDURE_KINDS)
        for kind in proc.choices:
            assert LowerBoundProcedure(kind, 0.05, 10).kind == kind
        with pytest.raises(ValueError, match="unknown procedure kind"):
            LowerBoundProcedure("bayes", 0.05, 10)

    def test_utility_forms_are_the_records_forms(self):
        for forms in (config._UTILITIES, config._POOL_UTILITIES):
            assert list(forms) == list(UTILITY_FORMS)
        with pytest.raises(ValueError, match="unknown utility form"):
            UtilitySpec("quadratic")


class TestCliCommands:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "guaranteesim 0.1.0" in capsys.readouterr().out

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "guaranteesim", "--version"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "guaranteesim 0.1.0"

    @pytest.mark.parametrize("flags", [
        ["--n", "0"], ["--n", "-5"], ["--n", "abc"],
        ["--alpha-prime", "0"], ["--alpha-prime", "1"], ["--alpha-prime", "x"],
    ])
    def test_coverage_rejects_bad_flags(self, tmp_path, capsys, flags):
        # out-of-range values exit 2 rather than fall back to the scenario
        with pytest.raises(SystemExit) as exc:
            main(["coverage", *flags, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flags[0]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["example1", "--alpha-prime", "0"], ["example1", "--pi", "-0.1"],
        ["example2", "--n", "0"], ["example2", "--pi", "1.5"],
        ["example2", "--p-c", "1"], ["fig1", "--pi", "2"],
        ["fig1", "--n", "-3"], ["fig1", "--p-c", "0.5", "0"],
        ["decide", "--published-bound", "7"],
        ["example2", "--n", "1", "--pi", "0.5"], ["fig1", "--n", "1"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_examples_and_fig1_reject_bad_flags(self, tmp_path, capsys, argv):
        # out-of-range values exit 2 at parse time instead of 1 at run time
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("denom,p_c,floor", [
        (512, "0.001953125", "1/512 = 0.001953125"),
        (128, "0.005", "1/128 = 0.0078125")])
    def test_example2_p_c_at_or_below_the_grid_exits_2(self, tmp_path, capsys,
                                                       denom, p_c, floor):
        # the surface's rates are the grid's multiples of 1/sup_base_denom
        # below p_C; with none below it, the surface would have no rows
        cfg = write_config(tmp_path, {"grids": {"sup_base_denom": denom}})
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["example2", "--p-c", p_c, "--config", cfg, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --p-c: must exceed {floor}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["example2", "--pi", "0.5", "--n", "1"],
        ["fig1", "--pi", "0.5", "--n", "1"],
        ["example2", "--p-c", "0.001"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_checks_after_parsing_fail_as_the_subcommands_parser(
            self, tmp_path, capsys, argv):
        # the checks that need the scenario print the subcommand's usage
        # and prog, as argparse's own range error on the same subcommand
        def error(args):
            with pytest.raises(SystemExit) as exc:
                main([*args, "--out", str(tmp_path)])
            assert exc.value.code == 2
            return capsys.readouterr().err.partition(
                f"guaranteesim {argv[0]}: error: ")

        usage, sep, message = error(argv)
        assert sep and usage.startswith(f"usage: guaranteesim {argv[0]} ")
        assert usage == error([argv[0], "--n", "0"])[0]
        assert message.startswith(f"argument {argv[-2]}: must ")
        assert not list(tmp_path.iterdir())

    def test_one_trial_runs_without_the_selective_arm(self, tmp_path, capsys):
        # --pi 0 leaves only the truthful component, which needs no gate
        for command in ("example2", "fig1"):
            rc = main([command, "--n", "1", "--pi", "0",
                       "--out", str(tmp_path / command)])
            assert rc == 0, capsys.readouterr().err
        capsys.readouterr()

    def test_fig1_runs_beyond_two_thousand_per_arm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grids": {"alpha_levels": [0.05]}})
        assert main(["fig1", "--n", "2001", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, _, rows = read_csv(tmp_path / "fig1.csv")
        assert rows[0]["n"] == "2001"
        assert 0.05 < float(rows[0]["alpha_actual"]) < 1.0

    def test_fig1_at_a_threshold_below_the_old_scan(self, tmp_path, capsys):
        # p_C = 0.001 lies below 1/512, where an uncertified supremum used to
        # scan an empty grid and exit 1; the bayes list certifies, and the
        # retired sup_refine_denom is read by nothing
        cfg = write_config(tmp_path, {
            "belief": {"untruthful_weight": 0.5,
                       "conditioning": "bayes_reweighted"},
            "grids": {"alpha_levels": [0.05], "sup_refine_denom": 512}})
        assert main(["fig1", "--n", "300", "--p-c", "0.001", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        assert "nominal 0.05 -> actual 0.036954" in capsys.readouterr().out

    def test_example1(self, tmp_path, capsys):
        rc = main(["example1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alpha_actual = 0.13375" in out
        meta, header, rows = read_csv(tmp_path / "example1_scaleback.csv")
        assert header == "alpha,max_scale,cost_ratio"
        assert meta[0] == "# guaranteesim 0.1.0"
        assert meta[1] == "# seed=20260819"
        assert any(ln.startswith("# grids:") for ln in meta)
        assert not any(ln.startswith("# fig1_variant=") for ln in meta)
        at_value = [r for r in rows if r["alpha"] == "0.13375"]
        assert at_value and at_value[0]["max_scale"] == "373"

    def test_coverage_wald_drops_below_nominal(self, tmp_path, capsys):
        rc = main(["coverage", "--proc", "wald", "--n", "300",
                   "--alpha-prime", "0.05", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "min coverage" in out
        meta, header, rows = read_csv(tmp_path / "coverage_wald_n300_a0.05.csv")
        assert header == "p,coverage,violation"
        cov = np.array([float(r["coverage"]) for r in rows])
        assert len(rows) == 1023
        assert cov.min() < 0.95

    def test_out_flag_beats_environment(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("GUARANTEESIM_OUT", str(env_dir))
        assert main(["example1", "--out", str(flag_dir)]) == 0
        assert (flag_dir / "example1_scaleback.csv").exists()
        assert not (env_dir / "example1_scaleback.csv").exists()
        assert main(["example1"]) == 0
        assert (env_dir / "example1_scaleback.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("where", ["flag", "environment"])
    def test_out_naming_a_file_exits_2_before_the_command(
            self, tmp_path, capsys, monkeypatch, where):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        argv = ["example1"]
        if where == "flag":
            argv += ["--out", str(taken)]
        else:
            monkeypatch.setenv("GUARANTEESIM_OUT", str(taken))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"output error: {taken}: File exists\n"
        assert taken.read_text() == "keep\n"

    def test_a_target_that_is_a_directory_exits_2_writing_nothing(
            self, tmp_path, capsys):
        # contract writes contract_payoffs.csv, then minimal_insurance.json
        blocked = tmp_path / "minimal_insurance.json"
        blocked.mkdir()
        assert main(["contract", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"output error: {blocked}: Is a directory\n"
        assert "wrote" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == [blocked.name]

    def test_a_write_that_fails_removes_the_files_written_before_it(
            self, tmp_path, capsys, monkeypatch):
        real = Path.write_text
        calls = []

        def second_fails(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", second_fails)
        assert main(["contract", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"output error: {tmp_path / 'minimal_insurance.json'}"
                                f": No space left on device\n")
        assert "wrote" not in captured.out
        assert [p.name for p in calls] == ["contract_payoffs.csv",
                                           "minimal_insurance.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_a_failing_write_keeps_a_target_that_existed(
            self, tmp_path, capsys, monkeypatch):
        # minimal_insurance.json is there from an earlier run; its own
        # write fails, so only the file this call created is removed
        kept = tmp_path / "minimal_insurance.json"
        kept.write_text("keep\n")
        real = Path.write_text

        def fails_on_kept(self, *args, **kwargs):
            if self == kept:
                raise OSError(28, "No space left on device")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", fails_on_kept)
        assert main(["contract", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"output error: {kept}: No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [kept.name]
        assert kept.read_text() == "keep\n"

    def test_decide_writes_decision_json(self, tmp_path, capsys):
        rc = main(["decide", "--published-bound", "0.5",
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "implement at scale 20 (rule tail" in out
        payload = json.loads((tmp_path / "decision.json").read_text())
        assert payload["meta"]["tool"] == "guaranteesim 0.1.0"
        assert "fig1_variant" not in payload["meta"]
        d = payload["decision"]
        assert d["implement"] is True and d["scale"] == 20
        assert d["rule"] == "tail" and d["bound"] == -12.0
        assert d["published_bound"] == 0.5
        assert d["p0"] == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.parametrize("edit,problem", [
        (NO_BREAK_EVEN, "full-population benefit cannot cover cost even at p = 1"),
        (BREAK_EVEN_AT_ONE, "break-even rate 1.0 leaves no threshold strictly "
                            "inside (0,1)"),
    ], ids=["none", "at_one"])
    @pytest.mark.parametrize("command", [
        ["decide", "--published-bound", "0.6"], ["contract"], ["researcher"]],
        ids=["decide", "contract", "researcher"])
    def test_no_break_even_exits_2(self, tmp_path, capsys, command, edit,
                                   problem):
        # p0 null derives the break-even rate; economics without one inside
        # (0,1) are a config mistake for the commands that read p0, also
        # under --debug
        cfg = write_config(tmp_path, edit)
        out = tmp_path / "out"
        for debug in ([], ["--debug"]):
            rc = main(command + ["--config", cfg, "--out", str(out)] + debug)
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err == f"config error: economics: {problem}\n"
            assert not list(out.iterdir())

    def test_fraud_without_break_even_fails_only_where_p0_is_read(
            self, tmp_path, capsys):
        # the guesses are checked around the p0 of Scenario.policy; with no
        # break-even rate inside (0,1) there is none, and the commands that
        # read p0 report the economics, not the guesses
        fraud = {"strategy": {"variant": "fraudulent", "guess_spread": 0.05}}
        cfg = write_config(tmp_path, {**BREAK_EVEN_AT_ONE, **fraud})
        out = tmp_path / "out"
        assert main(["coverage", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rc = main(["decide", "--published-bound", "0.6", "--config", cfg,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: economics: break-even rate 1.0 leaves no threshold "
            "strictly inside (0,1)\n")
        # an explicit p0 whose guesses leave [0,1] still fails at load
        policy = {"policy": {"u_bar": -12.0, "alpha_belief": 0.25, "p0": 0.98}}
        cfg = write_config(tmp_path, {**BREAK_EVEN_AT_ONE, **fraud, **policy})
        assert main(["coverage", "--config", cfg, "--out", str(out)]) == 2
        assert "strategy.guess_spread: guesses 0.98+-0.05 leave [0,1]" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("base,k,c_m", [
        ("default", -25.0, 20.0), ("large", -100.0, 48.0)])
    @pytest.mark.parametrize("command", ["decide", "researcher"])
    def test_tail_contract_that_never_pays_exits_2_at_its_level(
            self, tmp_path, capsys, base, k, c_m, command):
        # the tail rule's scale is every recipient, m = 20, on the default
        # scenario and m = 48 on the large one; a level at or below -c_m
        # there never binds, a mistake in the file, located at contract.k
        data = (default_scenario_dict() if base == "default" else json.loads(
            (REPO / "perfbench" / "large_scenario.json").read_text()))
        data["contract"] = {"variant": "tail", "k": k}
        cfg = write_config(tmp_path, data)
        line = next(i for i, text in enumerate(
            Path(cfg).read_text().splitlines(), 1) if '"k"' in text)
        out = tmp_path / "out"
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error (line {line}): contract.k: tail level {k} at or "
            f"below -c_m = {-c_m}; the guarantee never pays\n")
        assert not out.exists()  # refused as the scenario loads

    def test_default_tail_contract_that_never_pays_exits_2_where_it_decides(
            self, tmp_path, capsys):
        # without a contract block the default tail(-12) applies; at four
        # recipients it never pays, which the file has no line for, so only
        # the commands that decide under it fail, at contract.k
        econ = {"population": 4, "cost": {"form": "linear", "unit": 1.0},
                "benefit": {"form": "linear", "per_success": 2.5}}
        cfg = write_config(tmp_path, {"economics": econ})
        out = str(tmp_path / "out")
        assert main(["example1", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        for command in (["decide", "--published-bound", "0.6"], ["researcher"]):
            assert main(command + ["--config", cfg, "--out", out]) == 2
            assert capsys.readouterr().err == (
                "config error: contract.k: tail level -12.0 at or below -c_m "
                "= -4.0; the guarantee never pays\n")

    @pytest.mark.parametrize("command", [
        "coverage", "example1", "example2", "fig1", "pool"])
    def test_commands_without_p0_run_without_break_even(self, tmp_path, capsys,
                                                        command):
        cfg = write_config(tmp_path, NO_BREAK_EVEN)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_debug_lets_the_runtime_error_raise(self, tmp_path, capsys,
                                                monkeypatch):
        # an error raised inside decide's computation, not a config mistake:
        # with --debug it reaches the caller with its traceback. The file
        # sets no contract block, so the load check decides nothing and
        # the failure comes from the command.
        cfg = write_config(tmp_path, {})
        monkeypatch.setattr(config, "decide_with_contract", fail_to_decide)
        with pytest.raises(ZeroDivisionError, match="no decision") as info:
            main(["decide", "--published-bound", "0.6", "--config", cfg,
                  "--out", str(tmp_path), "--debug"])
        assert info.traceback[-1].name == "fail_to_decide"
        assert capsys.readouterr().err == ""

    def test_contract_files(self, tmp_path, capsys):
        rc = main(["contract", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        meta, header, rows = read_csv(tmp_path / "contract_payoffs.csv")
        assert header == "x,y,implementer_payoff,researcher_payment"
        assert len(rows) == 21
        for r in rows:
            lhs = float(r["y"]) + float(r["researcher_payment"])
            assert lhs == pytest.approx(float(r["implementer_payoff"]),
                                        abs=1e-9)
            assert float(r["implementer_payoff"]) >= -12.0 - 1e-9
        payload = json.loads((tmp_path / "minimal_insurance.json").read_text())
        assert payload["tail_k"] == -12.0
        assert payload["proportional_share"] == pytest.approx(0.6)
        assert payload["tail_decision"]["implement"] is True
        assert payload["proportional_decision"]["implement"] is True

    def test_contract_with_the_floor_met_uninsured(self, tmp_path, capsys):
        # u_bar below -c_M = -20: no insurance needed, both forms decide
        # as without a guarantee
        cfg = write_config(tmp_path, {"policy": {
            "u_bar": -25.0, "alpha_belief": 0.25, "p0": None}})
        rc = main(["contract", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert "k=-25, s=0" in capsys.readouterr().out
        payload = json.loads((tmp_path / "minimal_insurance.json").read_text())
        assert payload["tail_k"] == -25.0
        assert payload["proportional_share"] == 0.0
        for key in ("tail_decision", "proportional_decision"):
            assert payload[key]["rule"] == "no_guarantee"
            assert payload[key]["implement"] and payload[key]["scale"] == 20

    @pytest.mark.parametrize("data, expected", [
        ({"contract": {"variant": "tail", "k": -15.0}},
         {"rule": "tail_scaled", "scale": 20, "bound": -15.0, "alpha_used": 0.25}),
        ({"policy": {"u_bar": -12.0, "alpha_belief": SCHEDULE, "p0": None},
          "contract": None},
         {"rule": "no_guarantee", "scale": 12, "bound": -12.0, "alpha_used": 1.0}),
    ], ids=["scalar_belief_deep_tail", "schedule_no_guarantee"])
    def test_every_belief_reaches_every_rule(self, tmp_path, capsys, data, expected):
        # a scalar belief is the rate at any tail level; a schedule read by
        # a rule with no tail level gives the distribution-free 1
        cfg = write_config(tmp_path, data)
        assert main(["decide", "--config", cfg, "--out", str(tmp_path)]) == 0
        d = json.loads((tmp_path / "decision.json").read_text())["decision"]
        assert d["implement"] and {key: d[key] for key in expected} == expected
        assert main(["researcher", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_contract_with_a_schedule_and_the_floor_met_uninsured(self, tmp_path,
                                                                  capsys):
        cfg = write_config(tmp_path, {"policy": {
            "u_bar": -25.0, "alpha_belief": SCHEDULE, "p0": None}})
        assert main(["contract", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "minimal_insurance.json").read_text())
        for key in ("tail_decision", "proportional_decision"):
            assert payload[key] == {"implement": True, "scale": 20, "bound": -20.0,
                                    "rule": "no_guarantee", "alpha_used": 1.0}
        capsys.readouterr()

    def test_failing_command_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # decide fails at run time, after the scenario has loaded: the file
        # sets no contract block, so the load check decides nothing
        cfg = write_config(tmp_path, {})
        monkeypatch.setattr(config, "decide_with_contract", fail_to_decide)
        out = tmp_path / "out"
        rc = main(["decide", "--published-bound", "0.6", "--config", cfg,
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "wrote" not in captured.out
        assert not (out / "decision.json").exists()
        assert not list(out.iterdir())

    def test_contract_requires_contract_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"contract": None})
        rc = main(["contract", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "needs a contract block" in err

    def test_researcher_files(self, tmp_path, capsys):
        rc = main(["researcher", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "participation" in out
        _, header, rows = read_csv(tmp_path / "researcher_participation.csv")
        assert header == "p,lhs" and len(rows) == 19
        _, header, rows = read_csv(tmp_path / "researcher_conditions.csv")
        assert header == "p,lhs,bound_type,bound,actual"
        assert {r["bound_type"] for r in rows} <= {
            "none", "upper", "lower", "vacuous", "infeasible"}
        summary = json.loads((tmp_path / "researcher_summary.json").read_text())
        assert summary["scale"] == 20
        assert summary["v_bar"] == -6.0
        assert isinstance(summary["participates"], bool)

    @pytest.mark.parametrize("strategy", [
        {"variant": "selective", "n_per_arm": 60, "alpha": 0.05},
        {"variant": "fraudulent", "guess_spread": 0.05},
    ], ids=["selective", "fraudulent"])
    def test_researcher_actual_is_the_strategys_exceedance(self, tmp_path,
                                                           capsys, strategy):
        # every strategy is read at the policy threshold through one call
        cfg = write_config(tmp_path, {"strategy": strategy})
        assert main(["researcher", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        scenario = load_scenario(cfg)
        p0 = scenario.policy.p0
        _, _, rows = read_csv(tmp_path / "researcher_conditions.csv")
        assert len(rows) == 19
        for row in rows:
            assert float(row["actual"]) == scenario.strategy.exceedance_prob(
                float(row["p"]), p0)

    def test_researcher_builds_each_world_once(self, tmp_path, capsys,
                                               monkeypatch):
        # both reports come from one pass over the 19-point grid
        from guaranteesim import researcher
        calls = []
        world = researcher.researcher_world
        monkeypatch.setattr(researcher, "researcher_world",
                            lambda *a: calls.append(a[-1]) or world(*a))
        assert main(["researcher", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(calls) == 19 and len(set(calls)) == 19

    def test_pool_reports_gains(self, tmp_path, capsys):
        rc = main(["pool", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pool of 2" in out
        payload = json.loads((tmp_path / "pool.json").read_text())
        assert len(payload["members"]) == 2
        for row in payload["members"]:
            assert row["pooled_eu"] >= row["standalone_eu"] - 1e-12
            assert row["pooled_ce"] >= row["standalone_ce"] - 1e-12

    def test_pool_standalone_matches_identity_shares(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pool": {
            "members": [
                {"base": 0.0, "values": [0.0, -5.0], "probs": [0.8, 0.2]},
                {"base": 1.5, "values": [0.0, -2.0, -9.0],
                 "probs": [0.6, 0.3, 0.1]},
                {"base": -0.5, "values": [0.0, -12.0], "probs": [0.9, 0.1]},
            ],
            "utility": {"form": "cara", "risk_aversion": 0.1},
        }})
        assert main(["pool", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        members = load_scenario(cfg).pool.members
        joint = pool_expected_utility(members, np.eye(len(members)))
        rows = json.loads((tmp_path / "pool.json").read_text())["members"]
        for row, eu in zip(rows, joint):
            assert row["standalone_eu"] == pytest.approx(eu, rel=1e-12, abs=0.0)

    def test_coverage_scan_small_run(self):
        proc = run_script("coverage_scan.py", "--sizes", "20", "--denom", "64")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].split()[:2] == ["clopper_pearson", "20"]

    def test_coverage_scan_rejects_a_bad_flag(self):
        proc = run_script("coverage_scan.py", "--denom", "1")
        assert proc.returncode == 2
        assert "argument --denom: must lie in 2..1000000" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_acceptance_runs(self, tmp_path):
        path = REPO / "scripts" / "acceptance_runs.py"
        spec = importlib.util.spec_from_file_location("acceptance_runs", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        runs = script.runs("scenarios")
        assert len({ident for ident, _ in runs}) == len(runs) == 27
        sub = next(action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert {argv[0] for _, argv in runs} == set(sub.choices)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        assert script.run("example1", ["example1"], tmp_path, env) == 0
        where = tmp_path / "example1"
        assert "wrote <OUT>/example1_scaleback.csv" in (
            where / "stdout.txt").read_text()
        assert (where / "stderr.txt").read_text() == ""
        assert (where / "exit_code.txt").read_text() == "0\n"
        assert (where / "example1_scaleback.csv").exists()

    def test_acceptance_compare(self, tmp_path):
        def tree(name, files):
            root = tmp_path / name
            for rel, text in files.items():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(text)
            return str(root)

        same = {"run/exit_code.txt": "0\n", "run/out.json": '{"x": [1, 2]}'}
        base = tree("a", {**same, "run/t.csv": "p,lhs\n0.1,-3522935815.486934\n",
                          "run/stdout.txt": "min 0.25 at scale 2000\n"})
        close = tree("b", {**same, "run/t.csv": "p,lhs\n0.1,-3522935815.486921\n",
                           "run/stdout.txt": "min 0.25000000000001 at scale 2000\n"})
        proc = run_script("acceptance_runs.py", "--compare", base, close)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # relative above magnitude 1, absolute below it
        assert proc.stdout.splitlines() == [
            "run/stdout.txt: differs, largest numeric difference 9.99e-15",
            "run/t.csv: differs, largest numeric difference 3.79e-15",
            "largest difference 9.99e-15, tolerance 1e-09"]
        for i, files in enumerate([
                {**same, "run/t.csv": "p,lhs\n0.1,-3522935815.5\n"},
                {**same, "run/t.csv": "p,rhs\n0.1,-3522935815.486934\n"},
                same]):
            far = tree(f"far{i}", files)
            proc = run_script("acceptance_runs.py", "--compare", base, far)
            assert proc.returncode == 1, proc.stdout

    @pytest.mark.parametrize("command,csv", [
        ("fig1", "fig1.csv"), ("example2", "example2_surface.csv")])
    def test_pi_defaults_to_the_scenario_weight(self, tmp_path, capsys,
                                                command, csv):
        cfg = write_config(tmp_path, {
            "belief": {"untruthful_weight": 0.25},
            "grids": {"sup_base_denom": 128, "sup_refine_denom": 1024,
                      "alpha_levels": [0.05]}})
        for flags, pi in (([], "0.25"), (["--pi", "0.75"], "0.75")):
            out = tmp_path / pi
            assert main([command, "--n", "40", "--config", cfg, *flags,
                         "--out", str(out)]) == 0
            _, _, rows = read_csv(out / csv)
            assert rows and {row["pi"] for row in rows} == {pi}
        capsys.readouterr()

    def test_fig1_outputs_are_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grids": {
            "sup_base_denom": 128, "sup_refine_denom": 1024,
            "alpha_levels": [0.025, 0.05],
        }})
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            assert main(["fig1", "--config", cfg, "--out", str(d)]) == 0
        capsys.readouterr()
        csv1 = (dirs[0] / "fig1.csv").read_bytes()
        csv2 = (dirs[1] / "fig1.csv").read_bytes()
        assert csv1 == csv2
        side1 = (dirs[0] / "fig1_calibration.json").read_bytes()
        assert side1 == (dirs[1] / "fig1_calibration.json").read_bytes()
        meta, header, rows = read_csv(dirs[0] / "fig1.csv")
        assert "# fig1_variant=fixed_given_published" in meta
        assert header == "alpha_nominal,alpha_actual,p_C,variant,n,pi"
        assert len(rows) == 2
        payload = json.loads(side1)
        assert set(payload["calibration"]["candidates"]) == {
            "fixed_given_published", "joint_unconditional", "bayes_reweighted"}
        nominal = [float(r["alpha_nominal"]) for r in rows]
        actual = [float(r["alpha_actual"]) for r in rows]
        assert nominal == [0.025, 0.05]
        assert actual[0] < actual[1]


def _subparsers(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


# Every subcommand with an argv that sets each of its own flags.
EVERY_FLAG = {
    "coverage": ["--proc", "wald", "--n", "40", "--alpha-prime", "0.1"],
    "example1": ["--alpha-prime", "0.02", "--pi", "0.5"],
    "example2": ["--p-c", "0.3", "--n", "40", "--pi", "0.5"],
    "fig1": ["--p-c", "0.3", "0.7", "--n", "40", "--pi", "0.5"],
    "decide": ["--published-bound", "0.7"],
    "contract": [],
    "researcher": [],
    "pool": [],
    "reproduce": [],
}


class TestOneSubcommandParser:
    """A call naming a subcommand builds that subcommand's parser alone;
    it parses, prints its help and fails with the full parser's bytes."""

    def test_every_subcommand_is_listed(self):
        assert list(_subparsers(_build_parser()).choices) == list(EVERY_FLAG)

    @pytest.mark.parametrize("name", EVERY_FLAG)
    def test_namespace_is_the_full_parsers(self, name):
        common = ["--config", "scenario.json", "--out", "where", "--debug"]
        for argv in ([name], [name, *common, *EVERY_FLAG[name]]):
            one = vars(_build_parser(name).parse_args(argv))
            assert one == vars(_build_parser().parse_args(argv))
            assert one["handler"].__name__ == f"cmd_{name}"

    @pytest.mark.parametrize("name", EVERY_FLAG)
    def test_usage_and_help_are_the_full_parsers(self, name):
        one, full = _build_parser(name), _build_parser()
        assert list(_subparsers(one).choices) == [name]
        assert one.format_usage() == full.format_usage()
        assert (_subparsers(one).choices[name].format_help()
                == _subparsers(full).choices[name].format_help())

    @pytest.mark.parametrize("name", EVERY_FLAG)
    def test_an_unknown_flag_fails_with_the_full_parsers_bytes(self, name,
                                                               capsys):
        argv = [name, "--bogus"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            _build_parser().parse_args(argv)
        assert err == capsys.readouterr().err
        assert err.endswith("error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv,message", [
        ([], "error: the following arguments are required: command\n"),
        (["nosuch"], "error: argument command: invalid choice: 'nosuch' "
                     "(choose from 'coverage', 'example1', 'example2', "
                     "'fig1', 'decide', 'contract', 'researcher', 'pool', "
                     "'reproduce')\n"),
    ])
    def test_errors_without_a_subcommand_name_the_action_command(
            self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(message)

    @pytest.mark.parametrize("argv,built", [
        (["decide", "--bogus"], 1), (["coverage", "--help"], 1),
        ([], 9), (["--help"], 9), (["--version"], 9), (["nosuch"], 9),
    ])
    def test_only_a_named_subcommand_is_built_alone(self, monkeypatch, capsys,
                                                    argv, built):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert len(calls) == built


def counted(monkeypatch, owner, name):
    """The list that owner.name, wrapped, appends to on every call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestOneResolvedScenario:
    """p0, the conditioning variant and the implementer's decision are
    resolved on the scenario, once, and every command reads them there."""

    def test_a_missing_break_even_rate_fails_on_every_read(self):
        s = scenario_from_dict(NO_BREAK_EVEN)
        for _ in range(2):
            with pytest.raises(ConfigError) as exc:
                s.policy
            assert exc.value.key_path == ("economics",)

    @pytest.mark.parametrize("command", ["decide", "contract", "researcher"])
    def test_break_even_runs_once_per_command(self, tmp_path, capsys,
                                              monkeypatch, command):
        # the bundled scenario's tail contract is checked at p0 as it
        # loads; the command reads the same p0
        calls = counted(monkeypatch, PolicyEconomics, "break_even_success_rate")
        assert main([command, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("command,conditioning,expected", [
        ("fig1", "calibrated", 1),
        ("fig1", "joint_unconditional", 1),  # for its calibration sidecar
        ("example2", "calibrated", 1),
        ("example2", "joint_unconditional", 0),
    ] + [(command, "calibrated", 0) for command in (
        "coverage", "example1", "decide", "contract", "researcher", "pool")])
    def test_calibration_runs_at_most_once_per_command(
            self, tmp_path, capsys, monkeypatch, command, conditioning,
            expected):
        calls = counted(monkeypatch, config, "calibrate_conditioning")
        cfg = write_config(tmp_path, {
            "belief": {"untruthful_weight": 0.5, "conditioning": conditioning},
            "grids": {"sup_base_denom": 128, "alpha_levels": [0.05]}})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(calls) == expected


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["coverage", "researcher"])
def test_closed_stdout_exits_141_quietly(tmp_path, command, unbuffered):
    # a reader that has gone, as `| head -1` leaves: the command exits as
    # SIGPIPE would, with nothing on stderr, buffered output or not
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "guaranteesim", command,
             "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141
