"""Command-line entry point.

One JSON scenario document drives every subcommand; flags override the
handful of values that vary per run. All file outputs are plain CSV or
JSON, written deterministically: identical config and seed give
byte-identical files. Output directory resolution: --out flag, then the
GUARANTEESIM_OUT environment variable, then ./out.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built;
# importing it here keeps that at start-up, outside the command's time
import locale  # noqa: F401
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .binomial import (
    PROCEDURE_KINDS,
    LowerBoundProcedure,
    coverage_report,
    probability_grid,
)
from .config import (
    OPEN_UNIT,
    TRIALS,
    UNIT,
    ConfigError,
    Scenario,
    load_scenario,
)
from .contracts import (
    implementer_payoff,
    minimal_insurance,
    researcher_payment,
    ProportionalGuarantee,
    TailGuarantee,
)
from .decisions import decide_no_guarantee, decide_with_contract
from .economics import BenefitFunction, CostSchedule, PolicyEconomics
from .record import Record, asdict
from .reproduce import evaluate_anchors
from .researcher import pool_expected_utility, publication_rate_conditions
from .strategies import (
    MixtureBelief,
    actual_fp_curve,
    fraud_mixture_fp,
    mixture_fp_at,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Shared plumbing.

class Outputs(Record):
    """What a subcommand writes: file name -> JSON body (a dict) or CSV
    (header, rows), the conditioning variant the files were computed with,
    if any, and the exit code."""
    files: dict
    variant: Optional[str] = None
    code: int = 0


def _render(body, meta: dict) -> str:
    """A JSON body with meta as its first key, or a CSV with provenance
    comment lines above its header."""
    if isinstance(body, dict):
        return json.dumps({"meta": meta, **body}, indent=2) + "\n"
    header, rows = body
    grids = " ".join(f"{key}={value}" for key, value in meta["grids"].items())
    lines = [f"# {meta['tool']}", f"# seed={meta['seed']}", f"# grids: {grids}"]
    if "fig1_variant" in meta:
        lines.append(f"# fig1_variant={meta['fig1_variant']}")
    lines += [header] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    # repr is the shortest string that round-trips the exact double
    return repr(float(x))


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_coverage(scenario: Scenario, args) -> Outputs:
    kind = args.proc or scenario.procedure.kind
    n = scenario.procedure.n if args.n is None else args.n
    alpha = (scenario.procedure.nominal_alpha if args.alpha_prime is None
             else args.alpha_prime)
    proc = LowerBoundProcedure(kind, alpha, n)
    grid = probability_grid(scenario.grids.coverage_denom)
    report = coverage_report(proc, grid)
    # Python floats, not numpy scalars, reach _fmt: the same doubles, faster
    rows = ([_fmt(p), _fmt(c), _fmt(v)] for p, c, v in
            zip(report.p_grid.tolist(), report.coverage.tolist(),
                report.violation.tolist()))
    print(f"min coverage {report.min_coverage:.6f} at p={report.worst_p:.6f} "
          f"(nominal {1.0 - alpha:.6f})")
    return Outputs({f"coverage_{kind}_n{n}_a{alpha:g}.csv":
                    ("p,coverage,violation", rows)})


def cmd_example1(scenario: Scenario, args) -> Outputs:
    value = fraud_mixture_fp(args.alpha_prime, args.pi)
    print(f"alpha_actual = {value:.5f}")
    econ = PolicyEconomics(CostSchedule.linear(1.0, 1000),
                           BenefitFunction.linear(10.0))
    u_bar = -0.05 * econ.cost(1000)
    m_star = econ.max_scale_under_bound(value, u_bar)
    print(f"max scale at alpha_actual: {m_star} "
          f"(cost ratio {econ.cost(m_star) / econ.cost(1000):.4f})"
          if m_star else "no implementation at alpha_actual")
    rows = []
    for alpha in sorted(set(scenario.grids.alpha_levels) | {value}):
        m = econ.max_scale_under_bound(alpha, u_bar)
        ratio = econ.cost(m) / econ.cost(1000) if m else 0.0
        rows.append([_fmt(alpha), str(m), _fmt(ratio)])
    return Outputs({"example1_scaleback.csv":
                    ("alpha,max_scale,cost_ratio", rows)})


def cmd_example2(scenario: Scenario, args) -> Outputs:
    variant = scenario.variant
    belief = MixtureBelief(args.pi, variant)
    grids = scenario.grids
    p_grid = probability_grid(grids.sup_base_denom, hi=args.p_c)
    rows = []
    for alpha in grids.alpha_levels:
        fps = mixture_fp_at(p_grid, args.p_c, args.n, alpha, belief)
        for p, fp in zip(p_grid.tolist(), fps.tolist()):
            rows.append([_fmt(alpha), _fmt(p), _fmt(fp), variant,
                         _fmt(args.p_c), str(args.n), _fmt(args.pi)])
    return Outputs({"example2_surface.csv":
                    ("alpha_nominal,p,fp,variant,p_C,n,pi", rows)}, variant)


def cmd_fig1(scenario: Scenario, args) -> Outputs:
    variant = scenario.variant
    rows = []
    for p_c in args.p_c:
        for row in actual_fp_curve(p_c, variant, scenario.grids.alpha_levels,
                                   args.n, args.pi):
            rows.append([_fmt(row.alpha_nominal), _fmt(row.alpha_actual),
                         _fmt(row.p_C), row.variant, str(row.n),
                         _fmt(row.pi)])
            if abs(row.alpha_nominal - 0.05) < 1e-12:
                print(f"p_C={p_c:g}: nominal 0.05 -> actual "
                      f"{row.alpha_actual:.6f}")
    return Outputs({
        "fig1.csv": ("alpha_nominal,alpha_actual,p_C,variant,n,pi", rows),
        "fig1_calibration.json": {"calibration": asdict(scenario.calibration)},
    }, variant)


def cmd_decide(scenario: Scenario, args) -> Outputs:
    crossing = scenario.economics.single_crossing_report(
        np.linspace(0.05, 0.95, 10))
    if not crossing.holds:
        print(f"warning: net-value shape violated at p={crossing.violating_p:g}, "
              f"m={crossing.violating_m}", file=sys.stderr)
    decision = scenario.decide(args.published_bound)
    record = asdict(decision)
    record["published_bound"] = args.published_bound
    record["p0"] = scenario.policy.p0
    verb = f"implement at scale {decision.scale}" if decision.implement \
        else "do not implement"
    print(f"{verb} (rule {decision.rule}, bound {decision.bound:g})")
    return Outputs({"decision.json": {"decision": record}})


def cmd_contract(scenario: Scenario, args) -> Outputs:
    if scenario.contract is None:
        raise ConfigError("this subcommand needs a contract block", ("contract",))
    econ = scenario.economics
    contract = scenario.contract
    m = econ.M
    xs = np.arange(m + 1)
    ys = econ.net_outcome(m, xs)
    payoffs = implementer_payoff(ys, contract)
    payments = researcher_payment(ys, contract)
    rows = ([str(x), _fmt(y), _fmt(po), _fmt(pay)] for x, y, po, pay in
            zip(xs.tolist(), ys.tolist(), payoffs.tolist(), payments.tolist()))

    mi = minimal_insurance(scenario.policy_u_bar, econ.cost(m))
    policy = scenario.policy
    if mi.s == 0.0:  # no insurance needed: both decide without a guarantee
        d_tail = d_prop = decide_no_guarantee(1.0, policy, econ)  # 1.0 > any p0
    else:
        d_tail = decide_with_contract(1.0, TailGuarantee(mi.k), policy, econ)
        d_prop = decide_with_contract(1.0, ProportionalGuarantee(mi.s), policy, econ)
    print(f"minimal insurance: k={mi.k:g}, s={mi.s:g}")
    return Outputs({
        "contract_payoffs.csv":
            ("x,y,implementer_payoff,researcher_payment", rows),
        "minimal_insurance.json": {
            "u_bar": scenario.policy_u_bar,
            "c_M": econ.cost(m),
            "tail_k": mi.k,
            "proportional_share": mi.s,
            "tail_decision": asdict(d_tail),
            "proportional_decision": asdict(d_prop),
        },
    })


def cmd_researcher(scenario: Scenario, args) -> Outputs:
    econ = scenario.economics
    decision = scenario.decide(1.0)  # a bound that clears any p0 < 1
    m = decision.scale if decision.implement else econ.M
    if not decision.implement:
        print(f"note: implementer would decline; reporting at full scale {m}")
    p_grid = np.linspace(0.05, 0.95, 19)
    # one pass over the worlds: the participation check and the conditions
    conds = publication_rate_conditions(
        lambda p: scenario.strategy.exceedance_prob(p, scenario.policy.p0),
        scenario.risk_strategy, scenario.researcher_payoff, scenario.utility,
        econ, m, p_grid)
    status = "holds" if conds.passes else "fails"
    print(f"participation {status}: min {conds.minimum:.6f} vs floor "
          f"{conds.v_bar:g} at scale {m}")
    return Outputs({
        "researcher_participation.csv": (
            "p,lhs", ([_fmt(r.p), _fmt(r.lhs)] for r in conds.rows)),
        "researcher_conditions.csv": (
            "p,lhs,bound_type,bound,actual",
            ([_fmt(r.p), _fmt(r.lhs), r.regime, _fmt(r.bound), _fmt(r.actual)]
             for r in conds.rows)),
        "researcher_summary.json": {
            "scale": m,
            "participation_minimum": conds.minimum,
            "v_bar": conds.v_bar,
            "participates": conds.passes,
            "any_condition_violation": conds.any_violation,
            "base_expected_utility": conds.base_eu,
        },
    })


def cmd_pool(scenario: Scenario, args) -> Outputs:
    members = scenario.pool.members
    pooled = pool_expected_utility(members, scenario.pool.shares).tolist()
    # identity shares: each member bears only its own loss
    alone = pool_expected_utility(members, np.eye(len(members))).tolist()
    rows = [{"member": i, "standalone_eu": eu_alone, "pooled_eu": eu_pooled,
             "standalone_ce": mem.utility.certainty_equivalent(eu_alone),
             "pooled_ce": mem.utility.certainty_equivalent(eu_pooled)}
            for i, (mem, eu_alone, eu_pooled) in enumerate(zip(members, alone, pooled))]
    gain = min(r["pooled_ce"] - r["standalone_ce"] for r in rows)
    print(f"pool of {len(members)}: min certainty-equivalent gain {gain:.6f}")
    return Outputs({"pool.json": {"members": rows}})


def cmd_reproduce(scenario: Scenario, args) -> Outputs:
    rows, cal = evaluate_anchors(scenario.seed, scenario.grids.coverage_denom)
    print(f"calibrated variant: {cal.variant} "
          f"(value {cal.value:.6f}, residual {cal.residual:.4f})")
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.ident:>3}  {row.name}")
        print(f"        target: {row.target}")
        print(f"        computed: {row.computed}  (tolerance {row.tolerance})")
    n_pass = sum(r.passed for r in rows)
    print(f"{n_pass}/{len(rows)} anchors pass")
    all_pass = n_pass == len(rows)
    return Outputs({"reproduce_report.json": {
        "rows": [asdict(row) for row in rows], "all_pass": all_pass,
    }}, cal.variant, 0 if all_pass else 1)


# ---------------------------------------------------------------------------
# Parser.

def checked(kind, check):
    """An argparse type: kind(text), which must pass check, or exit 2."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not check.ok(value):
            raise argparse.ArgumentTypeError(f"must {check.need}, got {value}")
        return value

    return parse


_trials = checked(int, TRIALS)
_open_unit = checked(float, OPEN_UNIT)
_weight = checked(float, UNIT)


# Every subcommand in help order: name -> (help, handler, its own flags as
# (flag, add_argument keywords) pairs). Each also takes the _COMMON flags,
# ahead of its own.
_SUBCOMMANDS = {
    "coverage": ("coverage/violation curve for a bound procedure", cmd_coverage, (
        ("--proc", {"choices": PROCEDURE_KINDS}),
        ("--n", {"type": _trials}),
        ("--alpha-prime", {"type": _open_unit}))),
    "example1": ("closed-form mixture rate and scale-back table", cmd_example1, (
        ("--alpha-prime", {"type": _open_unit, "default": 0.01}),
        ("--pi", {"type": _weight, "default": 0.25}))),
    "example2": ("exact false-positive surface over (alpha, p)", cmd_example2, (
        ("--p-c", {"type": _open_unit, "default": 0.5}),
        ("--n", {"type": _trials, "default": 300}),
        ("--pi", {"type": _weight}))),  # default: the scenario's weight
    "fig1": ("nominal-vs-actual curve CSV per control rate", cmd_fig1, (
        ("--p-c", {"type": _open_unit, "nargs": "+", "default": [0.5]}),
        ("--n", {"type": _trials, "default": 300}),
        ("--pi", {"type": _weight}))),  # default: the scenario's weight
    "decide": ("implementer decision for a published bound", cmd_decide, (
        ("--published-bound", {"type": _weight, "default": 0.5}),)),
    "contract": ("payoff table and minimal insurance levels", cmd_contract, ()),
    "researcher": ("participation and publication-rate reports", cmd_researcher, ()),
    "pool": ("risk-pool expected utilities", cmd_pool, ()),
    "reproduce": ("run the full anchor table", cmd_reproduce, ()),
}

_COMMON = (
    ("--config", {"help": "scenario JSON (default: bundled)"}),
    ("--out", {"help": "output directory (default: $GUARANTEESIM_OUT or ./out)"}),
    ("--debug", {"action": "store_true",
                 "help": "let a runtime error raise with its traceback "
                         "instead of exiting 1"}),
)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The top-level parser with every subcommand, or with command's alone.

    Building a subcommand's parser dominates a call's parsing, so a call
    naming one builds only that one. Its usage line still lists every
    name, through the metavar, so its errors print the full parser's
    bytes. The full build keeps argparse's own name for the action,
    "command", in the two errors only it meets: no subcommand and an
    unknown one.
    """
    parser = argparse.ArgumentParser(
        prog="guaranteesim",
        description="Adverse-selection guarantee simulations for binomial "
                    "policy outcomes")
    parser.add_argument("--version", action="version",
                        version=f"guaranteesim {__version__}")
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    parser.commands = {}  # name -> its parser, for the checks after parsing
    for name, (text, handler, flags) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = parser.commands[name] = sub.add_parser(name, help=text)
            for flag, keywords in _COMMON + flags:
                p.add_argument(flag, **keywords)
            p.set_defaults(handler=handler)
    return parser


def _check_target(path: Path) -> bool:
    """Raise the OSError that opening path for writing raises, if any,
    and leave path as it was: opened to append nothing, and removed again
    if the open created it. Returns whether path existed."""
    existed = path.exists()
    with open(path, "ab"):
        pass
    if not existed:
        path.unlink()
    return existed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if getattr(args, "pi", 0.0) is None:
            args.pi = scenario.belief_weight
        # the subcommand's error prints its usage and prog, as argparse's
        # own errors on its flags do
        command = parser.commands[args.command]
        if getattr(args, "pi", 0.0) > 0.0 and getattr(args, "n", 2) < 2:
            # the selective gate compares two arms of at least 2 each
            command.error(f"argument --n: must be at least 2 when --pi > 0, "
                          f"got {args.n}")
        denom = scenario.grids.sup_base_denom
        if args.command == "example2" and args.p_c <= 1 / denom:
            # the surface's rates are the multiples of 1/denom below p_C
            command.error(f"argument --p-c: must exceed 1/{denom} = {1 / denom!r}")
        out = Path(args.out or os.environ.get("GUARANTEESIM_OUT") or "out")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"output error: {out}: {exc.strerror}", file=sys.stderr)
            return 2
        result = args.handler(scenario, args)
        meta = {
            "tool": f"guaranteesim {__version__}",
            "seed": scenario.seed,
            "grids": {key: value for key, value in asdict(scenario.grids).items()
                      if key != "alpha_levels"},
        }
        if result.variant is not None:
            meta["fig1_variant"] = result.variant
        # render every file and open every target before writing any, so
        # a failure writes nothing
        texts = {out / name: _render(body, meta)
                 for name, body in result.files.items()}
        created = []
        try:
            for path in texts:
                if not _check_target(path):
                    created.append(path)
            for path, text in texts.items():
                path.write_text(text, encoding="utf-8")
        except OSError as exc:
            # remove the files this call created; a file that existed
            # before keeps its place
            for made in created:
                made.unlink(missing_ok=True)
            print(f"output error: {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        for path in texts:
            print(f"wrote {path}")
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return result.code
    except BrokenPipeError:
        # stdout's reader has gone: send what is left to devnull, so the
        # flush at exit cannot fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
