"""Scenario configuration: one JSON document drives every subcommand.

Validation is strict: every field goes through one checked reader, unknown
keys are rejected, and errors carry the offending key path so the CLI can
point at the line in the file.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from contextlib import contextmanager
from functools import cached_property
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from .binomial import SUP_DENOM, LowerBoundProcedure
from .contracts import (
    FullGuarantee,
    InsuranceContract,
    ProportionalGuarantee,
    TailGuarantee,
)
from .decisions import (
    AlphaSchedule,
    Decision,
    ImplementerPolicy,
    decide_no_guarantee,
    decide_with_contract,
)
from .economics import (
    BenefitFunction,
    CostSchedule,
    NoBreakEvenError,
    PolicyEconomics,
)
from .record import Record, asdict
from .researcher import (
    UTILITY_FORMS,
    ImplValue,
    NoiseSpec,
    PoolMember,
    ResearcherPayoffModel,
    ResearcherRisk,
    RiskExchange,
    RiskTransfer,
    UtilitySpec,
    check_share_matrix,
)
from .simulate import ENUMERATION_LIMIT, DiscreteDist
from .strategies import (
    CONDITIONING_VARIANTS,
    CalibrationResult,
    FraudulentStrategy,
    SelectiveStrategy,
    TruthfulStrategy,
    calibrate_conditioning,
)

__all__ = ["ConfigError", "Scenario", "GridSpec", "load_scenario",
           "scenario_from_dict", "default_scenario_dict"]

# Size limits, checked as a scenario loads and before anything is allocated.
POOL_LIMIT = 1_000  # pool members; the share matrix is j x j
TRIAL_LIMIT = 1_000_000  # trials per arm, and grid denominators


class Check(NamedTuple):
    """A check shared by scenario fields and CLI flags: ok, or must <need>."""
    ok: Callable[[Any], bool]
    need: str


def _between(low: int, high: int) -> Check:
    return Check(lambda v: low <= v <= high, f"lie in {low}..{high}")


UNIT = Check(lambda v: 0.0 <= v <= 1.0, "lie in [0,1]")
OPEN_UNIT = Check(lambda v: 0.0 < v < 1.0, "lie strictly in (0,1)")
TRIALS = _between(1, TRIAL_LIMIT)
GRID_DENOM = _between(2, TRIAL_LIMIT)
_NEGATIVE = Check(lambda v: v < 0.0, "be negative")
_NONEMPTY = Check(len, "be nonempty")
_PAIR = Check(lambda v: len(v) == 2, "be a [k, alpha] pair")


class ConfigError(ValueError):
    """A scenario mistake at key_path, a tuple of object keys and list
    indices, printed dotted: ("pool", "members", 1, "base") as
    pool.members[1].base."""

    def __init__(self, message: str, key_path: tuple = (), line: Optional[int] = None):
        self.key_path = tuple(key_path)
        self.line = line
        super().__init__(f"{_dotted(self.key_path)}: {message}" if key_path else message)


def _dotted(key_path: tuple) -> str:
    """key_path as text: each key after a ".", each index as "[i]", and no
    "." before the first key, which is always an object key."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in key_path)[1:]


def default_scenario_dict() -> dict:
    """The bundled reference scenario, small enough that every
    researcher-side quantity enumerates exactly: 20 recipients, unit costs,
    benefit 2.5 per success (break-even rate 0.4), a loss floor at sixty
    percent of the full cost."""
    return {
        "seed": 20260819,
        "economics": {
            "population": 20,
            "cost": {"form": "linear", "unit": 1.0},
            "benefit": {"form": "linear", "per_success": 2.5},
            "dilution_q": 1.0,
        },
        "procedure": {"kind": "clopper_pearson", "alpha": 0.05, "n": 40},
        "strategy": {"variant": "truthful"},
        "belief": {"untruthful_weight": 0.5, "conditioning": "calibrated"},
        "policy": {"u_bar": -12.0, "alpha_belief": 0.25, "p0": None},
        "contract": {"variant": "tail", "k": -12.0},
        "utility": {"form": "cara", "risk_aversion": 0.05, "v_bar": -6.0},
        "researcher_payoff": {
            "base_pub": 2.0,
            "impl_value": {"kind": "constant", "amount": 2.0},
            "failure_exposure": 0.0,
            "noise": None,
        },
        "risk_strategy": {"variant": "none"},
        "pool": {
            "iid": {"count": 2, "values": [0.0, -10.0], "probs": [0.7, 0.3],
                    "base": 0.0},
            "utility": {"form": "cara", "risk_aversion": 0.1},
            "shares": "equal",
        },
        "grids": {**asdict(GridSpec()), "alpha_levels": list(GridSpec.alpha_levels)},
    }


class GridSpec(Record):
    coverage_denom: int = 1024
    sup_base_denom: int = 512
    sup_refine_denom: int = SUP_DENOM  # retired: checked, recorded, unread
    alpha_levels: tuple = (0.001, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1,
                           0.15, 0.2)


class PoolSpec(Record):
    members: list
    shares: np.ndarray  # checked share matrix, one row per member


class Scenario(Record):
    seed: int
    economics: PolicyEconomics
    procedure: LowerBoundProcedure
    strategy: object
    belief_weight: float
    belief_conditioning: str  # may be "calibrated"; variant resolves it
    policy_u_bar: float
    policy_alpha: Union[float, AlphaSchedule]
    policy_p0: Optional[float]
    contract: Optional[InsuranceContract]
    utility: UtilitySpec
    researcher_payoff: ResearcherPayoffModel
    risk_strategy: ResearcherRisk
    pool: PoolSpec
    grids: GridSpec

    @cached_property
    def policy(self) -> ImplementerPolicy:
        """The implementer's policy. A null p0 is the break-even rate, and
        economics without one strictly inside (0,1) are a ConfigError at
        "economics", not cached: only the commands that read p0 fail on them."""
        p0 = self.policy_p0
        if p0 is None:
            try:
                p0 = self.economics.break_even_success_rate()
            except NoBreakEvenError as exc:
                raise ConfigError(str(exc), ("economics",)) from exc
            if not 0.0 < p0 < 1.0:
                raise ConfigError(f"break-even rate {p0!r} leaves no threshold "
                                  f"strictly inside (0,1)", ("economics",))
        return ImplementerPolicy(u_bar=self.policy_u_bar,
                                 alpha_belief=self.policy_alpha, p0=p0)

    @cached_property
    def calibration(self) -> CalibrationResult:
        """The calibrated conditioning variant's selection."""
        return calibrate_conditioning()

    @property
    def variant(self) -> str:
        """The conditioning variant, with "calibrated" resolved."""
        if self.belief_conditioning != "calibrated":
            return self.belief_conditioning
        return self.calibration.variant

    def decide(self, bound: float) -> Decision:
        """The implementer's decision on a published bound under the contract,
        if any; a tail contract that never pays is a ConfigError at contract.k."""
        if self.contract is None:
            return decide_no_guarantee(bound, self.policy, self.economics)
        with _at(("contract", "k")):
            return decide_with_contract(bound, self.contract, self.policy,
                                        self.economics)


@contextmanager
def _at(path: tuple):
    """Report a ValueError or TypeError raised while building path as a
    ConfigError at that path."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path) from exc


def _reject_unknown(block: dict, allowed, path: tuple) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"expected an object, got {type(block).__name__}", path)
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}", _child(path, unknown[0]))


_REQUIRED = object()
_KINDS = {float: ((int, float), "a finite number"), int: (int, "an integer"),
          str: (str, "a string"), list: (list, "a list"), dict: (dict, "an object")}


def _child(path: tuple, key) -> tuple:
    return (*path, key)


def _get(block, key, path: tuple, kind=float, default=_REQUIRED, check=None):
    """block[key], for an object key or a list index: present unless it has
    a default, of the JSON kind (never a bool; float: finite, so no NaN or
    Infinity), null only where the default is None, and passing check."""
    if isinstance(block, dict) and key not in block:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}", path)
        return default
    value, where = block[key], _child(path, key)
    if value is None and default is None:
        return None
    types, name = _KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or (kind is float and not abs(value) <= sys.float_info.max)):
        raise ConfigError(f"expected {name}, got {reprlib.repr(value)}", where)
    if check is not None and not check.ok(value):
        raise ConfigError(f"must {check.need}, got {reprlib.repr(value)}", where)
    return float(value) if kind is float else value


def _block(parent, key, path: tuple, allowed, default=_REQUIRED):
    """The object parent[key], read through _get, unknown keys rejected."""
    block = _get(parent, key, path, dict, default)
    if block is not None:
        _reject_unknown(block, allowed, _child(path, key))
    return block


def _floats(block, key, path: tuple, default=_REQUIRED, check=None, each=None) -> list:
    """A list of finite numbers: the list passes check, each item each."""
    items = _get(block, key, path, list, default, check)
    return [_get(items, i, _child(path, key), check=each) for i in range(len(items))]


def _law(block: dict, path: tuple) -> DiscreteDist:
    with _at(path):
        return DiscreteDist(_floats(block, "values", path),
                            _floats(block, "probs", path))


def _variant(parent, key, path: tuple, field: str, forms: dict, *context):
    """The record the object parent[key] describes. Its field names one of
    forms, name -> (keys, build); the object holds field and that name's
    keys only, and build(block, where, *context) makes the record, with a
    ValueError or TypeError reported at the object."""
    where = _child(path, key)
    block = _get(parent, key, path, dict)
    name = _get(block, field, where, str, check=Check(
        forms.__contains__, "be one of " + ", ".join(map(repr, forms))))
    keys, build = forms[name]
    _reject_unknown(block, (field, *keys), where)
    with _at(where):
        return build(block, where, *context)


def _cost_table(block: dict, where: tuple, M: int) -> CostSchedule:
    values = _floats(block, "values", where)
    if len(values) != M:
        raise ConfigError(f"cost table has {len(values)} entries for "
                          f"population {M}", _child(where, "values"))
    return CostSchedule.table(values)


_COSTS = {
    "linear": (("unit",), lambda block, where, M: CostSchedule.linear(
        _get(block, "unit", where), M)),
    "affine": (("fixed", "unit"), lambda block, where, M: CostSchedule.affine(
        _get(block, "fixed", where), _get(block, "unit", where), M)),
    "table": (("values",), _cost_table),
}
_BENEFITS = {
    "linear": (("per_success",), lambda block, where: BenefitFunction.linear(
        _get(block, "per_success", where))),
    "table": (("values",), lambda block, where: BenefitFunction.from_table(
        _floats(block, "values", where))),
}


def _economics(top: dict) -> PolicyEconomics:
    path = ("economics",)
    block = _block(top, "economics", (), {"population", "cost", "benefit", "dilution_q"})
    M = _get(block, "population", path, int, check=_between(1, ENUMERATION_LIMIT))
    costs = _variant(block, "cost", path, "form", _COSTS, M)
    benefit = _variant(block, "benefit", path, "form", _BENEFITS)
    q = _get(block, "dilution_q", path, default=PolicyEconomics.dilution)
    with _at(path):
        return PolicyEconomics(costs=costs, benefit=benefit, dilution=q)


def _procedure(top: dict) -> LowerBoundProcedure:
    path = ("procedure",)
    block = _block(top, "procedure", (), {"kind", "alpha", "n"})
    alpha = _get(block, "alpha", path, check=OPEN_UNIT)
    n = _get(block, "n", path, int, check=TRIALS)
    with _at(_child(path, "kind")):  # alpha and n are checked: only the kind fails
        return LowerBoundProcedure(_get(block, "kind", path, str), alpha, n)


_STRATEGIES = {
    "truthful": ((), lambda block, where, proc: TruthfulStrategy(proc)),
    "fraudulent": (("guess_spread",), lambda block, where, proc: FraudulentStrategy(
        proc, guess_spread=_get(block, "guess_spread", where,
                                default=FraudulentStrategy.guess_spread))),
    "selective": (("n_per_arm", "alpha"), lambda block, where, proc: SelectiveStrategy(
        n=_get(block, "n_per_arm", where, int, check=TRIALS),
        alpha_prime=_get(block, "alpha", where, check=OPEN_UNIT))),
}
_CONTRACTS = {
    "full": ((), lambda block, where: FullGuarantee()),
    "tail": (("k",), lambda block, where: TailGuarantee(k=_get(block, "k", where))),
    "proportional": (("share",), lambda block, where: ProportionalGuarantee(
        share=_get(block, "share", where))),
}


def _alpha_belief(policy: dict, path: tuple):
    """A scalar belief, or {"knots": [[k, alpha], ...]} for a schedule."""
    if not isinstance(policy.get("alpha_belief"), dict):
        return _get(policy, "alpha_belief", path, check=UNIT)
    where = _child(path, "alpha_belief")
    knots = _get(_block(policy, "alpha_belief", path, {"knots"}), "knots", where, list)
    where = _child(where, "knots")
    pairs = [_floats(knots, i, where, check=_PAIR) for i in range(len(knots))]
    with _at(where):
        return AlphaSchedule(tuple(pairs))


def _utility(block: dict, where: tuple) -> UtilitySpec:
    # the form's table entry leaves out the keys it does not read
    return UtilitySpec(
        form=block["form"],
        risk_aversion=_get(block, "risk_aversion", where,
                           default=UtilitySpec.risk_aversion),
        v_bar=_get(block, "v_bar", where, default=UtilitySpec.v_bar))


def _utility_forms(floor: tuple) -> dict:
    """Each of UTILITY_FORMS with its keys: CARA's risk aversion, and floor."""
    return {form: ((("risk_aversion",) if form == "cara" else ()) + floor, _utility)
            for form in UTILITY_FORMS}


_UTILITIES = _utility_forms(("v_bar",))
_POOL_UTILITIES = _utility_forms(())  # a pool member has no participation floor


def _payoff(top: dict) -> ResearcherPayoffModel:
    path = ("researcher_payoff",)
    block = _block(top, "researcher_payoff", (), {"base_pub", "impl_value",
                                                  "failure_exposure", "noise"})
    where = _child(path, "impl_value")
    impl = _block(block, "impl_value", path, {"kind", "amount"}, default={})
    amount = _get(impl, "amount", where, default=ImplValue.amount)
    with _at(_child(where, "kind")):  # the amount is checked: only the kind fails
        impl = ImplValue(_get(impl, "kind", where, str, default=ImplValue.kind), amount)
    noise = _block(block, "noise", path, {"epsilon"}, default=None)
    if noise is not None:
        with _at(_child(path, "noise")):
            noise = NoiseSpec(epsilon=_get(noise, "epsilon", _child(path, "noise")))
    model = ResearcherPayoffModel  # its field defaults are the key defaults
    with _at(path):
        return model(
            base_pub=_get(block, "base_pub", path, default=model.base_pub),
            impl_value=impl,
            failure_exposure=_get(block, "failure_exposure", path,
                                  default=model.failure_exposure),
            noise=noise)


def _exchange(block: dict, where: tuple) -> ResearcherRisk:
    partner = _block(block, "partner_loss", where, {"values", "probs"})
    law = _law(partner, _child(where, "partner_loss"))
    return ResearcherRisk(hedge=RiskExchange(
        retained=_get(block, "retained", where),
        assumed=_get(block, "assumed", where), partner_loss=law))


# Each risk strategy is a (contract, hedge) pair: none, transfer and
# exchange hedge a full guarantee; tail_only and proportional_only are
# unhedged tail and proportional guarantees.
_RISKS = {
    "none": ((), lambda block, where: ResearcherRisk()),
    "transfer": (("retained", "premium"), lambda block, where: ResearcherRisk(
        hedge=RiskTransfer(retained=_get(block, "retained", where),
                           premium=_get(block, "premium", where,
                                        default=RiskTransfer.premium)))),
    "exchange": (("retained", "assumed", "partner_loss"), _exchange),
    "tail_only": (("k",), lambda block, where: ResearcherRisk(
        TailGuarantee(k=_get(block, "k", where)))),
    "proportional_only": (("share",), lambda block, where: ResearcherRisk(
        ProportionalGuarantee(_get(block, "share", where)))),
}


def _member(block: dict, path: tuple, utility: UtilitySpec) -> PoolMember:
    return PoolMember(loss=_law(block, path), utility=utility,
                      base=_get(block, "base", path, default=0.0))


def _pool(top: dict) -> PoolSpec:
    path = ("pool",)
    block = _block(top, "pool", (), {"iid", "members", "utility", "shares"})
    utility = _variant(block, "utility", path, "form", _POOL_UTILITIES)
    if ("iid" in block) == ("members" in block):
        raise ConfigError("pool needs exactly one of iid and members",
                          _child(path, "members") if "iid" in block else path)
    if "iid" in block:
        where = _child(path, "iid")
        iid = _block(block, "iid", path, {"count", "values", "probs", "base"})
        count = _get(iid, "count", where, int, check=_between(1, POOL_LIMIT))
        members = [_member(iid, where, utility)] * count
    else:
        where = _child(path, "members")
        items = _get(block, "members", path, list, check=Check(
            lambda v: 1 <= len(v) <= POOL_LIMIT, f"hold 1..{POOL_LIMIT} members"))
        members = [_member(_block(items, i, where, {"base", "values", "probs"}),
                           _child(where, i), utility) for i in range(len(items))]
    j, where, shares = len(members), _child(path, "shares"), block.get("shares")
    if isinstance(shares, list):
        shares = [_floats(shares, i, where) for i in range(len(shares))]
    elif _get(block, "shares", path, str, "equal", Check(
            lambda v: v == "equal", 'be "equal" or a share matrix')):
        shares = np.full((j, j), 1.0 / j)
    with _at(where):
        return PoolSpec(members=members, shares=check_share_matrix(shares, j))


def _grids(top: dict) -> GridSpec:
    path = ("grids",)
    block = _block(top, "grids", (), GridSpec._fields)
    def denom(key):
        return _get(block, key, path, int, getattr(GridSpec, key), GRID_DENOM)
    return GridSpec(
        coverage_denom=denom("coverage_denom"),
        sup_base_denom=denom("sup_base_denom"),
        sup_refine_denom=denom("sup_refine_denom"),
        alpha_levels=tuple(_floats(block, "alpha_levels", path,
                                   GridSpec.alpha_levels, _NONEMPTY, OPEN_UNIT)))


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario; each omitted top-level block is the default's."""
    defaults = default_scenario_dict()
    _reject_unknown(data, defaults, ())
    merged = {**defaults, **data}
    belief = _block(merged, "belief", (), {"untruthful_weight", "conditioning"})
    conditioning = _get(belief, "conditioning", ("belief",), str, default="calibrated")
    if conditioning not in CONDITIONING_VARIANTS + ("calibrated",):
        raise ConfigError(f"unknown conditioning {conditioning!r}",
                          ("belief", "conditioning"))
    policy = _block(merged, "policy", (), {"u_bar", "alpha_belief", "p0"})
    procedure = _procedure(merged)
    scenario = Scenario(
        seed=_get(merged, "seed", (), int, check=_between(0, 2 ** 64 - 1)),
        economics=_economics(merged),
        procedure=procedure,
        strategy=_variant(merged, "strategy", (), "variant", _STRATEGIES,
                          procedure),
        belief_weight=_get(belief, "untruthful_weight", ("belief",), check=UNIT),
        belief_conditioning=conditioning,
        policy_u_bar=_get(policy, "u_bar", ("policy",), check=_NEGATIVE),
        policy_alpha=_alpha_belief(policy, ("policy",)),
        policy_p0=_get(policy, "p0", ("policy",), default=None, check=OPEN_UNIT),
        contract=None if merged["contract"] is None else _variant(
            merged, "contract", (), "variant", _CONTRACTS),
        utility=_variant(merged, "utility", (), "form", _UTILITIES),
        researcher_payoff=_payoff(merged),
        risk_strategy=_variant(merged, "risk_strategy", (), "variant", _RISKS),
        pool=_pool(merged),
        grids=_grids(merged),
    )
    _check_against_p0(scenario, "contract" in data)
    return scenario


def _check_against_p0(scenario: Scenario, in_file: bool) -> None:
    """The checks that read the p0 of Scenario.policy; where that has none,
    its ConfigError is left to the commands that read p0. A fraudulent
    strategy's guesses p0 +- guess_spread lie in [0,1], and a tail contract
    the file sets (in_file) pays at the scale Scenario.decide takes for a
    bound above p0; a default one, which has no line to point at, is
    checked where a command decides."""
    fraud = isinstance(scenario.strategy, FraudulentStrategy)
    tail = in_file and isinstance(scenario.contract, TailGuarantee)
    try:
        p0 = scenario.policy.p0 if fraud or tail else None
    except ConfigError:
        return
    if fraud:
        with _at(("strategy", "guess_spread")):
            scenario.strategy.check_threshold(p0)
    if tail:
        scenario.decide(1.0)


_DECODER = json.JSONDecoder()
# in a text json.loads accepts, a comma between tokens is stepped as a space
_skip = re.compile(r"[ \t\n\r,]*").match


def _children(raw: str, pos: int):
    """(offset, key, value offset) of each member of the JSON object at pos
    in raw, or (offset, index, offset) of each item of the array there."""
    close = {"{": "}", "[": "]"}.get(raw[pos])
    pos, index = _skip(raw, pos + 1).end(), 0
    while close is not None and raw[pos] != close:
        start, key = pos, index
        if close == "}":
            key, end = json.decoder.scanstring(raw, pos + 1)
            pos = _skip(raw, raw.index(":", end) + 1).end()
        yield start, key, pos
        pos, index = _skip(raw, _DECODER.raw_decode(raw, pos)[1]).end(), index + 1


def _line_of_key(raw: str, key_path: tuple) -> Optional[int]:
    """Line of key_path in the raw JSON text, or of its deepest part there.
    Each part is looked up in the value the part before led to: a key among
    its members (the last of equal keys, as json.loads keeps), an index
    among its items, so text in a string or in a sibling value never
    matches, and a key may hold any character, "." and "[" too."""
    pos, line = _skip(raw, 0).end(), None
    for want in key_path:
        found = [(start, value) for start, key, value in _children(raw, pos)
                 if key == want]
        if not found:
            break
        start, pos = found[-1]
        line = raw.count("\n", 0, start) + 1
    return line


def load_scenario(path: Optional[str]) -> Scenario:
    """Read and validate a scenario file; None loads the bundled default."""
    if path is None:
        return scenario_from_dict(default_scenario_dict())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    try:
        return scenario_from_dict(data)
    except ConfigError as exc:
        if exc.line is None:
            exc.line = _line_of_key(raw, exc.key_path)
        raise
