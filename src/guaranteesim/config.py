"""Scenario configuration: one JSON document drives every subcommand.

Validation is strict: unknown keys are rejected, and errors carry the
offending key path so the CLI can point at the line in the file.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from .binomial import LowerBoundProcedure
from .contracts import (
    FullGuarantee,
    InsuranceContract,
    ProportionalGuarantee,
    TailGuarantee,
)
from .decisions import AlphaSchedule, ImplementerPolicy
from .economics import BenefitFunction, CostSchedule, PolicyEconomics
from .researcher import (
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
from .simulate import DiscreteDist
from .strategies import (
    CONDITIONING_VARIANTS,
    FraudulentStrategy,
    SelectiveStrategy,
    TruthfulStrategy,
)

__all__ = ["ConfigError", "Scenario", "GridSpec", "load_scenario",
           "scenario_from_dict", "default_scenario_dict"]


class ConfigError(ValueError):
    def __init__(self, message: str, key_path: str = "", line: Optional[int] = None):
        self.key_path = key_path
        self.line = line
        prefix = f"{key_path}: " if key_path else ""
        super().__init__(f"{prefix}{message}")


def default_scenario_dict() -> dict:
    """The bundled reference scenario.

    Small enough that every researcher-side quantity enumerates exactly:
    20 recipients, unit costs, benefit 2.5 per success (break-even rate
    0.4), a loss floor at sixty percent of the full cost.
    """
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
        "grids": {
            "coverage_denom": 1024,
            "sup_base_denom": 512,
            "sup_refine_denom": 8192,
            "alpha_levels": [0.001, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1,
                             0.15, 0.2],
        },
    }


@dataclass(frozen=True)
class GridSpec:
    coverage_denom: int = 1024
    sup_base_denom: int = 512
    sup_refine_denom: int = 8192
    alpha_levels: tuple = (0.001, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1,
                           0.15, 0.2)


@dataclass(frozen=True)
class PoolSpec:
    members: list
    shares: np.ndarray  # checked share matrix, one row per member


@dataclass(frozen=True)
class Scenario:
    seed: int
    economics: PolicyEconomics
    procedure: LowerBoundProcedure
    strategy: object
    belief_weight: float
    belief_conditioning: str  # may be "calibrated", resolved by the CLI
    policy_u_bar: float
    policy_alpha: Union[float, AlphaSchedule]
    policy_p0: Optional[float]
    contract: Optional[InsuranceContract]
    utility: UtilitySpec
    researcher_payoff: ResearcherPayoffModel
    risk_strategy: ResearcherRisk
    pool: PoolSpec
    grids: GridSpec

    def policy(self) -> ImplementerPolicy:
        p0 = self.policy_p0
        if p0 is None:
            p0 = self.economics.break_even_success_rate()
        return ImplementerPolicy(u_bar=self.policy_u_bar,
                                 alpha_belief=self.policy_alpha, p0=p0)


@contextmanager
def _at(path: str):
    """Report a ValueError or TypeError raised while building path as a
    ConfigError at that path."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path) from exc


def _need(block: dict, key: str, path: str) -> Any:
    if key not in block:
        raise ConfigError(f"missing required key {key!r}", path)
    return block[key]


def _reject_unknown(block: dict, allowed, path: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"expected an object, got {type(block).__name__}", path)
    unknown = set(block) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key {name!r}", f"{path}.{name}" if path else name)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    return float(value)


def _integer(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be at least {minimum}, got {value}", path)
    return value


def _economics(block: dict) -> PolicyEconomics:
    path = "economics"
    _reject_unknown(block, {"population", "cost", "benefit", "dilution_q"}, path)
    M = _integer(_need(block, "population", path), f"{path}.population")
    cost_block = _need(block, "cost", path)
    _reject_unknown(cost_block, {"form", "unit", "fixed", "values"}, f"{path}.cost")
    form = _need(cost_block, "form", f"{path}.cost")
    with _at(f"{path}.cost"):
        if form == "linear":
            costs = CostSchedule.linear(
                _number(_need(cost_block, "unit", f"{path}.cost"),
                        f"{path}.cost.unit"), M)
        elif form == "affine":
            costs = CostSchedule.affine(
                _number(_need(cost_block, "fixed", f"{path}.cost"),
                        f"{path}.cost.fixed"),
                _number(_need(cost_block, "unit", f"{path}.cost"),
                        f"{path}.cost.unit"), M)
        elif form == "table":
            values = _need(cost_block, "values", f"{path}.cost")
            if len(values) != M:
                raise ConfigError(
                    f"cost table has {len(values)} entries for population {M}",
                    f"{path}.cost.values")
            costs = CostSchedule.table(values)
        else:
            raise ConfigError(f"unknown cost form {form!r}", f"{path}.cost.form")

    ben_block = _need(block, "benefit", path)
    _reject_unknown(ben_block, {"form", "per_success", "values"}, f"{path}.benefit")
    bform = _need(ben_block, "form", f"{path}.benefit")
    with _at(f"{path}.benefit"):
        if bform == "linear":
            benefit = BenefitFunction.linear(
                _number(_need(ben_block, "per_success", f"{path}.benefit"),
                        f"{path}.benefit.per_success"))
        elif bform == "table":
            benefit = BenefitFunction.from_table(
                _need(ben_block, "values", f"{path}.benefit"))
        else:
            raise ConfigError(f"unknown benefit form {bform!r}",
                              f"{path}.benefit.form")

    q = _number(block.get("dilution_q", 1.0), f"{path}.dilution_q")
    with _at(path):
        return PolicyEconomics(costs=costs, benefit=benefit, dilution=q)


def _procedure(block: dict) -> LowerBoundProcedure:
    path = "procedure"
    _reject_unknown(block, {"kind", "alpha", "n"}, path)
    with _at(path):
        return LowerBoundProcedure(
            kind=_need(block, "kind", path),
            nominal_alpha=_number(_need(block, "alpha", path), f"{path}.alpha"),
            n=_integer(_need(block, "n", path), f"{path}.n"))


def _strategy(block: dict, procedure: LowerBoundProcedure):
    path = "strategy"
    _reject_unknown(block, {"variant", "guess_spread", "n_per_arm", "alpha"}, path)
    variant = _need(block, "variant", path)
    with _at(path):
        if variant == "truthful":
            return TruthfulStrategy(procedure)
        if variant == "fraudulent":
            return FraudulentStrategy(
                procedure,
                guess_spread=_number(block.get("guess_spread", 0.05),
                                     f"{path}.guess_spread"))
        if variant == "selective":
            return SelectiveStrategy(
                n=_integer(_need(block, "n_per_arm", path), f"{path}.n_per_arm"),
                alpha_prime=_number(_need(block, "alpha", path), f"{path}.alpha"))
    raise ConfigError(f"unknown strategy variant {variant!r}", f"{path}.variant")


def _contract(block) -> Optional[InsuranceContract]:
    if block is None:
        return None
    path = "contract"
    _reject_unknown(block, {"variant", "k", "share"}, path)
    variant = _need(block, "variant", path)
    with _at(path):
        if variant == "full":
            return FullGuarantee()
        if variant == "tail":
            return TailGuarantee(k=_number(_need(block, "k", path), f"{path}.k"))
        if variant == "proportional":
            return ProportionalGuarantee(
                share=_number(_need(block, "share", path), f"{path}.share"))
    raise ConfigError(f"unknown contract variant {variant!r}", f"{path}.variant")


def _alpha_belief(value, path: str):
    if isinstance(value, dict):
        _reject_unknown(value, {"knots"}, path)
        knots = _need(value, "knots", path)
        with _at(f"{path}.knots"):
            return AlphaSchedule(tuple((float(k), float(a)) for k, a in knots))
    alpha = _number(value, path)
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha belief must lie in [0,1], got {alpha}", path)
    return alpha


def _utility(block: dict) -> UtilitySpec:
    path = "utility"
    _reject_unknown(block, {"form", "risk_aversion", "v_bar"}, path)
    with _at(path):
        return UtilitySpec(
            form=_need(block, "form", path),
            risk_aversion=_number(block.get("risk_aversion", 0.0),
                                  f"{path}.risk_aversion"),
            v_bar=_number(block.get("v_bar", float("-inf")), f"{path}.v_bar"))


def _payoff(block: dict) -> ResearcherPayoffModel:
    path = "researcher_payoff"
    _reject_unknown(block, {"base_pub", "impl_value", "failure_exposure",
                            "noise"}, path)
    impl_block = block.get("impl_value", {"kind": "constant", "amount": 0.0})
    _reject_unknown(impl_block, {"kind", "amount"}, f"{path}.impl_value")
    noise_block = block.get("noise")
    noise = None
    if noise_block is not None:
        _reject_unknown(noise_block, {"epsilon"}, f"{path}.noise")
        with _at(f"{path}.noise"):
            noise = NoiseSpec(epsilon=_number(
                _need(noise_block, "epsilon", f"{path}.noise"),
                f"{path}.noise.epsilon"))
    with _at(path):
        return ResearcherPayoffModel(
            base_pub=_number(block.get("base_pub", 0.0), f"{path}.base_pub"),
            impl_value=ImplValue(
                kind=impl_block.get("kind", "constant"),
                amount=_number(impl_block.get("amount", 0.0),
                               f"{path}.impl_value.amount")),
            failure_exposure=_number(block.get("failure_exposure", 0.0),
                                     f"{path}.failure_exposure"),
            noise=noise)


def _risk_strategy(block: dict) -> ResearcherRisk:
    """Each variant is a (contract, hedge) pair: none, transfer and exchange
    hedge a full guarantee; tail_only and proportional_only are unhedged
    tail and proportional guarantees."""
    path = "risk_strategy"
    _reject_unknown(block, {"variant", "retained", "premium", "assumed",
                            "partner_loss", "k", "share"}, path)
    variant = _need(block, "variant", path)
    with _at(path):
        if variant == "none":
            return ResearcherRisk()
        if variant == "transfer":
            return ResearcherRisk(hedge=RiskTransfer(
                retained=_number(_need(block, "retained", path), f"{path}.retained"),
                premium=_number(block.get("premium", 0.0), f"{path}.premium")))
        if variant == "exchange":
            partner = _need(block, "partner_loss", path)
            _reject_unknown(partner, {"values", "probs"}, f"{path}.partner_loss")
            law = DiscreteDist(_need(partner, "values", f"{path}.partner_loss"),
                               _need(partner, "probs", f"{path}.partner_loss"))
            return ResearcherRisk(hedge=RiskExchange(
                retained=_number(_need(block, "retained", path), f"{path}.retained"),
                assumed=_number(_need(block, "assumed", path), f"{path}.assumed"),
                partner_loss=law))
        if variant == "tail_only":
            return ResearcherRisk(TailGuarantee(
                k=_number(_need(block, "k", path), f"{path}.k")))
        if variant == "proportional_only":
            return ResearcherRisk(ProportionalGuarantee(
                share=_number(_need(block, "share", path), f"{path}.share")))
    raise ConfigError(f"unknown risk strategy {variant!r}", f"{path}.variant")


def _pool(block: dict) -> PoolSpec:
    path = "pool"
    _reject_unknown(block, {"iid", "members", "utility", "shares"}, path)
    util_block = _need(block, "utility", path)
    _reject_unknown(util_block, {"form", "risk_aversion"}, f"{path}.utility")
    with _at(f"{path}.utility"):
        utility = UtilitySpec(form=_need(util_block, "form", f"{path}.utility"),
                              risk_aversion=_number(
                                  util_block.get("risk_aversion", 0.0),
                                  f"{path}.utility.risk_aversion"))
    members = []
    if "iid" in block:
        iid = block["iid"]
        _reject_unknown(iid, {"count", "values", "probs", "base"}, f"{path}.iid")
        count = _integer(_need(iid, "count", f"{path}.iid"), f"{path}.iid.count",
                         minimum=1)
        with _at(f"{path}.iid"):
            law = DiscreteDist(_need(iid, "values", f"{path}.iid"),
                               _need(iid, "probs", f"{path}.iid"))
        base = _number(iid.get("base", 0.0), f"{path}.iid.base")
        members = [PoolMember(base=base, loss=law, utility=utility)
                   for _ in range(count)]
    elif "members" in block:
        for i, m in enumerate(block["members"]):
            where = f"{path}.members[{i}]"
            _reject_unknown(m, {"base", "values", "probs"}, where)
            with _at(where):
                law = DiscreteDist(_need(m, "values", where),
                                   _need(m, "probs", where))
            members.append(PoolMember(
                base=_number(m.get("base", 0.0), f"{where}.base"),
                loss=law, utility=utility))
        if not members:
            raise ConfigError("pool needs at least one member", f"{path}.members")
    else:
        raise ConfigError("pool needs either iid or members", path)
    shares = block.get("shares", "equal")
    j = len(members)
    if isinstance(shares, str):
        if shares != "equal":
            raise ConfigError(f"unknown share rule {shares!r}", f"{path}.shares")
        return PoolSpec(members=members, shares=np.full((j, j), 1.0 / j))
    with _at(f"{path}.shares"):
        return PoolSpec(members=members, shares=check_share_matrix(shares, j))


def _grids(block: dict) -> GridSpec:
    path = "grids"
    _reject_unknown(block, {"coverage_denom", "sup_base_denom",
                            "sup_refine_denom", "alpha_levels"}, path)
    base = _integer(block.get("sup_base_denom", 512), f"{path}.sup_base_denom",
                    minimum=2)
    levels = block.get("alpha_levels", GridSpec().alpha_levels)
    if not isinstance(levels, (list, tuple)) or not levels:
        raise ConfigError(f"expected a nonempty list of levels, got {levels!r}",
                          f"{path}.alpha_levels")
    alpha_levels = tuple(_number(a, f"{path}.alpha_levels[{i}]")
                         for i, a in enumerate(levels))
    for i, a in enumerate(alpha_levels):
        if not 0.0 < a < 1.0:
            raise ConfigError(f"level must lie strictly in (0,1), got {a}",
                              f"{path}.alpha_levels[{i}]")
    return GridSpec(
        coverage_denom=_integer(block.get("coverage_denom", 1024),
                                f"{path}.coverage_denom", minimum=2),
        sup_base_denom=base,
        # a coarser lattice refines nothing, and one of 0 or less skips it
        sup_refine_denom=_integer(block.get("sup_refine_denom", 8192),
                                  f"{path}.sup_refine_denom", minimum=base),
        alpha_levels=alpha_levels)


_TOP_KEYS = {"seed", "economics", "procedure", "strategy", "belief", "policy",
             "contract", "utility", "researcher_payoff", "risk_strategy",
             "pool", "grids"}


def scenario_from_dict(data: dict) -> Scenario:
    _reject_unknown(data, _TOP_KEYS, "")
    defaults = default_scenario_dict()
    merged = {**defaults, **data}

    belief_block = merged["belief"]
    _reject_unknown(belief_block, {"untruthful_weight", "conditioning"}, "belief")
    weight = _number(_need(belief_block, "untruthful_weight", "belief"),
                     "belief.untruthful_weight")
    if not 0.0 <= weight <= 1.0:
        raise ConfigError("weight must lie in [0,1]", "belief.untruthful_weight")
    conditioning = belief_block.get("conditioning", "calibrated")
    if conditioning not in CONDITIONING_VARIANTS + ("calibrated",):
        raise ConfigError(f"unknown conditioning {conditioning!r}",
                          "belief.conditioning")

    policy_block = merged["policy"]
    _reject_unknown(policy_block, {"u_bar", "alpha_belief", "p0"}, "policy")
    p0 = policy_block.get("p0")
    if p0 is not None:
        p0 = _number(p0, "policy.p0")
        if not 0.0 < p0 < 1.0:
            raise ConfigError(f"threshold must lie strictly in (0,1), got {p0}",
                              "policy.p0")
    u_bar = _number(_need(policy_block, "u_bar", "policy"), "policy.u_bar")
    if u_bar >= 0.0:
        raise ConfigError(f"loss limit must be negative, got {u_bar}",
                          "policy.u_bar")

    seed = _integer(merged["seed"], "seed", minimum=0)
    if seed >= 2 ** 64:
        raise ConfigError(f"must be below 2**64, got {seed}", "seed")
    procedure = _procedure(merged["procedure"])
    return Scenario(
        seed=seed,
        economics=_economics(merged["economics"]),
        procedure=procedure,
        strategy=_strategy(merged["strategy"], procedure),
        belief_weight=weight,
        belief_conditioning=conditioning,
        policy_u_bar=u_bar,
        policy_alpha=_alpha_belief(_need(policy_block, "alpha_belief", "policy"),
                                   "policy.alpha_belief"),
        policy_p0=p0,
        contract=_contract(merged["contract"]),
        utility=_utility(merged["utility"]),
        researcher_payoff=_payoff(merged["researcher_payoff"]),
        risk_strategy=_risk_strategy(merged["risk_strategy"]),
        pool=_pool(merged["pool"]),
        grids=_grids(merged["grids"]),
    )


def _line_of_key(raw: str, key_path: str) -> Optional[int]:
    """Line of key_path in the raw JSON text.

    Walks the path's keys in order, each searched after the one before it,
    and steps into array items by index; stops at the deepest key found.
    """
    pos = None
    for part in key_path.split(".") if key_path else []:
        name, _, index = part.partition("[")
        found = re.compile(rf'"{re.escape(name)}"\s*:').search(raw, pos or 0)
        if found is None:
            break
        pos = found.end()
        if index:
            pos = _array_item(raw, pos, int(index.rstrip("]")))
    return None if pos is None else raw.count("\n", 0, pos) + 1


def _array_item(raw: str, pos: int, index: int) -> int:
    """Offset of item index of the JSON array that opens at or after pos."""
    start = raw.find("[", pos)
    if start < 0:
        return pos
    depth, in_string, escaped = 0, False, False
    for i in range(start, len(raw)):
        ch = raw[i]
        if in_string:
            in_string = escaped or ch != '"'
            escaped = not escaped and ch == "\\"
            continue
        if ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
            if depth == 0:
                break
        elif ch == "," and depth == 1:
            index -= 1
        if depth == 1 and index == 0 and ch in "[,":
            return re.compile(r"\s*").match(raw, i + 1).end()
    return pos


def load_scenario(path: Optional[str]) -> Scenario:
    """Read and validate a scenario file; None loads the bundled default."""
    if path is None:
        return scenario_from_dict(default_scenario_dict())
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
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
