"""Implementer decision rules.

The implementer sees a published lower bound L and implements only when
L strictly exceeds the break-even rate. Scale comes from a worst-case
expected-loss calculation: without a guarantee, the bound is -c_m times
the believed false positive probability; with one, the contract's payoff
floor takes over. Ties at the threshold never implement.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Union

import numpy as np

from .contracts import (
    FullGuarantee,
    InsuranceContract,
    ProportionalGuarantee,
    TailGuarantee,
)
from .economics import PolicyEconomics

__all__ = [
    "AlphaSchedule",
    "ImplementerPolicy",
    "Decision",
    "ScheduleRequiredError",
    "worst_case_bound",
    "decide_no_guarantee",
    "decide_with_contract",
]


class ScheduleRequiredError(ValueError):
    """A tail guarantee below the loss limit needs an alpha schedule."""


@dataclass(frozen=True)
class AlphaSchedule:
    """Believed false positive probability as a function of the tail level k.

    Piecewise linear between knots, clamped flat outside them, and
    required nondecreasing in k.
    """

    knots: tuple  # ((k, alpha), ...) sorted by k

    def __post_init__(self):
        knots = tuple((float(k), float(a)) for k, a in self.knots)
        object.__setattr__(self, "knots", knots)
        if not knots:
            raise ValueError("schedule needs at least one knot")
        ks = [k for k, _ in knots]
        alphas = [a for _, a in knots]
        if any(k > 0.0 for k in ks):
            raise ValueError("tail levels must be nonpositive")
        if any(not 0.0 <= a <= 1.0 for a in alphas):
            raise ValueError("alpha values must lie in [0,1]")
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            raise ValueError("knots must have strictly increasing k")
        if any(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("alpha must be nondecreasing in k")

    @classmethod
    def constant(cls, alpha: float) -> "AlphaSchedule":
        return cls(((0.0, alpha),))

    def alpha_at(self, k: float) -> float:
        ks = np.array([kk for kk, _ in self.knots])
        alphas = np.array([a for _, a in self.knots])
        return float(np.interp(k, ks, alphas))


@dataclass(frozen=True)
class ImplementerPolicy:
    u_bar: float
    alpha_belief: Union[float, AlphaSchedule]
    p0: float

    def __post_init__(self):
        if self.u_bar >= 0.0:
            raise ValueError(f"loss limit must be negative, got {self.u_bar}")
        if isinstance(self.alpha_belief, (int, float)):
            if not 0.0 <= self.alpha_belief <= 1.0:
                raise ValueError(
                    f"alpha belief must lie in [0,1], got {self.alpha_belief}")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"threshold must lie strictly in (0,1), got {self.p0}")

    @property
    def scalar_alpha(self) -> Optional[float]:
        if isinstance(self.alpha_belief, (int, float)):
            return float(self.alpha_belief)
        return None


@dataclass(frozen=True)
class Decision:
    implement: bool
    scale: int
    bound: float  # worst-case expected value at the chosen scale
    rule: str
    alpha_used: Optional[float] = None

    def __post_init__(self):
        if self.implement != (self.scale > 0):
            raise ValueError("scale must be positive exactly when implementing")

    def to_record(self) -> dict:
        return asdict(self)


def _no_implementation(rule: str) -> Decision:
    return Decision(implement=False, scale=0, bound=0.0, rule=rule)


def worst_case_bound(m: int, alpha: float, econ: PolicyEconomics) -> float:
    """inf over p < p0 of the expected decision value: -c_m * alpha.

    The infimum is approached as p -> 0 where the whole cost is lost on
    every false positive.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    return -econ.cost(m) * alpha


def decide_no_guarantee(L: float, policy: ImplementerPolicy,
                        econ: PolicyEconomics) -> Decision:
    """Implement at the largest scale whose worst case stays above u_bar."""
    alpha = policy.scalar_alpha
    if alpha is None:
        raise ValueError("no-guarantee decisions need a scalar alpha belief")
    if L <= policy.p0:
        return _no_implementation("no_guarantee")
    m = econ.max_scale_under_bound(alpha, policy.u_bar)
    if m == 0:
        return _no_implementation("no_guarantee")
    return Decision(implement=True, scale=m, bound=worst_case_bound(m, alpha, econ),
                    rule="no_guarantee", alpha_used=alpha)


def decide_with_contract(L: float, contract: InsuranceContract,
                         policy: ImplementerPolicy,
                         econ: PolicyEconomics) -> Decision:
    """Decision under a guarantee; scale and bound depend on the contract.

    Full cover floors the payoff at zero, so full scale is always safe.
    A tail floor k that already meets u_bar also allows full scale. A
    deeper tail floor needs the alpha schedule to signal how far to scale
    back. Proportional cover uses the distribution-free worst case
    -(1-s)c_m unless a scalar belief tightens it to -(1-s)*alpha*c_m.
    """
    if L <= policy.p0:
        return _no_implementation(_rule_name(contract))

    if isinstance(contract, FullGuarantee):
        return Decision(implement=True, scale=econ.M, bound=0.0, rule="full")

    if isinstance(contract, TailGuarantee):
        if contract.k >= policy.u_bar:
            contract.check_scale_cost(econ.cost(econ.M))
            return Decision(implement=True, scale=econ.M, bound=contract.k,
                            rule="tail")
        schedule = policy.alpha_belief
        if not isinstance(schedule, AlphaSchedule):
            raise ScheduleRequiredError(
                "tail level below the loss limit requires an AlphaSchedule belief")
        alpha_k = schedule.alpha_at(contract.k)
        m = econ.max_scale_under_bound(alpha_k, policy.u_bar)
        if m == 0:
            return _no_implementation("tail_scaled")
        contract.check_scale_cost(econ.cost(m))
        return Decision(implement=True, scale=m, bound=contract.k,
                        rule="tail_scaled", alpha_used=alpha_k)

    if isinstance(contract, ProportionalGuarantee):
        retained = 1.0 - contract.share
        alpha = policy.scalar_alpha
        alpha_eff = 1.0 if alpha is None else alpha  # no belief: sup Pr = 1
        m = econ.max_scale_under_bound(retained * alpha_eff, policy.u_bar)
        if m == 0:
            return _no_implementation("proportional")
        return Decision(implement=True, scale=m,
                        bound=-retained * alpha_eff * econ.cost(m),
                        rule="proportional", alpha_used=alpha)

    raise TypeError(f"unknown contract {contract!r}")


def _rule_name(contract: InsuranceContract) -> str:
    if isinstance(contract, FullGuarantee):
        return "full"
    if isinstance(contract, TailGuarantee):
        return "tail"
    return "proportional"
