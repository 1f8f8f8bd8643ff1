"""Implementer decision rules.

The implementer sees a published lower bound L and implements only when
L strictly exceeds the break-even rate. Scale comes from a worst-case
expected-loss calculation: without a guarantee, the bound is -c_m times
the believed false positive probability; with one, the contract's payoff
floor takes over. Ties at the threshold never implement. Every rule reads
its believed rate from ImplementerPolicy.alpha_at.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .contracts import (
    FullGuarantee,
    InsuranceContract,
    ProportionalGuarantee,
    TailGuarantee,
)
from .economics import PolicyEconomics
from .record import Record

__all__ = [
    "AlphaSchedule",
    "ImplementerPolicy",
    "Decision",
    "worst_case_bound",
    "decide_no_guarantee",
    "decide_with_contract",
]


class AlphaSchedule(Record):
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


class ImplementerPolicy(Record):
    u_bar: float
    alpha_belief: Union[float, AlphaSchedule]
    p0: float

    def __post_init__(self):
        if self.u_bar >= 0.0:
            raise ValueError(f"loss limit must be negative, got {self.u_bar}")
        belief = self.alpha_belief
        if not isinstance(belief, (int, float, AlphaSchedule)):
            raise TypeError(f"alpha belief must be a number or an AlphaSchedule, "
                            f"got {belief!r}")
        if not isinstance(belief, AlphaSchedule) and not 0.0 <= belief <= 1.0:
            raise ValueError(f"alpha belief must lie in [0,1], got {belief}")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"threshold must lie strictly in (0,1), got {self.p0}")

    def alpha_at(self, k: Optional[float] = None) -> float:
        """The believed false positive rate a rule uses.

        A scalar belief is the rate at every tail level. A schedule gives
        its rate at the tail level k; a rule with no tail level (k None)
        gets the distribution-free worst case 1.
        """
        if not isinstance(self.alpha_belief, AlphaSchedule):
            return float(self.alpha_belief)
        return 1.0 if k is None else self.alpha_belief.alpha_at(k)


class Decision(Record):
    implement: bool
    scale: int
    bound: float  # worst-case expected value at the chosen scale
    rule: str
    alpha_used: Optional[float] = None

    def __post_init__(self):
        if self.implement != (self.scale > 0):
            raise ValueError("scale must be positive exactly when implementing")


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
    if L <= policy.p0:
        return _no_implementation("no_guarantee")
    alpha = policy.alpha_at()
    m = econ.max_scale_under_bound(alpha, policy.u_bar)
    if m == 0:
        return _no_implementation("no_guarantee")
    return Decision(implement=True, scale=m, bound=worst_case_bound(m, alpha, econ),
                    rule="no_guarantee", alpha_used=alpha)


_RULES = {FullGuarantee: "full", TailGuarantee: "tail",
          ProportionalGuarantee: "proportional"}


def decide_with_contract(L: float, contract: InsuranceContract,
                         policy: ImplementerPolicy,
                         econ: PolicyEconomics) -> Decision:
    """Decision under a guarantee; scale and bound depend on the contract.

    Full cover floors the payoff at zero, so full scale is always safe.
    A tail floor k that already meets u_bar also allows full scale. A
    deeper tail floor scales back by the believed rate at k. Proportional
    cover leaves the worst case -(1-s)*alpha*c_m, with alpha 1 (distribution
    free) under a schedule.
    """
    rule = _RULES.get(type(contract))
    if rule is None:
        raise TypeError(f"unknown contract {contract!r}")
    if L <= policy.p0:
        return _no_implementation(rule)

    if isinstance(contract, FullGuarantee):
        return Decision(implement=True, scale=econ.M, bound=0.0, rule="full")

    if isinstance(contract, TailGuarantee):
        if contract.k >= policy.u_bar:
            contract.check_scale_cost(econ.cost(econ.M))
            return Decision(implement=True, scale=econ.M, bound=contract.k,
                            rule="tail")
        alpha_k = policy.alpha_at(contract.k)
        m = econ.max_scale_under_bound(alpha_k, policy.u_bar)
        if m == 0:
            return _no_implementation("tail_scaled")
        contract.check_scale_cost(econ.cost(m))
        return Decision(implement=True, scale=m, bound=contract.k,
                        rule="tail_scaled", alpha_used=alpha_k)

    retained = 1.0 - contract.share
    alpha = policy.alpha_at()
    m = econ.max_scale_under_bound(retained * alpha, policy.u_bar)
    if m == 0:
        return _no_implementation("proportional")
    return Decision(implement=True, scale=m,
                    bound=-retained * alpha * econ.cost(m),
                    rule="proportional", alpha_used=alpha)
