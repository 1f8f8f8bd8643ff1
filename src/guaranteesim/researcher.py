"""Researcher-side expected utility and risk management.

The researcher weighs publishing with a guarantee attached. Outcomes
enter through a composite payoff: a fixed value of publishing, a
deterministic value of seeing the policy implemented at scale m, an
optional fraction of the loss borne even uninsured, and optional
zero-mean noise. The guarantee itself costs the researcher
contracts.researcher_payment for the offered contract, the same payment
that funds the implementer's payoff; an optional hedge then transfers or
exchanges part of it. Everything is evaluated through a concave utility
with a participation floor.

A position is kept as its independent parts, a base plus weighted laws
(own outcome, exchange partner's loss, noise), and never as their joint
law: UtilitySpec.expected_of_sum evaluates it from per-law moments, the
same route the risk pool takes.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

import numpy as np

from .binomial import binom_pmf_vector
from .contracts import FullGuarantee, InsuranceContract, researcher_payment
from .economics import PolicyEconomics
from .record import Record
from .simulate import DiscreteDist

__all__ = [
    "UtilitySpec",
    "ImplValue",
    "NoiseSpec",
    "ResearcherPayoffModel",
    "RiskTransfer",
    "RiskExchange",
    "ResearcherRisk",
    "Position",
    "researcher_world",
    "no_implementation_world",
    "expected_utility",
    "participation_check",
    "publication_rate_conditions",
    "ConditionRow",
    "ConditionsReport",
    "PoolMember",
    "check_share_matrix",
    "pool_expected_utility",
]

_EXP_CAP = 700.0


class UtilitySpec(Record):
    """Strictly increasing evaluator with v(0) = 0 and a participation floor."""

    form: str  # "linear" or "cara"
    risk_aversion: float = 0.0
    v_bar: float = float("-inf")

    def __post_init__(self):
        if self.form not in ("linear", "cara"):
            raise ValueError(f"unknown utility form {self.form!r}")
        if self.form == "cara" and self.risk_aversion <= 0.0:
            raise ValueError("CARA needs a positive risk aversion")

    def value(self, w):
        w = np.asarray(w, dtype=float)
        if self.form == "linear":
            out = w
        else:
            a = self.risk_aversion
            expo = -a * w
            if np.any(expo > _EXP_CAP):
                warnings.warn(
                    "CARA utility saturated: outcomes below the exponent range",
                    RuntimeWarning, stacklevel=2)
                expo = np.minimum(expo, _EXP_CAP)
            out = (1.0 - np.exp(expo)) / a
        return float(out) if out.ndim == 0 else out

    def expected_of_sum(self, base: float, weights, laws) -> float:
        """E[v(base + sum_j w_j*L_j)] for independent laws L_j, w_j >= 0,
        from per-law moments: for CARA, a product of E[exp(-a*w_j*L_j)]
        (Borch 1962) in log space. Saturation warns through value() on the
        worst joint outcome and caps the summed log-moment, not each one."""
        if self.form == "linear":
            return base + sum(w * law.mean() for w, law in zip(weights, laws))
        self.value(base + sum(w * law.values.min() for w, law in zip(weights, laws)))
        a = self.risk_aversion
        log_moment = -a * base
        for w, law in zip(weights, laws):
            live = law.probs > 0.0
            expo = -a * w * law.values[live]
            top = expo.max()
            log_moment += top + np.log(law.probs[live] @ np.exp(expo - top))
        return float(-np.expm1(min(log_moment, _EXP_CAP)) / a)

    def certainty_equivalent(self, eu: float) -> float:
        if self.form == "linear":
            return eu
        a = self.risk_aversion
        inner = 1.0 - a * eu
        if inner <= 0.0:
            raise ValueError(f"expected utility {eu} outside the CARA range")
        return -np.log(inner) / a


class ImplValue(Record):
    """Deterministic value to the researcher of implementation at scale m."""

    kind: str = "constant"  # "constant" or "linear"
    amount: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear"):
            raise ValueError(f"unknown impl_value kind {self.kind!r}")

    def value(self, m: int) -> float:
        if m == 0:
            return 0.0
        return self.amount * m if self.kind == "linear" else self.amount


class NoiseSpec(Record):
    """Zero-mean two-point perturbation, +-epsilon with equal weight."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("noise amplitude must be positive")
        # built once: every researcher world holds it
        object.__setattr__(self, "_law", DiscreteDist(
            [-self.epsilon, self.epsilon], [0.5, 0.5]))

    def law(self) -> DiscreteDist:
        return self._law


class ResearcherPayoffModel(Record):
    base_pub: float = 0.0
    impl_value: ImplValue = ImplValue()
    failure_exposure: float = 0.0  # fraction of the loss borne uninsured
    noise: Optional[NoiseSpec] = None

    def __post_init__(self):
        if not 0.0 <= self.failure_exposure <= 1.0:
            raise ValueError("failure exposure must lie in [0,1]")


class RiskTransfer(Record):
    retained: float  # fraction of the loss kept
    premium: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.retained <= 1.0:
            raise ValueError("retained fraction must lie in [0,1]")
        if self.premium < 0.0:
            raise ValueError("premium cannot be negative")


class RiskExchange(Record):
    retained: float
    assumed: float
    partner_loss: DiscreteDist  # law of the partner's loss (nonpositive support)

    def __post_init__(self):
        if not 0.0 <= self.retained <= 1.0:
            raise ValueError("retained fraction must lie in [0,1]")
        if not 0.0 <= self.assumed <= 1.0:
            raise ValueError("assumed fraction must lie in [0,1]")
        if (self.partner_loss.values > 0.0).any():
            raise ValueError("partner loss law must be nonpositive")


class ResearcherRisk(Record):
    """The guarantee the researcher offers and how its payments are hedged.

    Without a hedge the researcher pays researcher_payment(Y, contract) in
    full; a RiskTransfer keeps a fraction of it for a premium, and a
    RiskExchange keeps a fraction and assumes a share of a partner's loss.
    """

    contract: InsuranceContract = FullGuarantee()
    hedge: Optional[Union[RiskTransfer, RiskExchange]] = None

    def __post_init__(self):
        if not isinstance(self.hedge, (type(None), RiskTransfer, RiskExchange)):
            raise TypeError(f"unknown hedge {self.hedge!r}")


class Position(Record):
    """base + sum_j weights[j] * laws[j], the laws independent, weights >= 0.

    len() is the summed size of the laws, 0 for a sure position.
    """

    base: float
    weights: tuple
    laws: tuple

    def mean(self) -> float:
        return self.base + sum(w * law.mean()
                               for w, law in zip(self.weights, self.laws))

    def __len__(self) -> int:
        return sum(len(law) for law in self.laws)


def _noise_parts(payoff: ResearcherPayoffModel) -> tuple:
    if payoff.noise is None:
        return (), ()
    return (1.0,), (payoff.noise.law(),)


def no_implementation_world(payoff: ResearcherPayoffModel) -> Position:
    """The researcher's position when nothing gets implemented."""
    return Position(payoff.base_pub, *_noise_parts(payoff))


def researcher_world(risk: ResearcherRisk, payoff: ResearcherPayoffModel,
                     m: int, econ: PolicyEconomics, p: float) -> Position:
    """The researcher's position at implementation scale m, in independent
    parts: W + assumed * Z + noise.

    W = v0 - retained * researcher_payment(Y, contract) - premium on the
    m + 1 outcomes of the binomial success count, where v0 collects the
    payoff model's deterministic values and uninsured loss share. An
    exchange hedge adds its assumed share of the partner's independent
    loss Z; the payoff model's noise is the last part.
    """
    if m < 1:
        raise ValueError("implementation scale must be at least 1")
    hedge = risk.hedge
    probs = binom_pmf_vector(m, econ.success_rate(p))
    y = econ.net_outcome(m, np.arange(m + 1))
    v0 = payoff.base_pub + payoff.impl_value.value(m) \
        + payoff.failure_exposure * np.minimum(y, 0.0)
    retained = 1.0 if hedge is None else hedge.retained
    premium = hedge.premium if isinstance(hedge, RiskTransfer) else 0.0
    w = v0 - retained * researcher_payment(y, risk.contract) - premium

    weights, laws = (1.0,), (DiscreteDist(w, probs),)
    if isinstance(hedge, RiskExchange):
        weights, laws = weights + (hedge.assumed,), laws + (hedge.partner_loss,)
    noise_weights, noise_laws = _noise_parts(payoff)
    return Position(0.0, weights + noise_weights, laws + noise_laws)


def expected_utility(position: Position, utility: UtilitySpec) -> float:
    return utility.expected_of_sum(position.base, position.weights,
                                   position.laws)


def participation_check(pub_prob, risk, payoff: ResearcherPayoffModel,
                        utility: UtilitySpec, econ: PolicyEconomics, m: int,
                        p_grid) -> ConditionsReport:
    """Expected utility of offering the guarantee, floor-checked at each p.

    pub_prob maps a true success rate p to the probability the published
    bound triggers implementation. The left-hand side mixes the
    implemented and not-implemented worlds by that probability; the check
    passes when the minimum over the grid stays at or above the floor.
    It is publication_rate_conditions, whose report carries both.
    """
    return publication_rate_conditions(
        pub_prob, risk, payoff, utility, econ, m, p_grid)


class ConditionRow(Record):
    p: float
    lhs: float
    regime: str  # none | upper | lower | vacuous | infeasible
    bound: float
    actual: float
    violated: bool


class ConditionsReport(Record):
    rows: list
    any_violation: bool
    v_bar: float
    base_eu: float  # expected utility when nothing gets implemented
    minimum: float  # the participation check: least lhs over the rows,
    passes: bool  # and whether it stays at or above v_bar


def publication_rate_conditions(pub_prob, risk, payoff: ResearcherPayoffModel,
                                utility: UtilitySpec, econ: PolicyEconomics,
                                m: int, p_grid,
                                atol: float = 1e-12) -> ConditionsReport:
    """Bounds the participation floor imposes on Pr(trigger) at each p.

    With A the not-implemented expected utility and B the implemented one,
    the floor requires (1-pr)A + pr*B >= v_bar. When only B falls short
    the requirement caps pr from above (a false-positive limit); when only
    A falls short it forces pr up from below (a power requirement); when
    both fall short no pr works; when A = B the probability drops out.
    """
    grid = np.asarray(p_grid, dtype=float)
    v_bar = utility.v_bar
    a_val = expected_utility(no_implementation_world(payoff), utility)
    rows = []
    for p in grid:
        pr = float(pub_prob(p))
        b_val = expected_utility(researcher_world(risk, payoff, m, econ, p),
                                 utility)
        lhs = (1.0 - pr) * a_val + pr * b_val
        scale = max(abs(a_val), abs(b_val), 1.0)
        if abs(a_val - b_val) <= atol * scale:
            regime = "vacuous" if a_val >= v_bar else "infeasible"
            bound = float("nan")
            violated = a_val < v_bar
        elif a_val >= v_bar and b_val >= v_bar:
            regime, bound, violated = "none", float("nan"), False
        elif a_val >= v_bar > b_val:
            bound = (a_val - v_bar) / (a_val - b_val)
            regime, violated = "upper", pr > bound
        elif b_val >= v_bar > a_val:
            bound = (a_val - v_bar) / (a_val - b_val)
            regime, violated = "lower", pr < bound
        else:
            regime, bound, violated = "infeasible", float("nan"), True
        rows.append(ConditionRow(p=float(p), lhs=lhs, regime=regime,
                                 bound=bound, actual=pr, violated=violated))
    minimum = float(np.min([r.lhs for r in rows]))
    return ConditionsReport(rows=rows,
                            any_violation=any(r.violated for r in rows),
                            v_bar=v_bar, base_eu=a_val, minimum=minimum,
                            passes=minimum >= v_bar)


class PoolMember(Record):
    base: float
    loss: DiscreteDist
    utility: UtilitySpec


def check_share_matrix(shares, j: int) -> np.ndarray:
    """shares as a j x j float matrix, checked: nonnegative, rows summing to 1."""
    mat = np.asarray(shares, dtype=float)
    if mat.shape != (j, j):
        raise ValueError(f"share matrix must be {j}x{j}, got {mat.shape}")
    if (mat < 0.0).any():
        raise ValueError("shares cannot be negative")
    if not np.allclose(mat.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("each share-matrix row must sum to 1")
    return mat


def pool_expected_utility(members, share_matrix) -> np.ndarray:
    """Expected utility per member when independent losses are shared.

    share_matrix[i, j] is the fraction of member j's loss borne by member
    i; each row must sum to 1 so every member holds a full portfolio
    share. Identity shares reproduce standalone positions. No joint
    outcome is listed: UtilitySpec.expected_of_sum needs only each law.
    """
    members = list(members)
    shares = check_share_matrix(share_matrix, len(members))
    laws = [mem.loss for mem in members]
    return np.array([mem.utility.expected_of_sum(mem.base, row, laws)
                     for mem, row in zip(members, shares)])
