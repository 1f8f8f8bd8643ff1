"""Publication strategy models and the published-bound mixture.

Three reporting behaviors feed the implementer's decision rule:

* truthful: publish an exact Clopper-Pearson lower bound, always;
* fraudulent: guess the implementer's threshold and clamp the honest
  bound up to the guess, so half the guesses alone clear the threshold;
* selective: run a two-arm comparison first, publish a Wald lower bound
  for the treatment arm only on rejection, otherwise stay silent.

The implementer sees a bound without knowing which behavior produced it.
The mixture functions compute the implementer-facing false positive
probability sup_{p<threshold} Pr(L > threshold) under a weighted belief
over behaviors, with three conditioning conventions for how the weight
interacts with the publication event.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .binomial import (
    LowerBoundProcedure,
    binom_pmf_vector,
    exceedance_prob,
    normal_quantile,
    probability_grid,
    refined_grid_max,
    wald_lower_vector,
)

__all__ = [
    "fraud_mixture_fp",
    "TruthfulStrategy",
    "FraudulentStrategy",
    "SelectiveStrategy",
    "MixtureBelief",
    "CONDITIONING_VARIANTS",
    "rct_reject_prob",
    "rct_publish_and_clear_prob",
    "mixture_fp_at",
    "mixture_actual_fp",
    "actual_fp_curve",
    "CurveRow",
    "calibrate_conditioning",
    "CalibrationResult",
    "RCT_ENUMERATION_LIMIT",
]

RCT_ENUMERATION_LIMIT = 2000

CONDITIONING_VARIANTS = (
    "fixed_given_published",
    "joint_unconditional",
    "bayes_reweighted",
)


def fraud_mixture_fp(alpha_prime: float, untruthful_weight: float) -> float:
    """Worst-case false positive rate of the truthful/fraudulent mixture.

    The fraudulent type clears the threshold with probability 0.5 + 0.5*a'
    (a correct guess, or an honest bound that exceeds on its own), so the
    mixture gives (1-pi)*a' + pi*(0.5 + 0.5*a').
    """
    if not 0.0 < alpha_prime < 1.0:
        raise ValueError(f"nominal level must lie in (0,1), got {alpha_prime}")
    if not 0.0 <= untruthful_weight <= 1.0:
        raise ValueError(f"weight must lie in [0,1], got {untruthful_weight}")
    return (1.0 - untruthful_weight) * alpha_prime + untruthful_weight * (
        0.5 + 0.5 * alpha_prime)


@dataclass(frozen=True)
class TruthfulStrategy:
    """Always publish the procedure's bound on the observed outcome."""

    procedure: LowerBoundProcedure

    def exceedance_prob(self, p: float, threshold: float) -> float:
        return exceedance_prob(self.procedure, p, threshold)

    def sample(self, p: float, rng: np.random.Generator, size: int) -> np.ndarray:
        """size published bounds drawn at true success rate p."""
        return self.procedure.bounds[rng.binomial(self.procedure.n, p, size)]


@dataclass(frozen=True)
class FraudulentStrategy:
    """Clamp the honest bound up to a guessed decision threshold.

    The guess lands at threshold - spread or threshold + spread with equal
    probability; the published bound is the max of guess and honest bound.
    """

    procedure: LowerBoundProcedure
    guess_spread: float = 0.05

    def __post_init__(self):
        if self.guess_spread <= 0.0:
            raise ValueError(f"guess spread must be positive, got {self.guess_spread}")

    def _check_threshold(self, threshold: float) -> None:
        if threshold - self.guess_spread < 0.0 or threshold + self.guess_spread > 1.0:
            raise ValueError(
                f"guesses {threshold}+-{self.guess_spread} leave [0,1]")

    def exceedance_prob(self, p: float, threshold: float) -> float:
        """Closed form: the high guess always clears the threshold, the low
        guess leaves the honest bound in charge."""
        self._check_threshold(threshold)
        honest = exceedance_prob(self.procedure, p, threshold)
        return 0.5 + 0.5 * honest

    def sample(self, p: float, threshold: float, rng: np.random.Generator,
               size: int) -> np.ndarray:
        """size published bounds; all guesses are drawn before the outcomes."""
        self._check_threshold(threshold)
        guesses = threshold + self.guess_spread * np.where(
            rng.random(size) < 0.5, 1.0, -1.0)
        xs = rng.binomial(self.procedure.n, p, size)
        return np.maximum(self.procedure.bounds[xs], guesses)


# ---------------------------------------------------------------------------
# Selective reporting: a two-arm one-sided z-test gates publication.

@lru_cache(maxsize=64)
def _rct_tables(n: int, alpha_prime: float):
    """Rejection mask over (x_control, x_treatment) and per-treatment Wald bounds.

    The z statistic pools the two sample proportions; cells where the pooled
    proportion is 0 or 1 leave z undefined and count as non-rejection.
    """
    if n < 2:
        raise ValueError(f"need at least 2 per arm, got n={n}")
    if n > RCT_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration supports n <= {RCT_ENUMERATION_LIMIT}, got {n}")
    if not 0.0 < alpha_prime < 1.0:
        raise ValueError(f"nominal level must lie in (0,1), got {alpha_prime}")
    z_crit = normal_quantile(1.0 - alpha_prime)
    phat = np.arange(n + 1) / n
    pooled = (phat[:, None] + phat[None, :]) / 2.0
    gap = phat[None, :] - phat[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = gap / np.sqrt(2.0 * pooled * (1.0 - pooled) / n)
    reject = np.where((pooled > 0.0) & (pooled < 1.0), z >= z_crit, False)
    wald = wald_lower_vector(n, alpha_prime)
    reject.setflags(write=False)
    wald.setflags(write=False)
    return reject, wald


@lru_cache(maxsize=64)
def _rct_control_weights(n: int, alpha_prime: float, p_control: float,
                         threshold: float):
    """Control-arm averages of the rejection and publish-and-clear masks.

    Returns vectors over x_treatment, so each treatment-arm law costs one
    dot product instead of an n^2 sweep.
    """
    reject, wald = _rct_tables(n, alpha_prime)
    w_control = binom_pmf_vector(n, p_control)
    reject_given_t = w_control @ reject
    clear = reject & (wald > threshold)[None, :]
    clear_given_t = w_control @ clear
    reject_given_t.setflags(write=False)
    clear_given_t.setflags(write=False)
    return reject_given_t, clear_given_t


def rct_reject_prob(p: float, p_control: float, n: int, alpha_prime: float) -> float:
    """Exact probability the gating test rejects, by full enumeration."""
    _check_prob(p, "treatment probability")
    _check_prob(p_control, "control probability")
    reject_given_t, _ = _rct_control_weights(n, alpha_prime, p_control, p_control)
    return float(reject_given_t @ binom_pmf_vector(n, p))


def rct_publish_and_clear_prob(p: float, p_control: float, n: int,
                               alpha_prime: float,
                               threshold: Optional[float] = None) -> float:
    """Exact Pr(reject AND published Wald bound > threshold).

    threshold defaults to the control rate, the natural decision cutoff.
    """
    _check_prob(p, "treatment probability")
    _check_prob(p_control, "control probability")
    thr = p_control if threshold is None else threshold
    _, clear_given_t = _rct_control_weights(n, alpha_prime, p_control, thr)
    return float(clear_given_t @ binom_pmf_vector(n, p))


def _check_prob(value: float, label: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} must lie in [0,1], got {value}")


@dataclass(frozen=True)
class SelectiveStrategy:
    """Publish a treatment-arm Wald bound only when the gating test rejects."""

    n: int
    alpha_prime: float

    def __post_init__(self):
        _rct_tables(self.n, self.alpha_prime)  # validates eagerly

    def reject_prob(self, p: float, p_control: float) -> float:
        return rct_reject_prob(p, p_control, self.n, self.alpha_prime)

    def exceedance_prob(self, p: float, p_control: float,
                        threshold: Optional[float] = None) -> float:
        """Pr(published AND bound > threshold); silence never exceeds."""
        return rct_publish_and_clear_prob(
            p, p_control, self.n, self.alpha_prime, threshold)

    def sample(self, p: float, p_control: float, rng: np.random.Generator,
               size: int) -> np.ndarray:
        """size published Wald bounds, NaN where the gate stays silent.

        All control arms are drawn before the treatment arms.
        """
        reject, wald = _rct_tables(self.n, self.alpha_prime)
        x_c = rng.binomial(self.n, p_control, size)
        x_t = rng.binomial(self.n, p, size)
        return np.where(reject[x_c, x_t], wald[x_t], np.nan)


# ---------------------------------------------------------------------------
# The implementer-facing mixture.

@dataclass(frozen=True)
class MixtureBelief:
    untruthful_weight: float
    conditioning: str = "fixed_given_published"

    def __post_init__(self):
        if not 0.0 <= self.untruthful_weight <= 1.0:
            raise ValueError(
                f"weight must lie in [0,1], got {self.untruthful_weight}")
        if self.conditioning not in CONDITIONING_VARIANTS:
            raise ValueError(
                f"conditioning must be one of {CONDITIONING_VARIANTS}, "
                f"got {self.conditioning!r}")


@lru_cache(maxsize=64)
def _truthful_proc(n: int, alpha_prime: float) -> LowerBoundProcedure:
    return LowerBoundProcedure("clopper_pearson", alpha_prime, n)


def mixture_fp_at(p: float, p_control: float, n: int, alpha_prime: float,
                  belief: MixtureBelief,
                  truthful_proc: Optional[LowerBoundProcedure] = None) -> float:
    """Pr(published bound > control rate) at one treatment success rate p.

    The untruthful component is the selective strategy; the truthful
    component publishes a Clopper-Pearson bound unconditionally. How the
    belief weight meets the publication event depends on the conditioning:

    * fixed_given_published: weight applies to Pr(bound > thr | rejected);
      a grid point where rejection has probability zero contributes the
      truthful term only.
    * joint_unconditional: weight applies to Pr(rejected AND bound > thr).
    * bayes_reweighted: the weight is re-scaled by each component's
      publication probability before mixing the conditional rates.
    """
    pi = belief.untruthful_weight
    proc = truthful_proc or _truthful_proc(n, alpha_prime)
    w_t = binom_pmf_vector(n, p)
    # exceedance_prob(proc, p, p_control), sharing the pmf with the RCT terms
    truth = 1.0 - float(w_t[np.asarray(proc.bounds) <= p_control].sum())
    if pi == 0.0:
        return truth
    reject_given_t, clear_given_t = _rct_control_weights(
        n, alpha_prime, p_control, p_control)
    pr_reject = float(reject_given_t @ w_t)
    pr_joint = float(clear_given_t @ w_t)
    if belief.conditioning == "joint_unconditional":
        return pi * pr_joint + (1.0 - pi) * truth
    conditional = pr_joint / pr_reject if pr_reject > 0.0 else 0.0
    if belief.conditioning == "fixed_given_published":
        return pi * conditional + (1.0 - pi) * truth
    # bayes_reweighted: publication probability 1 for the truthful component
    denom = pi * pr_reject + (1.0 - pi)
    w = pi * pr_reject / denom if denom > 0.0 else 0.0
    return w * conditional + (1.0 - w) * truth


def mixture_actual_fp(alpha_prime: float, p_control: float, n: int,
                      belief: MixtureBelief,
                      truthful_proc: Optional[LowerBoundProcedure] = None,
                      p_grid=None, base_denom: int = 512,
                      refine_denom: int = 8192) -> float:
    """sup over p < p_control of the mixture false positive probability."""
    if not 0.0 < p_control < 1.0:
        raise ValueError(
            f"control rate must lie strictly in (0,1), got {p_control}")
    if p_grid is None:
        p_grid = probability_grid(base_denom, lo=0.0, hi=p_control)
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.size == 0:
        raise ValueError("empty probability grid")
    if (p_grid >= p_control).any():
        raise ValueError("sup grid must lie strictly below the control rate")
    value, _ = refined_grid_max(
        lambda p: mixture_fp_at(p, p_control, n, alpha_prime, belief, truthful_proc),
        p_grid, refine_denom, 0.0, p_control)
    return value


@dataclass(frozen=True)
class CurveRow:
    alpha_nominal: float
    alpha_actual: float
    p_C: float
    variant: str
    n: int
    pi: float


def actual_fp_curve(p_control: float, conditioning: str, alpha_grid, n: int,
                    pi: float, base_denom: int = 512,
                    refine_denom: int = 8192) -> list[CurveRow]:
    """Nominal-vs-actual rows across a grid of nominal levels."""
    belief = MixtureBelief(pi, conditioning)
    rows = []
    for alpha_prime in alpha_grid:
        actual = mixture_actual_fp(
            alpha_prime, p_control, n, belief,
            base_denom=base_denom, refine_denom=refine_denom)
        rows.append(CurveRow(
            alpha_nominal=float(alpha_prime), alpha_actual=actual,
            p_C=p_control, variant=conditioning, n=n, pi=pi))
    return rows


@dataclass(frozen=True)
class CalibrationResult:
    variant: str
    value: float
    residual: float
    target: float
    candidates: dict
    p_control: float
    n: int
    pi: float
    alpha_prime: float


def calibrate_conditioning(p_control: float = 0.5, n: int = 300,
                           pi: float = 0.5, alpha_prime: float = 0.05,
                           target: float = 0.22, base_denom: int = 512,
                           refine_denom: int = 8192) -> CalibrationResult:
    """Pick the conditioning variant whose actual rate lands nearest the target.

    All three variants are evaluated at the reference settings; the winner
    and the full candidate table are reported so the choice stays visible
    in output metadata rather than baked in silently.
    """
    candidates = {}
    for variant in CONDITIONING_VARIANTS:
        candidates[variant] = mixture_actual_fp(
            alpha_prime, p_control, n, MixtureBelief(pi, variant),
            base_denom=base_denom, refine_denom=refine_denom)
    variant = min(candidates, key=lambda v: abs(candidates[v] - target))
    return CalibrationResult(
        variant=variant,
        value=candidates[variant],
        residual=abs(candidates[variant] - target),
        target=target,
        candidates=dict(candidates),
        p_control=p_control,
        n=n,
        pi=pi,
        alpha_prime=alpha_prime,
    )
