"""Publication strategy models and the published-bound mixture.

Three reporting behaviors feed the implementer's decision rule:

* truthful: publish an exact Clopper-Pearson lower bound, always;
* fraudulent: guess the implementer's threshold and clamp the honest
  bound up to the guess, so half the guesses alone clear the threshold;
* selective: run a two-arm comparison first, publish a Wald lower bound
  for the treatment arm only on rejection, otherwise stay silent.

The implementer sees a bound without knowing which behavior produced it,
and reads it against one threshold: every strategy states its exceedance
as exceedance_prob(p, threshold) and exceedance_terms(threshold), draws
published bounds with sample(p, threshold, rng, size), and the selective
gate's control rate is that threshold. Samplers draw counts with
binomial.binom_draws and binom_blocks: the exact cdf inverted at the raw
words of the stream's Philox, each the uniform rng.random would make of
it. A published bound depends only on the sampler's state (the count,
the guess and count, or the two arms' counts), so each sampler builds
its table of published values once per call and gathers it per draw.
The mixture functions compute the implementer-facing false positive
probability sup_{p<threshold} Pr(L > threshold) under a weighted belief
over behaviors, with three conditioning conventions for how the weight
interacts with the publication event. Each strategy and each mixture
variant states its exceedance as terms (w, num, den) over the treatment
count, and binomial.sup_below takes the supremum of any of them: their
value at the threshold, once its sign-change test certifies it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .binomial import (
    _SEARCH_BLOCK,
    LowerBoundProcedure,
    binom_blocks,
    binom_draws,
    binom_pmf_dot,
    binom_pmf_vector,
    exceedance_prob,
    exceedance_terms,
    normal_quantile,
    sup_below,
    terms_value,
    wald_lower_vector,
)
from .record import Record

__all__ = [
    "fraud_mixture_fp",
    "TruthfulStrategy",
    "FraudulentStrategy",
    "SelectiveStrategy",
    "MixtureBelief",
    "CONDITIONING_VARIANTS",
    "rct_reject_prob",
    "rct_publish_and_clear_prob",
    "mixture_terms",
    "mixture_fp_at",
    "mixture_actual_fp",
    "actual_fp_curve",
    "CurveRow",
    "calibrate_conditioning",
    "CalibrationResult",
]

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


class TruthfulStrategy(Record):
    """Always publish the procedure's bound on the observed outcome."""

    procedure: LowerBoundProcedure

    def exceedance_prob(self, p: float, threshold: float) -> float:
        return exceedance_prob(self.procedure, p, threshold)

    def exceedance_terms(self, threshold: float) -> list:
        return exceedance_terms(self.procedure, threshold)

    def sample(self, p: float, threshold: float, rng: np.random.Generator,
               size: int) -> np.ndarray:
        """size published bounds drawn at true success rate p; the honest
        bound does not depend on the threshold."""
        return self.procedure.bounds[binom_draws(self.procedure.n, p, rng, size)]


class FraudulentStrategy(Record):
    """Clamp the honest bound up to a guessed decision threshold.

    The guess lands at threshold - spread or threshold + spread with equal
    probability; the published bound is the max of guess and honest bound.
    """

    procedure: LowerBoundProcedure
    guess_spread: float = 0.05

    def __post_init__(self):
        if self.guess_spread <= 0.0:
            raise ValueError(f"guess spread must be positive, got {self.guess_spread}")

    def check_threshold(self, threshold: float) -> None:
        if threshold - self.guess_spread < 0.0 or threshold + self.guess_spread > 1.0:
            raise ValueError(
                f"guesses {threshold}+-{self.guess_spread} leave [0,1]")

    def exceedance_prob(self, p: float, threshold: float) -> float:
        return terms_value(self.procedure.n, self.exceedance_terms(threshold), p)

    def exceedance_terms(self, threshold: float) -> list:
        """0.5 + 0.5 * honest exceedance: the high guess always clears the
        threshold, the low guess leaves the honest bound in charge."""
        self.check_threshold(threshold)
        (_, exceed, ones), = exceedance_terms(self.procedure, threshold)
        return [(0.5, ones, ones), (0.5, exceed, ones)]

    def sample(self, p: float, threshold: float, rng: np.random.Generator,
               size: int) -> np.ndarray:
        """size published bounds; all guesses are drawn before the outcomes.

        The published value depends only on (guess, x): it is read from a
        2 (n+1) table of max(bound, threshold +- spread). A guess is a
        Binomial(1, 1/2) count, of cdf [1/2, 1]: 0, the high guess, when
        its word is below 2**63 (its uniform below 1/2). Guesses take a
        byte each, so the float output is the only array of size floats.
        """
        self.check_threshold(threshold)
        guesses = threshold + self.guess_spread * np.array([[1.0], [-1.0]])
        values = np.maximum(self.procedure.bounds, guesses).ravel()
        n = self.procedure.n
        return _gather_pairs(values, binom_draws(1, 0.5, rng, size),
                             binom_blocks(n, p, rng, size), n + 1)


def _gather_pairs(values: np.ndarray, rows: np.ndarray, blocks,
                  width: int) -> np.ndarray:
    """values[rows * width + cols] as floats, for compact per-draw rows
    and the (block, cols) pairs of a draw kernel, each block's flat index
    built in one reused intp array: cast before the product, which wraps
    in the rows' own dtype."""
    out, cell = np.empty(rows.size), np.empty(min(rows.size, _SEARCH_BLOCK), np.intp)
    for block, cols in blocks:
        flat = np.multiply(rows[block], width, out=cell[:cols.size],
                           dtype=np.intp)
        np.take(values, np.add(flat, cols, out=flat), out=out[block],
                mode="clip")
    return out


# ---------------------------------------------------------------------------
# Selective reporting: a two-arm one-sided z-test gates publication.

def _rct_gate(n: int, z_crit: float, x_c, x_t):
    """The gate's decision on outcome pairs (x_control, x_treatment).

    The z statistic pools the two sample proportions; pairs where the
    pooled proportion is 0 or 1 leave z undefined and count as
    non-rejection.
    """
    pc = x_c / n
    pt = x_t / n
    pooled = (pc + pt) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (pt - pc) / np.sqrt(2.0 * pooled * (1.0 - pooled) / n)
    return (pooled > 0.0) & (pooled < 1.0) & (z >= z_crit)


@lru_cache(maxsize=64)
def _rct_tables(n: int, alpha_prime: float):
    """Rejection thresholds per x_control and per-treatment Wald bounds.

    thr[x_control] is the first x_treatment at which the gate rejects, or
    n+1 if it never does. z increases with x_treatment, so each row
    rejects from its threshold on (see _rct_rejects for the one cell that
    does not), and a vectorised bisection over the gate's own z finds
    every threshold in O(n log n) time and O(n) memory.
    """
    if n < 2:
        raise ValueError(f"need at least 2 per arm, got n={n}")
    if not 0.0 < alpha_prime < 1.0:
        raise ValueError(f"nominal level must lie in (0,1), got {alpha_prime}")
    z_crit = normal_quantile(1.0 - alpha_prime)
    x_c = np.arange(n + 1)
    lo = np.full(n + 1, -1)     # largest x_treatment known not to reject
    hi = np.full(n + 1, n + 1)  # smallest x_treatment known to reject
    while True:
        open_rows = hi - lo > 1
        if not open_rows.any():
            break
        mid = (lo + hi) // 2
        hit = _rct_gate(n, z_crit, x_c, mid)
        hi = np.where(open_rows & hit, mid, hi)
        lo = np.where(open_rows & ~hit, mid, lo)
    thr, wald = hi, wald_lower_vector(n, alpha_prime)
    thr.setflags(write=False)
    wald.setflags(write=False)
    return thr, wald


def _rct_rejects(thr: np.ndarray, x_c, x_t):
    """Gate decisions for outcome pairs, from the thresholds.

    The all-success pair (n, n) never rejects: its pooled proportion is 1.
    It ends row n, whose other cells have z < 0 and so reject only at
    nominal levels above 1/2. The sum x_c + x_t must not wrap around:
    binom_draws' counts come in a dtype that holds 2 n.
    """
    n = thr.size - 1
    return (x_t >= thr[x_c]) & (x_c + x_t < 2 * n)


@lru_cache(maxsize=64)
def _rct_control_weights(n: int, alpha_prime: float, p_control: float):
    """Control-arm averages of the rejection and publish-and-clear events,
    where a published bound clears when it exceeds the control rate.

    Returns vectors over x_treatment, so each treatment-arm law costs one
    dot product. Pr(reject | x_treatment) sums the control weights of the
    rows whose threshold is at most x_treatment: a cumulative sum over
    threshold buckets, O(n) per control law.
    """
    thr, wald = _rct_tables(n, alpha_prime)
    w_control = binom_pmf_vector(n, p_control)
    reject_given_t = np.cumsum(
        np.bincount(thr, weights=w_control, minlength=n + 2)[:n + 1])
    if thr[n] <= n:  # the pair (n, n) sits in row n's suffix but never rejects
        reject_given_t[n] -= w_control[n]
    clear_given_t = np.where(wald > p_control, reject_given_t, 0.0)
    reject_given_t.setflags(write=False)
    clear_given_t.setflags(write=False)
    return reject_given_t, clear_given_t


def rct_reject_prob(p, p_control: float, n: int, alpha_prime: float):
    """Exact probability the gating test rejects, by full enumeration.

    p may be an array of treatment rates; p_control is one rate.
    """
    reject_given_t, _ = _rct_control_weights(n, alpha_prime, p_control)
    return binom_pmf_dot(n, p, reject_given_t)


def rct_publish_and_clear_prob(p, p_control: float, n: int, alpha_prime: float):
    """Exact Pr(reject AND published Wald bound > p_control); p may be an
    array of treatment rates."""
    _, clear_given_t = _rct_control_weights(n, alpha_prime, p_control)
    return binom_pmf_dot(n, p, clear_given_t)


def _selective_table(n: int, alpha_prime: float) -> np.ndarray:
    """The selective strategy's published value per outcome pair, flat in
    row-major order: entry x_c (n+1) + x_t is the Wald bound wald[x_t]
    where the gate rejects (x_c, x_t), NaN where it stays silent. It holds
    (n+1)**2 floats, 13 KiB at n = 40 and 7.6 MiB at n = 1000; only the
    sampler reads it, and the exact paths keep O(n) memory.
    """
    thr, wald = _rct_tables(n, alpha_prime)
    x_c, x_t = np.ogrid[:n + 1, :n + 1]
    return np.where(_rct_rejects(thr, x_c, x_t), wald[x_t], np.nan).ravel()


class SelectiveStrategy(Record):
    """Publish a treatment-arm Wald bound only when the gating test rejects."""

    n: int
    alpha_prime: float

    def __post_init__(self):
        _rct_tables(self.n, self.alpha_prime)  # validates eagerly

    def reject_prob(self, p: float, p_control: float) -> float:
        return rct_reject_prob(p, p_control, self.n, self.alpha_prime)

    def exceedance_prob(self, p: float, threshold: float) -> float:
        """Pr(published AND bound > threshold), the control arm running at
        the threshold; silence never exceeds."""
        return rct_publish_and_clear_prob(p, threshold, self.n, self.alpha_prime)

    def exceedance_terms(self, threshold: float) -> list:
        _, clear = _rct_control_weights(self.n, self.alpha_prime, threshold)
        return [(1.0, clear, np.ones(self.n + 1))]

    def sample(self, p: float, threshold: float, rng: np.random.Generator,
               size: int) -> np.ndarray:
        """size published Wald bounds, NaN where the gate stays silent; the
        control arm runs at the threshold, as in exceedance_prob.

        All control arms are drawn before the treatment arms, which go
        block by block into the gather of _selective_table's values.
        """
        values = _selective_table(self.n, self.alpha_prime)
        x_c = binom_draws(self.n, threshold, rng, size)
        return _gather_pairs(values, x_c, binom_blocks(self.n, p, rng, size),
                             self.n + 1)


# ---------------------------------------------------------------------------
# The implementer-facing mixture.

class MixtureBelief(Record):
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


def mixture_terms(p_control: float, n: int, alpha_prime: float,
                  belief: MixtureBelief) -> list:
    """Pr(published bound > control rate) as terms (w, num, den) over x_t.

    The untruthful component is the selective strategy; the truthful
    component publishes a Clopper-Pearson bound unconditionally. How the
    belief weight meets the publication event depends on the conditioning:

    * fixed_given_published: weight applies to Pr(bound > thr | rejected),
      a ratio that counts as 0 where rejection has probability zero.
    * joint_unconditional: weight applies to Pr(rejected AND bound > thr).
    * bayes_reweighted: the weight is re-scaled by each component's
      publication probability (1 for the truthful one) before mixing the
      conditional rates, which leaves one ratio of mixed numerators to
      mixed publication probabilities.
    """
    pi = belief.untruthful_weight
    (_, truth, ones), = exceedance_terms(
        LowerBoundProcedure("clopper_pearson", alpha_prime, n), p_control)
    if pi == 0.0:
        return [(1.0, truth, ones)]
    reject, clear = _rct_control_weights(n, alpha_prime, p_control)
    if belief.conditioning == "joint_unconditional":
        return [(pi, clear, ones), (1.0 - pi, truth, ones)]
    if belief.conditioning == "fixed_given_published":
        return [(pi, clear, reject), (1.0 - pi, truth, ones)]
    return [(1.0, pi * clear + (1.0 - pi) * truth, pi * reject + (1.0 - pi))]


def mixture_fp_at(p, p_control: float, n: int, alpha_prime: float,
                  belief: MixtureBelief):
    """The mixture_terms rate at treatment success rate(s) p; an array of
    rates gives an array, a scalar rate a float."""
    return terms_value(n, mixture_terms(p_control, n, alpha_prime, belief), p)


def mixture_actual_fp(alpha_prime: float, p_control: float, n: int,
                      belief: MixtureBelief) -> float:
    """sup over p < p_control of the mixture false positive probability."""
    return sup_below(n, mixture_terms(p_control, n, alpha_prime, belief),
                     p_control)[0]


class CurveRow(Record):
    alpha_nominal: float
    alpha_actual: float
    p_C: float
    variant: str
    n: int
    pi: float


def actual_fp_curve(p_control: float, conditioning: str, alpha_grid, n: int,
                    pi: float) -> list[CurveRow]:
    """Nominal-vs-actual rows across a grid of nominal levels."""
    belief = MixtureBelief(pi, conditioning)
    return [CurveRow(float(a), mixture_actual_fp(a, p_control, n, belief),
                     p_control, conditioning, n, pi) for a in alpha_grid]


class CalibrationResult(Record):
    variant: str
    value: float
    residual: float
    target: float
    candidates: dict
    p_control: float
    n: int
    pi: float
    alpha_prime: float


# The 0.22 anchor's control rate, n, weight and level: calibration's settings.
CAL_P_CONTROL, CAL_N, CAL_PI, CAL_ALPHA, CAL_TARGET = 0.5, 300, 0.5, 0.05, 0.22


def calibrate_conditioning() -> CalibrationResult:
    """Pick the conditioning variant whose actual rate lands nearest the target.

    All three variants are evaluated at the reference settings; the winner
    and the full candidate table are reported so the choice stays visible
    in output metadata rather than baked in silently.
    """
    candidates = {variant: mixture_actual_fp(
        CAL_ALPHA, CAL_P_CONTROL, CAL_N, MixtureBelief(CAL_PI, variant))
        for variant in CONDITIONING_VARIANTS}
    variant = min(candidates, key=lambda v: abs(candidates[v] - CAL_TARGET))
    return CalibrationResult(variant, candidates[variant],
                             abs(candidates[variant] - CAL_TARGET), CAL_TARGET,
                             candidates, CAL_P_CONTROL, CAL_N, CAL_PI, CAL_ALPHA)
