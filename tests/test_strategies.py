"""Strategy models against enumeration oracles frozen from an independent
implementation (scipy binomial/beta/normal routines), and mixture suprema
against exact integer arithmetic at p = p_C = 1/2 (_integer_oracle)."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guaranteesim import reproduce, strategies
from guaranteesim.binomial import (
    _SEARCH_BLOCK,
    LowerBoundProcedure,
    binom_draws,
    binom_pmf_vector,
    normal_quantile,
    probability_grid,
    sup_below,
    terms_value,
)
from guaranteesim.strategies import (
    CONDITIONING_VARIANTS,
    FraudulentStrategy,
    MixtureBelief,
    SelectiveStrategy,
    TruthfulStrategy,
    _rct_rejects,
    _rct_tables,
    actual_fp_curve,
    fraud_mixture_fp,
    mixture_actual_fp,
    mixture_fp_at,
    mixture_terms,
    rct_publish_and_clear_prob,
    rct_reject_prob,
)
from guaranteesim.config import GridSpec
from guaranteesim.simulate import SeededStream

# exact-enumeration oracles at (p, p_C, n, alpha')
RCT_NULL_REJECT = 0.0470776088423224        # (.5, .5, 300, .05)
RCT_NULL_JOINT = 0.018476100690602248
RCT_BELOW_REJECT = 0.0018708158555506603    # (.45, .5, 300, .05)
RCT_BELOW_JOINT = 0.00010783388961052952
RCT_SMALL_REJECT = 0.04637621794708202      # (.45, .5, 40, .1)
RCT_SMALL_JOINT = 0.016877256235912245

# sup over p < 0.5 of the mixture rate, n=300, pi=0.5: the rate at
# p = 1/2 itself, from _integer_oracle
SUP_FIXED_05 = 0.2197061623312159
SUP_FIXED_025 = 0.19690259077455816
SUP_JOINT_05 = 0.032713975575006
SUP_JOINT_025 = 0.015610590112664758
SUP_BAYES_05 = 0.06248624800825502
SUP_BAYES_025 = 0.030431700105435857
SUP_TRUTHFUL_05 = 0.04695185045940976      # pi = 0
SUP_TRUTHFUL_025 = 0.021564249638610856

# the same suprema as an open 512-point grid refined at 1/8192 found them:
# lower witnesses, which the certified supremum must not fall below
GRID_FIXED_05 = 0.2188865524359944
GRID_FIXED_025 = 0.1961846442112993
GRID_JOINT_05 = 0.032421129774443475
GRID_JOINT_025 = 0.01545285370252105
GRID_BAYES_05 = 0.06194423251906704
GRID_BAYES_025 = 0.0301294785659469
SUPS = {
    ("fixed_given_published", 0.05): SUP_FIXED_05,
    ("fixed_given_published", 0.025): SUP_FIXED_025,
    ("joint_unconditional", 0.05): SUP_JOINT_05,
    ("joint_unconditional", 0.025): SUP_JOINT_025,
    ("bayes_reweighted", 0.05): SUP_BAYES_05,
    ("bayes_reweighted", 0.025): SUP_BAYES_025,
}


def _dense_z(n, rows=None):
    """The gate's z over every (x_control, x_treatment) pair, NaN where the
    pooled proportion is 0 or 1: the (n+1)^2 table the thresholds replaced.
    rows picks x_control values, for n too large for the whole table."""
    phat = np.arange(n + 1) / n
    phat_c = phat if rows is None else phat[rows]
    pooled = (phat_c[:, None] + phat[None, :]) / 2.0
    gap = phat[None, :] - phat_c[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = gap / np.sqrt(2.0 * pooled * (1.0 - pooled) / n)
    return np.where((pooled > 0.0) & (pooled < 1.0), z, np.nan)


def _dense_reject(n, alpha_prime, z=None):
    """Rejection mask over (x_control, x_treatment), the oracle for n <= 2000."""
    z = _dense_z(n) if z is None else z
    with np.errstate(invalid="ignore"):
        return z >= normal_quantile(1.0 - alpha_prime)


def _integer_oracle(n, alpha_prime, variant, pi=Fraction(1, 2)):
    """The mixture rate at p = p_C = 1/2 in exact rationals.

    Each arm's law is C(n, x) / 2^n. CP(x) > 1/2 exactly when
    Pr_{1/2}(X >= x) < alpha', and the gate is the dense mask above; only
    the Wald bounds and the mask are floating point.
    """
    w = [comb(n, x) for x in range(n + 1)]
    tails = np.cumsum(w[::-1])[::-1]
    pt = Fraction(sum(wx for wx, tail in zip(w, tails)
                      if Fraction(int(tail), 2 ** n) < Fraction(alpha_prime)),
                  2 ** n)
    if pi == 0:
        return float(pt)
    phat = np.arange(n + 1) / n
    wald = phat - normal_quantile(1.0 - alpha_prime) * np.sqrt(
        phat * (1.0 - phat) / n)
    reject = _dense_reject(n, alpha_prime)
    pr = pj = 0
    for x_c, row in enumerate(reject):
        pr += w[x_c] * sum(w[t] for t in np.flatnonzero(row))
        pj += w[x_c] * sum(w[t] for t in np.flatnonzero(row & (wald > 0.5)))
    pr, pj = Fraction(pr, 4 ** n), Fraction(pj, 4 ** n)
    if variant == "fixed_given_published":
        return float(pi * pj / pr + (1 - pi) * pt)
    if variant == "joint_unconditional":
        return float(pi * pj + (1 - pi) * pt)
    return float((pi * pj + (1 - pi) * pt) / (pi * pr + 1 - pi))


FIXED_CURVE = {
    0.001: 0.08403193079171668,
    0.005: 0.11371371135450739,
    0.01: 0.1580747589617306,
    0.025: 0.19690259077455816,
    0.05: 0.2197061623312159,
    0.075: 0.2548612160204676,
    0.1: 0.268540470870981,
    0.15: 0.34366816470597855,
    0.2: 0.3777498069053446,
}


class TestClosedFormMixture:
    def test_frozen_point(self):
        assert fraud_mixture_fp(0.01, 0.25) == pytest.approx(0.13375, abs=1e-12)

    @given(a=st.floats(0.001, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_identity_at_quarter_weight(self, a):
        assert fraud_mixture_fp(a, 0.25) == pytest.approx(0.875 * a + 0.125,
                                                          abs=1e-12)

    @given(a=st.floats(0.001, 0.5), pi1=st.floats(0.0, 1.0),
           pi2=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_weight(self, a, pi1, pi2):
        lo, hi = sorted((pi1, pi2))
        assert fraud_mixture_fp(a, lo) <= fraud_mixture_fp(a, hi) + 1e-12


class TestIndividualStrategies:
    def test_truthful_inherits_procedure(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 40)
        strat = TruthfulStrategy(proc)
        for p in (0.2, 0.4):
            assert 0.0 <= strat.exceedance_prob(p, 0.4) <= 1.0
        rng = SeededStream(5, 0).generator()
        published = strat.sample(0.3, 0.4, rng, 50)
        assert published.shape == (50,)
        assert set(published.tolist()) <= set(proc.bounds.tolist())
        # the honest bound ignores the threshold
        again = strat.sample(0.3, 0.9, SeededStream(5, 0).generator(), 50)
        assert np.array_equal(published, again)

    def test_fraudulent_shifts_by_half(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 40)
        honest = TruthfulStrategy(proc)
        fraud = FraudulentStrategy(proc, guess_spread=0.05)
        for p in (0.1, 0.3, 0.39):
            assert fraud.exceedance_prob(p, 0.4) == pytest.approx(
                0.5 + 0.5 * honest.exceedance_prob(p, 0.4), abs=1e-12)

    def test_fraudulent_guess_range_validated(self):
        fraud = FraudulentStrategy(LowerBoundProcedure("clopper_pearson", 0.05, 40),
                                   guess_spread=0.1)
        with pytest.raises(ValueError):
            fraud.exceedance_prob(0.3, 0.05)  # low guess would leave [0,1]

    def test_selective_sampling_matches_gate(self):
        strat = SelectiveStrategy(n=40, alpha_prime=0.1)
        rng = SeededStream(11, 0).generator()
        draws = strat.sample(0.45, 0.5, rng, 2000)
        freq = np.mean(~np.isnan(draws))
        exact = strat.reject_prob(0.45, 0.5)
        assert abs(freq - exact) <= 5.0 * np.sqrt(exact * (1 - exact) / 2000)

    CP40 = LowerBoundProcedure("clopper_pearson", 0.05, 40)

    @pytest.mark.parametrize("strat,args,event,exact", [
        (TruthfulStrategy(CP40), (0.5, 0.4), lambda b: b > 0.4,
         lambda s: s.exceedance_prob(0.5, 0.4)),
        (TruthfulStrategy(LowerBoundProcedure("wald", 0.1, 60)), (0.45, 0.4),
         lambda b: b > 0.4, lambda s: s.exceedance_prob(0.45, 0.4)),
        (FraudulentStrategy(CP40, 0.05), (0.3, 0.4), lambda b: b > 0.4,
         lambda s: s.exceedance_prob(0.3, 0.4)),
        (SelectiveStrategy(40, 0.1), (0.6, 0.5), lambda b: ~np.isnan(b),
         lambda s: s.reject_prob(0.6, 0.5)),
        (SelectiveStrategy(40, 0.1), (0.6, 0.5), lambda b: b > 0.5,
         lambda s: s.exceedance_prob(0.6, 0.5)),
    ], ids=["truthful_cp", "truthful_wald", "fraudulent", "selective_reject",
            "selective_clear"])
    def test_sample_rate_matches_exact(self, strat, args, event, exact):
        draws = 20_000
        rng = SeededStream(23, 0).generator()
        freq = float(np.mean(event(strat.sample(*args, rng, draws))))
        target = exact(strat)
        assert 0.0 < target < 1.0
        assert abs(freq - target) <= 5.0 * np.sqrt(target * (1 - target) / draws)

    def test_sample_draw_order(self):
        # fraud draws every guess before the outcomes; selective draws the
        # control arm before the treatment arm; counts come from binom_draws
        fraud = FraudulentStrategy(self.CP40, 0.05)
        got = fraud.sample(0.3, 0.4, SeededStream(3, 0).generator(), 100)
        rng = SeededStream(3, 0).generator()
        guesses = np.where(rng.random(100) < 0.5, 0.45, 0.35)
        want = np.maximum(self.CP40.bounds[binom_draws(40, 0.3, rng, 100)],
                          guesses)
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)
        sel = SelectiveStrategy(40, 0.1)
        got = sel.sample(0.45, 0.5, SeededStream(4, 0).generator(), 100)
        reject = _dense_reject(40, 0.1)
        _, wald = _rct_tables(40, 0.1)
        rng = SeededStream(4, 0).generator()
        x_c = binom_draws(40, 0.5, rng, 100)
        x_t = binom_draws(40, 0.45, rng, 100)
        want = np.where(reject[x_c, x_t], wald[x_t], np.nan)
        assert np.array_equal(got, want, equal_nan=True)


class TestRctEnumeration:
    @pytest.mark.parametrize("p,reject,joint,n,a", [
        (0.5, RCT_NULL_REJECT, RCT_NULL_JOINT, 300, 0.05),
        (0.45, RCT_BELOW_REJECT, RCT_BELOW_JOINT, 300, 0.05),
    ])
    def test_frozen_large(self, p, reject, joint, n, a):
        assert rct_reject_prob(p, 0.5, n, a) == pytest.approx(reject, abs=1e-9)
        assert rct_publish_and_clear_prob(p, 0.5, n, a) == pytest.approx(
            joint, abs=1e-9)

    def test_frozen_small(self):
        assert rct_reject_prob(0.45, 0.5, 40, 0.1) == pytest.approx(
            RCT_SMALL_REJECT, abs=1e-9)
        assert rct_publish_and_clear_prob(0.45, 0.5, 40, 0.1) == pytest.approx(
            RCT_SMALL_JOINT, abs=1e-9)

    @given(p=st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_joint_never_exceeds_reject(self, p):
        r = rct_reject_prob(p, 0.5, 40, 0.1)
        j = rct_publish_and_clear_prob(p, 0.5, 40, 0.1)
        assert -1e-12 <= j <= r + 1e-12

    def test_degenerate_pooled_cells_never_reject(self):
        # at 0.9, z_crit < -1 and row n rejects before reaching (n, n)
        for a in (0.1, 0.9):
            thr, _ = _rct_tables(40, a)
            assert not _rct_rejects(thr, 0, 0)
            assert not _rct_rejects(thr, 40, 40)
        assert thr[40] <= 40

    def test_rejection_at_zero_control_implies_positive_bound(self):
        # if the gate rejects with an empty control arm, the published
        # Wald bound is already positive
        for n in (12, 40):
            thr, wald = _rct_tables(n, 0.1)
            assert thr[0] <= n
            assert (wald[thr[0]:] > 0.0).all()

    @pytest.mark.parametrize("n", [12, 40, 300, 1000, 2000])
    def test_thresholds_match_dense_table(self, n):
        z = _dense_z(n)
        cells = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        for a in (0.2, 0.05, 0.01, 0.001, 0.5, 0.9):
            dense = _dense_reject(n, a, z)
            thr, _ = _rct_tables(n, a)
            first = np.where(dense.any(axis=1), dense.argmax(axis=1), n + 1)
            assert np.array_equal(thr, first)
            assert np.array_equal(_rct_rejects(thr, *cells), dense)

    def test_thresholds_match_dense_rows_at_ten_thousand(self):
        # the whole (n+1)^2 table has 10^8 cells: check 64 sampled rows
        n = 10_000
        rows = np.sort(np.random.default_rng(7).choice(n + 1, 64, replace=False))
        z = _dense_z(n, np.concatenate([rows, [0, n]]))
        for a in (0.05, 0.001):
            dense = _dense_reject(n, a, z)
            thr, _ = _rct_tables(n, a)
            first = np.where(dense.any(axis=1), dense.argmax(axis=1), n + 1)
            assert np.array_equal(thr[np.concatenate([rows, [0, n]])], first)

    @pytest.mark.parametrize("n,a,p_c,p", [
        (40, 0.1, 0.5, 0.45), (300, 0.05, 0.5, 0.55), (3, 0.9, 0.9, 0.9),
    ])
    def test_control_weights_match_dense_table(self, n, a, p_c, p):
        # rows of the dense mask averaged over the control law, the
        # enumeration the cumulative threshold sums replaced
        dense = _dense_reject(n, a)
        _, wald = _rct_tables(n, a)
        w_c, w_t = binom_pmf_vector(n, p_c), binom_pmf_vector(n, p)
        reject = w_c @ dense @ w_t
        clear = w_c @ (dense & (wald > p_c)[None, :]) @ w_t
        assert rct_reject_prob(p, p_c, n, a) == pytest.approx(reject, rel=1e-12)
        assert rct_publish_and_clear_prob(p, p_c, n, a) == pytest.approx(
            clear, rel=1e-12)

    @pytest.mark.parametrize("n,a,p_c,p", [
        (40, 0.1, 0.5, 0.45), (300, 0.01, 0.3, 0.4), (3, 0.9, 0.9, 0.9),
        (127, 0.9, 0.99, 0.99), (128, 0.9, 0.99, 0.99), (255, 0.9, 0.99, 0.99),
        (256, 0.9, 0.99, 0.99),
    ])
    def test_sample_matches_dense_mask(self, n, a, p_c, p):
        # (3, 0.9) at rates 0.9 draws the never-rejecting pair (n, n) often;
        # at n = 127, 128, 255 and 256 its count sum 2 n sits at the edge of
        # a uint8 or uint16, where a fixed-width sum could wrap around to a
        # rejecting pair; the dense mask is computed on int64 counts
        got = SelectiveStrategy(n, a).sample(
            p, p_c, SeededStream(31, 0).generator(), 5000)
        rng = SeededStream(31, 0).generator()
        x_c = binom_draws(n, p_c, rng, 5000)
        x_t = binom_draws(n, p, rng, 5000)
        _, wald = _rct_tables(n, a)
        want = np.where(_dense_reject(n, a)[x_c, x_t], wald[x_t], np.nan)
        assert np.array_equal(got, want, equal_nan=True)


def _uniform_counts(n, p, rng, size):
    # binom_draws' counts, each the searchsorted count of one
    # Generator.random uniform, p > 1/2 flipped
    cdf = np.cumsum(binom_pmf_vector(n, min(p, 1.0 - p)))
    cdf /= cdf[-1]
    xs = cdf.searchsorted(rng.random(size), side="right")
    return n - xs if p > 0.5 else xs


def _per_draw_truthful(strat, p, threshold, rng, size):
    return strat.procedure.bounds[_uniform_counts(strat.procedure.n, p, rng, size)]


def _per_draw_fraudulent(strat, p, threshold, rng, size):
    # every guess, then the outcomes; the clamp taken draw by draw
    high = rng.random(size) < 0.5
    xs = _uniform_counts(strat.procedure.n, p, rng, size)
    guesses = threshold + strat.guess_spread * np.where(high, 1.0, -1.0)
    return np.maximum(strat.procedure.bounds[xs], guesses)


def _per_draw_selective(strat, p, threshold, rng, size):
    # every control arm, then the treatment arms; the gate taken draw by draw
    thr, wald = _rct_tables(strat.n, strat.alpha_prime)
    x_c = _uniform_counts(strat.n, threshold, rng, size)
    x_t = _uniform_counts(strat.n, p, rng, size)
    return np.where(_rct_rejects(thr, x_c, x_t), wald[x_t], np.nan)


class TestTableSamplers:
    """The samplers read published values from per-state tables and draw
    from raw words; these compare them, bit for bit, with the per-draw
    rules they replaced on the Generator.random uniforms of a twin stream."""

    SIZES = (1, _SEARCH_BLOCK - 1, _SEARCH_BLOCK, _SEARCH_BLOCK + 1,
             3 * _SEARCH_BLOCK + 5)
    # (rate, threshold): the ends of [0, 1] and rates above 1/2 for both
    LAWS = ((0.0, 0.5), (1.0, 0.5), (0.3, 0.0), (0.7, 1.0), (0.45, 0.5),
            (0.9, 0.6))

    @staticmethod
    def _strategies(n):
        cp = LowerBoundProcedure("clopper_pearson", 0.05, n)
        return [(TruthfulStrategy(cp), _per_draw_truthful),
                (TruthfulStrategy(LowerBoundProcedure("wald", 0.1, n)),
                 _per_draw_truthful),
                (FraudulentStrategy(cp, 0.1), _per_draw_fraudulent),
                (SelectiveStrategy(n, 0.1), _per_draw_selective),
                (SelectiveStrategy(n, 0.9), _per_draw_selective)]

    @pytest.mark.parametrize("n", [2, 40, 127, 128, 255, 256])
    def test_tables_give_the_per_draw_samples(self, n):
        case = 0
        for strat, per_draw in self._strategies(n):
            for p, threshold in self.LAWS:
                if isinstance(strat, FraudulentStrategy):
                    # the guesses must stay in [0, 1]: they reach its ends
                    threshold = min(max(threshold, 0.1), 0.9)
                for size in self.SIZES:
                    case += 1
                    seed = SeededStream(n, case)
                    rng, ref_rng = seed.generator(), seed.generator()
                    got = strat.sample(p, threshold, rng, size)
                    want = per_draw(strat, p, threshold, ref_rng, size)
                    assert got.dtype == np.float64 and got.shape == (size,)
                    assert np.array_equal(got, want, equal_nan=True), (
                        strat, p, threshold, size)
                    # the stream was read as far as the per-draw rule read it
                    assert (str(rng.bit_generator.state)
                            == str(ref_rng.bit_generator.state))

    def test_other_bit_generators_are_refused(self):
        # every draw inverts raw words, which are Generator.random's
        # uniforms only under Philox: MT19937 makes a double of two words,
        # so its words are refused, not misread
        rng = np.random.Generator(np.random.MT19937(3))
        samplers = [lambda size, strat=strat: strat.sample(0.3, 0.5, rng, size)
                    for strat, _ in self._strategies(40)]
        samplers += [lambda size: binom_draws(40, 0.3, rng, size),
                     lambda size: reproduce._exact_cdf_sampler(20, 0.3)(rng, size)]
        for sample in samplers:
            for size in (0, 10):
                with pytest.raises(TypeError, match="Philox"):
                    sample(size)


class TestMixture:
    def test_pi_zero_is_truthful(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 300)
        belief = MixtureBelief(0.0, "fixed_given_published")
        for p in (0.3, 0.45):
            assert mixture_fp_at(p, 0.5, 300, 0.05, belief) == pytest.approx(
                TruthfulStrategy(proc).exceedance_prob(p, 0.5), abs=1e-12)

    @pytest.mark.parametrize("variant,a,grid_sup", [
        ("fixed_given_published", 0.05, GRID_FIXED_05),
        ("fixed_given_published", 0.025, GRID_FIXED_025),
        ("joint_unconditional", 0.05, GRID_JOINT_05),
        ("joint_unconditional", 0.025, GRID_JOINT_025),
        ("bayes_reweighted", 0.05, GRID_BAYES_05),
        ("bayes_reweighted", 0.025, GRID_BAYES_025),
    ])
    def test_frozen_sups(self, variant, a, grid_sup):
        value = mixture_actual_fp(a, 0.5, 300, MixtureBelief(0.5, variant))
        assert value == pytest.approx(SUPS[variant, a], abs=1e-12)
        assert value > grid_sup

    @pytest.mark.parametrize("variant,a,target", [
        (variant, a, target) for (variant, a), target in SUPS.items()] + [
        (None, 0.05, SUP_TRUTHFUL_05),
        (None, 0.025, SUP_TRUTHFUL_025),
    ] + [("fixed_given_published", a, v) for a, v in FIXED_CURVE.items()
         if ("fixed_given_published", a) not in SUPS])
    def test_frozen_values_match_integer_oracle(self, variant, a, target):
        pi = Fraction(0) if variant is None else Fraction(1, 2)
        assert _integer_oracle(300, a, variant, pi) == pytest.approx(
            target, abs=1e-12)

    def test_default_anchor_is_certified(self):
        belief = MixtureBelief(0.5, "fixed_given_published")
        value, argmax, certificate = sup_below(
            300, mixture_terms(0.5, 300, 0.05, belief), 0.5)
        assert certificate == "sign_change" and argmax == 0.5
        assert value == mixture_actual_fp(0.05, 0.5, 300, belief)
        assert value == pytest.approx(
            _integer_oracle(300, 0.05, belief.conditioning), abs=1e-12)

    @given(n=st.sampled_from([2, 12, 40, 300]),
           a=st.sampled_from([0.2, 0.05, 0.01, 0.001, 0.6]),
           p0=st.floats(0.02, 0.98), pi=st.floats(0.0, 1.0),
           variant=st.sampled_from(CONDITIONING_VARIANTS))
    @settings(max_examples=60, deadline=None)
    def test_sup_below_bounds_every_probe(self, n, a, p0, pi, variant):
        terms = mixture_terms(p0, n, a, MixtureBelief(pi, variant))
        value, argmax, certificate = sup_below(n, terms, p0)
        at_p0 = terms_value(n, terms, p0)
        grid = p0 * np.arange(1, 65) / 65.0
        assert value >= at_p0
        assert value >= terms_value(n, terms, grid).max() - 1e-12
        assert 0.0 < argmax <= p0
        if certificate == "sign_change":
            assert value == at_p0 and argmax == p0
        else:
            assert certificate == "grid"

    def test_uncertified_case_falls_back_to_the_grid(self):
        # a nominal level above 0.84 at small n: the bayes signs about r0
        # do not run - then +, and the supremum really lies inside (0, p0)
        p0 = 0.9948027571191351
        terms = mixture_terms(p0, 28, 0.8526879712570676, MixtureBelief(
            0.6918361855380587, "bayes_reweighted"))
        assert terms_value(28, terms, p0) == 0.35303508579391707
        assert sup_below(28, terms, p0) == (
            0.4753908077625439, 0.9720458984375, "grid")

    @pytest.mark.parametrize("n", [40, 300, 1000, 2000])
    @pytest.mark.parametrize("a", [0.2, 0.05, 0.01, 0.001])
    def test_census_certifies_at_the_threshold(self, n, a):
        # the 720-case census, 45 cases per (n, alpha'): every supremum is
        # f(p0) at p0, bit for bit
        for p0 in (0.1, 0.3, 0.5, 0.7, 0.9):
            for pi in (0.25, 0.5, 0.9):
                for variant in CONDITIONING_VARIANTS:
                    terms = mixture_terms(p0, n, a, MixtureBelief(pi, variant))
                    assert sup_below(n, terms, p0) == (
                        terms_value(n, terms, p0), p0, "sign_change")

    @pytest.mark.parametrize("p0,a", [
        (0.001, 0.05), (0.01, 0.001), (0.01, 0.01), (0.05, 0.001),
        (0.05, 0.01), (0.1, 0.001)])
    def test_small_thresholds_certify(self, p0, a):
        # bayes_reweighted at n = 300: a monotone-ratio test left these
        # to the scan, and at p0 = 0.001 a 1/512 scan had no point at all
        terms = mixture_terms(p0, 300, a, MixtureBelief(0.5, "bayes_reweighted"))
        assert sup_below(300, terms, p0) == (
            terms_value(300, terms, p0), p0, "sign_change")

    def test_bayes_near_full_weight_certifies_by_its_tail_sums(self):
        # at pi = 0.99 and p0 = 0.002 the ratio about r0 runs - - + - + ...:
        # the CP suffix starts where the gate still rarely rejects; the tail
        # sums of pmf * (num - r0 * den) stay >= 0, and from x = 120 on,
        # where the pmf at p0 is not a normal double, every sign is +
        n, p0 = 131, 0.002
        terms = mixture_terms(p0, n, 0.044623814711453914,
                              MixtureBelief(0.99, "bayes_reweighted"))
        (_, num, den), = terms
        r0 = binom_pmf_vector(n, p0) @ num / (binom_pmf_vector(n, p0) @ den)
        assert np.count_nonzero(np.diff(np.sign(num / den - r0))) >= 3
        assert sup_below(n, terms, p0) == (
            terms_value(n, terms, p0), p0, "sign_change")

    @given(n=st.integers(2, 400), a=st.floats(1e-6, 0.8),
           p0=st.floats(0.002, 0.998), pi=st.floats(0.0, 1.0),
           spread=st.floats(0.01, 1.0),
           kind=st.sampled_from(CONDITIONING_VARIANTS + (
               "clopper_pearson", "wald", "fraudulent", "selective")))
    @settings(max_examples=200, deadline=None)
    def test_every_program_term_list_certifies(self, n, a, p0, pi, spread,
                                               kind):
        # nominal levels up to 0.8: every mixture variant and strategy
        if kind in CONDITIONING_VARIANTS:
            terms = mixture_terms(p0, n, a, MixtureBelief(pi, kind))
        elif kind == "selective":
            terms = SelectiveStrategy(n, a).exceedance_terms(p0)
        elif kind == "fraudulent":
            terms = FraudulentStrategy(
                LowerBoundProcedure("clopper_pearson", a, n),
                spread * min(p0, 1.0 - p0)).exceedance_terms(p0)
        else:
            terms = TruthfulStrategy(
                LowerBoundProcedure(kind, a, n)).exceedance_terms(p0)
        value, argmax, certificate = sup_below(n, terms, p0)
        assert certificate == "sign_change" and argmax == p0
        # every rate of the lattice, also where some pmf . den is not a
        # normal double and terms_value rescales the pmf in log space
        lattice = probability_grid(1024, hi=p0)
        if lattice.size:
            assert terms_value(n, terms, lattice).max() <= value + 1e-12

    def test_benchmark_suprema_are_certified(self, monkeypatch):
        # every supremum the benchmark computes (fig1 --n 1000 at p_C 0.3,
        # 0.5 and 0.7 over the 9 levels, the three calibration candidates,
        # and anchors 3a, 3b and 7) certifies "sign_change": none runs the
        # uncertified scan
        certificates = []

        def recording(*args):
            out = sup_below(*args)
            certificates.append(out[2])
            return out

        monkeypatch.setattr(strategies, "sup_below", recording)
        monkeypatch.setattr(reproduce, "sup_below", recording)
        cal = strategies.calibrate_conditioning()
        assert cal.variant == "fixed_given_published"
        for p_c in (0.3, 0.5, 0.7):
            actual_fp_curve(p_c, cal.variant, GridSpec.alpha_levels, 1000, 0.5)
        mixture_actual_fp(0.025, 0.5, 300, MixtureBelief(0.5, cal.variant))
        assert reproduce._strategy_suite_bound()[0]
        assert certificates == ["sign_change"] * (3 + 3 * 9 + 1 + 4)

    def test_truthful_component_respects_nominal(self):
        for a, target in ((0.05, SUP_TRUTHFUL_05), (0.025, SUP_TRUTHFUL_025)):
            value = mixture_actual_fp(
                a, 0.5, 300, MixtureBelief(0.0, "fixed_given_published"))
            assert value == pytest.approx(target, abs=1e-9)
            assert value <= a + 1e-12

    @pytest.mark.parametrize("variant", CONDITIONING_VARIANTS)
    def test_batched_matches_per_rate_loop(self, variant):
        grid = np.concatenate([[0.0], probability_grid(512, hi=0.5)])
        for n, a, pi in ((300, 0.05, 0.5), (1000, 0.01, 0.5), (40, 0.9, 1.0)):
            belief = MixtureBelief(pi, variant)
            batched = mixture_fp_at(grid, 0.5, n, a, belief)
            looped = np.array([mixture_fp_at(p, 0.5, n, a, belief) for p in grid])
            assert np.max(np.abs(batched - looped)) <= 1e-14

    def test_belief_validation(self):
        with pytest.raises(ValueError):
            MixtureBelief(1.5, "fixed_given_published")
        with pytest.raises(ValueError):
            MixtureBelief(0.5, "made_up_variant")
        assert set(CONDITIONING_VARIANTS) == {
            "fixed_given_published", "joint_unconditional", "bayes_reweighted"}

    def test_sup_rejects_threshold_outside_unit_interval(self):
        belief = MixtureBelief(0.5, "fixed_given_published")
        for p_c in (0.0, 1.0):
            with pytest.raises(ValueError):
                mixture_actual_fp(0.05, p_c, 40, belief)


class TestCurveAndCalibration:
    def test_frozen_curve(self):
        assert FIXED_CURVE[0.05] == SUP_FIXED_05
        assert FIXED_CURVE[0.025] == SUP_FIXED_025
        rows = actual_fp_curve(0.5, "fixed_given_published",
                               sorted(FIXED_CURVE), 300, 0.5)
        for row in rows:
            assert row.alpha_actual == pytest.approx(
                FIXED_CURVE[row.alpha_nominal], abs=1e-12)
            assert row.variant == "fixed_given_published"
            assert row.n == 300 and row.p_C == 0.5 and row.pi == 0.5

    def test_curve_monotone_in_nominal_level(self):
        vals = [FIXED_CURVE[a] for a in sorted(FIXED_CURVE)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_calibration_selects_nearest(self, calibration):
        assert calibration.variant == "fixed_given_published"
        assert calibration.value == pytest.approx(SUP_FIXED_05, abs=1e-9)
        assert calibration.residual == pytest.approx(abs(SUP_FIXED_05 - 0.22),
                                                     abs=1e-6)
        assert set(calibration.candidates) == set(CONDITIONING_VARIANTS)
        best = min(calibration.candidates.values(),
                   key=lambda v: abs(v - calibration.target))
        assert calibration.value == best

    def test_small_instance_grid_has_no_silent_points(self):
        # a p where rejection is impossible contributes the truthful term
        belief = MixtureBelief(0.5, "fixed_given_published")
        grid = probability_grid(32, hi=0.5)
        vals = [mixture_fp_at(p, 0.5, 12, 0.1, belief) for p in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
