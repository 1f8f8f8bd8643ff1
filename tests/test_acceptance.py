"""Acceptance gate: every anchored quantity at its stated tolerance.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. Criterion 3 has two clauses: 3a checks the calibrated
conditioning variant against its reference band at the 0.05 level, and
3b states a ceiling at the 0.025 level that the same variant does not
attain. 3b stays red on purpose; loosening it would hide a real gap
between the calibrated model and that ceiling. The `guaranteesim
reproduce` subcommand reports the same table outside pytest.
"""

import time

import numpy as np
import pytest

from guaranteesim.binomial import LowerBoundProcedure, coverage_report, \
    probability_grid
from guaranteesim.economics import BenefitFunction, CostSchedule, \
    PolicyEconomics
from guaranteesim.reproduce import evaluate_anchors
from guaranteesim.simulate import SeededStream
from guaranteesim.strategies import MixtureBelief, fraud_mixture_fp, \
    mixture_fp_at

# the rate at p = p_C = 1/2, in exact integer arithmetic
# (tests/test_strategies.py, _integer_oracle)
SUP_FIXED_05 = 0.2197061623312159
WALD_MIN_COVERAGE = 0.2540613302937401


@pytest.fixture(scope="module")
def anchors():
    rows, cal = evaluate_anchors()
    return {row.ident: row for row in rows}, cal


def econ_1000():
    return PolicyEconomics(CostSchedule.linear(1.0, 1000),
                           BenefitFunction.linear(10.0))


def show(row):
    status = "PASS" if row.passed else "FAIL"
    print(f"[{status}] criterion {row.ident}: {row.name}; "
          f"target {row.target}; computed {row.computed} "
          f"(tolerance {row.tolerance})")


def test_criterion_01(anchors):
    rows, _ = anchors
    show(rows["1"])
    assert fraud_mixture_fp(0.01, 0.25) == pytest.approx(0.13375, abs=1e-12)
    for a in np.linspace(0.001, 0.5, 41):
        assert fraud_mixture_fp(a, 0.25) == pytest.approx(
            0.875 * a + 0.125, abs=1e-12)
    assert rows["1"].passed


def test_criterion_02(anchors):
    rows, _ = anchors
    show(rows["2"])
    assert econ_1000().max_scale_under_bound(0.13375, -50.0) == 373
    assert rows["2"].passed


def test_criterion_03a(anchors):
    rows, cal = anchors
    show(rows["3a"])
    assert cal.variant == "fixed_given_published"
    assert cal.value == pytest.approx(SUP_FIXED_05, abs=1e-9)
    assert 0.17 <= cal.value <= 0.27
    assert cal.residual < 0.0012
    # runtime guard: a 20-level by 100-point sweep must stay desk-scale
    belief = MixtureBelief(0.5, cal.variant)
    start = time.perf_counter()
    for alpha in np.linspace(0.01, 0.2, 20):
        for p in np.linspace(0.0025, 0.4975, 100):
            mixture_fp_at(p, 0.5, 300, float(alpha), belief)
    elapsed = time.perf_counter() - start
    print(f"sweep of 2000 exact evaluations took {elapsed:.2f}s")
    assert elapsed < 300.0
    assert rows["3a"].passed


def test_criterion_03b(anchors):
    rows, _ = anchors
    show(rows["3b"])
    # red by design: the variant that matches the 0.22 reference exceeds
    # this ceiling at the stricter level (computed ~0.196 > 0.07)
    assert rows["3b"].passed


def test_criterion_04(anchors):
    rows, _ = anchors
    show(rows["4"])
    econ = econ_1000()
    m = econ.max_scale_under_bound(0.22, -0.05 * econ.cost(1000))
    assert m == 227
    assert econ.cost(m) <= 0.2273 * econ.cost(1000)
    assert rows["4"].passed


def test_criterion_05(anchors):
    rows, _ = anchors
    show(rows["5"])
    grid = probability_grid(1024)
    wald = coverage_report(LowerBoundProcedure("wald", 0.05, 300), grid)
    assert wald.min_coverage == pytest.approx(WALD_MIN_COVERAGE, abs=1e-9)
    assert wald.min_coverage < 0.95
    assert rows["5"].passed


def test_criterion_06(anchors):
    rows, _ = anchors
    show(rows["6"])
    assert rows["6"].passed


def test_criterion_07(anchors):
    rows, _ = anchors
    show(rows["7"])
    assert rows["7"].passed


def test_criterion_08(anchors):
    rows, _ = anchors
    show(rows["8"])
    assert rows["8"].passed


def test_criterion_09(anchors):
    rows, _ = anchors
    show(rows["9"])
    assert rows["9"].passed


def test_criterion_10(anchors, tmp_path, capsys):
    rows, _ = anchors
    show(rows["10"])
    from guaranteesim.cli import main
    for sub in ("a", "b"):
        rc = main(["coverage", "--proc", "wald", "--n", "40",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "coverage_wald_n40_a0.05.csv").read_bytes()
    second = (tmp_path / "b" / "coverage_wald_n40_a0.05.csv").read_bytes()
    assert first == second
    assert rows["10"].passed


# anchor 10's five estimates at the default seed, (mean, standard error):
# the binomial mean, the selective gate's publication and exceedance rates,
# the fraudulent exceedance and the tail-guarantee payoff
# anchor 10's eight estimates (mean, std_error) as float.hex, in the order
# _infrastructure_properties makes them: the binomial mean, the three
# strategy checks, the tail-guarantee payoff, the mean's rerun and the two
# 10**4-draw reruns; with the detail line it prints
ANCHOR10_ESTIMATES = {
    20260819: ("max |z| 1.15; rerun identical: True", [
        ("0x1.800d66f0cfe15p+2", "0x1.0c8c4d7bbb998p-9"),
        ("0x1.7c6327ed84d34p-5", "0x1.b94a19f83395ap-13"),
        ("0x1.16df3f961804ep-6", "0x1.0f4400c498f7ep-13"),
        ("0x1.09bbcf4e874c9p-1", "0x1.05f45f0b529e3p-11"),
        ("-0x1.3f8cc78e9f6a9p+2", "0x1.45dd601e772ffp-13"),
        ("0x1.800d66f0cfe15p+2", "0x1.0c8c4d7bbb998p-9"),
        ("-0x1.3fbe76c8b4396p+2", "0x1.333a40cbe5f12p-10"),
        ("-0x1.3fbe76c8b4396p+2", "0x1.333a40cbe5f12p-10"),
    ]),
    7: ("max |z| 1.48; rerun identical: True", [
        ("0x1.80069e7fb267cp+2", "0x1.0ce33f4ae0598p-9"),
        ("0x1.79a6b50b0f27cp-5", "0x1.b7c6c8586b93ap-13"),
        ("0x1.12b1b36bd2b6fp-6", "0x1.0d42caa9bc74cp-13"),
        ("0x1.09e8a2ec28b2ap-1", "0x1.05f29be533bc5p-11"),
        ("-0x1.3f869835158b8p+2", "0x1.4f6e2d8dabec5p-13"),
        ("0x1.80069e7fb267cp+2", "0x1.0ce33f4ae0598p-9"),
        ("-0x1.3f4bc6a7ef9dbp+2", "0x1.05c2a2b576c2ap-9"),
        ("-0x1.3f4bc6a7ef9dbp+2", "0x1.05c2a2b576c2ap-9"),
    ]),
}


def test_anchor_10_estimates_are_pinned_bit_for_bit(monkeypatch):
    # the samplers' draws are part of the anchor: a faster lookup must
    # reproduce every estimate exactly, not just within 4 standard errors,
    # and the report's "max |z|" alone would not show a last-bit drift
    from guaranteesim import reproduce
    seen = []
    real = reproduce.mc_estimate

    def spy(sampler, n_draws, stream):
        est = real(sampler, n_draws, stream)
        seen.append(est)
        return est

    monkeypatch.setattr(reproduce, "mc_estimate", spy)
    econ_20 = PolicyEconomics(CostSchedule.linear(1.0, 20),
                              BenefitFunction.linear(2.5))
    for seed, (line, pinned) in ANCHOR10_ESTIMATES.items():
        seen.clear()
        ok, detail = reproduce._infrastructure_properties(seed, econ_20)
        assert ok and detail == line
        assert [(e.mean.hex(), e.std_error.hex()) for e in seen] == pinned
        assert [e.n_draws for e in seen] == [1_000_000] * 6 + [10_000] * 2


def test_monte_carlo_estimates_hold_one_float_per_draw(monkeypatch):
    # numpy reports its buffers to tracemalloc, so each estimate's traced
    # peak is deterministic: the 10**6 float draws (7.6 MiB) plus compact
    # counts and block-sized scratch, not several arrays of 10**6 floats
    import tracemalloc
    from guaranteesim import reproduce
    peaks = []
    real = reproduce.mc_estimate

    def spy(sampler, n_draws, stream):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        est = real(sampler, n_draws, stream)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return est

    monkeypatch.setattr(reproduce, "mc_estimate", spy)
    econ_20 = PolicyEconomics(CostSchedule.linear(1.0, 20),
                              BenefitFunction.linear(2.5))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        reproduce._infrastructure_properties(20260819, econ_20)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(peaks) == 8
    assert max(peaks) <= 12 * 2**20, [round(peak / 2**20, 2) for peak in peaks]


def _run_anchor_10(monkeypatch, seed, spy):
    """Anchor 10's (ok, detail) at seed, each mc_estimate(sampler,
    n_draws, stream) made as spy(mc_estimate, sampler, n_draws, stream)."""
    from guaranteesim import reproduce
    real = reproduce.mc_estimate
    monkeypatch.setattr(reproduce, "mc_estimate",
                        lambda *args: spy(real, *args))
    econ_20 = PolicyEconomics(CostSchedule.linear(1.0, 20),
                              BenefitFunction.linear(2.5))
    return reproduce._infrastructure_properties(seed, econ_20)


def test_monte_carlo_estimates_hold_no_float_per_draw(monkeypatch):
    # the samplers return one- and two-byte cells and a table of values,
    # and mc_estimate sums them leaf by leaf: each estimate's traced peak
    # stays below one array of 10**6 floats (7.63 MiB), and its cells and
    # scratch are freed when it returns, not left to the garbage collector
    import tracemalloc
    peaks, kept = [], []

    def measure(real, *args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        est = real(*args)
        now, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - start)
        kept.append(now - start)
        return est

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        _run_anchor_10(monkeypatch, 20260819, measure)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(peaks) == 8
    assert max(peaks) <= 6 * 2**20, [round(peak / 2**20, 2) for peak in peaks]
    assert max(kept) <= 2**16, kept


# anchor 10's eight estimates at a third seed, recorded from the samplers
# that returned one float per draw, before they returned cells and tables
ANCHOR10_AT_31337 = ("max |z| 1.24; rerun identical: True", [
    ("0x1.8022856605ee5p+2", "0x1.0c8a8f73dea0ep-9"),
    ("0x1.7bce4217d284ap-5", "0x1.b8f7e6fa4239ep-13"),
    ("0x1.11e85fd04a2fdp-6", "0x1.0ce1ba9226d1dp-13"),
    ("0x1.0a2014727dcbep-1", "0x1.05f062c0692bcp-11"),
    ("-0x1.3f8b4e11dbca9p+2", "0x1.48f666b74c954p-13"),
    ("0x1.8022856605ee5p+2", "0x1.0c8a8f73dea0ep-9"),
    ("-0x1.3fa9fbe76c8b4p+2", "0x1.54461a82b7dc3p-10"),
    ("-0x1.3fa9fbe76c8b4p+2", "0x1.54461a82b7dc3p-10"),
])


def test_anchor_10_estimates_at_a_third_seed_are_pinned(monkeypatch):
    seen = []

    def record(real, *args):
        seen.append(real(*args))
        return seen[-1]

    ok, detail = _run_anchor_10(monkeypatch, 31337, record)
    line, pinned = ANCHOR10_AT_31337
    assert ok and detail == line
    assert [(e.mean.hex(), e.std_error.hex()) for e in seen] == pinned


@pytest.mark.parametrize("p", [0.3, 0.1])
@pytest.mark.parametrize("seed", [1, 2, 3, 20260819])
def test_exact_cdf_sampler_draws_numpys_binomial_counts(p, seed):
    # estimates 1 and 5 draw numpy's rng.binomial(20, p) counts, one
    # uniform each, and leave the stream where rng.binomial leaves it
    from guaranteesim.reproduce import _exact_cdf_sampler
    ours = SeededStream(seed, 101).generator()
    theirs = SeededStream(seed, 101).generator()
    counts, values = _exact_cdf_sampler(20, p)(ours, 200_000)
    assert counts.dtype == np.uint8
    assert values.dtype == np.float64 and values.tolist() == list(range(21))
    assert np.array_equal(counts, theirs.binomial(20, p, 200_000))
    assert ours.random() == theirs.random()


def test_exact_cdf_sampler_inverts_the_uniforms_of_a_twin_stream():
    # block by block from raw words, the counts of one searchsorted over
    # one Generator.random(size) call, handed to fn as intp, at sizes on
    # each side of the block boundary; the streams stay in step. fn makes
    # the sampler's table of values, one per count, from intp counts
    from guaranteesim.binomial import _SEARCH_BLOCK
    from guaranteesim.reproduce import _exact_binomial_cdf, _exact_cdf_sampler
    cdf = _exact_binomial_cdf(20, 0.3)
    seen = []

    def fn(xs):
        seen.append(xs.dtype)
        return 0.5 * xs

    sample = _exact_cdf_sampler(20, 0.3, fn)
    for size in (1, _SEARCH_BLOCK - 1, _SEARCH_BLOCK, _SEARCH_BLOCK + 1,
                 3 * _SEARCH_BLOCK + 5):
        ours = SeededStream(9, size).generator()
        theirs = SeededStream(9, size).generator()
        want = 0.5 * cdf.searchsorted(theirs.random(size), side="right")
        cells, values = sample(ours, size)
        assert np.array_equal(values[cells], want)
        assert ours.random() == theirs.random()
    assert set(seen) == {np.dtype(np.intp)}


@pytest.mark.parametrize("n,p", [(1, 0.5), (20, 0.3), (20, 0.1), (40, 0.45),
                                 (20, 1e-9), (7, 0.999)])
def test_exact_binomial_cdf_is_the_correctly_rounded_cdf(n, p):
    from fractions import Fraction
    from math import comb
    from guaranteesim.reproduce import _exact_binomial_cdf
    q = Fraction(p)
    pmf = [comb(n, k) * q**k * (1 - q)**(n - k) for k in range(n + 1)]
    oracle = [float(sum(pmf[:k + 1])) for k in range(n + 1)]
    cdf = _exact_binomial_cdf(n, p)
    assert cdf.tolist() == oracle
    assert cdf[-1] == 1.0


def test_exact_cdf_sampler_shares_no_code_with_the_pmf(monkeypatch):
    # one path of anchor 10's gate stays independent of binom_pmf_vector
    from guaranteesim import binomial
    from guaranteesim.reproduce import _exact_cdf_sampler

    def broken(n, p):
        raise AssertionError("binom_pmf_vector called")

    monkeypatch.setattr(binomial, "binom_pmf_vector", broken)
    sample = _exact_cdf_sampler(20, 0.1, lambda xs: 2.0 * xs)
    cells, values = sample(SeededStream(5, 105).generator(), 100_000)
    assert cells.shape == (100_000,) and values[cells].max() <= 40.0


def test_monte_carlo_gate_catches_a_drifted_sampler(monkeypatch):
    # every strategy count drawn at p + 0.01 instead of p, whole arms and
    # arms drawn block by block: anchor 10's checks against the exact
    # rates must go red
    from guaranteesim import reproduce, strategies
    for name in ("binom_draws", "binom_blocks"):
        real = getattr(strategies, name)
        monkeypatch.setattr(strategies, name,
                            lambda n, p, rng, size, real=real:
                            real(n, p + 0.01, rng, size))
    econ_20 = PolicyEconomics(CostSchedule.linear(1.0, 20),
                              BenefitFunction.linear(2.5))
    ok, detail = reproduce._infrastructure_properties(20260819, econ_20)
    assert not ok, detail


def test_monte_carlo_gate_sees_the_honest_half_of_the_fraudulent_sampler(
        monkeypatch):
    # a fraudulent sampler that publishes its guess alone, dropping the
    # honest bound the clamp keeps: at rate 0.4, threshold 0.4 the honest
    # half adds 0.0196 to the exceedance, about 40 standard errors. Like
    # the real sampler it returns cells and their table of bounds
    from guaranteesim import reproduce, strategies

    def guess_only(self, p, threshold, rng, size):
        guesses = strategies.binom_draws(1, 0.5, rng, size)
        strategies.binom_draws(self.procedure.n, p, rng, size)
        return guesses, threshold + self.guess_spread * np.array([1.0, -1.0])

    monkeypatch.setattr(strategies.FraudulentStrategy, "sample", guess_only)
    econ_20 = PolicyEconomics(CostSchedule.linear(1.0, 20),
                              BenefitFunction.linear(2.5))
    ok, detail = reproduce._infrastructure_properties(20260819, econ_20)
    assert not ok, detail


def _mutant_table(silence, shift):
    # the selective strategy's table with silence published as `silence`
    # and every gate threshold moved by `shift` counts
    from guaranteesim import strategies

    def table(n, alpha_prime):
        thr, wald = strategies._rct_tables(n, alpha_prime)
        x_c, x_t = np.ogrid[:n + 1, :n + 1]
        rejects = strategies._rct_rejects(thr + shift, x_c, x_t)
        return np.where(rejects, wald[x_t], silence).ravel()

    return table


@pytest.mark.parametrize("silence,shift", [(0.0, 0), (np.nan, -1)],
                         ids=["silence_as_zero", "threshold_one_low"])
def test_monte_carlo_gate_sees_a_wrong_selective_table(monkeypatch, silence,
                                                       shift):
    # the samplers read their published values from per-state tables, so
    # the gate must still see a table that publishes silence as a bound of
    # 0.0, or whose gate rejects one count early
    from guaranteesim import reproduce, strategies
    monkeypatch.setattr(strategies, "_selective_table",
                        _mutant_table(silence, shift))
    econ_20 = PolicyEconomics(CostSchedule.linear(1.0, 20),
                              BenefitFunction.linear(2.5))
    ok, detail = reproduce._infrastructure_properties(20260819, econ_20)
    assert not ok, detail
