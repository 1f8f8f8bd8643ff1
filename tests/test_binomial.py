"""Bound machinery against frozen oracle values and exactness properties.

The frozen literals were computed through independent routes (rational
arithmetic for pmfs, beta quantiles for the exact bounds, a reference
normal ppf) and pasted here as constants. The Clopper-Pearson bounds are
also checked against a bisection on the pmf-summed survival function,
kept here as the reference implementation, and, where scipy is
installed, the log-gamma table, the covered rule and the bound values
against scipy.special.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from guaranteesim import binomial
from guaranteesim.config import TRIAL_LIMIT, GridSpec
from guaranteesim.simulate import SeededStream
from guaranteesim.strategies import MixtureBelief, mixture_terms
from guaranteesim.binomial import (
    LowerBoundProcedure,
    binom_draws,
    binom_pmf,
    binom_pmf_dot,
    binom_pmf_vector,
    clopper_pearson_lower,
    clopper_pearson_lower_vector,
    coverage_report,
    exact_lower_coverage,
    exceedance_prob,
    exceedance_terms,
    normal_cdf,
    normal_quantile,
    probability_grid,
    refined_grid_max,
    smallest_double,
    sup_below,
    sup_false_positive,
    terms_value,
    wald_lower_vector,
)

# rational-arithmetic oracles
PMF_300_HALF_150 = 0.04602751441903444
PMF_20_03_7 = 0.1642619852172365

# reference normal quantiles
Z_95 = 1.6448536269514722
Z_975 = 1.959963984540054
Z_99 = 2.3263478740408408
Z_80 = 0.8416212335729143

# beta-quantile oracles for the exact lower bound
CP_150_300_05 = 0.45100875470879354
CP_10_40_10 = 0.16151186884459268
CP_1_300_05 = 0.00017096303211345718
CP_299_300_025 = 0.9815687479519322
CP_300_300_05 = 0.9900639180555423  # 0.05 ** (1/300)

WALD_165_300_05 = 0.5027551764779599
# exceedance of the Wald rule at the grid witness nearest 1/2
WALD_FP_WITNESS_P = 0.49951171875
WALD_FP_AT_WITNESS = 0.045316196027871215
WALD_MIN_COVERAGE = 0.2540613302937401
WALD_WORST_P = 0.9990234375
# Pr(CP > 1/2) at p = 1/2, n = 10^4, alpha' = 0.05: the supremum below 1/2
CP_FP_10000 = 0.049469

# rates at the ends of the doubles and of [0, 1]
EXTREME_RATES = [0.0, 1.0, 5e-324, 1e-300, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.5]


def _binom_survival(x, n, p):
    """Pr(X >= x). Summation of exact pmf values, no beta-function shortcut."""
    if x <= 0:
        return 1.0
    if x > n:
        return 0.0
    return float(binom_pmf_vector(n, p)[x:].sum())


def _cp_lower_bisect(x, n, alpha_prime, tol=1e-10):
    """The p solving Pr(X >= x | n, p) = alpha_prime, by bisection.

    Safe because the survival function is strictly increasing in p for
    x >= 1; the result lies within tol/2 of the root.
    """
    if x == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _binom_survival(x, n, mid) > alpha_prime:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestPmf:
    def test_frozen_values(self):
        assert binom_pmf(300, 0.5, 150) == pytest.approx(PMF_300_HALF_150, abs=1e-12)
        assert binom_pmf(20, 0.3, 7) == pytest.approx(PMF_20_03_7, abs=1e-12)

    def test_degenerate_rates(self):
        assert binom_pmf(10, 0.0, 0) == 1.0
        assert binom_pmf(10, 0.0, 3) == 0.0
        assert binom_pmf(10, 1.0, 10) == 1.0
        v = binom_pmf_vector(7, 1.0)
        assert v[7] == 1.0 and v[:7].sum() == 0.0

    @given(n=st.integers(1, 200), p=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_vector_sums_to_one(self, n, p):
        assert binom_pmf_vector(n, p).sum() == pytest.approx(1.0, abs=1e-9)

    @given(n=st.integers(1, 60), p=st.floats(0.01, 0.99), x=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scalar_matches_vector(self, n, p, x):
        k = x.draw(st.integers(0, n))
        assert binom_pmf(n, p, k) == pytest.approx(
            float(binom_pmf_vector(n, p)[k]), rel=1e-12)

    @pytest.mark.parametrize("n,p", [(40, 0.3), (13, 0.5), (1000, 0.013)])
    def test_scalar_equals_vector_bit_for_bit(self, n, p):
        vec = binom_pmf_vector(n, p)
        assert [binom_pmf(n, p, x) for x in range(n + 1)] == vec.tolist()

    def test_survival_edges(self):
        assert _binom_survival(0, 12, 0.3) == 1.0
        assert _binom_survival(-2, 12, 0.3) == 1.0
        assert _binom_survival(13, 12, 0.3) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            binom_pmf(0, 0.5, 0)
        with pytest.raises(ValueError):
            binom_pmf(5, 1.5, 2)
        with pytest.raises(ValueError):
            binom_pmf(5, 0.5, 9)
        with pytest.raises(ValueError):
            binom_pmf_dot(5, np.array([0.2, 1.5]), np.ones(6))
        with pytest.raises(ValueError):
            binom_pmf_dot(5, np.array([0.2, np.nan]), np.ones(6))

    @pytest.mark.parametrize("n", [1, 7, 300, 1000])
    def test_rate_matrix_matches_scalar_rows(self, n):
        # each block of the rate-array functionals holds the scalar rows on
        # its columns, and the rows hold nothing but 0.0 beside them
        rates = np.concatenate([[0.0, 1e-9, 0.37, 0.999, 1.0],
                                probability_grid(512)])
        rows = _pmf_rows(n, rates)
        lo, hi = binomial._windows(n, rates)
        for i, j, first, pmf in binomial._pmf_blocks(n, rates, lo, hi):
            top = first + pmf.shape[1]
            assert np.array_equal(pmf, rows[i:j, first:top])
            assert not rows[i:j, :first].any() and not rows[i:j, top:].any()

    @pytest.mark.parametrize("n", [1, 12, 300, 380, 381, 2000])
    def test_dot_scalar_route_is_the_whole_row(self, n):
        # a scalar rate takes its whole row, as a float for a vector; the
        # rows of an array, for a matrix of columns or a vector, differ
        # from it by rounding only, since BLAS sums a block's products in
        # groups of rows
        vecs = np.random.default_rng(n).random((n + 1, 4))
        rates = np.concatenate([[0.0, 1e-9, 0.999, 1.0], probability_grid(256)])
        batched = binom_pmf_dot(n, rates, vecs)
        column = binom_pmf_dot(n, rates, vecs[:, 1])
        assert batched.shape == (rates.size, 4) and column.shape == rates.shape
        for p, got, got_one in zip(rates.tolist(), batched, column):
            row = binom_pmf_vector(n, p)[None, :]
            want = binom_pmf_dot(n, p, vecs)
            assert np.array_equal(want, (row @ vecs)[0])
            assert np.abs(got - want).max() <= 1e-15
            one = binom_pmf_dot(n, p, vecs[:, 1])
            assert type(one) is float and one == (row @ vecs[:, 1])[0]
            assert abs(got_one - one) <= 1e-15
        assert binom_pmf_dot(n, np.empty(0), vecs).shape == (0, 4)

    def test_blocks_cut_at_a_tiny_budget_keep_every_value(self, monkeypatch):
        # a budget of one row, and of three rows at n = 300: the counts and
        # prefix sums keep every bit, the dot products their value to
        # within rounding, and a block never exceeds the budget but as a
        # single row
        rates = np.concatenate([[0.0, 1.0], probability_grid(64),
                                np.random.default_rng(5).random(40)])
        procs = [LowerBoundProcedure(kind, 0.05, n) for kind in
                 ("clopper_pearson", "wald") for n in (300, 2000)]
        vecs = {p.n: np.random.default_rng(p.n).random((p.n + 1, 2)) for p in procs}

        def values():
            return ([q.covered(rates) for q in procs],
                    [exact_lower_coverage(q, rates) for q in procs],
                    [exceedance_prob(q, rates, 0.45) for q in procs],
                    [binom_pmf_dot(n, rates, v) for n, v in vecs.items()])

        whole = values()
        blocks = []
        kernel = binomial._pmf_block

        def spy(n_, rows, lo, out):
            blocks.append((len(rows), out.size))
            return kernel(n_, rows, lo, out)

        monkeypatch.setattr(binomial, "_pmf_block", spy)
        for cells in (1, 1000):
            monkeypatch.setattr(binomial, "_BLOCK_CELLS", cells)
            blocks.clear()
            cut = values()
            assert all(size <= cells or rows == 1 for rows, size in blocks)
            for exact in range(3):
                for a, b in zip(whole[exact], cut[exact]):
                    assert np.array_equal(a, b)
            for a, b in zip(whole[3], cut[3]):
                assert np.abs(a - b).max() <= 1e-15
        assert max(blocks)[0] > 1  # the budget of 1000 cells held rows together

    @given(n=st.one_of(st.integers(1, 3000), st.sampled_from([10_000, 200_000])),
           rates=st.lists(st.one_of(st.sampled_from(EXTREME_RATES),
                                    st.floats(0.0, 1.0)), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_window_drops_only_cells_that_underflow(self, n, rates):
        # the scalar path and the rate matrix are the full-exp route bit
        # for bit, also at rates whose window ends on column 0 or n
        edge = _rate_at_window_edge(n)
        if edge is not None:
            rates += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 1.0 - edge]
        rates = np.array(rates)
        want = _full_exp_pmf(n, rates)
        for p, row in zip(rates, want):
            assert np.array_equal(binom_pmf_vector(n, float(p)), row)
        # the windows of an array of rates are the scalar ones, and one
        # block over all of them holds the same cells
        lo, hi = binomial._windows(n, rates)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(binomial, "_BLOCK_CELLS", 1 << 40)
            blocks = list(binomial._pmf_blocks(n, rates, lo, hi))
        for i, j, first, pmf in blocks:
            assert np.array_equal(pmf, want[i:j, first:first + pmf.shape[1]])
        assert list(zip(lo.tolist(), hi.tolist())) == [
            binomial._window(n, float(p)) for p in rates]

    def test_rate_matrix_builds_the_union_of_windows_only(self, monkeypatch):
        # one block from the lowest window's start to the highest one's end
        calls = []
        kernel = binomial._pmf_block

        def spy(n_, rates, lo, out):
            calls.append((lo, lo + out.shape[1]))
            return kernel(n_, rates, lo, out)

        monkeypatch.setattr(binomial, "_pmf_block", spy)
        rates = np.array([0.02, 0.01])
        binom_pmf_dot(10_000, rates, np.ones(10_001))
        (_, top), (first, _) = (binomial._window(10_000, r) for r in rates.tolist())
        assert calls == [(first, top)]
        binom_pmf_dot(10_000, np.empty(0), np.ones(10_001))
        assert len(calls) == 1

    @given(n=st.sampled_from([1, 3, 40, 381, 2000, 10_000]),
           cells=st.one_of(st.sampled_from([1, 41, 4096]), st.integers(1, 50_000)),
           rows=st.lists(st.tuples(
               st.one_of(st.sampled_from(EXTREME_RATES), st.floats(0.0, 1.0)),
               st.integers(0, 10_001), st.integers(-3, 10_001)),
               min_size=1, max_size=24))
    @example(n=40, cells=41, rows=[(0.5, 0, 41), (0.5, 0, 41), (0.3, 5, 5),
                                   (0.3, 3, 9), (0.7, 9, 12), (1.0, 0, 1)])
    @example(n=40, cells=82, rows=[(0.5, 0, 41), (0.3, 0, 41), (0.2, 5, 3)])
    @settings(max_examples=80, deadline=None)
    def test_pmf_blocks(self, n, cells, rows):
        # spans [lo, lo + width) within 0..n, some empty: the rates with a
        # column come out once each and in order, a block's columns are
        # the union of its rows' spans, it exceeds the budget only as one
        # row and stops only where the next row would take it over, and
        # each cell is that of binom_pmf_vector
        rates = [r for r, _, _ in rows]
        lo = [a % (n + 1) for _, a, _ in rows]
        hi = [min(a + w, n + 1) for a, (_, _, w) in zip(lo, rows)]
        got = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(binomial, "_BLOCK_CELLS", cells)
            blocks = list(binomial._pmf_blocks(n, rates, lo, hi))
        for i, j, first, pmf in blocks:
            assert all(lo[m] < hi[m] for m in range(i, j))
            got += range(i, j)
            top = first + pmf.shape[1]
            assert (first, top) == (min(lo[i:j]), max(hi[i:j]))
            assert pmf.size <= cells or j - i == 1
            if j < len(rates) and lo[j] < hi[j]:
                wider = max(top, hi[j]) - min(first, lo[j])
                assert wider * (j + 1 - i) > cells
            assert np.array_equal(pmf, _pmf_rows(n, rates[i:j])[:, first:top])
        assert got == [m for m in range(len(rates)) if lo[m] < hi[m]]

    def test_cells_beyond_the_reach_underflow(self):
        # np.exp gives exactly 0.0 below -745.14; a cell beyond the reach
        # has a log below -_CUTOFF, and 14.8 of the 15 nats between them
        # cover the rounding of the log sum
        floor = -(binomial._CUTOFF - 14.8)
        assert np.exp(floor) == 0.0
        assert not np.exp(np.full(67, floor)).any()
        assert np.exp(-745.1) > 0.0
        # the window does cut: at n = 10**4, p = 1/2 it keeps 3900 columns
        lo, hi = binomial._window(10_000, 0.5)
        assert (lo, hi) == (3050, 6950)
        full = _full_exp_pmf(10_000, 0.5)
        assert not full[:lo].any() and not full[hi:].any()

    def test_desk_scale_window_is_every_column(self):
        # _window answers (0, n + 1) up to n = 380 without the reach: there
        # the reach is at least n at every rate; at 381 it is not, and the
        # window at p = 0 leaves out the column x = n
        for n in (1, 2, 40, 300, 379, 380):
            for p in (0.0, 1e-9, 0.3, 0.5, 1.0):
                assert binomial._reach(n, p) >= n
        assert binomial._window(381, 0.0) == (0, 381)


def _pmf_rows(n, rates):
    """The pmf vectors of the rates, one scalar binom_pmf_vector each, as
    the rows of a matrix."""
    return np.array([binom_pmf_vector(n, p) for p in np.asarray(rates).tolist()])


def _full_exp_pmf(n, p):
    """The pmf kernel without its window: the three-term log sum and its
    exp on every column, in the kernel's order of operations. A float
    gives a vector, an array of rates a matrix."""
    logc, xs, rest = binomial._pmf_terms(n)
    rates = np.atleast_1d(np.asarray(p, dtype=float))
    inner = np.where((rates > 0.0) & (rates < 1.0), rates, 0.5)
    log_p = np.array([math.log(r) for r in inner])[:, None]
    log_q = np.array([math.log1p(-r) for r in inner])[:, None]
    out = xs * log_p
    out += logc
    out += rest * log_q
    np.exp(out, out=out)
    for edge, x in ((0.0, 0), (1.0, n)):
        out[rates == edge] = 0.0
        out[rates == edge, x] = 1.0
    return out if np.ndim(p) else out[0]


def _rate_at_window_edge(n):
    """A rate in (0, 1/2) where n p - reach changes sign, found by
    bisection, so that the window's low end falls on column 0; None when
    the reach covers 0..n at p = 1/2."""
    lo, hi = 1e-300, 0.5
    if n * hi - binomial._reach(n, hi) <= 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if n * mid - binomial._reach(n, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _cp_roots_full(n, alpha_prime, xs):
    """binomial._cp_roots as it was before the column cut and the window:
    every Newton step builds the full (rows, n+1) pmf matrix with an exp
    on every cell. Each count is solved alone, stopping at its first step
    below 1e-10 relative, as _cp_roots stops each row, and then moved one
    double at a time to where its tail crosses alpha', as _cp_finish
    moves it."""
    z = normal_quantile(1.0 - alpha_prime)
    out = np.empty(xs.size)
    for i, x in enumerate(xs):
        lo, hi = 0.0, 1.0
        wilson = (x + 0.5 * z * z
                  - z * np.sqrt(x * (n - x) / n + 0.25 * z * z)) / (n + z * z)
        p = wilson if wilson > 0.0 else x / n
        for _ in range(binomial._CP_STEPS):
            pmf = _full_exp_pmf(n, np.array([p]))[0]
            gap = binomial._tails_from_top(pmf)[n - x] - alpha_prime
            lo, hi = (p, hi) if gap < 0.0 else (lo, p)
            with np.errstate(all="ignore"):
                step = gap * p / (x * pmf[x])
            newton = p - step
            if abs(step) <= 1e-10 * p:
                p = min(max(newton, lo), hi)
                break
            p = newton if lo <= newton <= hi else 0.5 * (lo + hi)

        def reaches(q):
            pmf = _full_exp_pmf(n, np.array([q]))[0]
            return binomial._tails_from_top(pmf)[n - x] >= alpha_prime

        if reaches(p):
            while reaches(np.nextafter(p, 0.0)):
                p = np.nextafter(p, 0.0)
        else:
            while not reaches(p):
                p = np.nextafter(p, 1.0)
        out[i] = p
    return out


def _coverage_loop(proc, grid):
    """exact_lower_coverage as it was: per rate the full-exp pmf vector,
    the count of bounds <= p by searchsorted, and the sum of its first
    count cells."""
    out = []
    for p in grid:
        pmf = _full_exp_pmf(proc.n, float(p))
        if proc.kind == "clopper_pearson":
            k = proc.n + 1 - int(
                binomial._tails_from_top(pmf).searchsorted(proc.nominal_alpha))
        else:
            k = int(proc.bounds.searchsorted(p, side="right"))
        out.append(float(pmf[:k].sum()))
    return np.array(out)


class TestBinomDraws:
    @pytest.mark.parametrize("n,p,seed", [
        (1, 0.3, 1), (5, 0.5, 2), (12, 0.9, 3), (20, 0.05, 4), (40, 0.45, 5),
        (40, 0.75, 6), (60, 0.5, 7), (100, 0.2, 8), (300, 0.09, 9),
        (300, 0.97, 10), (1000, 0.02, 11),
    ])
    def test_equals_numpy_where_numpy_inverts(self, n, p, seed):
        # n * min(p, 1 - p) <= 30: Generator.binomial inverts the cdf with
        # one uniform per count, flipping p > 1/2 the same way
        assert n * min(p, 1.0 - p) <= 30.0
        ours = SeededStream(seed, 0).generator()
        theirs = SeededStream(seed, 0).generator()
        assert np.array_equal(binom_draws(n, p, ours, 100_000),
                              theirs.binomial(n, p, 100_000))
        assert ours.random() == theirs.random()  # the streams stay in step

    def test_degenerate_rates(self):
        rng = SeededStream(3, 0).generator()
        assert (binom_draws(17, 0.0, rng, 1000) == 0).all()
        assert (binom_draws(17, 1.0, rng, 1000) == 17).all()

    @pytest.mark.parametrize("n,p", [(1, 0.5), (7, 1e-9), (40, 0.3),
                                     (40, 0.999999), (2000, 0.3)])
    def test_integer_counts_in_range(self, n, p):
        draws = binom_draws(n, p, SeededStream(4, 0).generator(), 50_000)
        assert np.issubdtype(draws.dtype, np.integer)
        assert draws.shape == (50_000,)
        assert draws.min() >= 0 and draws.max() <= n

    def test_top_uniform_stays_in_the_tail(self):
        # at n = 10**6 the summed pmf falls 2.4e-10 short of 1; the largest
        # uniform below 1, 1 - 2**-53 from the top word 2**64 - 1, must
        # still map into the upper tail, not onto n
        class TopWords(np.random.Philox):
            def random_raw(self, size=None, output=True):
                return np.full(size, 2**64 - 1, np.uint64)

        n, p = 10**6, 0.3
        top = int(binom_draws(n, p, np.random.Generator(TopWords()), 1)[0])
        assert n * p < top < n * p + 20.0 * math.sqrt(n * p * (1.0 - p))
        assert int(binom_draws(n, 1.0 - p, np.random.Generator(TopWords()),
                               1)[0]) == n - top

    @staticmethod
    def _probe_words(cdf, rng, size):
        """Words at every bucket edge the lookup can pick (the multiples of
        2**48, for 2**16 buckets and so for fewer), the word just below
        each, and for every cdf value the lowest and highest words of the
        three uniforms nearest it, then size random words."""
        edges = np.arange(1 << 16, dtype=np.uint64) << 48
        inner = cdf[(cdf >= 0.0) & (cdf < 1.0)]
        nearest = np.floor(inner * 2.0**53).astype(np.uint64)
        near = np.concatenate([nearest[nearest > 0] - 1, nearest,
                               nearest[nearest < 2**53 - 1] + 1]) << 11
        return np.concatenate([edges, edges[1:] - 1, [2**64 - 1], near,
                               near | 0x7FF, rng.bit_generator.random_raw(size)])

    @staticmethod
    def _searched(cdf, words):
        return cdf.searchsorted((words >> 11) * 2.0**-53, side="right")

    @staticmethod
    def _inverted(cdf, words, dtype=np.intp):
        """The counts invert_blocks gives on a stream of these words."""
        class Feed(np.random.Philox):
            def random_raw(self, size=None, output=True):
                nonlocal words
                head, words = words[:size], words[size:]
                return head

        got = [xs.copy() for _, xs in binomial.invert_blocks(
            cdf, np.random.Generator(Feed()), words.size, dtype)]
        return np.concatenate([np.empty(0, dtype), *got])

    @pytest.mark.parametrize("build", [
        lambda rng: np.arange(1, 1025) / 1024,                  # every edge
        lambda rng: np.arange(1, 1 << 16 | 1) / (1 << 16),      # edges, k = 2**16
        lambda rng: np.repeat(np.arange(1, 65) / 64, 3),        # repeats
        lambda rng: np.array([0.0, 0.0, 0.25, 0.5 + 2.0**-40, 1.0, 1.0, 1.0]),
        lambda rng: np.array([1.0]),
        lambda rng: np.array([0.5, 1.0]),                       # the guesses
        lambda rng: np.append(np.sort(rng.random(10**6)), 1.0),  # marked buckets
        lambda rng: np.minimum(np.cumsum(np.round(rng.random(3000) * 256)
                                         / (1 << 18)), 1.0),   # plateau at 1
    ], ids=["edges", "edges_2_16", "repeats", "plateau", "single", "halves",
            "dense", "fine_edges"])
    def test_indexed_search_equals_searchsorted(self, build):
        # each word's count is the searchsorted count of its uniform
        # (w >> 11) 2**-53, at and beside every bucket edge and cdf value
        rng = np.random.default_rng(15)
        cdf = build(rng)
        words = self._probe_words(cdf, rng, 3 * binomial._SEARCH_BLOCK + 17)
        got = self._inverted(cdf, words)
        want = self._searched(cdf, words)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_indexed_search_on_random_adversarial_cdfs(self):
        # values rounded onto bucket edges, runs of repeats, plateaus at 1
        rng = np.random.default_rng(16)
        for _ in range(100):
            steps = rng.random(int(rng.integers(1, 5000)))
            steps[rng.random(steps.size) < 0.3] = 0.0
            cdf = np.cumsum(steps)
            cdf /= cdf[-1] * rng.uniform(0.5, 1.0)
            cdf = np.minimum(cdf, 1.0)
            if rng.random() < 0.5:
                scale = float(1 << int(rng.integers(4, 19)))
                cdf = np.round(cdf * scale) / scale
            words = self._probe_words(cdf, rng, 1000)
            assert np.array_equal(self._inverted(cdf, words),
                                  self._searched(cdf, words))

    @pytest.mark.parametrize("size", [0, 1, 3 * binomial._SEARCH_BLOCK + 17])
    def test_indexed_search_sizes(self, size):
        cdf = np.cumsum(binom_pmf_vector(40, 0.3))
        cdf /= cdf[-1]
        words = SeededStream(6, 0).generator().bit_generator.random_raw(size)
        got = self._inverted(cdf, words, np.uint8)
        assert got.shape == (size,) and got.dtype == np.uint8
        assert np.array_equal(got, self._searched(cdf, words))

    # each n with the smallest unsigned dtype that holds 2 n, the largest
    # sum of two arms' counts
    COUNT_DTYPES = {1: np.uint8, 40: np.uint8, 127: np.uint8, 128: np.uint16,
                    255: np.uint16, 256: np.uint16, 10**4: np.uint16}

    @pytest.mark.parametrize("p", [0.3, 0.7, 0.0, 1.0])
    @pytest.mark.parametrize("n", sorted(COUNT_DTYPES))
    def test_blocks_read_the_stream_as_one_search(self, n, p):
        # sizes on each side of the block boundary: block-wise draws from
        # raw words equal one searchsorted over one rng.random(size) call on
        # a twin stream
        cdf = np.cumsum(binom_pmf_vector(n, min(p, 1.0 - p)))
        cdf /= cdf[-1]
        block = binomial._SEARCH_BLOCK
        for size in (1, block - 1, block, block + 1, 3 * block + 5):
            ours = SeededStream(8, size).generator()
            theirs = SeededStream(8, size).generator()
            got = binom_draws(n, p, ours, size)
            want = cdf.searchsorted(theirs.random(size), side="right")
            if p > 0.5:
                want = n - want
            assert got.dtype == self.COUNT_DTYPES[n]
            assert np.array_equal(got, want)
            assert ours.random() == theirs.random()  # the streams stay in step

    def test_law_where_numpy_uses_btpe(self):
        # n * p = 600: numpy draws by BTPE, so only the law can agree
        n, p, size = 2000, 0.3, 1_000_000
        draws = binom_draws(n, p, SeededStream(5, 0).generator(), size)
        pmf = binom_pmf_vector(n, p)
        assert abs(draws.mean() - n * p) <= 4.0 * math.sqrt(n * p * (1 - p) / size)
        freq = np.bincount(draws, minlength=n + 1) / size
        for x in range(598, 603):
            se = math.sqrt(pmf[x] * (1.0 - pmf[x]) / size)
            assert abs(freq[x] - pmf[x]) <= 4.0 * se


class TestNormalQuantile:
    @pytest.mark.parametrize("q,z", [(0.95, Z_95), (0.975, Z_975),
                                     (0.99, Z_99), (0.8, Z_80), (0.5, 0.0)])
    def test_frozen_values(self, q, z):
        assert normal_quantile(q) == pytest.approx(z, abs=1e-9)

    @given(q=st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_through_cdf(self, q):
        assert abs(normal_cdf(normal_quantile(q)) - q) <= 1e-9

    @given(q=st.floats(1e-6, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, q):
        assert normal_quantile(q) == pytest.approx(-normal_quantile(1.0 - q),
                                                   abs=1e-9)

    def test_domain(self):
        for q in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(q)

    @pytest.mark.parametrize("q", [1.0 - a for a in GridSpec.alpha_levels]
                             + [1e-6, 0.5, 1.0 - 1e-6])
    def test_smallest_double_reaching_q(self, q):
        z = normal_quantile(q)
        assert normal_cdf(z) >= q > normal_cdf(np.nextafter(z, -np.inf))


class TestSmallestDouble:
    @pytest.mark.parametrize("t", [0.3, 0.4, 1e-300, 0.7, 1.0])
    def test_threshold_predicates(self, t):
        assert smallest_double(lambda x: x >= t, 0.0, 1.0) == t
        above = smallest_double(lambda x: x > t, 0.0, 2.0)
        assert above == np.nextafter(t, np.inf)

    def test_holding_everywhere_gives_the_double_after_lo(self):
        assert smallest_double(lambda x: True, -1.0, 1.0) == np.nextafter(-1.0, 0.0)
        assert smallest_double(lambda x: True, 0.0, 1.0) == 5e-324


class TestClopperPearson:
    def test_frozen_values(self):
        assert clopper_pearson_lower(150, 300, 0.05) == pytest.approx(
            CP_150_300_05, abs=1e-9)
        assert clopper_pearson_lower(10, 40, 0.1) == pytest.approx(
            CP_10_40_10, abs=1e-9)
        assert clopper_pearson_lower(1, 300, 0.05) == pytest.approx(
            CP_1_300_05, abs=1e-9)
        assert clopper_pearson_lower(299, 300, 0.025) == pytest.approx(
            CP_299_300_025, abs=1e-9)

    def test_boundary_counts(self):
        assert clopper_pearson_lower(0, 300, 0.05) == 0.0
        # x = n has the closed form alpha^(1/n)
        assert clopper_pearson_lower(300, 300, 0.05) == pytest.approx(
            CP_300_300_05, abs=1e-9)
        for n in (1, 40, 300, 10_000):
            for a in (0.2, 0.05, 0.001):
                assert clopper_pearson_lower(n, n, a) == pytest.approx(
                    a ** (1.0 / n), rel=1e-12)

    def test_vector_matches_scalar(self):
        # each count stops at its own convergence, so the table's entry is
        # the scalar bound to the bit; every count up to n = 300, at
        # n = 2000 every 10th count plus both ends
        for n in (40, 300, 2000):
            xs = range(n + 1) if n <= 300 else sorted(
                {0, 1, 2, n - 2, n - 1, n} | set(range(0, n + 1, 10)))
            for a in (0.1, 0.05, 0.001):
                vec = clopper_pearson_lower_vector(n, a)
                assert ([clopper_pearson_lower(x, n, a) for x in xs]
                        == vec[xs].tolist())

    @pytest.mark.parametrize("n", [1, 2, 12, 40, 300, 2000])
    @pytest.mark.parametrize("a", [0.2, 0.05, 0.01, 0.001])
    def test_bound_is_where_the_covered_rule_crosses(self, n, a):
        # a bound value is the smallest double the covered rule counts:
        # L(x) itself covers x and the double below it does not; every
        # count up to n = 300, at n = 2000 every 10th count
        proc = LowerBoundProcedure("clopper_pearson", a, n)
        xs = np.arange(1, n + 1) if n <= 300 else np.arange(10, n + 1, 10)
        bounds = proc.bounds[xs]
        assert np.array_equal(proc.covered(bounds), xs + 1)
        assert np.array_equal(proc.covered(np.nextafter(bounds, 0.0)), xs)
        for x in xs[::max(1, xs.size // 8)].tolist():  # the scalar rule too
            assert proc.covered(float(proc.bounds[x])) == x + 1
            assert proc.covered(float(np.nextafter(proc.bounds[x], 0.0))) == x

    @pytest.mark.parametrize("n", [40, 300, 2000])
    def test_closed_form_matches_bisection(self, n):
        # every count up to n = 300; at n = 2000, where each bisection
        # costs 34 pmf sums, every 97th count plus both ends
        xs = range(n + 1) if n <= 300 else sorted(
            {0, 1, 2, 3, n - 2, n - 1, n} | set(range(0, n + 1, 97)))
        for a in (0.2, 0.05, 0.01):
            vec = clopper_pearson_lower_vector(n, a)
            for x in xs:
                assert abs(vec[x] - _cp_lower_bisect(x, n, a)) <= 1e-10

    @given(n=st.sampled_from([3, 40, 381, 2000, 10_000, 200_000]),
           rows=st.sampled_from([0, 1, 3, 128]),
           pairs=st.lists(st.tuples(st.integers(1, 10**6), st.one_of(
               st.sampled_from(EXTREME_RATES), st.floats(0.0, 1.0))),
               min_size=1, max_size=12))
    @example(n=10_000, rows=0,
             pairs=[(1050, 0.5), (9000, 0.5), (20, 1e-6), (5000, 1e-6)])
    @settings(max_examples=40, deadline=None)
    def test_chunked_tails_are_the_whole_rows(self, n, rows, pairs):
        # tails summed from x = n down and pmf values at x, from blocks of
        # a budget of 1 cell or of rows whole rows, whose columns start at
        # their least x; rates far from their counts put x below a block's
        # columns and above them, and rates at the window's edge put its
        # low end on column 0
        edge = _rate_at_window_edge(n)
        if edge is not None:
            edges = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 1.0 - edge]
            pairs = pairs + [(x, r) for (x, _), r in zip(pairs * 4, edges)]
        xs = np.array([1 + x % (n - 1) for x, _ in pairs])
        rates = np.array([r for _, r in pairs])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(binomial, "_BLOCK_CELLS", max(1, rows * (n + 1)))
            tail, at = binomial._tail_and_pmf(n, rates, xs)
        full = _full_exp_pmf(n, rates)
        each = np.arange(xs.size)
        assert np.array_equal(tail, binomial._tails_from_top(full)[each, n - xs])
        assert np.array_equal(at, full[each, xs])

    @pytest.mark.parametrize("n", [40, 300, 1000, 2000])
    def test_column_cut_keeps_bounds_bit_for_bit(self, n):
        # a count's row builds pmf columns x..n only, and of those only the
        # window where a cell can be nonzero; the tails are summed from the
        # top, so no bound moves by a bit
        for a in (0.2, 0.05, 0.001):
            vec = clopper_pearson_lower_vector(n, a)
            assert np.array_equal(vec[1:n], _cp_roots_full(n, a, np.arange(1, n)))

    def test_defining_equation(self):
        # the bound solves Pr(X >= x | p) = alpha'
        big = 10_000
        cases = [(10, 40, 0.1), (150, 300, 0.05)] + [
            (x, big, a) for x in (1, 2, big // 2, big - 1, big)
            for a in (0.05, 0.001)]
        for x, n, a in cases:
            p = clopper_pearson_lower(x, n, a)
            assert _binom_survival(x, n, p) == pytest.approx(a, abs=1e-9)

    @given(n=st.integers(2, 80), a=st.floats(0.01, 0.2))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_x(self, n, a):
        vec = clopper_pearson_lower_vector(n, a)
        assert (np.diff(vec) > 0.0).all()
        assert (vec <= np.arange(n + 1) / n + 1e-12).all()


class TestWald:
    def test_frozen_value(self):
        assert wald_lower_vector(300, 0.05)[165] == pytest.approx(
            WALD_165_300_05, abs=1e-9)

    def test_degenerate_counts_have_zero_width(self):
        vec = wald_lower_vector(50, 0.05)
        assert vec[0] == 0.0
        assert vec[50] == 1.0

    @given(n=st.integers(1, 3000), a=st.floats(0.001, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_vector_nondecreasing(self, n, a):
        # LowerBoundProcedure.covered counts the bounds <= t by bisection
        assert (np.diff(wald_lower_vector(n, a)) >= 0.0).all()

    @given(n=st.integers(2, 200), a=st.floats(0.01, 0.2))
    @settings(max_examples=30, deadline=None)
    def test_vector_in_unit_interval(self, n, a):
        vec = wald_lower_vector(n, a)
        assert (vec >= 0.0).all() and (vec <= 1.0).all()
        assert vec[0] == 0.0


class TestCoverage:
    def test_pair_sums_to_one_exactly(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 40)
        for p in (0.1, 0.37, 0.5, 0.93):
            cov = exact_lower_coverage(proc, p)
            # threshold = p makes these complementary by construction
            assert cov + exceedance_prob(proc, p, p) == 1.0

    def test_cp_exact_coverage_floor(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.1, 40)
        for p in probability_grid(64):
            assert exact_lower_coverage(proc, p) >= 0.9 - 1e-9

    def test_wald_witness_frozen(self):
        proc = LowerBoundProcedure("wald", 0.05, 300)
        rep = coverage_report(proc, probability_grid(1024))
        assert rep.min_coverage == pytest.approx(WALD_MIN_COVERAGE, abs=1e-9)
        assert rep.worst_p == pytest.approx(WALD_WORST_P, abs=1e-12)
        assert rep.min_coverage < 0.95

    def test_wald_fp_witness_frozen(self):
        proc = LowerBoundProcedure("wald", 0.05, 300)
        at_witness = exceedance_prob(proc, WALD_FP_WITNESS_P, 0.5)
        assert at_witness == pytest.approx(WALD_FP_AT_WITNESS, abs=1e-9)
        # the sup search must do at least as well as the frozen witness
        assert sup_false_positive(proc, 0.5) >= WALD_FP_AT_WITNESS - 1e-12

    @pytest.mark.parametrize("kind", ["clopper_pearson", "wald"])
    def test_batched_exceedance_matches_per_rate_loop(self, kind):
        proc = LowerBoundProcedure(kind, 0.05, 300)
        grid = np.concatenate([[0.0], probability_grid(512, hi=0.5), [1.0]])
        batched = exceedance_prob(proc, grid, 0.5)
        looped = np.array([exceedance_prob(proc, p, 0.5) for p in grid])
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("n", [40, 300, 2000])
    def test_shared_count_sums_equal_the_per_row_sums(self, n):
        # every rate shares one count, so _prefix_sums reduces a block's
        # rows in one 2-d np.add.reduce: over 8191 rates it must give the
        # scalar path's per-row reduce, bit for bit, both kinds, four
        # thresholds
        rates = probability_grid(8192)
        pmfs = [binom_pmf_vector(n, p) for p in rates.tolist()]
        for kind in ("clopper_pearson", "wald"):
            proc = LowerBoundProcedure(kind, 0.05, n)
            for threshold in (0.1, 0.4, 0.5, 0.9):
                k = proc.covered(threshold)
                assert np.array_equal(
                    exceedance_prob(proc, rates, threshold),
                    [1.0 - np.add.reduce(pmf[:k]) for pmf in pmfs])

    @pytest.mark.parametrize("n", [1, 2, 12, 40, 300, 381, 2000, 10_000])
    def test_batched_exceedance_is_one_minus_the_dense_prefix_sum(self, n):
        # the dense route exceedance_prob took on a matrix of scalar rows,
        # 1 - pmf[:, :k].sum(axis=1), bit for bit: both kinds, three
        # levels, four thresholds, on a grid holding 0 and 1 and on random
        # rates, 113 rates in all
        rng = np.random.default_rng(n)
        rates = np.concatenate([[0.0], probability_grid(64), [1.0],
                                rng.random(48)])
        pmf = _pmf_rows(n, rates)
        for kind in ("clopper_pearson", "wald"):
            for a in (0.2, 0.05, 0.001):
                proc = LowerBoundProcedure(kind, a, n)
                for threshold in (0.1, 0.4, 0.5, 0.9):
                    k = proc.covered(threshold)
                    assert np.array_equal(exceedance_prob(proc, rates, threshold),
                                          1.0 - pmf[:, :k].sum(axis=1))

    @pytest.mark.parametrize("kind", ["clopper_pearson", "wald"])
    @pytest.mark.parametrize("n", [1, 40, 300, 380, 381, 2000, 10_000])
    def test_batched_coverage_equals_the_per_rate_loop(self, kind, n):
        # the 1/1024 grid, one holding 0 and 1, and the same rates shuffled,
        # so that blocks of rates span windows far apart; rows are whole
        # up to n = 380 and windowed from 381 on
        proc = LowerBoundProcedure(kind, 0.05, n)
        edged = np.concatenate([[0.0], probability_grid(64), [1.0]])
        shuffled = np.random.default_rng(n).permutation(edged)
        for grid in (probability_grid(1024), edged, shuffled):
            assert np.array_equal(coverage_report(proc, grid).coverage,
                                  _coverage_loop(proc, grid))
        assert exact_lower_coverage(proc, 0.3) == _coverage_loop(proc, [0.3])[0]

    @pytest.mark.parametrize("n", [1, 2, 40, 300, 380, 381, 2000, 10_000])
    def test_shared_pass_equals_the_per_procedure_calls(self, n):
        # both kinds at four levels in one pass, and the Wald ones alone,
        # whose columns stop at their largest count: each row is that
        # procedure's own coverage, on the 1/1024 grid, a grid holding 0
        # and 1 shuffled, and random rates
        levels = (0.2, 0.05, 0.01, 0.001)
        procs = [LowerBoundProcedure(kind, a, n)
                 for kind in ("clopper_pearson", "wald") for a in levels]
        edged = np.concatenate([[0.0], probability_grid(64), [1.0]])
        rng = np.random.default_rng(n)
        for grid in (probability_grid(1024), rng.permutation(edged),
                     rng.random(100)):
            alone = [exact_lower_coverage(proc, grid) for proc in procs]
            for group in (procs, procs[len(levels):]):
                shared = exact_lower_coverage(group, grid)
                assert shared.shape == (len(group), grid.size)
                for got, want in zip(shared, alone[len(procs) - len(group):]):
                    assert np.array_equal(got, want)
        assert exact_lower_coverage(procs, 0.3).tolist() == [
            exact_lower_coverage(proc, 0.3) for proc in procs]

    def test_anchor_five_procedures_in_one_pass_keep_every_bit(self):
        # five Clopper-Pearson levels and Wald at n = 300, as anchor 5 asks
        # for them, against the per-rate loop coverage was first written as
        procs = [LowerBoundProcedure("clopper_pearson", a, 300)
                 for a in (0.2, 0.1, 0.05, 0.025, 0.01)]
        procs.append(LowerBoundProcedure("wald", 0.05, 300))
        grid = probability_grid(1024)
        for proc, got in zip(procs, exact_lower_coverage(procs, grid)):
            assert np.array_equal(got, _coverage_loop(proc, grid))

    def test_a_single_procedure_gives_one_row(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 40)
        grid = probability_grid(64)
        alone = exact_lower_coverage(proc, grid)
        assert alone.shape == grid.shape
        assert np.array_equal(alone, _coverage_loop(proc, grid))
        assert np.array_equal(exact_lower_coverage([proc], grid), alone[None, :])
        assert isinstance(exact_lower_coverage(proc, 0.3), float)

    def test_shared_pass_needs_procedures_sharing_n(self):
        mixed = [LowerBoundProcedure("clopper_pearson", 0.05, 40),
                 LowerBoundProcedure("wald", 0.05, 41)]
        for procs in (mixed, []):
            with pytest.raises(ValueError, match="sharing n"):
                exact_lower_coverage(procs, probability_grid(64))

    @given(n=st.sampled_from([1, 2, 381, 2000, 10_000]),
           a=st.one_of(st.sampled_from([0.001, 0.5]), st.floats(0.001, 0.5)),
           shift=st.sampled_from([-0.3, 0.0, 0.3]),
           rates=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 2.0 ** -53]),
                                    st.floats(0.0, 1.0)), min_size=1, max_size=12))
    @example(n=10_000, a=0.05, shift=0.3, rates=[0.5, 0.0, 1.0, 0.2])
    @example(n=10_000, a=0.05, shift=-0.3,
             rates=[*(np.arange(1, 49) / 1024).tolist(), 0.5, 0.9])
    @settings(max_examples=60, deadline=None)
    def test_wald_rows_cut_at_their_counts_keep_every_bit(self, n, a, shift, rates):
        # a bound table shifted up puts some counts at or below the low end
        # of their window (coverage 0.0, no pmf); shifted down, at or past
        # its top. The rates come unsorted, 0 and 1 among them.
        proc = LowerBoundProcedure("wald", a, n)
        if shift:
            # the bounds are a cached_property: set its cache directly
            proc.__dict__["bounds"] = np.clip(proc.bounds + shift, 0.0, 1.0)
        grid = np.array(rates)
        assert np.array_equal(exact_lower_coverage(proc, grid),
                              _coverage_loop(proc, grid))

    @pytest.mark.parametrize("n", [40, 300, 381, 2000, 10_000])
    def test_blocks_hold_only_the_columns_a_row_reads(self, monkeypatch, n):
        # a spy on the pmf kernel records each block's rates and columns:
        # a Wald row reads columns below its count only, a Clopper-Pearson
        # row its whole window, the tails the counts come from
        blocks = []
        kernel = binomial._pmf_block

        def spy(n_, rates, lo, out):
            blocks.append((list(rates), lo, lo + out.shape[1]))
            return kernel(n_, rates, lo, out)

        monkeypatch.setattr(binomial, "_pmf_block", spy)
        edged = np.concatenate([[0.0], probability_grid(64), [1.0]])
        grid = np.concatenate([probability_grid(1024),
                               np.random.default_rng(n).permutation(edged)])
        rates = grid.tolist()
        window = {r: binomial._window(n, r) for r in rates}
        for kind in ("clopper_pearson", "wald"):
            proc = LowerBoundProcedure(kind, 0.05, n)
            reach = {r: window[r] for r in rates}
            if kind == "wald":
                counts = dict(zip(rates, proc.covered(grid).tolist()))
                reach = {r: (lo, min(hi, counts[r])) for r, (lo, hi) in window.items()}
            blocks.clear()
            exact_lower_coverage(proc, grid)
            assert [r for b, _, _ in blocks for r in b] == [
                r for r in rates if reach[r][0] < reach[r][1]]
            for block, lo, hi in blocks:
                assert lo == min(reach[r][0] for r in block)
                assert hi == max(reach[r][1] for r in block)
                if kind == "wald":
                    # a block's columns stop at the largest count among
                    # its rows, and a lone row's at its own count
                    assert hi <= max(counts[r] for r in block)
                    assert len(block) > 1 or hi <= counts[block[0]]

    @pytest.mark.parametrize("kind", ["clopper_pearson", "wald"])
    @pytest.mark.parametrize("n", [1, 40, 2000])
    def test_covered_on_rates_equals_scalar_calls(self, kind, n):
        proc = LowerBoundProcedure(kind, 0.01, n)
        rates = np.concatenate([[0.0], probability_grid(256), [1.0]])
        counts = proc.covered(rates)
        assert counts.tolist() == [proc.covered(float(t)) for t in rates]
        if kind == "clopper_pearson":
            # the count coverage reads off a block holding only the columns
            # where some row can be nonzero
            windows = [binomial._window(n, t) for t in rates.tolist()]
            lo, hi = min(w[0] for w in windows), max(w[1] for w in windows)
            tails = binomial._tails_from_top(_pmf_rows(n, rates)[:, lo:hi])
            assert np.array_equal(binomial._cp_count(tails, 0.01, lo), counts)

    def test_cp_sup_respects_nominal(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 300)
        assert sup_false_positive(proc, 0.5) <= 0.05 + 1e-12

    def test_cp_sup_at_ten_thousand_is_the_rate_at_the_threshold(self):
        # an open grid stops short of p0 and read 0.047022 here
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 10_000)
        value, argmax, certificate = sup_below(
            proc.n, exceedance_terms(proc, 0.5), 0.5)
        assert certificate == "sign_change" and argmax == 0.5
        assert sup_false_positive(proc, 0.5) == value
        assert value == pytest.approx(CP_FP_10000, abs=1e-6)
        assert value == pytest.approx(exceedance_prob(proc, 0.5, 0.5), abs=1e-12)


@pytest.fixture(scope="module")
def special():
    return pytest.importorskip("scipy.special")


class TestScipyOracles:
    """scipy.special, a test-only dependency, as an independent oracle."""

    def test_log_gamma_table_is_gammaln(self, special):
        # every Gamma argument k = 1..TRIAL_LIMIT + 1 a pmf can need
        table = binomial._log_factorials(TRIAL_LIMIT)
        assert np.array_equal(
            table, special.gammaln(np.arange(1.0, TRIAL_LIMIT + 2.0)))

    @pytest.mark.parametrize(
        "n", [1, 12, 13, 40, 300, 999, 1000, 1001, 2000, 10_000])
    def test_pmf_terms_are_gammaln(self, special, n):
        xs = np.arange(n + 1)
        want = (special.gammaln(n + 1) - special.gammaln(xs + 1)
                - special.gammaln(n - xs + 1))
        assert np.array_equal(binomial._pmf_terms(n)[0], want)

    @pytest.mark.parametrize("ns", [range(1, 81), [300], [2000]],
                             ids=["1-80", "300", "2000"])
    def test_covered_rule_is_the_beta_quantile_rule(self, special, ns):
        # the rule on the whole grid at once and through proc.covered on
        # every 64th rate
        grid = np.arange(1025) / 1024
        for n in ns:
            tails = binomial._tails_from_top(_pmf_rows(n, grid))
            xs = np.arange(1, n + 1)
            for a in (0.2, 0.05, 0.01, 0.001):
                proc = LowerBoundProcedure("clopper_pearson", a, n)
                quantiles = np.concatenate(
                    [[0.0], special.betaincinv(xs, n - xs + 1, a)])
                want = quantiles <= grid[:, None]
                counts = (tails >= a).sum(axis=1)
                assert np.array_equal(want, np.arange(n + 1) < counts[:, None])
                for i in range(0, grid.size, 64):
                    assert proc.covered(grid[i]) == counts[i]

    @pytest.mark.parametrize("n", [*range(1, 81), 300, 2000])
    def test_bound_values_are_beta_quantiles(self, special, n):
        # n = 2000 takes only the level slowest to converge, at 0.5 s
        xs = np.arange(n + 1)
        for a in (0.001,) if n == 2000 else (0.2, 0.05, 0.01, 0.001):
            want = np.where(xs > 0, special.betaincinv(xs, n - xs + 1, a), 0.0)
            assert np.abs(clopper_pearson_lower_vector(n, a) - want).max() <= 1e-10


class TestTermsValue:
    def test_faint_denominator_is_rescaled_in_log_space(self):
        # pmf . den is 5e-324 at p = 173/1024, where the plain ratio of the
        # two sums read 1.0; the value is the ratio in rational arithmetic
        n, rate = 396, Fraction(173, 1024)
        terms = mixture_terms(0.99609375, n, 1e-6,
                              MixtureBelief(1.0, "fixed_given_published"))
        pmf = [math.comb(n, x) * rate ** x * (1 - rate) ** (n - x)
               for x in range(n + 1)]
        exact = Fraction(0)
        for w, num, den in terms:
            d = sum(q * Fraction(v) for q, v in zip(pmf, den.tolist()))
            if d > 0:
                exact += Fraction(w) * sum(
                    q * Fraction(v) for q, v in zip(pmf, num.tolist())) / d
        assert binom_pmf_vector(n, float(rate)) @ terms[0][2] < np.finfo(float).tiny
        value = terms_value(n, terms, float(rate))
        assert value == pytest.approx(float(exact), rel=1e-12)
        grid = np.array([0.0, float(rate), 0.5])
        assert terms_value(n, terms, grid)[1] == value

    def test_a_grid_scan_builds_blocks_not_a_rate_matrix(self):
        # 8191 rates at n = 300 took a 16.4 MiB peak as 2**20-cell matrices
        # and their log-sum temporaries; blocks of _BLOCK_CELLS cells
        # leave the outputs and a few small blocks
        terms = mixture_terms(0.5, 300, 0.05,
                              MixtureBelief(0.5, "fixed_given_published"))
        grid = probability_grid(8192)
        terms_value(300, terms, grid[:64])  # caches built outside the trace
        tracemalloc.start()
        try:
            terms_value(300, terms, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_rescaling_skips_cells_outside_both_vectors(self):
        # den lives only on x = 0, whose pmf underflows at n = 2000, p = 1/2;
        # the mode, 1382 nats above it, enters neither sum
        den = (np.arange(2001) == 0).astype(float)
        terms = [(1.0, 0.5 * den, den)]
        assert terms_value(2000, terms, 0.5) == 0.5
        assert terms_value(2000, terms, np.array([0.5, 0.25])).tolist() == [0.5, 0.5]

    def test_zero_den_counts_as_zero(self):
        # den 0 on every cell, and den 0 on the one cell a rate of 0 or 1
        # leaves, both read 0 without rescaling
        n = 12
        dead = [(1.0, np.ones(n + 1), np.zeros(n + 1))]
        assert terms_value(n, dead, 0.3) == 0.0
        inner = np.r_[0.0, np.ones(n - 1), 0.0]
        rates = np.array([0.0, 0.3, 1.0])
        assert terms_value(n, [(1.0, inner, inner)], rates).tolist() == [0.0, 1.0, 0.0]


class TestSupBelow:
    def test_non_monotone_ratio_falls_back_to_the_grid(self):
        # Pr(X = 2) at n = 10 peaks at p = 0.2, inside (0, 0.5)
        spike = (np.arange(11) == 2).astype(float)
        value, argmax, certificate = sup_below(
            10, [(1.0, spike, np.ones(11))], 0.5)
        assert certificate == "grid"
        assert argmax == pytest.approx(0.2, abs=1.0 / 8192)
        assert value == pytest.approx(binom_pmf(10, 0.2, 2), abs=1e-6)
        assert value > terms_value(10, [(1.0, spike, np.ones(11))], 0.5)

    @pytest.mark.parametrize("term", [
        (1.0, [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]),   # a zero den, zero num: holds
        (1.0, [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]),   # num where den is 0
        (-1.0, [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]),  # negative weight
        (1.0, [0.0, 1.0, 0.5], [1.0, 1.0, 1.0]),   # ratio dips
        (1.0, [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]),  # negative den
    ], ids=["holds", "num_on_dead_den", "negative_weight", "dip", "negative_den"])
    def test_certificate_needs_every_condition(self, term):
        w, num, den = term
        terms = [(w, np.array(num), np.array(den))]
        _, _, certificate = sup_below(2, terms, 0.5)
        holds = w >= 0 and num == [0.0, 1.0, 1.0] and den == [0.0, 1.0, 1.0]
        assert certificate == ("sign_change" if holds else "grid")

    def test_rejects_threshold_outside_unit_interval(self):
        proc = LowerBoundProcedure("clopper_pearson", 0.05, 40)
        for p0 in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                sup_false_positive(proc, p0)

    @pytest.mark.parametrize("n", [40, 300, 1000, 2000])
    @pytest.mark.parametrize("pi", [0.25, 0.5, 0.9])
    def test_census_cases_certify_with_the_value_at_p0(self, n, pi):
        # the 12 census cases a monotone-ratio test left uncertified:
        # bayes_reweighted at alpha' = 0.001 and p0 = 0.1, whose ratio dips
        # where the CP suffix starts before the Wald one; the signs about
        # r0 still run - then +, and f(p0) beats the old search's witness
        terms = mixture_terms(0.1, n, 0.001,
                              MixtureBelief(pi, "bayes_reweighted"))
        value, argmax, certificate = sup_below(n, terms, 0.1)
        assert certificate == "sign_change" and argmax == 0.1
        assert value == terms_value(n, terms, 0.1)
        _assert_at_least_a_two_stage_search(n, terms, 0.1, value)

    def test_spike_falls_back_to_the_lattice_scan(self):
        spike = [(1.0, (np.arange(11) == 2).astype(float), np.ones(11))]
        value, _, certificate = sup_below(10, spike, 0.5)
        assert certificate == "grid"
        _assert_at_least_a_two_stage_search(10, spike, 0.5, value)

    def test_empty_scan_returns_the_value_at_p0(self):
        # no multiple of 1/SUP_DENOM lies below 1e-5, and the spike fails
        # the certificate: the scan adds nothing to f(p0)
        spike = [(1.0, (np.arange(11) == 2).astype(float), np.ones(11))]
        assert binomial.SUP_DENOM * 1e-5 < 1.0
        assert sup_below(10, spike, 1e-5) == (
            terms_value(10, spike, 1e-5), 1e-5, "grid")

    @pytest.mark.parametrize("n,p0", [(10, 0.5), (300, 0.1), (2000, 0.9)])
    def test_decreasing_ratio_does_not_certify(self, n, p0):
        # Pr(X = 0) falls in p: its signs about r0 run + then -
        term = (1.0, (np.arange(n + 1) == 0).astype(float), np.ones(n + 1))
        pmf = binom_pmf_vector(n, p0)
        assert not binomial._sign_change_term(pmf, *term)
        value, argmax, certificate = sup_below(n, [term], p0)
        assert certificate == "grid" and argmax == 1.0 / binomial.SUP_DENOM
        assert value == pytest.approx(binom_pmf(n, argmax, 0), rel=1e-12)

    @given(n=st.integers(1, 60), p0=st.floats(0.01, 0.99),
           w=st.floats(0.0, 3.0), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_nondecreasing_ratio_always_certifies(self, n, p0, w, data):
        # the monotone-ratio condition the certificate replaced, contained
        # in it: any den >= 0 (zeros included, with num = 0 there) and any
        # nondecreasing num/den of either sign
        ratio = np.sort(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)))
        den = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0]),
            min_size=n + 1, max_size=n + 1)))
        term = (w, ratio * den, den)
        assert binomial._sign_change_term(binom_pmf_vector(n, p0), *term)
        value, argmax, certificate = sup_below(n, [term], p0)
        assert certificate == "sign_change" and argmax == p0

    @given(n=st.integers(2, 60), p0=st.floats(0.05, 0.95),
           c=st.floats(0.0, 1.0), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sign_change_terms_stay_below_their_value_at_p0(self, n, p0, c,
                                                            data):
        # num = c * den + g with g running - then + and pmf(p0) . g = 0,
        # so r0 = c however the ratio wanders: Karlin's bound, checked on
        # the 1/1024 lattice below p0. The cut leaves at least 1% of the
        # mass on each side, so no |g / den| falls into the tie band.
        pmf = binom_pmf_vector(n, p0)
        cdf = np.cumsum(pmf)[:-1]
        cut = data.draw(st.sampled_from(
            (np.flatnonzero((cdf >= 0.01) & (cdf <= 0.99)) + 1).tolist()))
        den = np.array(data.draw(st.lists(
            st.floats(0.1, 2.0), min_size=n + 1, max_size=n + 1)))
        g = np.array(data.draw(st.lists(
            st.floats(0.01, 0.99), min_size=n + 1, max_size=n + 1)))
        g[:cut] -= 1.0
        g[cut:] *= -(pmf[:cut] @ g[:cut]) / (pmf[cut:] @ g[cut:])
        terms = [(1.0, c * den + g, den)]
        value, argmax, certificate = sup_below(n, terms, p0)
        assert certificate == "sign_change" and argmax == p0
        lattice = probability_grid(1024, hi=p0)
        assert terms_value(n, terms, lattice).max() <= value + 1e-12

    @given(n=st.integers(4, 60), p0=st.floats(0.05, 0.95),
           c=st.floats(0.0, 1.0), lam=st.floats(0.1, 0.9), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_tail_sums_certify(self, n, p0, c, lam, data):
        # a - then + list as above, then part of the - mass at j + 1 moved
        # to j, turning g_j positive: the signs now change three times, but
        # every tail sum of pmf * g stays >= 0, so Abel summation keeps
        # the term at most c below p0
        pmf = binom_pmf_vector(n, p0)
        cdf = np.cumsum(pmf)[:-1]
        cuts = np.flatnonzero((cdf >= 0.01) & (cdf <= 0.99)) + 1
        assume(cuts.max() >= 3)
        cut = data.draw(st.sampled_from(cuts[cuts >= 3].tolist()))
        j = data.draw(st.integers(1, cut - 2))
        den = np.array(data.draw(st.lists(
            st.floats(0.1, 2.0), min_size=n + 1, max_size=n + 1)))
        e = pmf * np.array(data.draw(st.lists(
            st.floats(0.01, 0.99), min_size=n + 1, max_size=n + 1)))
        e[:cut] *= -1.0
        e[cut:] *= -e[:cut].sum() / e[cut:].sum()
        tail = -e[:j + 1].sum()  # the tail sum from j + 1
        moved = -e[j] + lam * (tail + e[j])
        e[j] += moved
        e[j + 1] -= moved
        g = e / pmf
        assert g[j - 1] < 0.0 < g[j] and g[j + 1] < 0.0 < g[-1]
        terms = [(1.0, c * den + g, den)]
        value, argmax, certificate = sup_below(n, terms, p0)
        assert certificate == "sign_change" and argmax == p0
        lattice = probability_grid(1024, hi=p0)
        assert terms_value(n, terms, lattice).max() <= value + 1e-12


def _assert_at_least_a_two_stage_search(n, terms, p0, value):
    """The scan's supremum is at least f(p0) and the two-stage search's
    maximum, from a 1/512 base grid and a 1/8192 window."""
    fn = lambda p: terms_value(n, terms, p)
    window, _ = _scalar_refined_grid_max(
        fn, probability_grid(512, hi=p0), 8192, 0.0, p0)
    assert value >= fn(p0) and value >= window


class TestGrids:
    def test_open_ends(self):
        g = probability_grid(8)
        assert g[0] == 0.125 and g[-1] == 0.875 and len(g) == 7

    def test_refinement_tightens_argmax(self):
        peak = 0.3337
        fn = lambda p: -(p - peak) ** 2
        _, argmax = refined_grid_max(fn, probability_grid(8192))
        assert abs(argmax - peak) <= 1.0 / 8192

    def test_refinement_never_worse_than_base(self):
        fn = lambda p: np.sin(17.0 * p)
        coarse = max(fn(p) for p in probability_grid(32))
        refined, _ = refined_grid_max(fn, probability_grid(4096))
        assert refined >= coarse

    @pytest.mark.parametrize("fn,grid", [
        (lambda p: -(p - 0.3337) ** 2, probability_grid(8192)),
        # a plateau: the scan returns its first point, as the loop does
        (lambda p: np.minimum(p, 0.4), probability_grid(4096)),
        (lambda p: -((p - 0.2) * (p - 0.7)) ** 2 + 0.01 * p,
         probability_grid(2048, hi=0.9)),
        # the peak sits next to the open upper end
        (lambda p: p * p, probability_grid(8192, hi=0.5)),
        (lambda p: 1.0 - p, probability_grid(8192, hi=0.3)),
        (lambda p: -(p - 0.41) ** 2, [0.4]),
    ], ids=["peak", "plateau", "two_modes", "upper_end", "lower_end",
            "one_point"])
    def test_batched_matches_scalar_loop(self, fn, grid):
        # exact arithmetic, so the one batched call must agree to the bit
        assert refined_grid_max(fn, grid) == _scalar_grid_max(fn, grid)

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError):
            refined_grid_max(lambda p: p, probability_grid(8, hi=0.1))


def _scalar_grid_max(fn, grid):
    """The scan one rate at a time, where only a strictly larger value wins."""
    best_v, best_p = -math.inf, None
    for p in np.asarray(grid, dtype=float):
        v = fn(p)
        if v > best_v:
            best_v, best_p = v, p
    return float(best_v), float(best_p)


def _scalar_refined_grid_max(fn, base_grid, refine_denom, lo, hi):
    """The two-stage search the scan replaced, one fn call per point: the
    base grid, then the lattice of multiples of 1/refine_denom within one
    base step of the coarse argmax, where the first strictly larger value
    wins. It visits a subset of the scan's points: a lower witness."""
    base = np.asarray(base_grid, dtype=float)
    vals = [fn(p) for p in base]
    k = int(np.argmax(vals))
    best_p, best_v = float(base[k]), float(vals[k])
    if refine_denom and base.size > 1:
        step = float(np.diff(base).max())
        w_lo = max(best_p - step, lo)
        w_hi = min(best_p + step, hi)
        first = int(w_lo * refine_denom) + 1
        last = int(math.ceil(w_hi * refine_denom))
        for j in range(first, last):
            p = j / refine_denom
            if not (w_lo < p < w_hi and lo < p < hi):
                continue
            v = fn(p)
            if v > best_v:
                best_p, best_v = p, v
    return best_v, best_p
