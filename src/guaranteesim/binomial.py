"""Exact binomial machinery and lower confidence-bound procedures.

Everything here is exact up to floating point: pmf values come from
log-gamma arithmetic, and coverage numbers from enumeration over all n+1
outcomes. Which Clopper-Pearson bounds lie at or below a rate t is read
from the binomial tail at t, which defines them; bound values, needed
only to sample published bounds, are roots of that same tail. No
sampling, no approximation beyond the Wald formula itself (which is the
point of including it).

Every exceedance functional is a short list of terms (w, num, den),
vectors over x = 0..n with f(p) = sum of w * (pmf . num) / (pmf . den);
terms_value evaluates them on the batched pmf kernel binom_pmf_reduce.
Every "sup over p < p0" is sup_below: f(p0) when an O(n) sign-change test
certifies it, else a scan of the multiples of 1/SUP_DENOM below p0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "binom_pmf",
    "binom_pmf_vector",
    "binom_pmf_reduce",
    "binom_draws",
    "normal_cdf",
    "normal_quantile",
    "smallest_double",
    "clopper_pearson_lower",
    "clopper_pearson_lower_vector",
    "wald_lower",
    "wald_lower_vector",
    "LowerBoundProcedure",
    "CoverageReport",
    "exact_lower_coverage",
    "exceedance_prob",
    "coverage_report",
    "exceedance_terms",
    "terms_value",
    "sup_below",
    "sup_false_positive",
    "probability_grid",
    "refined_grid_max",
    "SUP_DENOM",
]


def _check_law(n: int, p: float) -> None:
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must lie in [0,1], got {p}")


def binom_pmf(n: int, p: float, x: int) -> float:
    """Pr(X = x) for X ~ Binomial(n, p): entry x of binom_pmf_vector."""
    _check_law(n, p)
    if not 0 <= x <= n:
        raise ValueError(f"count x={x} outside 0..{n}")
    return float(binom_pmf_vector(n, p)[x])


# log sqrt(2 pi) and the Stirling-series correction of cephes lgam
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)


def _log_factorials(n: int) -> np.ndarray:
    """log x! = log Gamma(x + 1) for x = 0..n.

    A port of cephes lgam (the gammaln of scipy.special) that keeps its
    order of operations, so the values are the same doubles: log((k-1)!)
    for Gamma arguments k <= 12, the Stirling series above, up to k = 1e8.
    Logarithms come from math.log, because np.log can differ from the C
    library's log in the last bit.
    """
    out = np.empty(n + 1)
    head = min(n + 1, 12)
    out[:head] = [math.log(math.factorial(x)) for x in range(head)]
    k = np.arange(head + 1.0, n + 2.0)
    q = (k - 0.5) * np.array([math.log(v) for v in k.tolist()]) - k + _LS2PI
    p = 1.0 / (k * k)
    series = _STIRLING[0]
    for c in _STIRLING[1:]:
        series = series * p + c
    short = (7.9365079365079365079365e-4 * p
             - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    out[head:] = np.where(k >= 1000.0, short, series) / k + q
    return out


@lru_cache(maxsize=64)
def _pmf_terms(n: int):
    """log C(n, x), x and n - x over x = 0..n, as float vectors.

    Cached per n and read-only, because every pmf evaluation shares them.
    """
    log_fact = _log_factorials(n)
    xs = np.arange(n + 1)
    terms = (log_fact[n] - log_fact - log_fact[::-1],
             xs.astype(float), (n - xs).astype(float))
    for t in terms:
        t.setflags(write=False)
    return terms


def _is_rate_array(p) -> bool:
    # cheaper than np.ndim on the scalar path, which runs per coverage point
    return isinstance(p, np.ndarray) and p.ndim > 0


def binom_pmf_vector(n: int, p) -> np.ndarray:
    """All n+1 pmf values at once; same log-space route as binom_pmf.

    A 1-d array of rates gives a (rates, n+1) matrix whose rows are
    bit-for-bit the pmf vectors of the single rates.
    """
    if not _is_rate_array(p):
        _check_law(n, p)
        if p == 0.0:
            out = np.zeros(n + 1)
            out[0] = 1.0
            return out
        if p == 1.0:
            out = np.zeros(n + 1)
            out[n] = 1.0
            return out
        logc, xs, rest = _pmf_terms(n)
        # logc + x log p + (n - x) log(1 - p), summed in place in that order
        out = xs * math.log(p)
        out += logc
        out += rest * math.log1p(-p)
        return np.exp(out, out=out)
    rates = p.astype(float, copy=False)
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not ((rates >= 0.0) & (rates <= 1.0)).all():
        raise ValueError(f"success probabilities must lie in [0,1], got {rates}")
    return _pmf_columns(n, rates, 0)


def _pmf_columns(n: int, rates: np.ndarray, first: int) -> np.ndarray:
    """Columns x = first..n of binom_pmf_vector(n, rates), bit for bit:
    each cell is computed on its own, so dropping columns changes none."""
    logc, xs, rest = (t[first:] for t in _pmf_terms(n))
    inner = np.where((rates > 0.0) & (rates < 1.0), rates, 0.5)
    # math's logs, as in the scalar route: np.log can differ in the last
    # bit, and x * log(p) carries that into the pmf n-fold
    log_p = np.array([math.log(r) for r in inner])[:, None]
    log_q = np.array([math.log1p(-r) for r in inner])[:, None]
    out = xs * log_p
    out += logc
    out += rest * log_q
    np.exp(out, out=out)
    for edge, x in ((0.0, 0), (1.0, n)):
        rows = rates == edge
        out[rows] = 0.0
        if x >= first:
            out[rows, x - first] = 1.0
    return out


def binom_draws(n: int, p: float, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """size counts from Binomial(n, p), by inversion of the exact cdf.

    One rng.random uniform per count, looked up in the cumulative sum of
    binom_pmf_vector (Devroye 1986, section III.2) by _indexed_search, with
    the counts searchsorted(side="right") gives; p > 1/2 draws n - X
    at 1 - p. This is the inversion numpy's Generator.binomial runs when
    n * min(p, 1 - p) <= 30, so there the counts equal rng.binomial's on
    the same stream for 0 < p < 1; beyond that numpy switches to BTPE
    (Kachitvichyanukul & Schmeiser 1988) and only the law agrees. The cdf
    is divided by its last entry, so it ends at exactly 1 and every count
    lies in 0..n: the rounding of the sum, 2.4e-10 short of 1 at n = 10**6,
    would otherwise all land on the count n.
    """
    if p > 0.5:
        return n - binom_draws(n, 1.0 - p, rng, size)
    cdf = np.cumsum(binom_pmf_vector(n, p))
    cdf /= cdf[-1]
    return _indexed_search(cdf, rng.random(size))


# Uniforms looked up at once by _indexed_search: its temporaries stay
# small, and blocks of this size ran faster than one pass over 10**6.
_SEARCH_BLOCK = 1 << 16


def _indexed_search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right") for u in [0, 1), bit for bit.

    Indexed search (Chen & Asau 1974; Devroye 1986, section III.2.4):
    [0, 1) is cut into k buckets, k a power of two, so floor(u * k) is
    exact for every double u. A bucket holding no cdf value strictly
    inside it gives every u in it the same count, read from a table;
    only uniforms in the other buckets are binary-searched. About 16
    buckets per cdf entry leave most buckets empty; k stays within
    [2**10, 2**16], so the table is cheap to build and small to hold.
    """
    k = min(max(1 << (16 * len(cdf) - 1).bit_length(), 1 << 10), 1 << 16)
    edges = np.arange(k + 1) / k
    below = cdf.searchsorted(edges[:-1], side="right")
    table = np.where(below == cdf.searchsorted(edges[1:], side="left"), below, -1)
    out = np.empty(u.shape, np.intp)
    for i in range(0, u.size, _SEARCH_BLOCK):
        block = u[i:i + _SEARCH_BLOCK]
        got = table[(block * k).astype(np.intp)]
        miss = np.flatnonzero(got < 0)
        got[miss] = cdf.searchsorted(block[miss], side="right")
        out[i:i + _SEARCH_BLOCK] = got
    return out


# Largest pmf matrix binom_pmf_reduce builds at once, in cells.
_PMF_CELLS = 1 << 20


def binom_pmf_reduce(n: int, p, fn):
    """fn applied to the pmf matrix of the rates p, one value per rate.

    fn maps a (rates, n+1) pmf matrix to one value per row. The 1-d array
    of rates is taken in chunks, so a matrix holds at most about 2**20
    cells (one row, if a row is longer). A scalar p gives a float, from
    the scalar pmf of binom_pmf_vector.
    """
    if not _is_rate_array(p):
        return float(fn(binom_pmf_vector(n, p)[None, :])[0])
    rates = p.astype(float, copy=False)
    step = max(1, _PMF_CELLS // (n + 1))
    out = np.empty(rates.size)
    for i in range(0, rates.size, step):
        out[i:i + step] = fn(binom_pmf_vector(n, rates[i:i + step]))
    return out


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def smallest_double(pred, lo: float, hi: float) -> float:
    """The smallest double in (lo, hi] where the nondecreasing predicate
    pred holds, given that it holds at hi: midpoint bisection until the
    bracket holds adjacent doubles."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def normal_quantile(q: float) -> float:
    """Inverse standard-normal cdf: the smallest double z with normal_cdf(z)
    >= q, which is 0 at -40 and 1 at 40."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0,1), got {q}")
    return smallest_double(lambda z: normal_cdf(z) >= q, -40.0, 40.0)


# ---------------------------------------------------------------------------
# Lower confidence bounds.

def clopper_pearson_lower(x: int, n: int, alpha_prime: float) -> float:
    """Exact lower bound: the p solving Pr(X >= x | n, p) = alpha_prime.

    x = 0 returns 0 and x = n the closed form alpha_prime ** (1/n).
    """
    _check_cp_args(x, n, alpha_prime)
    if x == 0:
        return 0.0
    if x == n:
        return alpha_prime ** (1.0 / n)
    return float(_cp_roots(n, alpha_prime, np.array([x]))[0])


def clopper_pearson_lower_vector(n: int, alpha_prime: float) -> np.ndarray:
    """Bounds for every x = 0..n, the roots of one tail each."""
    _check_cp_args(0, n, alpha_prime)
    out = np.zeros(n + 1)
    out[1:n] = _cp_roots(n, alpha_prime, np.arange(1, n))
    out[n] = alpha_prime ** (1.0 / n)
    return out


def _tails_from_top(pmf: np.ndarray) -> np.ndarray:
    """Pr(X >= n - j) at index j along the last axis, summed from x = n
    down; nondecreasing in j."""
    return pmf[..., ::-1].cumsum(axis=-1)


# Newton steps after which _cp_roots stops; bisection alone would be
# within 2**-100 by then.
_CP_STEPS = 100


def _cp_roots(n: int, alpha_prime: float, xs: np.ndarray) -> np.ndarray:
    """The rates p solving Pr(X >= x | n, p) = alpha_prime, for 0 < x < n.

    Safeguarded Newton on _tails_from_top, the tail the covered rule reads:
    its derivative in p is x * pmf(x) / p, and a step that leaves the
    bracket [lo, hi] of the root bisects it instead. It starts from the
    Wilson score bound and stops after a round of Newton steps below 1e-10
    relative, whose quadratic convergence leaves only the rounding of the
    tail. Counts are taken in blocks of at most _PMF_CELLS pmf cells, and
    a block's pmf holds only the columns x.min()..n its tails read: they
    are summed from x = n down, so the cut leaves them bit for bit.
    """
    z = normal_quantile(1.0 - alpha_prime)
    out = np.empty(xs.size)
    block = max(1, _PMF_CELLS // (n + 1))
    for i in range(0, xs.size, block):
        x = xs[i:i + block]
        first = int(x.min())
        rows = np.arange(x.size)
        lo, hi = np.zeros(x.size), np.ones(x.size)
        wilson = (x + 0.5 * z * z
                  - z * np.sqrt(x * (n - x) / n + 0.25 * z * z)) / (n + z * z)
        p = np.where(wilson > 0.0, wilson, x / n)
        for _ in range(_CP_STEPS):
            pmf = _pmf_columns(n, p, first)
            gap = _tails_from_top(pmf)[rows, n - x] - alpha_prime
            lo, hi = np.where(gap < 0.0, p, lo), np.where(gap < 0.0, hi, p)
            with np.errstate(all="ignore"):
                step = gap * p / (x * pmf[rows, x - first])
            newton = p - step
            if (np.abs(step) <= 1e-10 * p).all():
                p = np.clip(newton, lo, hi)
                break
            p = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        out[i:i + block] = p
    return out


def _check_cp_args(x: int, n: int, alpha_prime: float) -> None:
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"count x={x} outside 0..{n}")
    if not 0.0 < alpha_prime < 1.0:
        raise ValueError(f"nominal level must lie in (0,1), got {alpha_prime}")


def wald_lower(x: int, n: int, alpha_prime: float) -> float:
    """Normal-approximation lower bound: entry x of wald_lower_vector."""
    _check_cp_args(x, n, alpha_prime)
    return float(wald_lower_vector(n, alpha_prime)[x])


def wald_lower_vector(n: int, alpha_prime: float) -> np.ndarray:
    """Wald bounds for every x = 0..n, clamped to [0,1]; x in {0, n} has
    zero standard error, hence the raw point estimate."""
    phat = np.arange(n + 1) / n
    z = normal_quantile(1.0 - alpha_prime)
    bound = phat - z * np.sqrt(phat * (1.0 - phat) / n)
    return np.clip(bound, 0.0, 1.0)


@dataclass(frozen=True)
class LowerBoundProcedure:
    """A lower confidence-bound rule x -> L(x) at a fixed sample size."""

    kind: str  # "clopper_pearson" or "wald"
    nominal_alpha: float
    n: int

    def __post_init__(self):
        if self.kind not in ("clopper_pearson", "wald"):
            raise ValueError(f"unknown procedure kind {self.kind!r}")
        _check_cp_args(0, self.n, self.nominal_alpha)

    @cached_property
    def bounds(self) -> np.ndarray:
        """L(x) for every x = 0..n, built on first use."""
        if self.kind == "clopper_pearson":
            return clopper_pearson_lower_vector(self.n, self.nominal_alpha)
        return wald_lower_vector(self.n, self.nominal_alpha)

    def covered(self, t: float, pmf=None) -> int:
        """The number k of counts x with L(x) <= t, which are x = 0..k-1
        because L is nondecreasing in x; pmf is the pmf at t, if at hand.

        A Clopper-Pearson bound is the root of the tail Pr(X >= x | p) =
        alpha', which rises in p, so L(x) <= t exactly when Pr(X >= x | t)
        >= alpha' (Clopper & Pearson 1934): k is read from the tails of the
        pmf at t, and no bound value is computed.
        """
        if self.kind != "clopper_pearson":
            return int(self.bounds.searchsorted(t, side="right"))
        if pmf is None:
            pmf = binom_pmf_vector(self.n, t)
        return self.n + 1 - int(
            _tails_from_top(pmf).searchsorted(self.nominal_alpha))


def exact_lower_coverage(proc, p: float) -> float:
    """Pr(L <= p) by enumeration over all outcomes at success rate p."""
    pmf = binom_pmf_vector(proc.n, p)
    return float(pmf[:proc.covered(p, pmf)].sum())


def exceedance_prob(proc, p, threshold: float):
    """Pr(L > threshold) when outcomes are drawn at success rate p.

    Defined as 1 - coverage at the threshold so that the pair sums to one
    exactly, not just within rounding. An array of rates gives an array.
    """
    k = proc.covered(threshold)
    return binom_pmf_reduce(proc.n, p, lambda pmf: 1.0 - pmf[:, :k].sum(axis=1))


def exceedance_terms(proc, threshold: float) -> list:
    """Pr(L > threshold) as terms_value terms: one unweighted indicator."""
    exceed = np.ones(proc.n + 1)
    exceed[:proc.covered(threshold)] = 0.0
    return [(1.0, exceed, np.ones(proc.n + 1))]


def terms_value(n: int, terms, p):
    """f(p) = sum of w * (pmf . num) / (pmf . den) over the terms (w, num, den).

    num and den are vectors over x = 0..n; a term whose pmf . den is 0
    counts as 0. An array of rates gives an array, a scalar a float.
    """
    weights = np.array([w for w, _, _ in terms], dtype=float)
    vecs = np.column_stack([v for _, num, den in terms for v in (num, den)])

    def at(pmf):
        sums = pmf @ vecs
        num, den = sums[:, 0::2], sums[:, 1::2]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0.0, num / den, 0.0) @ weights

    return binom_pmf_reduce(n, p, at)


@dataclass(frozen=True)
class CoverageReport:
    kind: str
    nominal_alpha: float
    n: int
    p_grid: np.ndarray
    coverage: np.ndarray
    violation: np.ndarray  # Pr(L > p) at each grid p

    @property
    def min_coverage(self) -> float:
        return float(self.coverage.min())

    @property
    def worst_p(self) -> float:
        return float(self.p_grid[int(self.coverage.argmin())])


def coverage_report(proc: LowerBoundProcedure, p_grid) -> CoverageReport:
    grid = np.asarray(p_grid, dtype=float)
    cov = np.array([exact_lower_coverage(proc, p) for p in grid])
    return CoverageReport(
        kind=proc.kind,
        nominal_alpha=proc.nominal_alpha,
        n=proc.n,
        p_grid=grid,
        coverage=cov,
        violation=1.0 - cov,
    )


def probability_grid(denom: int, hi: float = 1.0) -> np.ndarray:
    """The multiples of 1/denom strictly between 0 and hi: open ends, as
    strict-inequality suprema require."""
    if denom < 2:
        raise ValueError(f"grid denominator must be at least 2, got {denom}")
    grid = np.arange(1, denom) / denom
    return grid[grid < hi]


def refined_grid_max(fn, grid):
    """(max, argmax) of fn over the grid, the first rate attaining the max;
    fn maps an array of rates to an array of values and is called once."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty probability grid")
    vals = np.asarray(fn(grid), dtype=float)
    k = int(np.argmax(vals))
    return float(vals[k]), float(grid[k])


SUP_DENOM = 8192  # sup_below scans multiples of 1/SUP_DENOM when uncertified


def _sign_change_term(pmf, w: float, num, den) -> bool:
    """w >= 0, den >= 0, and the signs of g = num - r0 * den over x run -
    then +, or else the tail sums of pmf * g stay >= 0 (pmf, r0 at p0).
    Ratios within 1e-9 (pmf . |num|) / (pmf . den) of r0 are ties: they may
    sit only between the runs, and widen the sums' bounds with 1e-9 |pmf g|.
    Sums skip non-normal pmf values, whose signs must be - below, + above."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    at = pmf @ den
    if w < 0.0 or (den < 0.0).any() or (at == 0.0 and den.any()):
        return False  # a term read as 0 at p0 may be positive below it
    r0, band = (pmf @ num / at, 1e-9 * (pmf @ np.abs(num)) / at) if at else (0, 0)
    live, g = den > 0.0, num - r0 * den
    gap = np.divide(num, den, out=num.copy(), where=live) - r0 * live
    sign = np.where(np.abs(gap) <= band * live, 0.0, np.sign(gap))
    used, normal = live | (num != 0.0), pmf >= np.finfo(float).tiny
    if (np.diff(sign[used]) >= 0.0).all():  # x with num = den = 0 add nothing
        return True
    ends = np.where(np.cumsum(normal) == 0, -1.0, 1.0)
    e, slack = normal * pmf * g, normal * pmf * (band * den + 1e-9 * np.abs(g))
    tails, heads = np.cumsum((e - slack)[::-1])[-2::-1], np.cumsum(e + slack)[:-1]
    return bool((sign == ends)[used & ~normal].all()
                and ((tails >= 0.0) | (heads <= 0.0)).all())


def sup_below(n: int, terms, p0: float):
    """sup over p < p0 of terms_value(n, terms, p): (value, argmax, certificate).

    pmf(p) . g is a positive multiple of Q(t) = sum of pmf(p0) * g * t**x,
    t = odds(p) / odds(p0), with Q(1) = 0. Q changes sign at most once on
    (0, 1], in the order of its coefficients' signs, the binomial kernel
    being strictly totally positive (variation diminishing, Karlin 1968),
    and Q(t) = -(1 - t) * sum of t**(k-1) * (tail sum from k) (Abel): a term
    passing _sign_change_term, as any nondecreasing num/den does, is at most
    r0 below p0. If all pass: "sign_change", the supremum f(p0) at p0; else
    "grid", the larger of f(p0) and refined_grid_max on k/SUP_DENOM < p0.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"threshold must lie strictly in (0,1), got {p0}")
    at_p0 = terms_value(n, terms, p0)
    pmf = binom_pmf_vector(n, p0)
    if all(_sign_change_term(pmf, *term) for term in terms):
        return at_p0, p0, "sign_change"
    grid = probability_grid(SUP_DENOM, hi=p0)
    value, argmax = (refined_grid_max(lambda p: terms_value(n, terms, p), grid)
                     if grid.size else (at_p0, p0))
    return (value, argmax, "grid") if value > at_p0 else (at_p0, p0, "grid")


def sup_false_positive(proc, p0: float) -> float:
    """sup over p < p0 of Pr(L > p0), the decision rule's false positive rate."""
    return sup_below(proc.n, exceedance_terms(proc, p0), p0)[0]
