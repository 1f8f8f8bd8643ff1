"""Exact binomial machinery and lower confidence-bound procedures.

Everything here is exact up to floating point: pmf values come from
log-gamma arithmetic, and coverage numbers from enumeration over all n+1
outcomes. Which Clopper-Pearson bounds lie at or below a rate t is read
from the binomial tail at t, which defines them; a bound value, needed
only to sample published bounds, is the smallest double at which that
same tail, summed as the covered rule sums it, reaches alpha'. No
approximation beyond the Wald formula itself (the point of including
it): samples invert the exact cdf at raw Philox words (binom_blocks).

The pmf kernel takes the exp only within _reach of n p. By Bernstein's
and Hoeffding's inequalities every cell beyond it has a log below -760,
so its exp is exactly 0.0: np.exp underflows below -745.13, and the 15
nats between cover the rounding of the log sum. The cells it does
compute go through the same operations in the same order, so every pmf
is the same doubles as with no window. binom_pmf_vector builds the
vector of one rate; every functional over an array of rates walks the
rates in the windowed blocks of one generator, _pmf_blocks, and builds
only the columns it reads: dot products with vectors over x
(binom_pmf_dot), prefix sums for coverage and exceedance, the
Clopper-Pearson counts, and the tails behind the bound values.

Every exceedance functional is a short list of terms (w, num, den),
vectors over x = 0..n with f(p) = sum of w * (pmf . num) / (pmf . den);
terms_value evaluates them through binom_pmf_dot, and a ratio whose
denominator sum is not a normal double on the pmf rescaled in log
space. Every "sup over p < p0" is sup_below: f(p0) when
an O(n) sign-change test certifies it, else a scan of the multiples of
1/SUP_DENOM below p0.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .record import Record

__all__ = [
    "binom_pmf",
    "binom_pmf_vector",
    "binom_pmf_dot",
    "binom_blocks",
    "binom_draws",
    "invert_blocks",
    "normal_cdf",
    "normal_quantile",
    "smallest_double",
    "clopper_pearson_lower",
    "clopper_pearson_lower_vector",
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
    library's log in the last bit; they stream into the array, with no
    list of n Python floats in between.
    """
    out = np.empty(n + 1)
    head = min(n + 1, 12)
    out[:head] = [math.log(math.factorial(x)) for x in range(head)]
    k = np.arange(head + 1.0, n + 2.0)
    # (k - 0.5) log k - k + log sqrt(2 pi), in place in that order
    q = np.fromiter(map(math.log, range(head + 1, n + 2)), float, k.size)
    q *= k - 0.5
    q -= k
    q += _LS2PI
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
    # cheaper than np.ndim on the scalar path, which runs once per pmf
    return isinstance(p, np.ndarray) and p.ndim > 0


def _rate_array(n: int, p) -> np.ndarray:
    """p as a float array, checked as binom_pmf_vector checks its rates."""
    rates = p.astype(float, copy=False)
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not ((rates >= 0.0) & (rates <= 1.0)).all():
        raise ValueError(f"success probabilities must lie in [0,1], got {rates}")
    return rates


# Log-pmf below which a cell is left out of the exp: np.exp(x) is exactly
# 0.0 for x below -745.13, and 760 leaves 15 nats for the rounding of the
# three-term log sum, whose terms reach about 1e8 at n = 2e5.
_CUTOFF = 760.0


def _reach(n: int, p):
    """The distance t from n p beyond which Pr(X = x) <= exp(-_CUTOFF).

    For t = |x - n p|, Pr(X = x) <= Pr(|X - n p| >= t) on x's side, which
    is at most exp(-t**2 / (2 (n p q + t / 3))) (Bernstein) and at most
    exp(-2 t**2 / n) (Hoeffding); t solves the tighter of the two at the
    cutoff. A float or an array of rates.
    """
    bernstein = _CUTOFF / 3.0 + (
        _CUTOFF * _CUTOFF / 9.0 + 2.0 * _CUTOFF * n * p * (1.0 - p)) ** 0.5
    hoeffding = (0.5 * _CUTOFF * n) ** 0.5
    if _is_rate_array(p):
        return np.minimum(bernstein, hoeffding)
    return min(bernstein, hoeffding)


def _window(n: int, p: float) -> tuple:
    """Columns [lo, hi) of the pmf vector at p within _reach of n p; every
    cell outside them is exactly 0.0. At desk scale, 2 n <= _CUTOFF,
    Hoeffding's reach (_CUTOFF n / 2) ** 0.5 covers 0..n, so that is the
    window of every rate, without computing it."""
    if 2 * n <= _CUTOFF:
        return 0, n + 1
    reach = _reach(n, p)
    return max(0, math.floor(n * p - reach)), min(n, math.floor(n * p + reach)) + 1


def binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """All n+1 pmf values at one rate, by the log-space route of binom_pmf;
    only the cells in the _window of p are computed, and every other cell
    is exactly 0.0, which is what its exp would give."""
    _check_law(n, p)
    if p == 0.0 or p == 1.0:
        out = np.zeros(n + 1)
        out[0 if p == 0.0 else n] = 1.0
        return out
    logc, xs, rest = _pmf_terms(n)
    lo, hi = _window(n, p)
    if hi - lo < n + 1:
        logc, xs, rest = logc[lo:hi], xs[lo:hi], rest[lo:hi]
    # logc + x log p + (n - x) log(1 - p), summed in place in that order
    cells = xs * math.log(p)
    cells += logc
    cells += rest * math.log1p(-p)
    np.exp(cells, out=cells)
    if hi - lo == n + 1:
        return cells
    out = np.zeros(n + 1)
    out[lo:hi] = cells
    return out


def _log_pmf_block(n: int, rates: list, lo: int, out: np.ndarray) -> np.ndarray:
    """log pmf on columns lo..lo + out.shape[1] - 1 for a list of rates in
    (0, 1), one row each, written into out; a rate of 0 or 1 gets the row
    of 1/2."""
    logc, xs, rest = (t[lo:lo + out.shape[1]] for t in _pmf_terms(n))
    inner = [r if 0.0 < r < 1.0 else 0.5 for r in rates]
    # math's logs, as in the scalar route: np.log can differ in the last
    # bit, and x * log(p) carries that into the pmf n-fold
    log_p = np.array([math.log(r) for r in inner])[:, None]
    log_q = np.array([math.log1p(-r) for r in inner])[:, None]
    np.multiply(xs, log_p, out=out)
    out += logc
    out += rest * log_q
    return out


def _pmf_block(n: int, rates: list, lo: int, out: np.ndarray) -> np.ndarray:
    """Columns lo..lo + out.shape[1] - 1 of the pmf matrix of a list of
    rates, written into out, each cell bit for bit that of binom_pmf_vector."""
    np.exp(_log_pmf_block(n, rates, lo, out), out=out)
    for row, r in enumerate(rates):
        if r == 0.0 or r == 1.0:
            out[row] = 0.0
            if 0 <= round(r * n) - lo < out.shape[1]:
                out[row, round(r * n) - lo] = 1.0
    return out


def _windows(n: int, rates: np.ndarray) -> tuple:
    """The _window of each rate in an array, as two integer arrays lo, hi."""
    if 2 * n <= _CUTOFF:
        return np.zeros(rates.size, int), np.full(rates.size, n + 1)
    reach, mean = _reach(n, rates), n * rates
    return (np.maximum(np.floor(mean - reach), 0.0).astype(int),
            np.minimum(np.floor(mean + reach), n).astype(int) + 1)


# A block of the rate-array functionals holds at most this many pmf cells,
# or one row's window where that is wider: its temporaries stay within about
# one pmf vector at large n, and at small n its rows share the block's cost.
_BLOCK_CELLS = 1 << 12


def _pmf_blocks(n: int, rates, lo, hi):
    """The pmf rows of the rates in blocks of consecutive rates, as (i, j,
    first, pmf): pmf holds the rows of rates[i:j] on the columns first..
    first + pmf.shape[1] - 1, the union of the rows' spans [lo[m], hi[m]),
    each cell bit for bit that of binom_pmf_vector. A block grows while
    its cells stay within _BLOCK_CELLS, or is one row where that row is
    wider. A rate whose span is empty ends a block and has no row."""
    rates, lo, hi = (np.asarray(v).tolist() for v in (rates, lo, hi))
    i = 0
    while i < len(rates):
        first, top, j = lo[i], hi[i], i + 1
        while j < len(rates) and first < top and lo[j] < hi[j] and (
                max(top, hi[j]) - min(first, lo[j])) * (j + 1 - i) <= _BLOCK_CELLS:
            first, top, j = min(first, lo[j]), max(top, hi[j]), j + 1
        if first < top:
            yield i, j, first, _pmf_block(n, rates[i:j], first,
                                          np.empty((j - i, top - first)))
        i = j


def binom_blocks(n: int, p: float, rng: np.random.Generator, size: int):
    """size counts from Binomial(n, p) as invert_blocks' (block, counts),
    by inversion of the cumulative sum of binom_pmf_vector (Devroye 1986,
    section III.2) over its last entry, so every count lies in 0..n;
    p > 1/2 draws n - X at 1 - p. Where numpy's Generator.binomial inverts
    too, n * min(p, 1 - p) <= 30, the counts are its counts on the same
    stream; beyond, it runs BTPE and only the law agrees. Counts come in
    the smallest unsigned dtype holding 2 n: two arms' sum cannot wrap.
    """
    flip = p > 0.5
    cdf = np.cumsum(binom_pmf_vector(n, 1.0 - p if flip else p))
    cdf /= cdf[-1]
    for block, xs in invert_blocks(cdf, rng, size, np.min_scalar_type(2 * n)):
        yield block, np.subtract(n, xs, out=xs) if flip else xs


def binom_draws(n: int, p: float, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """The binom_blocks counts in one array."""
    out = np.empty(size, np.min_scalar_type(2 * n))
    for block, xs in binom_blocks(n, p, rng, size):
        out[block] = xs
    return out


_SEARCH_BLOCK = 1 << 16  # faster than one pass over 10**6, scratch small


def invert_blocks(cdf: np.ndarray, rng: np.random.Generator, size: int,
                  dtype=np.intp):
    """(block, counts) over consecutive slices of range(size), at most
    _SEARCH_BLOCK long: counts[i] is cdf.searchsorted(u, side="right") in
    dtype, bit for bit, for u = (w >> 11) 2**-53 of the block's i-th raw
    word w of rng's Philox, whose rng.random double is that u of its next
    word. So the counts are those of one search over rng.random(size),
    and the stream ends where that call leaves it; any other bit generator
    raises TypeError (MT19937 makes a double of two words). Every draw of
    the package comes from here; counts is scratch, reused block to block.

    Indexed search (Chen & Asau 1974; Devroye 1986, section III.2.4) over
    2**b buckets, 2**14 to 2**16, about 16 per cdf entry: u lies in bucket
    w >> (64 - b), and a table gives the count of every bucket holding no
    cdf value strictly inside it. Only the words of the others form u for
    a binary search.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.Philox):
        raise TypeError(f"draws need a Philox bit generator, got {type(bits).__name__}")
    k = min(max(1 << (16 * len(cdf) - 1).bit_length(), 1 << 14), 1 << 16)
    scaled = cdf * k  # exact; bucket j holds the u with j <= u k < j + 1
    firsts = np.minimum(np.ceil(scaled), k).astype(np.intp)
    table = np.repeat(np.arange(len(cdf) + 1, dtype=dtype),  # #{cdf <= j / k}
                      np.diff(firsts, prepend=0, append=k))
    inside = scaled[(scaled != np.floor(scaled)) & (scaled < k)]
    table[inside.astype(np.intp)] = marked = np.iinfo(dtype).max
    buckets, got = (np.empty(min(size, _SEARCH_BLOCK), t) for t in (np.uint64, dtype))
    for start in range(0, size, _SEARCH_BLOCK):
        block = slice(start, min(start + _SEARCH_BLOCK, size))
        words = bits.random_raw(block.stop - start)
        at, counts = buckets[:words.size], got[:words.size]
        np.right_shift(words, 65 - k.bit_length(), out=at)
        np.take(table, at.view(np.intp), out=counts, mode="clip")  # "raise" copies
        miss = np.flatnonzero(counts == marked)
        counts[miss] = cdf.searchsorted((words[miss] >> 11) * 2.0**-53, side="right")
        yield block, counts


def binom_pmf_dot(n: int, p, vecs: np.ndarray):
    """pmf(p) @ vecs, for vecs a vector or a matrix of columns over x = 0..n.

    A scalar p takes its whole binom_pmf_vector row: one value per column,
    a float for a vector. A 1-d array of rates gives one row of those per
    rate, summed block by block over the _pmf_blocks of the rates' own
    _windows, each block's columns against the same rows of vecs; every
    cell outside a window is 0.0 and adds nothing.
    """
    if not _is_rate_array(p):
        got = binom_pmf_vector(n, p)[None, :] @ vecs
        return got[0] if vecs.ndim > 1 else float(got[0])
    rates = _rate_array(n, p)
    out = np.zeros((rates.size, *vecs.shape[1:]))
    for i, j, first, pmf in _pmf_blocks(n, rates, *_windows(n, rates)):
        out[i:j] = pmf @ vecs[first:first + pmf.shape[1]]
    return out


def _prefix_sums(n: int, p: np.ndarray, counts: list) -> np.ndarray:
    """np.add.reduce of the first k cells of the pmf vector of each rate in
    p, one row per entry of counts, in one pass over the _pmf_blocks.

    An entry is an integer array, one count k per rate, or a level alpha'
    for the Clopper-Pearson counts of LowerBoundProcedure.covered, read
    from the tails of each block, which are computed once for every level.
    A row's columns are its _window; when every entry is an array, each
    rate's columns stop at its largest k, the last one its sums read, and
    a rate whose window starts at or above every k has no row and sum 0.0.
    Each sum runs over the first k cells of a zero-padded pmf vector, or
    of the rate's own cells where they start at column 0, so that numpy's
    pairwise sum groups its terms as for the full vector.
    """
    rates = _rate_array(n, p)
    out = np.zeros((len(counts), rates.size))
    fixed = all(isinstance(k, np.ndarray) for k in counts)
    lo, hi = _windows(n, rates)
    if fixed:  # a rate's columns stop at its largest count
        hi = np.minimum(hi, np.max(counts, axis=0))
    counts = [k.tolist() if isinstance(k, np.ndarray) else k for k in counts]
    dests = list(out)  # one view per entry, made once
    row = np.zeros(n + 1)
    for i, j, first, pmf in _pmf_blocks(n, rates, lo, hi):
        top = first + pmf.shape[1]
        tails = None if fixed else _tails_from_top(pmf)
        ks = [k[i:j] if isinstance(k, list) else _cp_count(tails, k, first).tolist()
              for k in counts]
        if first == 0 and max(map(max, ks)) <= top:  # sum the rows in place
            for dest, rate_ks in zip(dests, ks):
                if min(rate_ks) == max(rate_ks):  # one count: one 2-d reduce
                    dest[i:j] = np.add.reduce(pmf[:, :rate_ks[0]], axis=1)
                else:
                    dest[i:j] = [np.add.reduce(vec[:k]) for vec, k in zip(pmf, rate_ks)]
        else:  # sum each row on the zero-padded vector
            for r, vec in enumerate(pmf):
                row[first:top] = vec
                for dest, rate_ks in zip(dests, ks):
                    dest[i + r] = np.add.reduce(row[:rate_ks[r]])
            row[first:top] = 0.0
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
    """Exact lower bound: the p solving Pr(X >= x | n, p) = alpha_prime,
    as the smallest double at which the covered rule's tail reaches it.

    x = 0 returns 0; x = n starts from the closed form alpha_prime ** (1/n).
    """
    _check_cp_args(x, n, alpha_prime)
    if x == 0:
        return 0.0
    return float(_cp_roots(n, alpha_prime, np.array([x]))[0])


def clopper_pearson_lower_vector(n: int, alpha_prime: float) -> np.ndarray:
    """Bounds for every x = 0..n, the roots of one tail each."""
    _check_cp_args(0, n, alpha_prime)
    out = np.zeros(n + 1)
    out[1:] = _cp_roots(n, alpha_prime, np.arange(1, n + 1))
    return out


def _tails_from_top(pmf: np.ndarray) -> np.ndarray:
    """Pr(X >= n - j) at index j along the last axis, summed from x = n
    down; nondecreasing in j."""
    return pmf[..., ::-1].cumsum(axis=-1)


# Newton steps after which _cp_roots stops; bisection alone would be
# within 2**-100 by then.
_CP_STEPS = 100


def _tail_and_pmf(n: int, rates: np.ndarray, xs: np.ndarray) -> tuple:
    """Pr(X >= x) and Pr(X = x) at each pair of a rate and a count x.

    A pair's row spans its rate's _window from x up, and the rows come in
    _pmf_blocks; every other cell is 0.0, so a pair whose x lies above its
    window has both values 0.0. A block's _tails_from_top run from its top
    down, as from x = n down over cells that are all 0.0 above it, so they
    are bit for bit those of the whole row.
    """
    tail, at = np.zeros(xs.size), np.zeros(xs.size)
    lo, hi = _windows(n, rates)
    for i, j, first, pmf in _pmf_blocks(n, rates, np.maximum(lo, xs), hi):
        # x below width: each x lies below its row's hi
        rows, width, x = np.arange(j - i), pmf.shape[1], xs[i:j] - first
        tail[i:j] = _tails_from_top(pmf)[rows, width - 1 - np.maximum(x, 0)]
        inside = np.flatnonzero(x >= 0)
        at[i + inside] = pmf[inside, x[inside]]
    return tail, at


def _cp_roots(n: int, alpha_prime: float, xs: np.ndarray) -> np.ndarray:
    """The rates p solving Pr(X >= x | n, p) = alpha_prime, for 0 < x <= n:
    each the smallest double at which that tail, summed from the top as
    the covered rule sums it, reaches alpha_prime.

    Safeguarded Newton on that tail: its derivative in p is
    x * pmf(x) / p, and a step that leaves the bracket [lo, hi] of the
    root bisects it instead. It starts from the Wilson score bound, or at
    x = n from the closed form. A row stops at its first Newton step
    below 1e-10 relative, whose quadratic convergence leaves only the
    rounding of the tail, with that step clipped to its bracket; the
    other rows step on without it. _cp_finish then moves each row the few
    doubles to where its tail crosses alpha_prime. So each count's bound
    is the same double whatever counts it is solved with, and the scalar
    bound is entry x of the vector. Each step reads the tails and pmf
    values of _tail_and_pmf for every row still stepping.
    """
    z = normal_quantile(1.0 - alpha_prime)
    out = np.empty(xs.size)
    rows, x = np.arange(xs.size), xs  # where the rows still stepping go
    lo, hi = np.zeros(x.size), np.ones(x.size)
    wilson = (x + 0.5 * z * z
              - z * np.sqrt(x * (n - x) / n + 0.25 * z * z)) / (n + z * z)
    p = np.where(x == n, alpha_prime ** (1.0 / n),
                 np.where(wilson > 0.0, wilson, x / n))
    for _ in range(_CP_STEPS):
        tail, at = _tail_and_pmf(n, p, x)
        gap = tail - alpha_prime
        lo, hi = np.where(gap < 0.0, p, lo), np.where(gap < 0.0, hi, p)
        with np.errstate(all="ignore"):
            step = gap * p / (x * at)
        newton = p - step
        done = np.abs(step) <= 1e-10 * p
        out[rows[done]] = np.clip(newton[done], lo[done], hi[done])
        if done.all():
            break
        keep = ~done
        rows, x, lo, hi, p, newton = (
            v[keep] for v in (rows, x, lo, hi, p, newton))
        p = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
    else:
        out[rows] = p
    return _cp_finish(n, alpha_prime, xs, out)


def _cp_finish(n: int, alpha_prime: float, xs: np.ndarray,
               p: np.ndarray) -> np.ndarray:
    """Each rate p[r] moved, one double at a time, to the double q at which
    the tail Pr(X >= xs[r] | q) of _tail_and_pmf reaches alpha_prime and
    that of the double below q does not: up from a p whose tail falls
    short, down from one whose tail reaches it. Each row moves on its own
    values alone."""
    reach = _tail_and_pmf(n, p, xs)[0] >= alpha_prime
    toward = np.where(reach, 0.0, 1.0)
    rows = np.arange(p.size)
    while rows.size:
        q = np.nextafter(p[rows], toward[rows])
        hit = _tail_and_pmf(n, q, xs[rows])[0] >= alpha_prime
        # a row below the crossing moves up until it hits; one above it
        # moves down while the double below still hits
        p[rows] = np.where(hit | ~reach[rows], q, p[rows])
        rows = rows[hit == reach[rows]]
    return p


def _check_cp_args(x: int, n: int, alpha_prime: float) -> None:
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"count x={x} outside 0..{n}")
    if not 0.0 < alpha_prime < 1.0:
        raise ValueError(f"nominal level must lie in (0,1), got {alpha_prime}")


def wald_lower_vector(n: int, alpha_prime: float) -> np.ndarray:
    """Wald bounds for every x = 0..n, clamped to [0,1]; x in {0, n} has
    zero standard error, hence the raw point estimate."""
    phat = np.arange(n + 1) / n
    z = normal_quantile(1.0 - alpha_prime)
    bound = phat - z * np.sqrt(phat * (1.0 - phat) / n)
    return np.clip(bound, 0.0, 1.0)


class LowerBoundProcedure(Record):
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

    def covered(self, t):
        """The number k of counts x with L(x) <= t, which are x = 0..k-1
        because L is nondecreasing in x; an array of rates gives an array.

        A Clopper-Pearson bound is the root of the tail Pr(X >= x | p) =
        alpha', which rises in p, so L(x) <= t exactly when Pr(X >= x | t)
        >= alpha' (Clopper & Pearson 1934): k is read from the tails of the
        pmf at t, and no bound value is computed. The tails are summed from
        the top, so they are nondecreasing and those >= alpha' are the
        ones searchsorted would find.
        """
        if self.kind != "clopper_pearson":
            k = self.bounds.searchsorted(t, side="right")
        elif not _is_rate_array(t):
            tails = _tails_from_top(binom_pmf_vector(self.n, t))
            k = _cp_count(tails, self.nominal_alpha, 0)
        else:  # each block's tails give the counts of its rates
            rates, k = _rate_array(self.n, t), np.zeros(t.size, int)
            for i, j, first, pmf in _pmf_blocks(self.n, rates,
                                                *_windows(self.n, rates)):
                k[i:j] = _cp_count(_tails_from_top(pmf), self.nominal_alpha, first)
        return k if _is_rate_array(t) else int(k)


def _cp_count(tails: np.ndarray, alpha_prime: float, lo: int):
    """LowerBoundProcedure.covered's Clopper-Pearson count, from the tails
    of a pmf that holds the columns from lo up: those below lo all carry
    the total, the ones above the pmf none."""
    above = (tails >= alpha_prime).sum(axis=-1)
    return np.where(above > 0, lo + above, 0)


def exact_lower_coverage(proc, p):
    """Pr(L <= p) by enumeration over all outcomes at success rate p.

    proc is one procedure or a sequence of procedures sharing n, which
    gives one row of coverages per procedure, each bit for bit the
    coverage of that procedure alone. An array of rates gives an array,
    the _prefix_sums of every procedure's counts in one pass: a Wald count
    comes from the bound table, a Clopper-Pearson count from the tails of
    the block. A scalar rate is an array of one.
    """
    single = isinstance(proc, LowerBoundProcedure)
    procs = [proc] if single else list(proc)
    if not procs or any(q.n != procs[0].n for q in procs):
        raise ValueError("coverage needs one or more procedures sharing n, "
                         f"got n = {[q.n for q in procs]}")
    if not _is_rate_array(p):
        got = exact_lower_coverage(procs, np.array([p]))[:, 0]
        return float(got[0]) if single else got
    out = _prefix_sums(procs[0].n, p, [
        q.nominal_alpha if q.kind == "clopper_pearson" else q.covered(p)
        for q in procs])
    return out[0] if single else out


def exceedance_prob(proc, p, threshold: float):
    """Pr(L > threshold) when outcomes are drawn at success rate p.

    Defined as 1 - coverage at the threshold so that the pair sums to one
    exactly, not just within rounding: one minus the sum of the pmf below
    the count covered(threshold), for an array of rates its _prefix_sums.
    """
    k = proc.covered(threshold)
    if not _is_rate_array(p):
        return float(1.0 - np.add.reduce(binom_pmf_vector(proc.n, p)[:k]))
    return 1.0 - _prefix_sums(proc.n, p, [np.full(p.size, k)])[0]


def exceedance_terms(proc, threshold: float) -> list:
    """Pr(L > threshold) as terms_value terms: one unweighted indicator."""
    exceed = np.ones(proc.n + 1)
    exceed[:proc.covered(threshold)] = 0.0
    return [(1.0, exceed, np.ones(proc.n + 1))]


def terms_value(n: int, terms, p):
    """f(p) = sum of w * (pmf . num) / (pmf . den) over the terms (w, num, den).

    num and den are vectors over x = 0..n; a term whose pmf . den is 0
    counts as 0. An array of rates gives an array, a scalar a float.

    Where pmf . den is below the smallest normal double for a den that is
    positive somewhere, the ratio of the two sums would be rounding noise
    (1.0 for a ratio of 0.546 at n = 396, p = 173/1024). At a rate in (0, 1) such a term
    is evaluated on the pmf rescaled in log space, exp(log pmf - m) with m
    the largest log pmf over the cells where den > 0, whose den sum is
    then at least that cell's den. Every other value is the plain ratio.
    """
    weights = np.array([w for w, _, _ in terms], dtype=float)
    vecs = np.column_stack([v for _, num, den in terms for v in (num, den)])
    live = (vecs[:, 1::2] > 0.0).any(axis=0)
    tiny = np.finfo(float).tiny

    def ratios(sums):
        num, den = sums[:, 0::2], sums[:, 1::2]
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.where(den > 0.0, num / den, 0.0),
                    live & (0.0 <= den) & (den < tiny))

    def rescaled(rate: float) -> float:
        ratio, faint = ratios(binom_pmf_dot(n, rate, vecs)[None, :])
        if 0.0 < rate < 1.0:
            logs = _log_pmf_block(n, [rate], 0, np.empty((1, n + 1)))[0]
            for t in np.flatnonzero(faint[0]):
                num, den = vecs[:, 2 * t], vecs[:, 2 * t + 1]
                # only cells that enter a sum: the others may lie far above m
                scaled = np.exp(logs - logs[den > 0.0].max(), out=np.zeros(n + 1),
                                where=(num != 0.0) | (den != 0.0))
                total = scaled @ den
                ratio[0, t] = scaled @ num / total if total > 0.0 else 0.0
        return float(ratio[0] @ weights)

    ratio, faint = ratios(np.atleast_2d(binom_pmf_dot(n, p, vecs)))
    value = ratio @ weights
    for i in np.flatnonzero(faint.any(axis=1)):
        value[i] = rescaled(float(np.atleast_1d(p)[i]))
    return value if _is_rate_array(p) else float(value[0])


class CoverageReport(Record):
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
    cov = exact_lower_coverage(proc, grid)
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
