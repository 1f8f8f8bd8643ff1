"""Deterministic randomness and estimation plumbing.

Streams wrap numpy's Philox generator, a counter-based design keyed here
directly by (seed, stream_id). Two streams with the same key always
produce the same draws no matter which worker or in which order they run,
which is what makes grid sweeps reproducible under any scheduling.
The strategies' samplers draw binomial counts from these streams with
binomial.binom_draws, by inversion of the exact cdf at one raw Philox
word per count: rng.random's double is (w >> 11) 2**-53 of the next word
w, so inverting the words draws the counts of rng.random's uniforms, and
a fixed (seed, stream_id) reproduces them bit for bit too.
"""

from __future__ import annotations


import numpy as np

from .binomial import binom_pmf_vector
from .record import Record

__all__ = [
    "SeededStream",
    "McEstimate",
    "mc_estimate",
    "enumerate_outcomes",
    "DiscreteDist",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 10_000


class SeededStream(Record):
    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class McEstimate(Record):
    mean: float
    std_error: float
    n_draws: int


def mc_estimate(sampler, n_draws: int, stream: SeededStream) -> McEstimate:
    """Monte-Carlo mean of the draws of sampler(rng, size) with its standard
    error.

    sampler returns either a length-size array of floats, integers or
    bools, draw i its entry i as a float, or a pair (cells, values): a
    length-size array of integer cells and a 1-d table, draw i the float
    values[cells[i]]. A cell outside the table raises ValueError.
    Determinism contract: fixed (seed, stream_id, n_draws) reproduces the
    estimate bit for bit.

    The mean and the standard error are float(d.mean()) and
    float(d.std(ddof=1) / sqrt(n_draws)) of the float draws d, bit for
    bit, by the steps of numpy's _var (pairwise sum, divide by n, subtract,
    square, pairwise sum, divide by n - 1, sqrt), without d: each sum
    follows the tree of numpy's pairwise sum (_pairwise_sum), one leaf of
    draws at a time in reused scratch. A table's squared deviations are
    taken once per entry and gathered like its values. The sampler's
    arrays are only read.
    """
    if n_draws < 2:
        raise ValueError(f"need at least 2 draws for a standard error, got {n_draws}")
    got = sampler(stream.generator(), n_draws)
    cells, values = got if isinstance(got, tuple) else (got, None)
    cells = np.asarray(cells)
    if cells.shape != (n_draws,):
        raise ValueError(f"sampler returned shape {cells.shape}, expected ({n_draws},)")
    if values is not None:
        values = _checked_table(cells, values)
    leaf = np.empty(min(n_draws, _LEAF))
    wide = np.empty(leaf.size, np.intp)

    def leaf_sum(table, shift=None):
        """Sum of the draws start..stop-1 as floats in leaf, cells[i] or
        table[cells[i]], less shift and squared if shift is given."""
        def total(start, stop):
            out = leaf[:stop - start]
            if table is None:
                out[...] = cells[start:stop]
            else:
                at = wide[:out.size]
                at[...] = cells[start:stop]  # np.take widens narrower indices per call
                np.take(table, at, out=out, mode="clip")
            if shift is not None:
                np.square(np.subtract(out, shift, out=out), out=out)
            return np.add.reduce(out, initial=-0.0)
        return total

    mean = _pairwise_sum(leaf_sum(values), n_draws) / n_draws
    squares = (leaf_sum(None, mean) if values is None
               else leaf_sum(np.square(values - mean)))
    std = np.sqrt(_pairwise_sum(squares, n_draws) / (n_draws - 1))
    return McEstimate(mean=float(mean), std_error=float(std / np.sqrt(n_draws)),
                      n_draws=n_draws)


_LEAF = 1 << 16  # draws per leaf: scratch of 512 KiB


def _checked_table(cells: np.ndarray, values) -> np.ndarray:
    """values as a 1-d float table that every integer cell indexes."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"value table has shape {values.shape}, expected 1-d")
    if cells.dtype.kind not in "iu":
        raise ValueError(f"cells must be integers, got {cells.dtype}")
    if cells.max() >= values.size or (cells.dtype.kind == "i" and cells.min() < 0):
        raise ValueError(f"a cell lies outside the table of {values.size} values")
    return values


def _pairwise_sum(leaf_sum, size: int):
    """np.add.reduce of a contiguous float array of size entries, bit for
    bit, from leaf_sum(start, stop), numpy's own pairwise sum (Higham 1993)
    of the entries start..stop-1 with initial -0.0, which adds nothing.
    The reduction's identity, 0.0, is added last, as np.add.reduce adds it.
    """
    return 0.0 + _node_sum(leaf_sum, 0, size)


def _node_sum(leaf_sum, start: int, stop: int):
    """The pairwise sum of the node start..stop-1. numpy's pairwise_sum
    halves a node, the first half rounded down to a multiple of 8, until
    it holds at most 128 entries; here the same split stops at _LEAF
    entries and numpy sums each leaf by that rule, so the leaf sums add up
    the same tree. A module-level function, not a closure calling itself:
    that would be a reference cycle keeping leaf_sum's arrays alive until
    the garbage collector runs."""
    if stop - start <= _LEAF:
        return leaf_sum(start, stop)
    half = (stop - start) // 2
    half -= half % 8
    return (_node_sum(leaf_sum, start, start + half)
            + _node_sum(leaf_sum, start + half, stop))


def enumerate_outcomes(m: int, p: float, f) -> float:
    """Exact E[f(X)] for X ~ Binomial(m, p), X enumerated outcome by outcome.

    f is applied to the integer vector 0..m and may return a float vector.
    """
    if m > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to m <= {ENUMERATION_LIMIT}, got {m}")
    xs = np.arange(m + 1)
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.array([float(f(int(x))) for x in xs])
    return float(binom_pmf_vector(m, p) @ vals)


class DiscreteDist:
    """A finite distribution: support values with matching probabilities."""

    def __init__(self, values, probs, *, atol: float = 1e-9):
        self.values = np.asarray(values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.values.shape != self.probs.shape or self.values.ndim != 1:
            raise ValueError("values and probs must be matching 1-d arrays")
        if not (np.isfinite(self.values).all() and np.isfinite(self.probs).all()):
            raise ValueError("non-finite value or probability in distribution")
        if (self.probs < -atol).any():
            raise ValueError("negative probability in distribution")
        total = float(self.probs.sum())
        if abs(total - 1.0) > atol:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def point(cls, value: float) -> "DiscreteDist":
        return cls([value], [1.0])

    @classmethod
    def binomial(cls, m: int, p: float) -> "DiscreteDist":
        if m > ENUMERATION_LIMIT:
            raise ValueError(f"enumeration limited to m <= {ENUMERATION_LIMIT}, got {m}")
        return cls(np.arange(m + 1, dtype=float), binom_pmf_vector(m, p))

    def combine(self, other: "DiscreteDist", fn) -> "DiscreteDist":
        """Joint law of fn(self, other) under independence."""
        v = fn(self.values[:, None], other.values[None, :]).ravel()
        pr = (self.probs[:, None] * other.probs[None, :]).ravel()
        return DiscreteDist(v, pr)

    def mean(self) -> float:
        return float(self.probs @ self.values)

    def expectation(self, fn) -> float:
        return float(self.probs @ np.asarray(fn(self.values), dtype=float))

    def compress(self, *, decimals: int = 12) -> "DiscreteDist":
        """Merge support points that agree after rounding. Keeps laws small
        when repeated combine() calls blow up the support. Nothing in the
        package calls combine() or compress(), since researcher positions
        are kept as independent parts; both remain as benchmark trace
        targets and as the tests' enumeration oracle."""
        rounded = np.round(self.values, decimals)
        uniq, inverse = np.unique(rounded, return_inverse=True)
        probs = np.zeros_like(uniq)
        np.add.at(probs, inverse, self.probs)
        return DiscreteDist(uniq, probs)

    def __len__(self) -> int:
        return len(self.values)
