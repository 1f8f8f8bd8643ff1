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
    """Monte-Carlo mean of sampler(rng, size) with its standard error.

    sampler must return a length-size array of floats, integers or bools.
    Determinism contract: fixed (seed, stream_id, n_draws) reproduces the
    estimate bit for bit.

    The mean and the standard error are float(d.mean()) and
    float(d.std(ddof=1) / sqrt(n_draws)) of the float draws d, bit for
    bit, by the steps of numpy's _var (pairwise sum, divide by n, subtract,
    square, pairwise sum, divide by n - 1, sqrt) done in place on d, so
    no array of n_draws floats is held beside it. A writeable float array
    that owns its data is handed over: mc_estimate may overwrite it. A
    view, a read-only array or any other dtype is converted or copied
    first and left as it was.
    """
    if n_draws < 2:
        raise ValueError(f"need at least 2 draws for a standard error, got {n_draws}")
    draws = np.asarray(sampler(stream.generator(), n_draws), dtype=float)
    if draws.shape != (n_draws,):
        raise ValueError(f"sampler returned shape {draws.shape}, expected ({n_draws},)")
    if not (draws.flags.owndata and draws.flags.writeable):
        draws = draws.copy()
    mean = np.add.reduce(draws) / n_draws
    np.subtract(draws, mean, out=draws)
    np.square(draws, out=draws)
    std = np.sqrt(np.add.reduce(draws) / (n_draws - 1))
    return McEstimate(mean=float(mean), std_error=float(std / np.sqrt(n_draws)),
                      n_draws=n_draws)


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
