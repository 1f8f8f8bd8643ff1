import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guaranteesim.simulate import (
    ENUMERATION_LIMIT,
    DiscreteDist,
    SeededStream,
    enumerate_outcomes,
    mc_estimate,
)


def _variance(d):
    """The variance of a law, from its second moment through expectation."""
    return d.expectation(np.square) - d.mean() ** 2


class TestStreams:
    def test_same_key_same_draws(self):
        a = SeededStream(7, 3).generator().random(100)
        b = SeededStream(7, 3).generator().random(100)
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = SeededStream(7, 3).generator().random(100)
        b = SeededStream(7, 4).generator().random(100)
        assert not (a == b).all()


class TestMcEstimate:
    def test_bit_reproducible(self):
        sampler = lambda rng, k: rng.normal(size=k)
        a = mc_estimate(sampler, 5000, SeededStream(1, 0))
        b = mc_estimate(sampler, 5000, SeededStream(1, 0))
        assert a == b

    def test_constant_sampler(self):
        est = mc_estimate(lambda rng, k: np.full(k, 2.5), 100, SeededStream(0, 0))
        assert est.mean == 2.5 and est.std_error == 0.0

    def test_standard_error_scaling(self):
        sampler = lambda rng, k: rng.random(k)
        small = mc_estimate(sampler, 1000, SeededStream(3, 1))
        large = mc_estimate(sampler, 100000, SeededStream(3, 2))
        assert large.std_error < small.std_error

    def test_shape_contract(self):
        with pytest.raises(ValueError):
            mc_estimate(lambda rng, k: np.zeros(k + 1), 10, SeededStream(0, 0))
        with pytest.raises(ValueError):
            mc_estimate(lambda rng, k: np.zeros(k), 1, SeededStream(0, 0))


# sampler outputs of each dtype mc_estimate converts: float, int and bool
DRAW_KINDS = {
    "float": lambda rng, k: rng.normal(3.0, 2.0, size=k),
    "int": lambda rng, k: rng.integers(-5, 50, size=k),
    "bool": lambda rng, k: rng.random(k) < 0.3,
}
SE_SIZES = [2, 7, 8, 127, 128, 129, 65_537, 1_000_003]


def numpy_estimate(draws):
    """The oracle: numpy's own mean and std of the float draws."""
    d = np.asarray(draws, dtype=float)
    return float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))


class TestInPlaceStandardError:
    """mc_estimate squares the deviations in the array it is handed; numpy's
    mean and std stay the reference, so a change to numpy's _var shows."""

    @pytest.mark.parametrize("size", SE_SIZES)
    @pytest.mark.parametrize("kind", sorted(DRAW_KINDS))
    def test_equals_numpy_bit_for_bit(self, kind, size):
        sampler = DRAW_KINDS[kind]
        est = mc_estimate(sampler, size, SeededStream(41, size))
        want = numpy_estimate(sampler(SeededStream(41, size).generator(), size))
        assert (est.mean, est.std_error) == want

    @pytest.mark.parametrize("size", [7, 129, 65_537])
    @pytest.mark.parametrize("view", ["head", "strided", "read_only"])
    def test_leaves_a_borrowed_array_unchanged(self, view, size):
        kept = SeededStream(42, 0).generator().normal(3.0, 2.0, size=3 * size)
        if view == "read_only":
            kept = kept[:size].copy()
            kept.setflags(write=False)
        before = kept.copy()
        handed = {"head": lambda k: kept[:k], "strided": lambda k: kept[::3],
                  "read_only": lambda k: kept}[view]
        est = mc_estimate(lambda rng, k: handed(k), size, SeededStream(0, 0))
        assert np.array_equal(kept, before)
        assert (est.mean, est.std_error) == numpy_estimate(handed(size))


class TestEnumeration:
    def test_binomial_mean_identity(self):
        assert enumerate_outcomes(30, 0.37, lambda xs: xs.astype(float)) == \
            pytest.approx(30 * 0.37, abs=1e-9)

    def test_matches_dist_expectation(self):
        f = lambda xs: np.minimum(xs, 4).astype(float)
        direct = enumerate_outcomes(12, 0.3, f)
        via_dist = DiscreteDist.binomial(12, 0.3).expectation(f)
        assert direct == pytest.approx(via_dist, abs=1e-12)

    def test_limit(self):
        with pytest.raises(ValueError):
            enumerate_outcomes(ENUMERATION_LIMIT + 1, 0.5, lambda xs: xs)


class TestDiscreteDist:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            DiscreteDist([1.0, 2.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            DiscreteDist([1.0, 2.0], [1.2, -0.2])

    @pytest.mark.parametrize("values,probs", [
        ([0.0, 1.0], [np.nan, np.nan]),
        ([np.nan, 1.0], [0.5, 0.5]),
        ([-np.inf, 1.0], [0.5, 0.5]),
        ([0.0, 1.0], [np.inf, -np.inf]),
    ])
    def test_rejects_non_finite(self, values, probs):
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteDist(values, probs)

    def test_point_and_shift(self):
        d = DiscreteDist.point(2.0)
        assert d.mean() == 2.0 and _variance(d) == 0.0

    @given(p=st.floats(0.05, 0.95), m=st.integers(1, 25))
    @settings(max_examples=40, deadline=None)
    def test_binomial_moments(self, p, m):
        d = DiscreteDist.binomial(m, p)
        assert d.mean() == pytest.approx(m * p, abs=1e-9)
        assert _variance(d) == pytest.approx(m * p * (1 - p), abs=1e-9)

    def test_combine_is_independent_sum(self):
        a = DiscreteDist([0.0, 1.0], [0.5, 0.5])
        b = DiscreteDist([0.0, 2.0], [0.25, 0.75])
        s = a.combine(b, lambda x, y: x + y)
        assert s.mean() == pytest.approx(a.mean() + b.mean(), abs=1e-12)
        assert _variance(s) == pytest.approx(_variance(a) + _variance(b),
                                             abs=1e-12)

    def test_compress_preserves_moments(self):
        b = DiscreteDist.binomial(10, 0.5)
        d = DiscreteDist(np.minimum(b.values, 5.0), b.probs)
        c = d.compress()
        assert len(c) < len(d)
        assert c.mean() == pytest.approx(d.mean(), abs=1e-9)
        assert _variance(c) == pytest.approx(_variance(d), abs=1e-9)
