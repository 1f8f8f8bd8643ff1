import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guaranteesim.contracts import (
    FullGuarantee,
    MinimalInsurance,
    ProportionalGuarantee,
    TailGuarantee,
    implementer_payoff,
    minimal_insurance,
    researcher_payment,
)

finite_y = st.floats(-100.0, 100.0, allow_nan=False)


class TestPayoffAlgebra:
    def test_full_floors_at_zero(self):
        assert implementer_payoff(-7.0, FullGuarantee()) == 0.0
        assert implementer_payoff(3.0, FullGuarantee()) == 3.0

    def test_tail_floors_at_k(self):
        t = TailGuarantee(-5.0)
        assert implementer_payoff(-30.0, t) == -5.0
        assert implementer_payoff(-3.0, t) == -3.0
        assert implementer_payoff(4.0, t) == 4.0

    def test_proportional_split(self):
        c = ProportionalGuarantee(0.95)
        assert implementer_payoff(-10.0, c) == pytest.approx(-0.5)
        assert researcher_payment(-10.0, c) == pytest.approx(9.5)
        assert implementer_payoff(6.0, c) == 6.0
        assert researcher_payment(6.0, c) == 0.0

    @given(y=finite_y, contract=st.one_of(
        st.just(FullGuarantee()),
        st.floats(-50.0, -0.01).map(TailGuarantee),
        st.floats(0.01, 0.99).map(ProportionalGuarantee)))
    @settings(max_examples=120, deadline=None)
    def test_payment_funds_the_difference(self, y, contract):
        payoff = implementer_payoff(y, contract)
        payment = researcher_payment(y, contract)
        assert payoff == pytest.approx(y + payment, abs=1e-9)
        assert payment >= -1e-12
        if y >= 0.0:
            assert payment == 0.0

    def test_vector_path(self):
        y = np.array([-10.0, -1.0, 0.0, 5.0])
        out = implementer_payoff(y, TailGuarantee(-2.0))
        assert out.tolist() == [-2.0, -1.0, 0.0, 5.0]


class TestValidation:
    def test_tail_level_must_be_negative(self):
        with pytest.raises(ValueError):
            TailGuarantee(0.0)
        with pytest.raises(ValueError):
            TailGuarantee(1.0)

    def test_tail_scale_cost_check(self):
        t = TailGuarantee(-12.0)
        t.check_scale_cost(20.0)  # binds: -12 > -20
        with pytest.raises(ValueError):
            t.check_scale_cost(12.0)  # never pays: -12 <= -12
        with pytest.raises(ValueError):
            t.check_scale_cost(10.0)

    def test_share_strictly_interior(self):
        for s in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                ProportionalGuarantee(s)


class TestMinimalInsurance:
    def test_bundled_instance(self):
        mi = minimal_insurance(-12.0, 20.0)
        assert mi.k == -12.0
        assert mi.s == pytest.approx(0.6)

    @given(c=st.floats(1.0, 100.0), frac=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_levels_track_the_floor(self, c, frac):
        u = -frac * c
        mi = minimal_insurance(u, c)
        assert mi.k == u
        assert 0.0 < mi.s < 1.0
        # the tail form leaves exactly u as the worst case
        assert implementer_payoff(-c, TailGuarantee(mi.k)) == pytest.approx(u)
        # the proportional form leaves -(1-s)c
        assert implementer_payoff(-c, ProportionalGuarantee(mi.s)) == \
            pytest.approx(-(1.0 - mi.s) * c, abs=1e-9)

    def test_rejects_vacuous_floor(self):
        with pytest.raises(ValueError):
            minimal_insurance(0.0, 20.0)

    @pytest.mark.parametrize("u_bar", [-20.0, -25.0])
    def test_floor_met_uninsured_needs_no_insurance(self, u_bar):
        # the uninsured worst case -c_m already meets the floor
        assert minimal_insurance(u_bar, 20.0) == MinimalInsurance(k=u_bar, s=0.0)
