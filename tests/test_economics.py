import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guaranteesim.economics import (
    BenefitFunction,
    CostSchedule,
    NoBreakEvenError,
    PolicyEconomics,
    SingleCrossingReport,
)


def linear_econ(beta=2.5, M=20, unit=1.0, q=1.0):
    return PolicyEconomics(CostSchedule.linear(unit, M),
                           BenefitFunction.linear(beta), dilution=q)


class TestCostSchedule:
    def test_forms(self):
        lin = CostSchedule.linear(2.0, 4)
        assert lin.cost(3) == 6.0 and lin.M == 4 and lin.cost(0) == 0.0
        aff = CostSchedule.affine(10.0, 1.0, 3)
        assert aff.cost(1) == 11.0 and aff.cost(3) == 13.0
        tab = CostSchedule.table([1.0, 5.0, 6.0])
        assert tab.cost(2) == 5.0

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            CostSchedule.table([1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            CostSchedule.table([2.0, 1.0])
        with pytest.raises(ValueError):
            CostSchedule.table([-1.0, 2.0])

    def test_scale_range(self):
        c = CostSchedule.linear(1.0, 5)
        with pytest.raises(ValueError):
            c.cost(6)


class TestBenefitFunction:
    def test_table_invariants(self):
        with pytest.raises(ValueError):
            BenefitFunction.from_table([1.0, 2.0])  # b(0) != 0
        with pytest.raises(ValueError):
            BenefitFunction.from_table([0.0, 2.0, 2.0])  # not increasing
        b = BenefitFunction.from_table([0.0, 1.0, 3.0])
        assert b.value(2) == 3.0 and not b.is_linear

    def test_exactly_one_form(self):
        with pytest.raises(ValueError):
            BenefitFunction(beta=1.0, table=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            BenefitFunction()


class TestExpectations:
    def test_linear_closed_form(self):
        econ = linear_econ(beta=2.5, M=20)
        assert econ.expected_benefit(10, 0.3) == pytest.approx(2.5 * 10 * 0.3,
                                                               abs=1e-12)

    def test_table_matches_linear_when_table_is_linear(self):
        M = 12
        table = PolicyEconomics(
            CostSchedule.linear(1.0, M),
            BenefitFunction.from_table([2.5 * x for x in range(M + 1)]))
        lin = linear_econ(beta=2.5, M=M)
        for m in (1, 5, 12):
            assert table.expected_benefit(m, 0.4) == pytest.approx(
                lin.expected_benefit(m, 0.4), abs=1e-9)

    @given(p=st.floats(0.0, 1.0), q=st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_dilution_multiplies_success_rate(self, p, q):
        diluted = linear_econ(q=q)
        plain = linear_econ(q=1.0)
        assert diluted.expected_net(7, p) == pytest.approx(
            plain.expected_net(7, min(p * q, 1.0)), abs=1e-9)

    def test_net_outcome(self):
        econ = linear_econ(beta=2.5, M=20)
        y = econ.net_outcome(20, np.array([0, 8, 20]))
        assert y.tolist() == [-20.0, 0.0, 30.0]


class TestBreakEven:
    def test_linear_closed_form(self):
        econ = linear_econ(beta=2.5, M=20)
        # beta * M * p0 = c_M  =>  p0 = 1 / beta
        assert econ.break_even_success_rate() == pytest.approx(0.4, abs=1e-9)

    def test_dilution_raises_break_even(self):
        econ = linear_econ(beta=2.5, M=20, q=0.5)
        assert econ.break_even_success_rate() == pytest.approx(0.8, abs=1e-9)

    @pytest.mark.parametrize("econ", [
        linear_econ(), linear_econ(q=0.5), linear_econ(beta=3.0, M=2000),
        PolicyEconomics(CostSchedule.table([1.0, 2.0, 3.5, 5.0]),
                        BenefitFunction.from_table([0.0, 2.0, 4.0, 6.0, 8.0]))],
        ids=["linear", "diluted", "large", "table"])
    def test_smallest_double_covering_cost(self, econ):
        # no tolerance: the double just below p0 falls short of c_M
        p0 = econ.break_even_success_rate()
        c_M = econ.cost(econ.M)
        below = np.nextafter(p0, 0.0)
        assert econ.expected_benefit(econ.M, p0) >= c_M
        assert econ.expected_benefit(econ.M, below) < c_M

    def test_unreachable(self):
        econ = linear_econ(beta=0.9, M=20)
        with pytest.raises(NoBreakEvenError):
            econ.break_even_success_rate()


class TestMaxScale:
    def test_frozen_scaleback(self):
        econ = PolicyEconomics(CostSchedule.linear(1.0, 1000),
                               BenefitFunction.linear(10.0))
        assert econ.max_scale_under_bound(0.13375, -50.0) == 373
        assert econ.max_scale_under_bound(0.22, -50.0) == 227

    def test_zero_alpha_means_full_scale(self):
        econ = linear_econ(M=20)
        assert econ.max_scale_under_bound(0.0, -0.001) == 20

    def test_infeasible_at_any_scale(self):
        econ = linear_econ(M=20)
        assert econ.max_scale_under_bound(0.9, -0.5) == 0

    @given(alpha=st.floats(0.01, 1.0), u=st.floats(-30.0, -0.1))
    @settings(max_examples=60, deadline=None)
    def test_result_is_boundary(self, alpha, u):
        econ = linear_econ(M=25)
        m = econ.max_scale_under_bound(alpha, u)
        if m > 0:
            assert alpha * econ.cost(m) <= -u
        if m < 25:
            assert alpha * econ.cost(m + 1) > -u


class TestSingleCrossing:
    def test_linear_instance_holds(self):
        econ = linear_econ(beta=2.5, M=10)
        rep = econ.single_crossing_report(np.linspace(0.05, 0.95, 10))
        assert rep.holds

    def test_jumpy_costs_violate(self):
        econ = PolicyEconomics(
            CostSchedule.table([1.0, 2.0, 10.0, 11.0]),
            BenefitFunction.linear(3.0))
        rep = econ.single_crossing_report([0.9])
        # net is positive at m=1..2, dips negative at m=3: shape broken
        assert not rep.holds
        assert rep.violating_p == pytest.approx(0.9)
        assert rep.violating_m == 1

    @pytest.mark.parametrize("case", [
        "linear_holds", "linear_violates", "table_holds", "table_violates",
        "one_scale"])
    def test_matches_scalar_loop(self, case):
        econ = {
            "linear_holds": linear_econ(beta=2.5, M=60, q=0.8),
            "linear_violates": PolicyEconomics(
                CostSchedule.table([1.0, 1.1, 5.0, 6.0, 6.5]),
                BenefitFunction.linear(2.5)),
            "table_holds": PolicyEconomics(
                CostSchedule.linear(1.0, 30),
                BenefitFunction.from_table(2.5 * np.arange(31) ** 1.2)),
            "table_violates": PolicyEconomics(
                CostSchedule.linear(1.0, 4),
                BenefitFunction.from_table([0.0, 5.0, 6.0, 6.5, 6.6])),
            "one_scale": linear_econ(M=1),
        }[case]
        grid = np.linspace(0.05, 0.95, 10)
        rep = econ.single_crossing_report(grid)
        assert rep == _scalar_crossing_report(econ, grid)
        assert rep.holds == case.endswith(("holds", "scale"))


def _scalar_crossing_report(econ, p_grid):
    """The shape check one expected_net call at a time, with the suffix
    found by a scan from the top scale down."""
    for p in p_grid:
        net = np.array([econ.expected_net(m, p) for m in range(1, econ.M + 1)])
        if econ.M == 1:
            continue
        diffs = np.diff(net)
        i0 = econ.M
        while i0 > 1 and diffs[i0 - 2] > 0.0:
            i0 -= 1
        bad = np.nonzero(net[: i0 - 1] >= 0.0)[0]
        if bad.size:
            return SingleCrossingReport(
                holds=False, violating_p=float(p), violating_m=int(bad[0] + 1))
    return SingleCrossingReport(holds=True)
