import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guaranteesim.contracts import (
    FullGuarantee,
    ProportionalGuarantee,
    TailGuarantee,
)
from guaranteesim.decisions import (
    AlphaSchedule,
    Decision,
    ImplementerPolicy,
    decide_no_guarantee,
    decide_with_contract,
    worst_case_bound,
)
from guaranteesim.economics import BenefitFunction, CostSchedule, PolicyEconomics
from guaranteesim.record import asdict


def linear_econ(beta=2.5, M=20, unit=1.0):
    return PolicyEconomics(CostSchedule.linear(unit, M), BenefitFunction.linear(beta))


class TestAlphaSchedule:
    def test_constant(self):
        s = AlphaSchedule.constant(0.25)
        assert s.alpha_at(0.0) == 0.25
        assert s.alpha_at(-99.0) == 0.25

    def test_interpolation_and_clamping(self):
        s = AlphaSchedule((( -40.0, 0.02), (-1.0, 0.3)))
        assert s.alpha_at(-20.5) == pytest.approx(0.16, abs=1e-12)
        assert s.alpha_at(-100.0) == 0.02
        assert s.alpha_at(-0.5) == 0.3

    @pytest.mark.parametrize("knots", [
        (),
        ((1.0, 0.1),),                    # positive tail level
        ((-2.0, 0.1), (-2.0, 0.2)),       # k not strictly increasing
        ((-2.0, 0.3), (-1.0, 0.1)),       # alpha decreasing in k
        ((-2.0, 1.5),),                   # alpha outside [0,1]
    ])
    def test_rejects_bad_knots(self, knots):
        with pytest.raises(ValueError):
            AlphaSchedule(knots)


class TestPolicyAndDecision:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ImplementerPolicy(u_bar=0.0, alpha_belief=0.1, p0=0.4)
        with pytest.raises(ValueError):
            ImplementerPolicy(u_bar=-1.0, alpha_belief=1.5, p0=0.4)
        with pytest.raises(ValueError):
            ImplementerPolicy(u_bar=-1.0, alpha_belief=0.1, p0=1.0)
        with pytest.raises(TypeError):
            ImplementerPolicy(-1.0, "0.3", 0.4)

    def test_alpha_at(self):
        # a scalar is the rate for every rule; a schedule gives its rate at
        # a tail level, and the distribution-free 1 to a rule without one
        scalar = ImplementerPolicy(-1.0, 0.3, 0.4)
        assert scalar.alpha_at() == scalar.alpha_at(-50.0) == 0.3
        sched = ImplementerPolicy(-1.0, AlphaSchedule(((-10.0, 0.1), (0.0, 0.3))), 0.4)
        assert sched.alpha_at(-10.0) == 0.1 and sched.alpha_at() == 1.0

    def test_decision_invariant(self):
        with pytest.raises(ValueError):
            Decision(implement=True, scale=0, bound=0.0, rule="full")
        with pytest.raises(ValueError):
            Decision(implement=False, scale=3, bound=0.0, rule="full")
        rec = asdict(Decision(True, 3, -1.0, "tail", alpha_used=0.2))
        assert rec == {"implement": True, "scale": 3, "bound": -1.0,
                       "rule": "tail", "alpha_used": 0.2}

    def test_worst_case_bound(self):
        econ = linear_econ(M=10)
        assert worst_case_bound(4, 0.25, econ) == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ValueError):
            worst_case_bound(4, 1.2, econ)


class TestNoGuarantee:
    def test_frozen_scaleback(self):
        econ = PolicyEconomics(CostSchedule.linear(1.0, 1000),
                               BenefitFunction.linear(10.0))
        policy = ImplementerPolicy(u_bar=-50.0, alpha_belief=0.13375, p0=0.5)
        d = decide_no_guarantee(0.6, policy, econ)
        assert d.implement and d.scale == 373 and d.rule == "no_guarantee"
        assert d.bound == pytest.approx(-0.13375 * 373.0, abs=1e-9)
        assert d.alpha_used == 0.13375

    def test_threshold_is_strict(self):
        econ = linear_econ()
        policy = ImplementerPolicy(-6.0, 0.25, 0.4)
        assert not decide_no_guarantee(0.4, policy, econ).implement
        assert decide_no_guarantee(0.4 + 1e-9, policy, econ).implement

    def test_infeasible_scale(self):
        policy = ImplementerPolicy(-0.5, 1.0, 0.4)
        d = decide_no_guarantee(0.9, policy, linear_econ())
        assert not d.implement and d.scale == 0

    def test_schedule_is_distribution_free(self):
        policy = ImplementerPolicy(-6.0, AlphaSchedule.constant(0.25), 0.4)
        d = decide_no_guarantee(0.9, policy, linear_econ())
        assert d == Decision(True, 6, -6.0, "no_guarantee", alpha_used=1.0)


class TestWithContract:
    def setup_method(self):
        self.econ = linear_econ(M=20)
        self.policy = ImplementerPolicy(u_bar=-12.0, alpha_belief=0.25, p0=0.4)

    def test_below_threshold_never_implements(self):
        for contract, rule in ((FullGuarantee(), "full"),
                               (TailGuarantee(-5.0), "tail"),
                               (ProportionalGuarantee(0.6), "proportional")):
            d = decide_with_contract(0.4, contract, self.policy, self.econ)
            assert not d.implement and d.rule == rule

    def test_full_cover_runs_at_max_scale(self):
        d = decide_with_contract(0.6, FullGuarantee(), self.policy, self.econ)
        assert d == Decision(True, 20, 0.0, "full")

    def test_tail_above_limit_runs_at_max_scale(self):
        d = decide_with_contract(0.6, TailGuarantee(-5.0), self.policy, self.econ)
        assert d.implement and d.scale == 20 and d.rule == "tail"
        assert d.bound == -5.0 and d.alpha_used is None

    def test_tail_above_limit_still_checks_costs(self):
        econ = linear_econ(M=10)
        with pytest.raises(ValueError):
            decide_with_contract(0.6, TailGuarantee(-12.0), self.policy, econ)

    def test_deep_tail_under_scalar_belief(self):
        d = decide_with_contract(0.6, TailGuarantee(-15.0), self.policy, self.econ)
        assert d == Decision(True, 20, -15.0, "tail_scaled", alpha_used=0.25)

    def test_deep_tail_scales_back_under_schedule(self):
        policy = ImplementerPolicy(-12.0, AlphaSchedule.constant(0.7), 0.4)
        d = decide_with_contract(0.6, TailGuarantee(-15.0), policy, self.econ)
        assert d.rule == "tail_scaled" and d.scale == 17
        assert d.bound == -15.0 and d.alpha_used == pytest.approx(0.7)

    def test_deep_tail_zero_scale(self):
        policy = ImplementerPolicy(-0.5, AlphaSchedule.constant(1.0), 0.4)
        d = decide_with_contract(0.6, TailGuarantee(-15.0), policy, self.econ)
        assert not d.implement and d.rule == "tail_scaled"

    def test_proportional_with_scalar_belief(self):
        policy = ImplementerPolicy(-6.0, 0.25, 0.4)
        d = decide_with_contract(0.6, ProportionalGuarantee(0.6), policy, self.econ)
        assert d.rule == "proportional" and d.scale == 20
        assert d.bound == pytest.approx(-2.0, abs=1e-12)
        assert d.alpha_used == 0.25

    def test_proportional_without_scalar_is_distribution_free(self):
        policy = ImplementerPolicy(-6.0, AlphaSchedule.constant(0.25), 0.4)
        d = decide_with_contract(0.6, ProportionalGuarantee(0.6), policy, self.econ)
        assert d.scale == 15 and d.alpha_used == 1.0
        assert d.bound == pytest.approx(-6.0, abs=1e-12)

    def test_unknown_contract_type(self):
        # at or below p0 too: the contract is checked before the threshold
        for L in (0.3, 0.4, 0.6):
            with pytest.raises(TypeError):
                decide_with_contract(L, object(), self.policy, self.econ)


class TestTailMonotonicity:
    ECON = PolicyEconomics(CostSchedule.affine(50.0, 1.0, 10),
                           BenefitFunction.linear(2.5))
    POLICY = ImplementerPolicy(
        u_bar=-5.0, alpha_belief=AlphaSchedule(((-40.0, 0.02), (-1.0, 0.3))),
        p0=0.5)

    def scale_at(self, k):
        return decide_with_contract(0.9, TailGuarantee(k), self.POLICY,
                                    self.ECON).scale

    @given(k1=st.floats(-40.0, -6.0), k2=st.floats(-40.0, -6.0))
    @settings(max_examples=80, deadline=None)
    def test_deeper_floor_never_shrinks_scale(self, k1, k2):
        lo, hi = sorted((k1, k2))
        assert self.scale_at(lo) >= self.scale_at(hi)

    def test_covers_both_extremes(self):
        assert self.scale_at(-40.0) == 10
        assert self.scale_at(-6.0) == 0


def outcome(rule, *args):
    """The Decision a rule returns, or the error it raises."""
    try:
        return rule(*args)
    except ValueError as exc:
        return repr(exc)


class TestOneBeliefReader:
    @given(alpha=st.floats(0.0, 1.0), low=st.floats(0.0, 1.0),
           u_bar=st.floats(-40.0, -0.5), depth=st.floats(1e-6, 40.0),
           share=st.floats(0.01, 0.99), L=st.floats(0.0, 1.0),
           M=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_scalar_and_schedule_read_alike(self, alpha, low, u_bar, depth,
                                            share, L, M):
        econ = linear_econ(M=M)
        scalar = ImplementerPolicy(u_bar, alpha, 0.4)
        # a scalar on a tail level below u_bar is the constant schedule
        const = ImplementerPolicy(u_bar, AlphaSchedule.constant(alpha), 0.4)
        tail = TailGuarantee(u_bar - depth)
        assert (outcome(decide_with_contract, L, tail, scalar, econ)
                == outcome(decide_with_contract, L, tail, const, econ))
        # rules with no tail level read a schedule as the scalar 1
        sched = ImplementerPolicy(
            u_bar, AlphaSchedule(((-10.0, min(low, alpha)), (0.0, alpha))), 0.4)
        worst = ImplementerPolicy(u_bar, 1.0, 0.4)
        for policy in (const, sched):
            assert (decide_no_guarantee(L, policy, econ)
                    == decide_no_guarantee(L, worst, econ))
            prop = ProportionalGuarantee(share)
            assert (decide_with_contract(L, prop, policy, econ)
                    == decide_with_contract(L, prop, worst, econ))
