"""Researcher-side utility, hedging, participation, and pooling."""

import warnings

import numpy as np
import pytest

from guaranteesim.binomial import LowerBoundProcedure
from guaranteesim.contracts import (
    FullGuarantee,
    ProportionalGuarantee,
    TailGuarantee,
)
from guaranteesim.economics import BenefitFunction, CostSchedule, PolicyEconomics
from guaranteesim.researcher import (
    ImplValue,
    NoiseSpec,
    PoolMember,
    Position,
    ResearcherPayoffModel,
    ResearcherRisk,
    RiskExchange,
    RiskTransfer,
    UtilitySpec,
    expected_utility,
    no_implementation_world,
    participation_check,
    pool_expected_utility,
    publication_rate_conditions,
    researcher_world,
)
from guaranteesim.simulate import DiscreteDist
from guaranteesim.strategies import (
    FraudulentStrategy,
    SelectiveStrategy,
    TruthfulStrategy,
)

CARA_MILD_EU = -31.551275422694314  # a=0.001 on {-100: 0.3, 0: 0.7}

LINEAR = UtilitySpec("linear")
BARE = ResearcherRisk()
CP40 = LowerBoundProcedure("clopper_pearson", 0.05, 40)


def tail_only(k):
    return ResearcherRisk(TailGuarantee(k))


def proportional_only(share):
    return ResearcherRisk(ProportionalGuarantee(share))


def hedged(hedge):
    return ResearcherRisk(hedge=hedge)


def econ20():
    return PolicyEconomics(CostSchedule.linear(1.0, 20),
                           BenefitFunction.linear(2.5))


def payoff(base=2.0, impl=2.0, exposure=0.0, noise=None):
    return ResearcherPayoffModel(base_pub=base,
                                 impl_value=ImplValue("constant", impl),
                                 failure_exposure=exposure, noise=noise)


class TestUtilitySpec:
    def test_frozen_cara_expectation(self):
        u = UtilitySpec("cara", 0.001)
        position = Position(0.0, (1.0,), (DiscreteDist([-100.0, 0.0], [0.3, 0.7]),))
        assert expected_utility(position, u) == pytest.approx(CARA_MILD_EU,
                                                              abs=1e-9)

    def test_linear_passthrough(self):
        assert LINEAR.value(3.7) == 3.7
        assert LINEAR.certainty_equivalent(-2.5) == -2.5

    def test_cara_ce_roundtrip(self):
        u = UtilitySpec("cara", 0.05)
        for eu in (-30.0, -1.0, 5.0):
            assert u.value(u.certainty_equivalent(eu)) == pytest.approx(eu,
                                                                        rel=1e-12)

    def test_cara_saturates_with_warning(self):
        u = UtilitySpec("cara", 1.0)
        with pytest.warns(RuntimeWarning):
            v = u.value(-1e6)
        assert np.isfinite(v) and v < -1e200

    def test_ce_domain(self):
        u = UtilitySpec("cara", 1.0)
        with pytest.raises(ValueError):
            u.certainty_equivalent(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilitySpec("quadratic")
        with pytest.raises(ValueError):
            UtilitySpec("cara", 0.0)


class TestResearcherWorld:
    def test_tail_only_dominates_no_hedge(self):
        u = UtilitySpec("cara", 0.05)
        for p in (0.1, 0.3, 0.5):
            tail = researcher_world(tail_only(-4.0), payoff(), 8,
                                    econ20(), p)
            bare = researcher_world(BARE, payoff(), 8, econ20(), p)
            assert expected_utility(tail, u) >= expected_utility(bare, u) - 1e-12

    def test_full_retention_transfer_equals_no_hedge(self):
        keep = researcher_world(hedged(RiskTransfer(retained=1.0)), payoff(), 8,
                                econ20(), 0.35)
        bare = researcher_world(BARE, payoff(), 8, econ20(), 0.35)
        assert (keep.base, keep.weights) == (bare.base, bare.weights)
        for got, want in zip(keep.laws, bare.laws, strict=True):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.probs, want.probs)

    def test_premium_shifts_mean(self):
        free = researcher_world(hedged(RiskTransfer(0.4, premium=0.0)), payoff(),
                                8, econ20(), 0.35)
        paid = researcher_world(hedged(RiskTransfer(0.4, premium=1.25)),
                                payoff(), 8, econ20(), 0.35)
        assert expected_utility(paid, LINEAR) == pytest.approx(
            expected_utility(free, LINEAR) - 1.25, abs=1e-9)

    def test_exchange_mean_additivity(self):
        partner = DiscreteDist([-8.0, 0.0], [0.25, 0.75])
        swap = researcher_world(hedged(RiskExchange(0.4, 0.5, partner)), payoff(),
                                8, econ20(), 0.35)
        kept = researcher_world(hedged(RiskTransfer(0.4)), payoff(), 8, econ20(),
                                0.35)
        assert expected_utility(swap, LINEAR) == pytest.approx(
            expected_utility(kept, LINEAR) + 0.5 * (-2.0), abs=1e-9)

    def test_proportional_scales_exposure(self):
        v0 = 2.0 + 2.0
        bare = expected_utility(
            researcher_world(BARE, payoff(), 8, econ20(), 0.35), LINEAR)
        part = expected_utility(
            researcher_world(proportional_only(0.3), payoff(), 8,
                             econ20(), 0.35), LINEAR)
        assert part == pytest.approx(v0 + 0.3 * (bare - v0), abs=1e-9)

    def test_uninsured_exposure_adds_loss_share(self):
        bare = expected_utility(
            researcher_world(BARE, payoff(), 8, econ20(), 0.35), LINEAR)
        mean_loss = bare - 4.0
        lo = expected_utility(
            researcher_world(tail_only(-4.0), payoff(), 8,
                             econ20(), 0.35), LINEAR)
        hi = expected_utility(
            researcher_world(tail_only(-4.0), payoff(exposure=0.3), 8,
                             econ20(), 0.35), LINEAR)
        assert hi - lo == pytest.approx(0.3 * mean_loss, abs=1e-9)

    def test_noise_preserves_mean_but_costs_cara_utility(self):
        noisy = payoff(noise=NoiseSpec(0.5))
        plain_w = researcher_world(BARE, payoff(), 8, econ20(), 0.35)
        noisy_w = researcher_world(BARE, noisy, 8, econ20(), 0.35)
        assert expected_utility(noisy_w, LINEAR) == pytest.approx(
            expected_utility(plain_w, LINEAR), abs=1e-9)
        u = UtilitySpec("cara", 0.2)
        assert expected_utility(noisy_w, u) < expected_utility(plain_w, u)

    def test_validation(self):
        with pytest.raises(ValueError):
            researcher_world(BARE, payoff(), 0, econ20(), 0.3)
        with pytest.raises(TypeError):
            ResearcherRisk(hedge=object())
        with pytest.raises(TypeError):
            researcher_world(ResearcherRisk(contract=object()), payoff(), 3,
                             econ20(), 0.3)
        with pytest.raises(ValueError):
            tail_only(0.0)
        with pytest.raises(ValueError):
            proportional_only(1.0)
        with pytest.raises(ValueError):
            RiskTransfer(1.2)
        with pytest.raises(ValueError):
            RiskTransfer(0.5, premium=-1.0)
        with pytest.raises(ValueError):
            RiskExchange(0.5, 0.5, DiscreteDist([1.0], [1.0]))


PARTNER = DiscreteDist([0.0, -3.0, -9.0], [0.5, 0.3, 0.2])
CONTRACTS = {"full": FullGuarantee, "tail": TailGuarantee,
             "proportional": ProportionalGuarantee}


def enumerated_world(contract, hedge, pay, m, econ, p, partner=PARTNER):
    """The joint law of the position, listed outcome by outcome.

    contract is ("full",), ("tail", k) or ("proportional", s); hedge holds
    the retained share, premium and assumed share of the partner's loss.
    """
    x_law = DiscreteDist.binomial(m, econ.success_rate(p))
    y = econ.net_outcome(m, x_law.values.astype(int))
    y_minus = np.minimum(y, 0.0)
    v0 = pay.base_pub + pay.impl_value.value(m) + pay.failure_exposure * y_minus
    kind, *level = contract
    if kind == "tail":
        loss = np.minimum(y - level[0], 0.0)
    else:
        loss = (level[0] if level else 1.0) * y_minus
    w = v0 + hedge.get("retained", 1.0) * loss - hedge.get("premium", 0.0)
    dist = DiscreteDist(w, x_law.probs).compress()
    if "assumed" in hedge:
        dist = dist.combine(
            partner, lambda a, z: a + hedge["assumed"] * z).compress()
    if pay.noise is not None:
        dist = dist.combine(pay.noise.law(), lambda a, e: a + e).compress()
    return dist


def assert_matches_enumeration(position, dist, utilities, rel=1e-10):
    assert position.mean() == pytest.approx(dist.mean(), rel=rel, abs=1e-12)
    for u in utilities:
        assert expected_utility(position, u) == pytest.approx(
            dist.expectation(u.value), rel=rel, abs=1e-12)


class TestContractPlusHedge:
    @pytest.mark.parametrize("contract,hedge,risk", [
        (("full",), {}, BARE),
        (("full",), {"retained": 0.4, "premium": 0.7},
         hedged(RiskTransfer(0.4, premium=0.7))),
        (("full",), {"retained": 0.3, "assumed": 0.6},
         hedged(RiskExchange(0.3, 0.6, PARTNER))),
        (("tail", -5.0), {}, tail_only(-5.0)),
        (("proportional", 0.35), {}, proportional_only(0.35)),
    ], ids=["none", "transfer", "exchange", "tail_only", "proportional_only"])
    @pytest.mark.parametrize("pay", [
        payoff(),
        ResearcherPayoffModel(base_pub=1.5, impl_value=ImplValue("linear", 0.3),
                              failure_exposure=0.2, noise=NoiseSpec(0.5)),
    ], ids=["plain", "exposure_noise"])
    def test_matches_enumerated_law(self, contract, hedge, risk, pay):
        econs = [econ20(), PolicyEconomics(CostSchedule.affine(3.0, 1.3, 20),
                                           BenefitFunction.linear(3.1),
                                           dilution=0.8)]
        utilities = [LINEAR, UtilitySpec("cara", 0.05), UtilitySpec("cara", 0.4)]
        for econ in econs:
            for m in (1, 8, 20):
                for p in (0.1, 0.35, 0.8):
                    assert_matches_enumeration(
                        researcher_world(risk, pay, m, econ, p),
                        enumerated_world(contract, hedge, pay, m, econ, p),
                        utilities)

    def test_random_small_worlds_match_enumeration(self):
        rng = np.random.default_rng(20231)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            econ = PolicyEconomics(
                CostSchedule.linear(float(rng.uniform(0.5, 2.0)), 12),
                BenefitFunction.linear(float(rng.uniform(1.0, 4.0))))
            kind = str(rng.choice(list(CONTRACTS)))
            level = {"full": (), "tail": (float(rng.uniform(-6.0, -0.5)),),
                     "proportional": (float(rng.uniform(0.05, 0.95)),)}[kind]
            hedge_kind = str(rng.choice(["none", "transfer", "exchange"]))
            retained = float(rng.uniform(0.0, 1.0))
            hedge, risk_hedge, partner = {}, None, PARTNER
            if hedge_kind == "transfer":
                hedge = {"retained": retained,
                         "premium": float(rng.uniform(0.0, 2.0))}
                risk_hedge = RiskTransfer(retained, hedge["premium"])
            elif hedge_kind == "exchange":
                k = int(rng.integers(1, 5))
                partner = DiscreteDist(-rng.uniform(0.0, 10.0, k),
                                       rng.dirichlet(np.ones(k)))
                hedge = {"retained": retained,
                         "assumed": float(rng.uniform(0.0, 1.0))}
                risk_hedge = RiskExchange(retained, hedge["assumed"], partner)
            noise = NoiseSpec(float(rng.uniform(0.1, 2.0))) \
                if rng.random() < 0.5 else None
            pay = ResearcherPayoffModel(
                base_pub=float(rng.uniform(-2.0, 3.0)),
                impl_value=ImplValue("constant", float(rng.uniform(0.0, 3.0))),
                failure_exposure=float(rng.uniform(0.0, 0.5)), noise=noise)
            risk = ResearcherRisk(CONTRACTS[kind](*level), risk_hedge)
            p = float(rng.uniform(0.02, 0.98))
            utilities = [LINEAR, UtilitySpec("cara", float(rng.uniform(0.01, 0.5)))]
            assert_matches_enumeration(
                researcher_world(risk, pay, m, econ, p),
                enumerated_world((kind, *level), hedge, pay, m, econ, p,
                                 partner=partner),
                utilities)

    def test_no_implementation_world_matches_enumeration(self):
        utilities = [LINEAR, UtilitySpec("cara", 0.3)]
        for noise in (None, NoiseSpec(0.7)):
            pay = payoff(base=1.5, noise=noise)
            dist = DiscreteDist.point(pay.base_pub)
            if noise is not None:
                dist = dist.combine(noise.law(), lambda a, e: a + e).compress()
            world = no_implementation_world(pay)
            assert len(world) == (0 if noise is None else 2)
            assert_matches_enumeration(world, dist, utilities, rel=1e-15)


class TestSaturation:
    """CARA saturates on the worst joint outcome, as the enumeration does."""

    RISK = hedged(RiskExchange(0.6, 0.5, PARTNER))
    PAY = payoff(noise=NoiseSpec(0.5))

    def worlds(self):
        position = researcher_world(self.RISK, self.PAY, 8, econ20(), 0.3)
        dist = enumerated_world(("full",), {"retained": 0.6, "assumed": 0.5},
                                self.PAY, 8, econ20(), 0.3)
        return position, dist

    @pytest.mark.parametrize("factor,saturates", [(1.0 + 1e-9, True),
                                                  (1.0 - 1e-9, False)])
    def test_warns_exactly_when_the_enumeration_does(self, factor, saturates):
        position, dist = self.worlds()
        worst = dist.values.min()
        assert worst < 0.0
        u = UtilitySpec("cara", factor * 700.0 / -worst)
        for evaluate in (lambda: expected_utility(position, u),
                         lambda: dist.expectation(u.value)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                evaluate()
            assert any("CARA utility saturated" in str(w.message)
                       for w in caught) == saturates

    def test_caps_the_summed_log_moment(self):
        # the worst outcome, -4 with probability 0.058, puts -a*w at 760
        position = researcher_world(BARE, payoff(), 8, econ20(), 0.3)
        u = UtilitySpec("cara", 190.0)
        with pytest.warns(RuntimeWarning, match="saturated"):
            got = expected_utility(position, u)
        assert got == -np.expm1(700.0) / u.risk_aversion
        with pytest.warns(RuntimeWarning, match="saturated"):
            per_atom = position.laws[0].expectation(u.value)
        assert np.isfinite(per_atom) and got < per_atom


class TestParticipation:
    def test_mix_matches_manual_computation(self):
        u = UtilitySpec("linear", v_bar=0.0)
        report = participation_check(lambda p: p, BARE, payoff(), u,
                                     econ20(), 8, [0.2, 0.5])
        base = expected_utility(no_implementation_world(payoff()), LINEAR)
        for row in report.rows:
            impl = expected_utility(
                researcher_world(BARE, payoff(), 8, econ20(), row.p), LINEAR)
            assert row.lhs == pytest.approx(
                (1 - row.p) * base + row.p * impl, abs=1e-12)

    def test_passes_tracks_floor(self):
        grid = np.linspace(0.1, 0.9, 9)
        report = participation_check(
            lambda p: p, BARE, payoff(),
            UtilitySpec("linear", v_bar=0.0), econ20(), 8, grid)
        tight = participation_check(
            lambda p: p, BARE, payoff(),
            UtilitySpec("linear", v_bar=report.minimum + 0.1), econ20(), 8, grid)
        loose = participation_check(
            lambda p: p, BARE, payoff(),
            UtilitySpec("linear", v_bar=report.minimum - 0.1), econ20(), 8, grid)
        assert not tight.passes and loose.passes
        assert report.minimum == min(r.lhs for r in report.rows)

    @pytest.mark.parametrize("strategy", [
        TruthfulStrategy(CP40), FraudulentStrategy(CP40, 0.05),
        SelectiveStrategy(40, 0.1)], ids=["truthful", "fraudulent", "selective"])
    def test_check_is_the_conditions_report(self, strategy):
        # the participation check reads its minimum and pass flag off the
        # same rows that bound the publication rate
        def pub(p):
            return strategy.exceedance_prob(p, 0.4)

        grid = np.linspace(0.05, 0.95, 7)
        u = UtilitySpec("cara", risk_aversion=0.05, v_bar=1.5)
        risk = tail_only(-3.0)
        check = participation_check(pub, risk, payoff(), u, econ20(), 8, grid)
        conds = publication_rate_conditions(pub, risk, payoff(), u, econ20(),
                                            8, grid)
        table = [np.array([[r.p, r.lhs, r.bound, r.actual] for r in rep.rows])
                 for rep in (check, conds)]
        assert np.array_equal(*table, equal_nan=True)
        assert ([(r.regime, r.violated) for r in check.rows]
                == [(r.regime, r.violated) for r in conds.rows])
        assert (check.minimum, check.passes, check.v_bar) == (
            conds.minimum, conds.passes, conds.v_bar)
        assert check.minimum == min(r.lhs for r in conds.rows)
        assert check.passes == (check.minimum >= 1.5)


class TestPublicationRateConditions:
    def check_single(self, base, v_bar, pub, p, impl=2.0, share=None,
                     atol=1e-12):
        pay = payoff(base=base, impl=impl)
        risk = BARE if share is None else proportional_only(share)
        u = UtilitySpec("linear", v_bar=v_bar)
        report = publication_rate_conditions(lambda q: pub, risk, pay, u,
                                             econ20(), 10, [p], atol=atol)
        return report.rows[0], report

    def test_upper_regime(self):
        # not-implemented is safe, implemented is not: pr capped from above
        row, _ = self.check_single(base=2.0, v_bar=0.0, pub=0.9, p=0.05)
        a = 2.0
        b = expected_utility(
            researcher_world(BARE, payoff(base=2.0), 10, econ20(), 0.05),
            LINEAR)
        assert row.regime == "upper" and b < 0.0 < a
        assert row.bound == pytest.approx((a - 0.0) / (a - b), abs=1e-12)
        assert row.violated == (0.9 > row.bound)
        row_ok, _ = self.check_single(base=2.0, v_bar=0.0, pub=0.01, p=0.05)
        assert not row_ok.violated

    def test_lower_regime(self):
        # only implementation clears the floor: pr forced up from below
        row, _ = self.check_single(base=-1.0, v_bar=-0.5, pub=0.05, p=0.9,
                                   share=0.01)
        assert row.regime == "lower"
        assert row.violated == (0.05 < row.bound)
        assert 0.0 < row.bound < 1.0

    def test_none_regime(self):
        row, report = self.check_single(base=2.0, v_bar=-50.0, pub=0.5, p=0.9)
        assert row.regime == "none" and not row.violated
        assert not report.any_violation

    def test_vacuous_and_infeasible_at_equal_utilities(self):
        # a vanishing retained share makes both worlds agree to within atol
        row, _ = self.check_single(base=2.0, v_bar=0.0, pub=0.5, p=0.05,
                                   impl=0.0, share=1e-9, atol=1e-6)
        assert row.regime == "vacuous" and not row.violated
        assert np.isnan(row.bound)
        row, report = self.check_single(base=-2.0, v_bar=0.0, pub=0.5, p=0.05,
                                        impl=0.0, share=1e-9, atol=1e-6)
        assert row.regime == "infeasible" and row.violated
        assert report.any_violation

    def test_infeasible_when_both_fall_short(self):
        row, _ = self.check_single(base=-5.0, v_bar=0.0, pub=0.5, p=0.05)
        assert row.regime == "infeasible" and row.violated


class TestPooling:
    LOSS = DiscreteDist([-10.0, 0.0], [0.3, 0.7])

    def member(self, a=0.1):
        return PoolMember(base=0.0, loss=self.LOSS,
                          utility=UtilitySpec("cara", a))

    def test_identity_shares_reproduce_standalone(self):
        members = [self.member(), self.member(0.2)]
        pooled = pool_expected_utility(members, np.eye(2))
        for mem, eu in zip(members, pooled):
            standalone = self.LOSS.expectation(
                lambda x: mem.utility.value(mem.base + x))
            assert eu == pytest.approx(standalone, abs=1e-12)

    def test_equal_shares_help_and_grow_with_pool_size(self):
        ces = []
        for j in (1, 2, 5):
            members = [self.member() for _ in range(j)]
            eu = pool_expected_utility(members, np.full((j, j), 1.0 / j))
            standalone = pool_expected_utility(members[:1], np.eye(1))[0]
            assert eu[0] >= standalone - 1e-12
            ces.append(members[0].utility.certainty_equivalent(float(eu[0])))
        assert ces[0] <= ces[1] + 1e-12 <= ces[2] + 2e-12

    def test_row_sum_validation(self):
        members = [self.member(), self.member()]
        with pytest.raises(ValueError):
            pool_expected_utility(members, [[0.5, 0.4], [0.5, 0.6]])
        with pytest.raises(ValueError):
            pool_expected_utility(members, [[1.5, -0.5], [0.0, 1.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pool_expected_utility([self.member()], np.eye(2))

    @pytest.mark.parametrize("case", ["equal", "unequal", "non_iid"])
    def test_matches_outcome_matrix_enumeration(self, case):
        wide = DiscreteDist([0.0, -2.0, -7.5], [0.5, 0.3, 0.2])
        laws = [self.LOSS, self.LOSS, self.LOSS]
        if case == "non_iid":
            laws = [self.LOSS, wide, DiscreteDist([1.0, -4.0], [0.6, 0.4])]
        members = [PoolMember(base, law, UtilitySpec("cara", a)) for base, law, a
                   in zip((0.0, 1.5, -0.5), laws, (0.1, 0.2, 0.05))]
        shares = np.full((3, 3), 1.0 / 3)
        if case != "equal":
            shares = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3],
                               [0.25, 0.25, 0.5]])
        got = pool_expected_utility(members, shares)
        want = _outcome_matrix_pool_eu(members, shares)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("utility", [UtilitySpec("cara", 0.1), LINEAR])
    def test_pools_past_any_joint_enumeration(self, utility):
        # 12**8 joint outcomes; the pooled position takes 89 values
        wide = DiscreteDist(-np.arange(12.0), np.full(12, 1.0 / 12))
        members = [PoolMember(0.5, wide, utility) for _ in range(8)]
        got = pool_expected_utility(members, np.full((8, 8), 1.0 / 8))
        share = DiscreteDist(wide.values / 8, wide.probs)
        total = DiscreteDist.point(0.5)
        for _ in members:
            total = total.combine(share, lambda a, b: a + b).compress()
        assert len(total) == 89
        want = total.expectation(utility.value)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_linear_matches_outcome_matrix_enumeration(self):
        laws = [self.LOSS, DiscreteDist([1.0, -4.0], [0.6, 0.4])]
        members = [PoolMember(base, law, LINEAR)
                   for base, law in zip((0.0, 1.5), laws)]
        shares = np.array([[0.7, 0.3], [0.2, 0.8]])
        got = pool_expected_utility(members, shares)
        want = _outcome_matrix_pool_eu(members, shares)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_saturated_pool_warns_and_stays_finite(self):
        # the worst joint outcome, -8000 each, puts -a*w at 800 > 700
        deep = DiscreteDist([0.0, -8000.0], [0.99, 0.01])
        members = [PoolMember(0.0, deep, UtilitySpec("cara", 0.1))
                   for _ in range(2)]
        with pytest.warns(RuntimeWarning, match="saturated"):
            eu = pool_expected_utility(members, np.full((2, 2), 0.5))
        assert np.isfinite(eu).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool_expected_utility([self.member()] * 2, np.full((2, 2), 0.5))


def _outcome_matrix_pool_eu(members, shares):
    """Pooled expected utilities through the (N, J) matrix of joint outcomes,
    which pool_expected_utility never lists."""
    grids = np.meshgrid(*[m.loss.values for m in members], indexing="ij")
    outcomes = np.stack([g.ravel() for g in grids], axis=1)
    probs = np.ones(outcomes.shape[0])
    for g in np.meshgrid(*[m.loss.probs for m in members], indexing="ij"):
        probs = probs * g.ravel()
    return np.array([float(probs @ m.utility.value(m.base + outcomes @ shares[i]))
                     for i, m in enumerate(members)])
