import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from oracles import alpha_params, flat_price_scan

from riskfree import seq
from riskfree.errors import InfeasibleInstanceError
from riskfree.seq import SeqGameState, best_response_to_fixed_bids, simulate
from riskfree.strategies import (
    FixedBidsPolicy,
    UniformRandomBidder,
    alpha_tilde_adversary,
    choose_k,
    constant_price_policy,
    constant_price_worst_profit,
    high_budget_policy,
    low_budget_policy,
    s_instance_adversary,
    tangent_peak,
    tangent_value,
    xos_sqrt_policy,
)
from riskfree.valuations import (
    AdditiveValuation,
    SInstanceParams,
    SubadditiveIdenticalValuation,
    gamma_star,
    make_s_instance,
    random_subadditive_identical,
    XOSValuation,
)


def state(m, remaining, budget, won=(), paid=0.0, rule="first"):
    t = m - len(remaining)
    return SeqGameState(
        remaining=tuple(remaining),
        adversary_budget=budget,
        won_by_1=frozenset(won),
        prices_paid_1=paid,
        round=t,
        price_rule=rule,
        m=m,
    )


def choose_k_scan(B, k_cap=400):
    """The scan ``choose_k`` replaced: move to k only on a gain above 1e-15."""
    best_k, best_val = 2, tangent_value(1, B)
    for k in range(3, k_cap + 1):
        val = tangent_value(k - 1, B)
        if val > best_val + 1e-15:
            best_k, best_val = k, val
    return best_k


def switch_point(j, ulps):
    """B = j/(j+2), where t_j = t_{j+1}, moved by ``ulps`` floats."""
    return j / (j + 2.0) + ulps * math.ulp(j / (j + 2.0))


switch_points = hst.builds(switch_point, hst.integers(1, 500), hst.integers(-4, 4))
budgets = hst.one_of(
    switch_points, hst.floats(0.0, 1.0), hst.floats(1.0, 1e6), hst.sampled_from([0.0, 1.0])
)


class TestXosSqrt:
    def test_bid_vector(self):
        pol = xos_sqrt_policy(AdditiveValuation((0.5, 0.3, 0.2)), 0.25)
        assert pol.bids == pytest.approx((0.25, 0.15, 0.10))

    def test_zero_budget_wins_everything(self):
        v = XOSValuation([(0.6, 0.4)])
        pol = xos_sqrt_policy(gamma_star(v), 0.0)
        _, profit = best_response_to_fixed_bids(v, pol.bids, 0.0)
        assert profit == pytest.approx(1.0)

    def test_guarantee_at_quarter(self):
        v = XOSValuation([(0.7, 0.2, 0.1), (0.2, 0.4, 0.4)])
        pol = xos_sqrt_policy(gamma_star(v), 0.25)
        _, profit = best_response_to_fixed_bids(v, pol.bids, 0.25)
        assert profit >= 0.25 - 1e-9

    def test_guarantee_random_instances(self):
        rng = np.random.Generator(np.random.Philox(101))
        for _ in range(100):
            m = int(rng.integers(2, 11))
            clauses = [tuple(rng.random(m)) for _ in range(int(rng.integers(0, 5)))]
            w = rng.random(m) + 1e-3
            clauses.append(tuple(w / w.sum()))
            v = XOSValuation(clauses)
            B = float(rng.choice([0.04, 0.25, 0.49]))
            pol = xos_sqrt_policy(gamma_star(v), B)
            _, profit = best_response_to_fixed_bids(v, pol.bids, B)
            assert profit >= (1 - math.sqrt(B)) ** 2 - 1e-9


class TestBudgetPolicies:
    def test_low_budget_profit(self):
        v = AdditiveValuation((1 / 3,) * 3)
        pol = low_budget_policy(0.05)
        _, profit = best_response_to_fixed_bids(v, [pol.bid] * 3, 0.05)
        assert profit == pytest.approx(1 - 3 * 0.05)

    def test_high_budget_profit(self):
        v = AdditiveValuation((1 / 3,) * 3)
        pol = high_budget_policy(3, 0.7)
        _, profit = best_response_to_fixed_bids(v, [pol.bid] * 3, 0.7)
        assert profit == pytest.approx((1 - 0.7) / 3)

    def test_zero_budget(self):
        v = AdditiveValuation((1 / 3,) * 3)
        _, profit = best_response_to_fixed_bids(v, [0.0] * 3, 0.0)
        assert profit == pytest.approx(1.0)

    def test_out_of_range_warns(self):
        with pytest.warns(UserWarning):
            high_budget_policy(3, 0.1)


class TestAlphaTildeAdversary:
    def test_first_round_bid_matches_formula(self):
        adv = alpha_tilde_adversary(2, 0.3)
        bid = adv(state(2, (0, 1), 0.3))
        hand = (1 - 4 * (1 - math.sqrt(0.3)) + 2 * math.sqrt(2) * (1 - math.sqrt(0.3))) / 2
        assert bid == pytest.approx(hand, abs=1e-12)
        assert bid == pytest.approx(0.2350620081419439, abs=1e-12)

    def test_budget_exposed_for_simulate(self):
        assert alpha_tilde_adversary(3, 0.4).budget == pytest.approx(0.4)

    def test_saturated_budget_takes_everything(self):
        m = 3
        v = AdditiveValuation((1 / m,) * m)
        adv = alpha_tilde_adversary(m, 1.2)
        out = simulate(v, FixedBidsPolicy((1 / m,) * m), adv, budget=1.2)
        assert out.profit <= 1e-12
        assert out.won_by_1 == ()

    def test_holds_bidder_to_bound_in_simulation(self):
        # against the sqrt-policy bidder the profit stays below f + 1/sqrt(m)
        for m, x in ((2, 0.3), (3, 0.25), (4, 0.5)):
            v = AdditiveValuation((1 / m,) * m)
            bidder = xos_sqrt_policy(v, x)
            adv = alpha_tilde_adversary(m, x)
            out = simulate(v, bidder, adv, budget=x)
            assert out.profit <= (1 - math.sqrt(x)) ** 2 + 1 / math.sqrt(m) + 1e-9


def alpha_params_bid(state):
    """The alpha-tilde adversary's bid with its regime read from
    ``oracles.alpha_params``, as the policy made it before it inlined the test:
    the oracle for ``AlphaTildeAdversary``."""
    m_rem = len(state.remaining)
    per_item = 1.0 / state.m
    r = state.adversary_budget
    if m_rem == 0 or r <= 0:
        return 0.0
    x_sub = r / (m_rem * per_item)
    if m_rem == 1:
        ratio = min(1.0, x_sub)
    else:
        p = alpha_params(m_rem, x_sub)
        if p.intermediate:
            ratio = min(max(p.alpha_tilde, 0.0), p.alpha_max)
        else:
            ratio = seq.equalization_alpha(m_rem, x_sub)[0]
    return min(ratio * per_item, r)


class TestAlphaTildeOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_round_bids_as_the_alpha_params_oracle(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        rounds = 0
        for m in range(2, 21):
            for B in (0.0, 1.0 / m**2, (m - 1.0) / m, *rng.uniform(0.0, 1.2, 6)):
                adv = alpha_tilde_adversary(m, float(B))
                seen = []

                def checked(st, adv=adv, seen=seen):
                    bid = adv(st)
                    want = alpha_params_bid(st)
                    assert type(bid) is type(want) and bid.hex() == want.hex(), (st, bid, want)
                    seen.append(st)
                    return bid

                v = AdditiveValuation((1.0 / m,) * m)
                bidder = xos_sqrt_policy(v, float(B)) if rng.random() < 0.5 else FixedBidsPolicy(
                    tuple(rng.uniform(0.0, 1.5 / m, m)))
                simulate(v, bidder, checked, budget=adv.budget)
                assert [st.round for st in seen] == list(range(m))
                rounds += len(seen)
        assert rounds == 9 * sum(range(2, 21))  # 9 budgets per m


class TestConstantPrice:
    def test_plan_fields(self):
        si, _ = make_s_instance(0.125, 10)
        pol, plan = constant_price_policy(si, 0.2, 2)
        assert plan.q == 5
        assert plan.p == pytest.approx(0.2 / 6)

    def test_k_below_two_rejected(self):
        si, _ = make_s_instance(0.125, 10)
        with pytest.raises(ValueError):
            constant_price_policy(si, 0.2, 1)

    def test_fewer_items_than_k_rejected(self):
        si, _ = make_s_instance(0.125, 10)
        with pytest.raises(ValueError, match="m must be at least 11, got 10") as info:
            constant_price_policy(si, 0.2, 11)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("B", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda B: xos_sqrt_policy(AdditiveValuation((0.5, 0.5)), B),
            lambda B: low_budget_policy(B),
            lambda B: high_budget_policy(4, B),
            lambda B: alpha_tilde_adversary(4, B),
            lambda B: constant_price_policy(make_s_instance(0.1, 20)[0], B, 3),
            lambda B: constant_price_worst_profit(make_s_instance(0.1, 20)[0], B, 3),
        ],
        ids=["xos_sqrt", "low_budget", "high_budget", "alpha_tilde", "constant_price", "constant_price_worst"],
    )
    def test_non_finite_budget_rejected(self, build, B):
        with pytest.raises(ValueError, match="finite"):
            build(B)

    @pytest.mark.parametrize("build", [high_budget_policy, alpha_tilde_adversary], ids=["high_budget", "alpha_tilde"])
    def test_no_items_rejected(self, build):
        with pytest.raises(ValueError, match="m must be at least 1"):
            build(0, 0.5)

    def test_choose_k_tie_breaks_small(self):
        assert choose_k(0.5) == 3  # t_2(1/2) = t_3(1/2) = 1/12
        assert choose_k(0.1) == 2

    def test_choose_k_matches_the_scan_at_every_switch_point(self):
        for j in range(1, 400):  # the default cap reaches t_399
            for u in range(-3, 4):
                B = switch_point(j, u)
                assert choose_k(B) == choose_k_scan(B), B

    @settings(max_examples=300, deadline=None)
    @given(B=budgets, k_cap=hst.integers(2, 400))  # choose_k ranges over k >= 2, so j_max >= 1
    def test_choose_k_matches_the_scan(self, B, k_cap):
        k = tangent_peak(B, k_cap - 1)[0] + 1
        assert k == choose_k_scan(B, k_cap)
        assert tangent_value(k - 1, B) == tangent_value(choose_k_scan(B, k_cap) - 1, B)
        assert choose_k(B) == choose_k_scan(B)

    @pytest.mark.parametrize("j_max", [0, -5])
    def test_tangent_peak_rejects_an_empty_range(self, j_max):
        with pytest.raises(ValueError, match="j_max must be at least 1"):
            tangent_peak(0.3, j_max)

    def test_choose_k_reaches_the_cap(self):
        assert choose_k(0.999) == choose_k_scan(0.999) == 400
        assert tangent_peak(2.0, 36)[0] + 1 == choose_k_scan(2.0, k_cap=37) == 37

    @pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf])
    def test_tangent_value_rejects_non_finite_budgets(self, B):
        with pytest.raises(ValueError, match="budget must be finite"):
            tangent_value(3, B)

    @pytest.mark.parametrize("B", [-1.0, -1e-300])
    def test_tangent_closed_forms_reject_negative_budgets(self, B):
        for call in (lambda: tangent_value(3, B), lambda: tangent_peak(B, 10), lambda: choose_k(B)):
            with pytest.raises(ValueError, match="budget must be finite and non-negative"):
                call()

    @pytest.mark.parametrize("B", [math.nan, math.inf])
    def test_choose_k_rejects_non_finite_budget(self, B):
        with pytest.raises(ValueError, match="finite"):
            choose_k(B)

    def test_worst_profit_meets_partition_chain(self):
        rng = np.random.Generator(np.random.Philox(55))
        for _ in range(50):
            m = int(rng.integers(6, 40))
            si = random_subadditive_identical(m, rng)
            B = float(rng.uniform(0.02, 0.6))
            k = choose_k(B)
            if m < k:
                continue
            profit, _ = constant_price_worst_profit(si, B, k)
            q = math.ceil(m / k)
            assert profit >= 1 / math.ceil(m / q) - q * B / (m - q + 1) - 1e-12

    @pytest.mark.parametrize("B", [5e-324, 1e-300, 1e-13, 9.99e-13])
    def test_worst_profit_is_finite_below_the_scan_tolerance(self, B):
        si = SubadditiveIdenticalValuation((0.0, 0.5, 0.75, 1.0))
        plan = constant_price_policy(si, B, 2)[1]  # q = 2, p = B/2
        assert constant_price_worst_profit(si, B, 2) == (0.75 - 2 * plan.p, 0)

    def test_worst_profit_replays_the_scan_bitwise(self):
        rng = np.random.Generator(np.random.Philox(29))
        for _ in range(300):
            m = int(rng.integers(2, 120))
            si = random_subadditive_identical(m, rng)
            k = int(rng.integers(2, m + 1))
            for B in (0.0, 1e-12, float(rng.uniform(0.0, 10.0))):
                got = constant_price_worst_profit(si, B, k)
                assert got == flat_price_scan(si, B, k), (m, k, B)
                assert type(got[0]) is float

    def test_worst_profit_matches_game_tree(self):
        # oracle: enumerate every adversary win/lose pattern with the strict
        # budget rule and replay the stop-at-q policy against it
        rng = np.random.Generator(np.random.Philox(77))
        for _ in range(30):
            m = int(rng.integers(4, 9))
            si = random_subadditive_identical(m, rng)
            B = float(rng.uniform(0.05, 0.5))
            k = 2
            pol, plan = constant_price_policy(si, B, k)
            best = math.inf
            for mask in range(1 << m):
                wins, spent, c = 0, 0.0, 0
                feasible = True
                for t in range(m):
                    bid = pol(state(m, range(t, m), B - spent, won=tuple(range(c))))
                    if mask >> t & 1:  # adversary takes this round
                        cost = bid  # he must match the flat bid
                        if spent + cost >= B - 1e-12:
                            feasible = False
                            break
                        spent += cost
                    else:
                        c += 1 if bid > 0 else 0
                if not feasible:
                    continue
                profit = si.value_of_count(min(c, plan.q)) - min(c, plan.q) * plan.p
                best = min(best, profit)
            got, _ = constant_price_worst_profit(si, B, k)
            assert got == pytest.approx(best, abs=1e-9)


class TestSInstanceAdversary:
    def test_phase_bids(self):
        si, params = make_s_instance(0.125, 10)
        adv = s_instance_adversary(params)
        # phase 1: nothing won by the bidder yet
        assert adv(state(10, range(10), 0.125)) == 0.0
        assert adv(state(10, range(3, 10), 0.125)) == 0.0
        # phase 2: bidder won something, adversary holds nothing
        s2 = state(10, range(2, 10), 0.125, won=(0, 1))
        assert adv(s2) == pytest.approx(3 / 32)
        # phase 3: both sides hold items
        s3 = state(10, range(4, 10), 0.1, won=(1, 2))
        bid = adv(s3)
        assert 0.0 <= bid <= 0.1

    def test_phase2_bid_is_feasible(self):
        for x in (0.05, 0.1, 0.2):
            _, params = make_s_instance(x, 60)
            assert params.phase2_bid <= x + 1e-12

    def test_buy_through_profit_cap(self):
        # a bidder who always buys (at limit prices) ends at 1 - (d+1) p2,
        # which stays below 1/2 - 2x
        x, m = 0.125, 10
        si, params = make_s_instance(x, m)
        adv = s_instance_adversary(params)
        eps = 1e-9
        bidder = FixedBidsPolicy((eps,) + (params.phase2_bid + eps,) * (m - 1))
        out = simulate(si, bidder, adv, budget=x)
        assert out.won_by_1 == tuple(range(m))
        assert out.profit == pytest.approx(1 - (params.d + 1) * params.phase2_bid, abs=1e-6)
        assert out.profit <= 0.5 - 2 * x + 1e-12

    def test_infeasible_params_rejected(self):
        bad = SInstanceParams(x=0.01, m=10, sigma=8.0, d=8, phase2_bid=0.2)
        with pytest.raises(InfeasibleInstanceError):
            s_instance_adversary(bad)

    def test_params_that_are_not_subadditive_rejected(self):
        bad = SInstanceParams(x=0.2, m=9, sigma=8.0, d=7, phase2_bid=0.1)  # m < sigma + 2
        with pytest.raises(InfeasibleInstanceError, match="instance is not subadditive at this size"):
            s_instance_adversary(bad)


class TestUniformRandomPolicy:
    def test_seed_reproducibility(self):
        g = AdditiveValuation((0.5, 0.3, 0.2))
        a = UniformRandomBidder(g, 7)
        b = UniformRandomBidder(g, 7)
        np.testing.assert_array_equal(a.draw(), b.draw())
        np.testing.assert_array_equal(a.draw(), b.draw())

    def test_mean_bid_is_half_weight(self):
        g = AdditiveValuation((0.5, 0.3, 0.2))
        pol = UniformRandomBidder(g, 11)
        draws = np.stack([pol.draw() for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0), np.asarray(g.weights) / 2, atol=5e-3)

    def test_draws_are_stacked_draw_calls(self):
        g = AdditiveValuation((0.5, 0.3, 0.2))
        a, b = UniformRandomBidder(g, 5), UniformRandomBidder(g, 5)
        np.testing.assert_array_equal(a.draws(1000), np.stack([b.draw() for _ in range(1000)]))
        np.testing.assert_array_equal(a.draws(3), np.stack([b.draw() for _ in range(3)]))  # streams stay in step

    def test_fork_is_independent_stream(self):
        g = AdditiveValuation((1.0,))
        a = UniformRandomBidder(g, 3)
        b = UniformRandomBidder(g, 4)
        assert a.draw() != b.draw()


def test_policies_never_overbid_item_value():
    # bidder policies stay below the per-item value; adversary policies stay
    # within the remaining budget
    m, x = 4, 0.35
    v = AdditiveValuation((1 / m,) * m)
    adv = alpha_tilde_adversary(m, x)
    out = simulate(v, xos_sqrt_policy(v, x), adv, budget=x)
    for winner, price in out.rounds:
        assert price <= 1 / m + 1e-12
