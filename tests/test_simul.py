import dataclasses
import math

import numpy as np
import pytest

from riskfree import simul
from riskfree.simul import (
    adversary_qp,
    best_response_profit,
    bidder_counter_to_pure,
    budget_split,
    deterministic_counter,
    exact_xos_expected_profit,
    expected_profit_uniform_random,
    optimal_counter_price,
    randomized_adversary,
    resolve,
    second_price_truthful_worst,
)
from riskfree.valuations import AdditiveValuation, XOSValuation

from oracles import exhaustive_best_response_split, qp_grid_search, scan_qp


def full_lattice(g, B, step):
    """Every lattice point at once: the O(1/step^2) form of ``qp_grid_search``."""
    axis = np.arange(0.0, 1.0 + step / 2, step)
    b1, b2 = np.meshgrid(axis, axis, indexing="ij")
    feasible = g[0] * b1 + g[1] * b2 <= B + 1e-12
    obj = 0.5 * (g[0] * (1.0 - b1) ** 2 + g[1] * (1.0 - b2) ** 2)
    return float(obj[feasible].min())


class TestResolve:
    def test_second_price_win_both(self):
        out = resolve(AdditiveValuation((0.5, 0.5)), (0.5, 0.5), (0.3, 0.2), "second")
        assert out.won_by_1 == (0, 1)
        assert out.bidder_paid == pytest.approx(0.5)
        assert out.profit == pytest.approx(0.5)

    def test_zero_bids_win_nothing(self):
        out = resolve(AdditiveValuation((0.5, 0.5)), (0.0, 0.0), (0.0, 0.0), "first")
        assert out.won_by_1 == ()
        assert out.profit == 0.0

    def test_truthful_gamma_star_floor(self):
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(200):
            m = int(rng.integers(2, 8))
            w = rng.random(m) + 1e-3
            v = XOSValuation([tuple(w / w.sum())])
            B = float(rng.uniform(0.05, 0.9))
            raw = rng.random(m)
            bids2 = raw / raw.sum() * B
            out = resolve(v, v.clauses[0].weights, bids2, "second")
            assert out.profit >= 1 - B - 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            resolve(AdditiveValuation((1.0,)), (0.1,), (0.1, 0.2))

    @pytest.mark.parametrize(
        "b1, b2",
        [((math.nan, 0.1), (0.2, 0.2)), ((0.3, 0.1), (0.2, math.nan)), ((math.inf, 0.1), (0.2, 0.2))],
        ids=["bidder-nan", "adversary-nan", "bidder-inf"],
    )
    def test_non_finite_bid_rejected(self, b1, b2):
        with pytest.raises(ValueError, match="finite"):
            resolve(AdditiveValuation((0.5, 0.5)), b1, b2, "first")

    @pytest.mark.parametrize("rule", ["first", "second"])
    @pytest.mark.parametrize(
        "b1, b2, whose",
        [
            ((-1.0, 0.2), (0.1, 0.1), "bidder bids must be non-negative"),
            ((0.3, 0.1), (-5.0, 0.2), "adversary bids must be non-negative"),
            ((0.3, -1e-300), (0.1, 0.1), "bidder bids must be non-negative"),
            ((0.3, 0.1), (0.2, math.nan), "adversary bids must be finite"),
            ((math.inf, 0.1), (0.2, 0.2), "bidder bids must be finite"),
        ],
        ids=["bidder-negative", "adversary-negative", "bidder-tiny-negative", "adversary-nan", "bidder-inf"],
    )
    def test_bad_bid_names_whose(self, b1, b2, whose, rule):
        with pytest.raises(ValueError, match=whose):
            resolve(AdditiveValuation((0.5, 0.5)), b1, b2, rule)


class TestExpectedProfit:
    def test_half_ratios(self):
        g = AdditiveValuation((0.5, 0.5))
        assert expected_profit_uniform_random(g, (0.5, 0.5)) == pytest.approx(0.125)

    def test_zero_and_one_ratios(self):
        g = AdditiveValuation((0.5, 0.5))
        assert expected_profit_uniform_random(g, (0.0, 0.0)) == pytest.approx(0.5)
        assert expected_profit_uniform_random(g, (1.0, 1.0)) == pytest.approx(0.0)

    def test_monte_carlo_cross_check(self):
        g = AdditiveValuation((0.5, 0.5))
        ratios = np.array([0.5, 0.5])
        rng = np.random.Generator(np.random.Philox(42))
        n = 10**6
        draws = rng.random((n, 2)) * np.asarray(g.weights)
        wins = draws > ratios * np.asarray(g.weights)
        profits = (np.asarray(g.weights) * wins).sum(axis=1) - (draws * wins).sum(axis=1)
        se = profits.std() / math.sqrt(n)
        assert abs(profits.mean() - 0.125) <= 3 * se

    def test_exact_xos_matches_surrogate_for_additive(self):
        v = XOSValuation([(0.5, 0.5)])
        for ratios in ((0.5, 0.5), (0.2, 0.9), (0.0, 1.0)):
            exact = exact_xos_expected_profit(v, ratios)
            surrogate = expected_profit_uniform_random(v.clauses[0], ratios)
            assert exact == pytest.approx(surrogate, abs=1e-12)

    def test_exact_xos_dominates_surrogate(self):
        rng = np.random.Generator(np.random.Philox(8))
        for _ in range(20):
            m = int(rng.integers(2, 7))
            clauses = [tuple(rng.random(m)) for _ in range(3)]
            v = XOSValuation(clauses)
            from riskfree.valuations import gamma_star

            ratios = rng.random(m)
            exact = exact_xos_expected_profit(v, ratios)
            surrogate = expected_profit_uniform_random(gamma_star(v), ratios)
            assert exact >= surrogate - 1e-9


class TestQP:
    def test_uniform_half(self):
        sol = adversary_qp(AdditiveValuation((0.5, 0.5)), 0.5)
        assert sol.value == pytest.approx(0.125)
        np.testing.assert_allclose(sol.ratios, (0.5, 0.5))
        assert sol.dual[-1] == pytest.approx(0.5)

    def test_small_budget_limit(self):
        sol = adversary_qp(AdditiveValuation((0.3, 0.7)), 0.001)
        assert sol.value == pytest.approx(0.5 * 0.999**2, abs=1e-12)

    def test_skewed_weights_match_lattice(self):
        sol = adversary_qp(AdditiveValuation((0.9, 0.1)), 0.25)
        assert sol.value == pytest.approx(0.28125)
        lattice = qp_grid_search(np.array([0.9, 0.1]), 0.25)
        assert abs(lattice - sol.value) <= 1e-4

    # at step 2/87 the last lattice point passes 1, and its objective
    # rounds above that of the point before it
    @pytest.mark.parametrize("step", [0.001, 0.01, 0.05, 2 / 87])
    def test_lattice_oracle_matches_the_full_lattice(self, step):
        rng = np.random.Generator(np.random.Philox(21))
        axis = np.arange(0.0, 1.0 + step / 2, step)
        for trial in range(12):
            w = rng.random(2) + 0.05
            if trial == 0:
                w[1] = 0.0
            g = w / w.sum()
            on_lattice = float(g[0] * axis[rng.integers(len(axis))] + g[1] * axis[rng.integers(len(axis))])
            for B in (on_lattice, float(rng.uniform(0.0, 1.0)), 1.0):
                assert qp_grid_search(g, B, step) == full_lattice(g, B, step)

    def test_lattice_oracle_on_the_feasibility_boundary(self):
        # budgets within two ulps of putting the boundary of the feasibility
        # test (slack 1e-12 included) on a diagonal lattice point, where the
        # searchsorted estimate is off by one in either direction
        rng = np.random.Generator(np.random.Philox(22))
        step = 0.05
        axis = np.arange(0.0, 1.0 + step / 2, step)
        for _ in range(20):
            w = rng.random(2) + 0.05
            g = w / w.sum()
            for a in axis[1:]:
                edge = float(g[0] * a + g[1] * a) - 1e-12
                for ulps in range(-2, 3):
                    B = edge + ulps * math.ulp(edge)
                    assert qp_grid_search(g, B, step) == full_lattice(g, B, step)

    @pytest.mark.parametrize("g", [(-0.1, 1.1), (0.5, float("nan"))])
    def test_lattice_oracle_needs_non_negative_weights(self, g):
        with pytest.raises(ValueError, match="non-negative"):
            qp_grid_search(np.array(g), 0.3)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            adversary_qp(AdditiveValuation((0.9, 0.2)), 0.25)

    def test_exact_oracle_matches_the_closed_form(self):
        rng = np.random.Generator(np.random.Philox(23))
        for m in range(1, 9):
            for _ in range(5):
                w = rng.random(m) + 0.05
                g = w / w.sum()
                for B in np.arange(0.05, 1.0, 0.05):
                    sol = adversary_qp(AdditiveValuation(tuple(g)), float(B))
                    b, value = scan_qp(g, float(B))
                    assert abs(value - sol.value) <= 1e-15
                    assert float(g @ b) <= B + 1e-12

    def test_exact_oracle_beats_sampled_feasible_points(self):
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(50):
            m = int(rng.integers(1, 6))
            g = rng.random(m) * float(rng.uniform(0.2, 3.0))
            B = float(rng.uniform(0.0, 1.2 * g.sum()))
            b, value = scan_qp(g, B)
            assert np.all((b >= 0.0) & (b <= 1.0)) and float(g @ b) <= B + 1e-12
            pts = rng.uniform(0, 1, (4000, m))
            pts = pts[pts @ g <= B]
            if len(pts):
                sampled = np.min(np.sum(g * 0.5 * (1.0 - pts) ** 2, axis=1))
                assert value <= sampled + 1e-12

    def test_exact_oracle_at_the_budget_ends(self):
        g = np.array([0.7, 0.2, 0.6])
        b, value = scan_qp(g, 0.0)
        assert np.all(b == 0.0) and value == pytest.approx(float(g.sum()) / 2, abs=1e-15)
        for B in (float(g.sum()), 2.0 * float(g.sum())):
            b, value = scan_qp(g, B)
            assert np.all(b == 1.0) and value == 0.0

    def test_exact_oracle_takes_unnormalized_weights(self):
        # multiplier theta = 3/4 puts every ratio at 1/4, spending 6/4 = B
        b, value = scan_qp((2.0, 1.0, 3.0), 1.5)
        np.testing.assert_allclose(b, 0.25, atol=1e-15)
        assert value == pytest.approx(0.5 * 6.0 * 0.75**2, abs=1e-14)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(ratios=(0.3 + 1e-6,) * 3), "infeasible"),
            (dict(ratios=(0.3 - 1e-6,) * 3), "not stationary"),
            (dict(dual=(0.0,) * 6 + (0.7 + 1e-6,)), "not stationary"),
            (dict(dual=(-1e-6,) + (0.0,) * 5 + (0.7,)), "wrong sign"),
            (dict(value=0.245 + 1e-6), "value"),
        ],
        ids=["ratios-up", "ratios-down", "budget-multiplier", "negative-multiplier", "value"],
    )
    def test_kkt_check_rejects_perturbed_solution(self, change, message):
        g = np.array([0.45, 0.35, 0.2])
        sol = adversary_qp(AdditiveValuation(tuple(g)), 0.3)
        simul._check_kkt(g, 0.3, sol)
        with pytest.raises(ArithmeticError, match=message):
            simul._check_kkt(g, 0.3, dataclasses.replace(sol, **change))

    def test_value_lower_bounds_random_feasible_vectors(self):
        rng = np.random.Generator(np.random.Philox(19))
        g = AdditiveValuation((0.4, 0.35, 0.25))
        B = 0.3
        sol = adversary_qp(g, B)
        gw = np.asarray(g.weights)
        worst = math.inf
        for _ in range(10**4):
            raw = rng.random(3)
            b = np.clip(raw * B / float(gw @ raw), 0.0, 1.0)
            worst = min(worst, expected_profit_uniform_random(g, b))
        assert worst >= sol.value - 1e-9

    def test_beats_sqrt_bound_beyond_threshold(self):
        for B in np.arange(3 - 2 * math.sqrt(2) + 1e-3, 1.0, 0.01):
            assert 0.5 * (1 - B) ** 2 > (1 - math.sqrt(B)) ** 2


class TestDeterministicCounter:
    def test_uniform_bids_example(self):
        plan = deterministic_counter((0.1, 0.1, 0.1, 0.1), 0.25)
        assert plan.k_star == 2
        assert plan.p_star == pytest.approx(0.1)
        assert plan.realized == pytest.approx(0.3)
        assert plan.bound == pytest.approx(0.375)

    def test_optimal_price_maximizes_bound(self):
        m, B = 50, 0.25
        p_star = optimal_counter_price(m, B)
        bound = (m - B / p_star + 1) * (1 / m - p_star)
        for p in np.linspace(0.5 * p_star, 2 * p_star, 101):
            assert (m - B / p + 1) * (1 / m - p) <= bound + 1e-12

    def test_bound_near_sqrt_value_at_scale(self):
        m, B = 10**4, 0.25
        p_star = optimal_counter_price(m, B)
        bound = (m - B / p_star + 1) * (1 / m - p_star)
        assert abs(bound - (1 - math.sqrt(B)) ** 2) < 0.02

    def test_input_validation(self):
        with pytest.raises(ValueError):
            deterministic_counter((0.2, 0.1), 0.3)  # not sorted
        with pytest.raises(ValueError):
            deterministic_counter((0.0, 0.0), 0.3)  # all-zero

    def test_affordable_everything(self):
        plan = deterministic_counter((0.01, 0.01), 0.5)
        assert plan.k_star == 2 and plan.p_star is None
        assert plan.realized == pytest.approx(0.0)


class TestRandomizedAdversary:
    def test_split_values(self):
        s = budget_split(0.1)
        assert (s.w1, s.w2, s.regime) == (pytest.approx(0.2), pytest.approx(0.0), "low")
        s = budget_split(0.4)
        assert (s.w1, s.w2, s.regime) == (pytest.approx(0.6), pytest.approx(0.2), "high")

    def test_bid_mass_equals_budget(self):
        for B in (0.05, 0.25, 0.7):
            bids = randomized_adversary(8, B, seed=5)
            assert float(bids.sum()) == pytest.approx(B, abs=1e-12)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            randomized_adversary(5, 0.3, seed=0)

    @pytest.mark.parametrize("m", [0, -2])
    def test_item_count_below_one_rejected(self, m):
        with pytest.raises(ValueError, match=f"m must be .*got {m}"):
            randomized_adversary(m, 0.3, seed=1)
        with pytest.raises(ValueError, match=f"m must be at least 1, got {m}"):
            optimal_counter_price(m, 0.3)

    @pytest.mark.parametrize("m", [0, -2])
    def test_best_response_rejects_the_item_counts_the_adversary_does(self, m):
        with pytest.raises(ValueError, match=f"m must be a positive even number, got {m}"):
            best_response_profit(m, 0.3)

    def test_seed_determinism(self):
        a = randomized_adversary(10, 0.3, seed=7)
        b = randomized_adversary(10, 0.3, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_best_response_closed_form(self):
        assert best_response_profit(8, 0.1) == pytest.approx(0.8)
        assert best_response_profit(8, 0.4) == pytest.approx(2 / 3 * 0.6)

    def test_exhaustive_matches_closed_form(self):
        for m in (4, 8, 12):
            for B in np.arange(0.05, 1.0, 0.05):
                got, _ = exhaustive_best_response_split(m, float(B))
                assert got == pytest.approx(best_response_profit(m, float(B)), abs=1e-12)


class TestCounterToPure:
    def test_zero_adversary(self):
        v = XOSValuation([(0.5, 0.5)])
        bids1, profit = bidder_counter_to_pure(v, (0.0, 0.0))
        assert profit == pytest.approx(1.0)

    def test_partial_block(self):
        v = XOSValuation([(0.5, 0.5)])
        bids1, profit = bidder_counter_to_pure(v, (0.6, 0.2))
        np.testing.assert_allclose(bids1, [0.0, 0.2])
        assert profit == pytest.approx(0.3)
        assert profit >= 1 - 0.8 - 1e-12

    def test_floor_on_random_vectors(self):
        rng = np.random.Generator(np.random.Philox(29))
        for _ in range(300):
            m = int(rng.integers(2, 9))
            w = rng.random(m) + 1e-3
            v = XOSValuation([tuple(w / w.sum())])
            B = float(rng.uniform(0.05, 0.95))
            raw = rng.random(m)
            bids2 = raw / raw.sum() * B
            _, profit = bidder_counter_to_pure(v, bids2)
            assert profit >= 1 - B - 1e-9

    @pytest.mark.parametrize("bids2", [(math.nan, 0.2), (0.1, math.inf), (0.1,), (-0.1, 0.2)],
                             ids=["nan", "inf", "short", "negative"])
    def test_bad_bids_rejected(self, bids2):
        with pytest.raises(ValueError):
            bidder_counter_to_pure(XOSValuation([(0.5, 0.5)]), bids2)


def test_second_price_truthful_worst_floor():
    rng = np.random.Generator(np.random.Philox(37))
    for _ in range(25):
        m = int(rng.integers(2, 10))
        clauses = [tuple(rng.random(m)) for _ in range(int(rng.integers(1, 4)))]
        w = rng.random(m) + 1e-3
        clauses.append(tuple(w / w.sum()))
        v = XOSValuation(clauses)
        B = float(rng.uniform(0.05, 0.9))
        worst, _ = second_price_truthful_worst(v, B)
        assert worst >= 1 - B - 1e-9


@pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf, -0.1], ids=["nan", "inf", "-inf", "negative"])
def test_second_price_truthful_worst_bad_budget_rejected(B):
    with pytest.raises(ValueError, match="finite and non-negative"):
        second_price_truthful_worst(XOSValuation([(0.5, 0.5)]), B)


@pytest.mark.parametrize(
    "ratios",
    [(math.nan, 0.5), (0.5, math.inf), (1.5, 0.5), (0.5, -0.1), (0.5,), (0.5, 0.5, 0.5)],
    ids=["nan", "inf", "above-1", "below-0", "short", "long"],
)
def test_exact_xos_expected_profit_bad_ratios_rejected(ratios):
    with pytest.raises(ValueError):
        exact_xos_expected_profit(XOSValuation([(0.5, 0.5), (0.7, 0.1)]), ratios)


@pytest.mark.parametrize(
    "call",
    [
        lambda: deterministic_counter([0.1, 0.2], math.nan),
        lambda: deterministic_counter([0.1, 0.2], -0.1),
        lambda: deterministic_counter([math.nan, 0.2], 0.3),
        lambda: optimal_counter_price(4, math.nan),
        lambda: optimal_counter_price(4, -1.0),
        lambda: expected_profit_uniform_random(AdditiveValuation((0.5, 0.5)), [math.nan, 0.2]),
        lambda: expected_profit_uniform_random(AdditiveValuation((0.5, 0.5)), [0.2]),
    ],
    ids=[
        "counter-nan-budget", "counter-negative-budget", "counter-nan-bid",
        "counter_price-nan", "counter_price-negative",
        "uniform_random-nan-ratio", "uniform_random-short",
    ],
)
def test_closed_forms_reject_out_of_domain_input(call):
    with pytest.raises(ValueError, match="budget|bids|ratios"):
        call()


def test_best_response_profit_shares_the_oracle_domain():
    for B in (math.nan, 1.5, -0.5, 0.0):
        with pytest.raises(ValueError, match=r"B must lie in \(0, 1\)"):
            exhaustive_best_response_split(4, B)
        with pytest.raises(ValueError, match=r"B must lie in \(0, 1\)"):
            best_response_profit(4, B)
