import bisect
import dataclasses
import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from oracles import alpha_params, cross_oracle

from riskfree import analysis, cli, pwl, seq
from riskfree.errors import ContractViolationError, PolicyContractError, StateSpaceError
from riskfree.pwl import PiecewiseLinear
from riskfree.seq import (
    SeqGameState,
    best_response_to_fixed_bids,
    equalization_alpha,
    g_h,
    simulate,
    solve_discretized,
    uniform_additive_value,
)
from riskfree.simul import best_response_profit, optimal_counter_price, randomized_adversary
from riskfree.strategies import (
    FixedBidsPolicy,
    alpha_tilde_adversary,
    constant_price_policy,
    high_budget_policy,
    tangent_peak,
    tangent_value,
)
from riskfree.valuations import (
    AdditiveValuation,
    SubadditiveIdenticalValuation,
    XOSValuation,
    make_s_instance,
    random_subadditive_identical,
    s_instance_params,
)


def uniform(m):
    return AdditiveValuation((1.0 / m,) * m)


class TestUniformAdditiveValue:
    def test_one_item(self):
        f1 = uniform_additive_value(1)
        np.testing.assert_allclose(f1.xs, [0.0, 1.0])
        np.testing.assert_allclose(f1.ys, [1.0, 0.0])

    def test_two_items_table(self):
        f2 = uniform_additive_value(2)
        np.testing.assert_allclose(f2.xs, [0.0, 0.25, 0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(f2.ys, [1.0, 0.5, 0.25, 0.0], atol=1e-12)

    def test_three_items_breakpoints_exact(self):
        f3 = uniform_additive_value(3)
        expect = [0.0, 1 / 9, 1 / 6, 1 / 3, 5 / 9, 2 / 3, 1.0]
        np.testing.assert_allclose(f3.xs, expect, atol=1e-12)

    def test_three_items_branch_values(self):
        f3 = uniform_additive_value(3)
        assert f3(0.25) == pytest.approx(7 / 9 - 1 / 3, abs=1e-12)
        assert f3(0.6) == pytest.approx(4 / 9 - 0.3, abs=1e-12)

    def test_low_budget_branch_exact(self):
        for m in (2, 3, 7, 15):
            fm = uniform_additive_value(m)
            for x in np.linspace(1e-9, 0.999 / m**2, 9):
                assert fm(x) == pytest.approx(1 - m * x, abs=1e-10)

    def test_high_budget_branch_exact(self):
        for m in (2, 3, 7, 15):
            fm = uniform_additive_value(m)
            for x in np.linspace((m - 1) / m + 1e-9, 1.0, 9):
                assert fm(x) == pytest.approx((1 - x) / m, abs=1e-10)

    def test_non_increasing_and_anchors(self):
        for m in (1, 2, 5, 12, 25):
            fm = uniform_additive_value(m)
            assert np.all(np.diff(fm.ys) <= 1e-12)
            assert fm(0.0) == pytest.approx(1.0, abs=1e-12)
            assert fm(1.0) == pytest.approx(0.0, abs=1e-10)
            assert fm(1.7) == pytest.approx(0.0, abs=1e-10)

    def test_matches_min_max_over_alpha_grid(self):
        # independent check of the recursion: brute-force the inner
        # min over alpha on a fine grid and compare
        for m, x in ((2, 0.3), (3, 0.22), (4, 0.4), (5, 0.11)):
            alphas = np.linspace(0.0, min(1.0, m * x), 4001)
            grid_min = min(max(g_h(m, x, float(a))) for a in alphas)
            fm = uniform_additive_value(m)
            # the grid minimum can only overshoot, by at most slope * spacing
            assert fm(x) <= grid_min + 1e-12
            assert fm(x) >= grid_min - 2e-3


class TestGH:
    def test_alpha_zero(self):
        g, h = g_h(2, 0.3, 0.0)
        assert (g, h) == (pytest.approx(0.7), pytest.approx(0.2))

    def test_equalizing_alpha(self):
        g, h = g_h(2, 0.3, 0.5)
        assert g == pytest.approx(0.45) and h == pytest.approx(0.45)

    def test_alpha_zero_always_g_above_h(self):
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(100):
            m = int(rng.integers(2, 15))
            x = float(rng.uniform(0, 1.2))
            g, h = g_h(m, x, 0.0)
            assert g >= h - 1e-12

    def test_infeasible_alpha_raises(self):
        with pytest.raises(ContractViolationError):
            g_h(2, 0.1, 0.5)  # alpha > m x = 0.2

    @pytest.mark.parametrize("x, alpha", [(math.nan, 0.0), (math.inf, 0.0), (0.3, math.nan)])
    def test_non_finite_input_rejected(self, x, alpha):
        with pytest.raises(ValueError, match="finite"):
            g_h(5, x, alpha)
        if math.isfinite(alpha):
            with pytest.raises(ValueError, match="finite"):
                equalization_alpha(5, x)

    def test_arrays_match_scalar_calls(self):
        # the xos gh sweep reads g and h through the array form
        rng = np.random.Generator(np.random.Philox(12))
        for m in (2, 5, 17):
            xs = rng.uniform(0.0, 1.2, 64)
            alphas = rng.random(64) * np.minimum(1.0, m * xs)
            g, h = seq._g_h_at(seq.LADDER.level(m - 1), m, xs, alphas)
            want = [g_h(m, float(x), float(a)) for x, a in zip(xs, alphas)]
            assert g.tolist() == [w[0] for w in want]
            assert h.tolist() == [w[1] for w in want]


class TestAlphaParams:
    def test_quarter(self):
        p = alpha_params(2, 0.25)
        assert p.alpha_tilde == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        assert p.alpha_max == pytest.approx(0.5)
        assert p.intermediate

    def test_half(self):
        # direct arithmetic: 1 - 4(1 - sqrt(1/2)) + 2 sqrt(2) (1 - sqrt(1/2))
        p = alpha_params(2, 0.5)
        hand = 1 - 4 * (1 - math.sqrt(0.5)) + 2 * math.sqrt(2) * (1 - math.sqrt(0.5))
        assert p.alpha_tilde == pytest.approx(hand, abs=1e-12)
        assert p.alpha_tilde == pytest.approx(0.6568542494923804, abs=1e-12)
        assert p.alpha_max == pytest.approx(1.0)

    def test_budget_one(self):
        for m in (2, 5, 9):
            assert alpha_params(m, 1.0).alpha_tilde == pytest.approx(1.0, abs=1e-12)

    def test_feasible_on_intermediate_interval(self):
        for m in range(2, 31):
            for x in np.linspace(1 / m**2, (m - 1) / m, 50):
                p = alpha_params(m, float(x))
                assert -1e-9 <= p.alpha_tilde <= p.alpha_max + 1e-9

    def test_array_form_matches_the_scalar_formula_bitwise(self):
        for m in (2, 3, 7, 30):
            xs = np.linspace(0.0, 1.2, 61)
            at = seq.alpha_tilde(m, xs)
            for x, got in zip(xs.tolist(), at.tolist()):
                one_minus = 1.0 - math.sqrt(x)
                want = 1.0 - 2.0 * m * one_minus + 2.0 * math.sqrt(m * (m - 1.0)) * one_minus
                p = alpha_params(m, x)
                assert type(p.alpha_tilde) is float
                assert got == want == p.alpha_tilde, (m, x)

    def test_scalar_branch_matches_the_array_branch_bitwise(self):
        xs = np.concatenate((np.linspace(0.0, 1.2, 61), [1e-300, 0.3, 2.0, 7.0]))
        for m in (2, 3, 7, 30, 199):
            at = seq.alpha_tilde(m, xs)
            for x, want in zip(xs.tolist(), at.tolist()):
                for arg in (x, np.float64(x)):
                    got = seq.alpha_tilde(m, arg)
                    assert type(got) is float and got == want, (m, arg)
            for k in (0, 1, 2):
                assert seq.alpha_tilde(m, k) == seq.alpha_tilde(m, np.array([float(k)]))[0]

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -0.1, -1e-300, -1, np.float64(-0.5), np.float64(math.nan)])
    def test_bad_scalar_budget_rejected(self, x):
        with pytest.raises(ValueError, match="finite budgets"):
            seq.alpha_tilde(5, x)
        with pytest.raises(ValueError, match="finite budgets"):
            seq.alpha_tilde(5, np.array([0.5, x]))


def typed_fields(obj):
    """``(type, value)`` of each field of a dataclass, of each entry of a
    tuple, or of a plain value."""
    if dataclasses.is_dataclass(obj):
        values = dataclasses.astuple(obj)
    else:
        values = obj if isinstance(obj, tuple) else (obj,)
    return [(type(v), v) for v in values]


@pytest.mark.parametrize(
    "build, m",
    [
        (lambda m: s_instance_params(0.1, m), 50),
        (lambda m: seq.alpha_tilde(m, 0.3), 3),
        (lambda m: high_budget_policy(m, 0.9), 3),
        (lambda m: alpha_tilde_adversary(m, 0.3), 3),
        (lambda m: optimal_counter_price(m, 0.3), 3),
        (lambda k: tangent_value(k, 0.3), 3),
        (lambda k: constant_price_policy(make_s_instance(0.1, 20)[0], 0.3, k)[1], 3),
        (lambda m: best_response_profit(m, 0.3), 4),
        (lambda m: tuple(randomized_adversary(m, 0.3, 0).tolist()), 4),
        (lambda m: analysis.table_A(m, 0.3), 2),
        (lambda j: tangent_peak(0.3, j), 5),
        (lambda m: random_subadditive_identical(m, np.random.Generator(np.random.Philox(4))).table, 6),
    ],
    ids=["s_instance_params", "alpha_tilde", "high_budget_policy", "alpha_tilde_adversary", "optimal_counter_price",
         "tangent_value", "constant_price_policy", "best_response_profit", "randomized_adversary", "table_A",
         "tangent_peak", "random_subadditive_identical"],
)
def test_item_counts_go_through_operator_index(build, m):
    for bad in (2.5, 3.0, float(m)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(bad)
    # a numpy integer gives the same fields as the int, of the same types
    assert typed_fields(build(np.int64(m))) == typed_fields(build(m))


@pytest.mark.parametrize(
    "build",
    [lambda n: tangent_value(n, 0.3), lambda n: s_instance_params(0.1, n), lambda n: seq.Ladder().stream(n)],
    ids=["tangent_value", "s_instance_params", "Ladder.stream"],
)
@pytest.mark.parametrize("bad", [True, False])
def test_a_bool_count_is_rejected(build, bad):
    with pytest.raises(TypeError, match="not a bool"):
        build(bad)


def test_a_built_level_is_read_at_a_bool_m():
    # Ladder.level's lock-free read takes m through operator.index alone
    assert seq.LADDER.level(True) is seq.LADDER.level(1)


class TestEqualization:
    @pytest.mark.parametrize("x", [-0.1, -1e-300, -math.inf])
    def test_negative_budget_rejected(self, x):
        with pytest.raises(ValueError, match="non-negative"):
            equalization_alpha(5, x)

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_zero_budget(self, x):
        assert equalization_alpha(5, x) == (0.0, 1.0)

    def test_two_item_interior_crossing(self):
        alpha, val = equalization_alpha(2, 0.3)
        assert alpha == pytest.approx(0.5, abs=1e-12)
        assert val == pytest.approx(0.45, abs=1e-12)

    def test_matches_value_function(self):
        for m in (2, 3, 5, 8, 18, 31):
            fm = uniform_additive_value(m)
            for x in np.linspace(0.01, 0.99, 23):
                _, val = equalization_alpha(m, float(x))
                assert val == pytest.approx(fm(float(x)), abs=1e-9)

    def test_low_budget_endpoint(self):
        # no interior crossing below 1/m^2: optimum sits at alpha_max
        alpha, val = equalization_alpha(2, 0.1)
        assert alpha == pytest.approx(0.2, abs=1e-12)
        assert val == pytest.approx(0.8, abs=1e-12)

    @staticmethod
    def solve_equal_oracle(m, x):
        """The crossing of g and h by the general solver on the union grid."""
        alpha_max = min(1.0, m * x)
        fp = seq.LADDER.level(m - 1)
        r = (m - 1.0) / m
        g0 = 1.0 / m + r * fp(m * x / (m - 1.0))
        if alpha_max <= 0.0:
            return 0.0, g0
        g_line = PiecewiseLinear([0.0, alpha_max], [g0, g0 - alpha_max / m])
        h_curve = fp.affine(r, -1.0 / (m - 1.0), m * x / (m - 1.0), 0.0)
        crossing = pwl.solve_equal(g_line, h_curve, 0.0, alpha_max)
        if crossing is None:
            return alpha_max, g0 - alpha_max / m
        return crossing, float(g_line(crossing))

    def test_matches_solve_equal_oracle(self):
        rng = np.random.Generator(np.random.Philox(4))
        for m in (*range(2, 18), 18, 31, 39):
            edges = (0.0, 0.5 / m**2, 1.0 / m**2, (m - 1.0) / m, 1.0, 1.1)
            for x in (*edges, *rng.uniform(0.0, 1.2, 12)):
                alpha, val = equalization_alpha(m, float(x))
                want_alpha, want_val = self.solve_equal_oracle(m, float(x))
                assert alpha == pytest.approx(want_alpha, abs=1e-9), (m, x)
                assert val == pytest.approx(want_val, abs=1e-12), (m, x)


def bisect_equalization_alpha(m, x):
    """``equalization_alpha`` as it bracketed the crossing before the cached
    key: a ``bisect`` over f_{m-1}'s breakpoints keyed by ``xs[k] - ys[k]``,
    finished on numpy scalars.  The oracle for bit-identity."""
    alpha_max = min(1.0, m * x)
    fp = uniform_additive_value(m - 1)
    r = (m - 1.0) / m
    g0 = 1.0 / m + r * fp(m * x / (m - 1.0))
    if alpha_max <= 0.0:
        return 0.0, g0
    g_end = g0 - alpha_max / m
    if g_end - r * fp((m * x - alpha_max) / (m - 1.0)) >= -seq._TOL:
        return alpha_max, g_end
    c = (g0 - x) / r
    xs, ys = fp.xs, fp.ys
    i = bisect.bisect_left(range(len(xs)), -c, key=lambda k: xs[k] - ys[k])
    if i == 0 or i == len(xs):
        u = float(ys[min(i, len(xs) - 1)]) - c
    else:
        phi0, phi1 = ys[i - 1] - xs[i - 1], ys[i] - xs[i]
        u = float(xs[i - 1] + (phi0 - c) / (phi0 - phi1) * (xs[i] - xs[i - 1]))
    alpha = min(max(m * x - (m - 1.0) * u, 0.0), alpha_max)
    return alpha, g0 - alpha / m


def regime_budget(m, regime, u):
    """A budget at fraction u of the low [0, 1/m^2], intermediate or high
    [(m-1)/m, 1.2] regime of A_m."""
    lo, hi = 1.0 / m**2, (m - 1.0) / m
    return {"low": u * lo, "intermediate": lo + u * (hi - lo), "high": hi + u * (1.2 - hi)}[regime]


def as_hex(pair):
    return tuple(float(v).hex() for v in pair)


@settings(max_examples=300, deadline=None)
@given(m=hst.integers(2, 39), regime=hst.sampled_from(["low", "intermediate", "high"]), u=hst.floats(0.0, 1.0))
@example(m=2, regime="high", u=0.0)
@example(m=39, regime="low", u=1.0)
@example(m=17, regime="intermediate", u=0.5)
def test_equalization_matches_the_bisect_bit_for_bit(m, regime, u):
    x = regime_budget(m, regime, u)
    got = equalization_alpha(m, x)
    assert all(type(v) is float for v in got)
    assert as_hex(got) == as_hex(bisect_equalization_alpha(m, x)), (m, x)


def test_equalization_matches_the_bisect_at_every_level():
    rng = np.random.Generator(np.random.Philox(21))
    for m in range(2, 40):
        for regime in ("low", "intermediate", "high"):
            for u in (0.0, 1.0, *rng.random(6)):
                x = regime_budget(m, regime, float(u))
                assert as_hex(equalization_alpha(m, x)) == as_hex(bisect_equalization_alpha(m, x)), (m, x)


class TestCrossingKeys:
    def test_key_is_the_sorted_read_only_phi(self):
        for m in range(1, 40):
            fm, key = seq.LADDER.crossing(m)
            assert fm is uniform_additive_value(m)
            np.testing.assert_array_equal(key, fm.xs - fm.ys)
            assert np.all(np.diff(key) >= 0.0), m
            assert not key.flags.writeable
            assert seq.LADDER.crossing(m)[1] is key  # built with the level, then kept

    def test_every_cached_level_has_its_key_and_stream_caches_none(self, monkeypatch):
        entry, keyed = seq._entry, []
        monkeypatch.setattr(seq, "_entry", lambda fm, rec: keyed.append(rec.m) or entry(fm, rec))
        ladder = seq.Ladder()
        for _ in ladder.stream(16):
            pass
        assert len(ladder) == 1 and keyed == [1]
        ladder.levels(12)
        assert keyed == list(range(1, 13))
        for m, (fm, rec, key) in enumerate(ladder._built, start=1):
            got_fm, got_key = ladder.crossing(m)
            assert rec.m == m and got_fm is fm and got_key is key
            np.testing.assert_array_equal(key, fm.xs - fm.ys)
            assert not key.flags.writeable
        for _ in ladder.stream(16):
            pass
        assert len(ladder) == 12 and keyed == list(range(1, 13))

    def test_first_crossing_reads_on_two_threads_agree(self, monkeypatch):
        m = 20
        fresh = seq.Ladder()  # both threads' first reads build the levels
        monkeypatch.setattr(seq, "LADDER", fresh)
        budgets = [regime_budget(m, regime, u) for regime in ("low", "high") for u in np.linspace(0.0, 1.0, 15)]
        start = threading.Barrier(2)
        results = [None, None]

        def work(i):
            start.wait()
            results[i] = [equalization_alpha(m, x) for x in budgets]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(fresh) == m - 1
        want = [as_hex(bisect_equalization_alpha(m, x)) for x in budgets]
        for got in results:
            assert [as_hex(pair) for pair in got] == want


def game_tree_reference(v, B, delta, price_rule, leader):
    """The grid game of ``solve_discretized`` by memoised recursion over
    (round, won, budget units): won is an item count for symmetric
    valuations, else a mask."""
    m, n_max = v.m, round(1.0 / delta)
    symmetric = seq._is_symmetric(v)
    final = [v.value(range(k)) for k in range(m + 1)] if symmetric else v.values_all().tolist()

    @functools.cache
    def val(t, won, bu):
        if t == m:
            return final[won]
        next_won = won + 1 if symmetric else won | (1 << t)
        if leader == "adversary":
            return min(
                max(val(t + 1, next_won, bu) - (a + (price_rule == "first")) * delta,
                    val(t + 1, won, bu - a))
                for a in range(bu + 1)
            )
        best = -math.inf
        for bid in range(n_max + 1):
            # under second price a losing adversary is drained by bid - 1
            # units, or by all he has left
            pay = bid if price_rule == "first" else min(bid - 1, bu) if bid else 0
            options = [val(t + 1, next_won, bu) - pay * delta]
            if bid <= bu:
                options.append(val(t + 1, won, bu - bid))
            best = max(best, min(options))
        return best

    return float(val(0, 0, math.floor(B / delta + 1e-9)))


#: Count states (uniform additive, identical-item table) and mask states
#: (distinct additive weights, XOS) at m <= 3.
ORACLE_VALUATIONS = {
    "one_item": uniform(1),
    "uniform3": uniform(3),
    "additive3": AdditiveValuation((0.5, 0.3, 0.2)),
    "xos2": XOSValuation([(0.7, 0.3), (0.2, 0.8)]),
    "xos3": XOSValuation([(0.5, 0.3, 0.2), (0.1, 0.3, 0.6), (0.3, 0.35, 0.3)]),
    "table2": SubadditiveIdenticalValuation([0.0, 0.7, 1.0]),
    "table3": SubadditiveIdenticalValuation([0.0, 0.5, 0.8, 1.0]),
}


class TestOracle:
    def test_two_items_first_price(self):
        val = solve_discretized(uniform(2), 0.3, 0.001, "first")
        assert abs(val - 0.45) <= 0.01

    def test_one_item(self):
        val = solve_discretized(uniform(1), 0.5, 0.001)
        assert abs(val - 0.5) <= 0.002

    def test_budget_above_one(self):
        assert solve_discretized(uniform(2), 1.0, 0.01) == pytest.approx(0.0, abs=1e-12)

    def test_leader_order_equivalence(self):
        # the min-max the oracle solves is the max-min where the bidder leads
        for m in (2, 3, 4):
            for B in (0.15, 0.3, 0.55, 0.8):
                got = solve_discretized(uniform(m), B, 0.05, "first")
                assert got == game_tree_reference(uniform(m), B, 0.05, "first", "bidder"), (m, B)

    def test_convergence_toward_exact(self):
        for m, B in ((2, 0.3), (3, 0.22)):
            exact = uniform_additive_value(m)(B)
            errs = [abs(solve_discretized(uniform(m), B, d) - exact) for d in (1e-2, 1e-3)]
            assert errs[1] <= errs[0]

    @pytest.mark.parametrize("v", ORACLE_VALUATIONS.values(), ids=ORACLE_VALUATIONS.keys())
    def test_second_price_close_to_first(self, v):
        # the two rules' games differ only in the tick a winning bidder pays
        # above the adversary's bid under first price: at most one per round
        for delta in (0.05, 0.1):
            for B in (0.0, 0.04, 0.15, 0.5, 0.95, v.m + 0.3):
                first = solve_discretized(v, B, delta, "first")
                second = solve_discretized(v, B, delta, "second")
                assert 0.0 <= second - first <= v.m * delta + 1e-12, (delta, B)

    def test_m_cap(self):
        with pytest.raises(ValueError):
            solve_discretized(uniform(7), 0.3, 0.01)

    def test_state_space_cap(self):
        # 6 rounds * 64 masks * 1001 budget units * 1001 bids exceeds the cap
        xos = XOSValuation([(0.3, 0.1, 0.2, 0.1, 0.2, 0.1), (0.1,) * 6])
        with pytest.raises(StateSpaceError):
            solve_discretized(xos, 1.0, 0.001)

    @pytest.mark.parametrize(
        "B, delta, error",
        [(-0.5, 0.01, ValueError), (-1e-300, 0.01, ValueError), (math.nan, 0.01, ValueError),
         (math.inf, 0.01, ValueError), (0.3, -1.0, ValueError), (0.3, 0.0, ValueError),
         (0.3, math.nan, ValueError), (0.3, math.inf, ValueError), (0.3, 1.5, ValueError),
         # 1 / delta and B / delta overflow a float: the grid is too large, not an int
         (0.3, 5e-324, ValueError), (1e308, 0.5, StateSpaceError)],
    )
    def test_out_of_domain_input_rejected(self, B, delta, error):
        with pytest.raises(error):
            solve_discretized(uniform(2), B, delta)

    @pytest.mark.parametrize("leader", ["adversary", "bidder"])
    @pytest.mark.parametrize("price_rule", ["first", "second"])
    @pytest.mark.parametrize("v", ORACLE_VALUATIONS.values(), ids=ORACLE_VALUATIONS.keys())
    def test_matches_the_game_tree_recursion(self, v, price_rule, leader):
        # one order suffices: the oracle equals the recursion under either leader;
        # budgets from none to beyond every bid the bidder can make (B > m)
        for delta in (0.05, 0.1):
            for B in (0.0, 0.04, 0.15, 0.5, 0.95, v.m + 0.3):
                got = solve_discretized(v, B, delta, price_rule)
                assert got == game_tree_reference(v, B, delta, price_rule, leader), (delta, B)


class TestSimulate:
    def test_bidder_sweeps_low_budget(self):
        out = simulate(
            uniform(2),
            FixedBidsPolicy((0.1, 0.1)),
            FixedBidsPolicy((0.0, 0.0)),
            budget=0.1,
        )
        assert out.profit == pytest.approx(0.8)
        assert out.won_by_1 == (0, 1)

    def test_tie_goes_to_adversary(self):
        out = simulate(
            uniform(1), FixedBidsPolicy((0.5,)), FixedBidsPolicy((0.5,)), budget=0.5
        )
        assert out.won_by_1 == ()
        assert out.profit == 0.0

    def test_second_price_payment(self):
        out = simulate(
            uniform(1),
            FixedBidsPolicy((1.0,)),
            FixedBidsPolicy((0.3,)),
            price_rule="second",
            budget=0.3,
        )
        assert out.won_by_1 == (0,)
        assert out.profit == pytest.approx(0.7)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: simulate(uniform(1), FixedBidsPolicy((-0.1,)), FixedBidsPolicy((0.0,)), budget=0.3),
             PolicyContractError, "bidder emitted a negative bid"),
            (lambda: g_h(1, 0.3, 0.0), ValueError, "g/h need m >= 2"),
            (lambda: equalization_alpha(1, 0.3), ValueError, "equalization needs m >= 2"),
        ],
        ids=["negative-bidder-bid", "g_h-one-item", "equalization-one-item"],
    )
    def test_each_boundary_raise_names_its_input(self, call, error, message):
        with pytest.raises(error, match=message) as info:
            call()
        assert type(info.value) is error

    def test_budget_contract_enforced(self):
        with pytest.raises(PolicyContractError):
            simulate(uniform(1), FixedBidsPolicy((0.0,)), FixedBidsPolicy((0.5,)), budget=0.1)

    @pytest.mark.parametrize(
        "b1, b2", [(math.nan, 0.0), (0.1, math.nan), (math.inf, 0.0), (0.1, -math.inf)]
    )
    def test_non_finite_bid_rejected(self, b1, b2):
        with pytest.raises(PolicyContractError, match="finite"):
            simulate(uniform(1), FixedBidsPolicy((b1,)), FixedBidsPolicy((b2,)), budget=0.4)

    BAD_BUDGETS = [math.nan, math.inf, -math.inf, -0.5]

    @pytest.mark.parametrize("budget", BAD_BUDGETS, ids=[f"argument-{b}" for b in BAD_BUDGETS])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate(uniform(1), FixedBidsPolicy((0.6,)), FixedBidsPolicy((0.0,)), budget=budget)

    def test_budget_is_a_required_keyword(self):
        # a policy maps the state to a bid; the budget comes only from simulate's caller
        bidder, adversary = FixedBidsPolicy((0.6,)), FixedBidsPolicy((0.0,))
        with pytest.raises(TypeError, match="budget"):
            simulate(uniform(1), bidder, adversary)
        with pytest.raises(TypeError):
            simulate(uniform(1), bidder, adversary, "first", 0.3)
        with pytest.raises(TypeError):
            FixedBidsPolicy((0.0,), budget=0.3)

    def test_second_price_budget_decreases_by_bidder_bid(self):
        # adversary wins round one; his budget drops by the bidder's bid
        trace = []

        def adversary(state):
            trace.append(state.adversary_budget)
            return min(0.4, state.adversary_budget)

        out = simulate(
            uniform(2), FixedBidsPolicy((0.2, 0.2)), adversary, price_rule="second", budget=0.5
        )
        assert trace == [pytest.approx(0.5), pytest.approx(0.3)]
        assert out.won_by_1 == ()


class TestBestResponse:
    def test_spec_example(self):
        plan, profit = best_response_to_fixed_bids(
            AdditiveValuation((0.5, 0.5)), (0.25, 0.25), 0.3
        )
        assert len(plan) == 1
        assert profit == pytest.approx(0.25)

    def test_zero_budget(self):
        v = AdditiveValuation((0.5, 0.5))
        plan, profit = best_response_to_fixed_bids(v, (0.1, 0.2), 0.0)
        assert plan == ()
        assert profit == pytest.approx(1.0 - 0.3)

    def test_sqrt_policy_meets_theorem_bound(self):
        rng = np.random.Generator(np.random.Philox(13))
        for _ in range(30):
            m = int(rng.integers(2, 9))
            w = rng.random(m) + 1e-3
            v = XOSValuation([tuple(w / w.sum())])
            B = float(rng.choice([0.04, 0.25, 0.49]))
            bids = math.sqrt(B) * np.asarray(v.clauses[0].weights)
            _, profit = best_response_to_fixed_bids(v, bids, B)
            assert profit >= (1 - math.sqrt(B)) ** 2 - 1e-9

    def test_strict_affordability(self):
        # spending exactly B is out of reach: at bids (0.3, 0.3) and B = 0.3
        # the adversary cannot win anything
        v = AdditiveValuation((0.5, 0.5))
        plan, profit = best_response_to_fixed_bids(v, (0.3, 0.3), 0.3)
        assert plan == ()
        assert profit == pytest.approx(0.4)

    def test_second_price_drains(self):
        # adversary cannot afford either 0.3-bid item at B = 0.25, but his
        # losing bids still cost the bidder min(0.3, 0.25) per item
        v = AdditiveValuation((0.5, 0.5))
        plan, profit = best_response_to_fixed_bids(v, (0.3, 0.3), 0.25, price_rule="second")
        assert plan == ()
        assert profit == pytest.approx(1.0 - 0.5)

    @pytest.mark.parametrize(
        "bids, B, rule",
        [
            ((0.1, 0.2), 0.3, "third"),
            ((math.nan, 0.2), 0.3, "first"),
            ((0.1, math.inf), 0.3, "second"),
            ((0.1,), 0.3, "first"),
            ((0.1, 0.2, 0.3), 0.3, "second"),
            ((0.1, 0.2), math.nan, "first"),
            ((0.1, 0.2), math.inf, "second"),
            ((0.1, 0.2), -0.5, "first"),
            ((0.1, -1e-13), 0.3, "first"),
        ],
        ids=[
            "rule", "bid-nan", "bid-inf", "bids-short", "bids-long", "budget-nan", "budget-inf",
            "budget-negative", "bid-slightly-negative",
        ],
    )
    def test_bad_input_rejected(self, bids, B, rule):
        with pytest.raises(ValueError):
            best_response_to_fixed_bids(AdditiveValuation((0.5, 0.5)), bids, B, rule)


def test_theorem2_bound_at_breakpoints():
    for m in range(1, 31):
        fm = seq.LADDER.level(m)
        xs = np.clip(fm.xs, 0.0, None)
        margin = (1 - np.sqrt(xs)) ** 2 + 1 / math.sqrt(m) - fm.ys
        assert margin.min() >= -1e-9


def test_state_properties():
    # an immutable, hashable named tuple, built by keyword or by position
    fields = dict(remaining=(2, 3), adversary_budget=0.2, won_by_1=frozenset({0}), prices_paid_1=0.05,
                  round=2, price_rule="first", m=4)
    st = SeqGameState(**fields)
    assert st.adversary_wins == 1
    assert st._asdict() == fields
    assert st == SeqGameState(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(st, name, None)
    with pytest.raises(AttributeError):
        st.adversary_wins = 0
    assert hash(st) == hash(SeqGameState(**fields))
    assert {st: "seen"}[SeqGameState(**fields)] == "seen"
    assert st._replace(round=3).adversary_wins == 2


def composed_lift(fp, m):
    """The level map built from general pwl operations, each canonicalizing
    its result: the reference for the fused kernel ``seq._lift``."""
    r = (m - 1.0) / m
    scaled_prev = fp.affine(r, 1.0 / r, 0.0, 0.0)
    e_g = pwl.add(PiecewiseLinear([0.0, 1.0 / m], [1.0 / m, 0.0]), scaled_prev)
    xs = np.union1d(scaled_prev.xs, [0.0, 1.0])
    xs = xs[(xs >= 0.0) & (xs <= 1.0)]
    psi = (1.0 / m + scaled_prev(xs) - xs) / r
    us = np.union1d(fp.xs, [0.0, 1.0])
    us = us[(us >= 0.0) & (us <= 1.0)]
    phi = fp(us) - us
    grid = np.union1d(xs, np.interp(phi, psi[::-1], xs[::-1]))
    psi_c = np.interp(grid, xs, psi)
    cross = r * (psi_c + np.interp(psi_c, phi[::-1], us[::-1]))
    cross[psi_c >= phi[0]] = r
    cross[psi_c <= phi[-1]] = 0.0
    return pwl.pointwise_extreme(e_g, PiecewiseLinear(grid, cross), "max")


#: Sorted knots in (0, 1), 1e-9 apart, and the shares of a fall between them.
_SPACED = hst.lists(hst.floats(0.01, 0.99), max_size=6, unique=True).map(sorted).filter(
    lambda ks: bool(np.all(np.diff(ks) >= 1e-9))
)
_DROPS = hst.lists(hst.floats(0.0, 1.0), min_size=7, max_size=7)


def _falling(knots, drops, end, top, fall):
    """Breakpoints of a polyline from (0, top) through ``knots`` to
    (end, top (1 - fall)), falling weakly by the shares ``drops``."""
    xs = np.array([0.0, *knots, end])
    steps = np.asarray(drops[: len(xs) - 1])
    return xs, top - top * fall * np.concatenate(([0.0], np.cumsum(steps))) / (steps.sum() or 1.0)


def check_lift(fp, m):
    """``seq._lift(fp, m)`` has strictly increasing abscissae and is within
    1e-12 of ``composed_lift(fp, m)``."""
    xs, ys = seq._lift(fp, m)
    assert np.all(np.diff(xs) > 0.0)
    want = composed_lift(fp, m)
    grid = np.union1d(xs, want.xs)
    assert float(np.max(np.abs(np.interp(grid, xs, ys) - want(grid)))) <= 1e-12


class TestLadder:
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 20, 31, 60])
    def test_lift_matches_composed_pwl_operations(self, m):
        check_lift(uniform_additive_value(m - 1), m)

    @settings(max_examples=40, deadline=None)
    @given(
        m=hst.integers(2, 12),
        # distinct floats closer than pwl.DEDUPE_TOL would make a jump, which
        # PiecewiseLinear rightly rejects; keep the knots 1e-9 apart
        knots=hst.lists(hst.floats(0.01, 0.99), min_size=1, max_size=8, unique=True).filter(
            lambda ks: bool(np.all(np.diff(sorted(ks)) >= 1e-9))
        ),
        drops=hst.lists(hst.floats(0.0, 1.0), min_size=9, max_size=9),
    )
    @example(m=2, knots=[0.01, 0.01 + 1e-9], drops=[0.5] * 9)
    def test_lift_of_any_value_curve_matches_composed_operations(self, m, knots, drops):
        # a non-increasing curve from f(0) = 1 to f(1) = 0, not a ladder level
        xs = np.array([0.0, *sorted(knots), 1.0])
        steps = np.asarray(drops[: len(xs) - 1]) + 1e-3
        ys = np.concatenate(([1.0], 1.0 - np.cumsum(steps) / steps.sum()))
        ys[-1] = 0.0
        check_lift(PiecewiseLinear(xs, ys), m)

    @settings(max_examples=60, deadline=None)
    @given(
        lo_knots=_SPACED, lo_drops=_DROPS, lo_end=hst.floats(0.2, 1.0), lo0=hst.floats(0.05, 1.0),
        lo_fall=hst.floats(0.0, 1.0), c_knots=_SPACED, c_drops=_DROPS, c0=hst.floats(0.0, 0.5),
        c_fall=hst.floats(0.0, 1.0),
    )
    # lo reaches 0 short of u = 1, hi has knots lo lacks, and hi(0) > lo(0)
    # puts the small budgets in the all-in clip
    @example(lo_knots=[0.5], lo_drops=[1.0] * 7, lo_end=0.6, lo0=0.8, lo_fall=1.0, c_knots=[0.25, 0.75],
             c_drops=[1.0] * 7, c0=0.3, c_fall=0.5)
    def test_cross_matches_brute_force(self, lo_knots, lo_drops, lo_end, lo0, lo_fall, c_knots, c_drops, c0,
                                       c_fall):
        # lo falls weakly from (0, lo0) to (lo_end, lo0 (1 - lo_fall)); hi =
        # lo + c on lo's knots, c's and 1, c >= 0 falling weakly from c0
        lx, ly = _falling([k * lo_end for k in lo_knots], lo_drops, lo_end, lo0, lo_fall)
        cx, cy = _falling(c_knots, c_drops, 1.0, c0, c_fall)
        # c's knots within 1e-9 of lo's would tie psi = hi - x in rounding
        far = np.min(np.abs(cx[:, None] - lx[None, :]), axis=1) >= 1e-9
        hx = np.union1d(lx, cx[far])
        hy = np.interp(hx, lx, ly) + np.interp(hx, cx, cy)
        gx, gy = seq._cross(hx, hy, lx, ly)
        assert gx[0] == 0.0 and gx[-1] == hx[-1] and np.all(np.diff(gx) > 0.0)
        x = np.union1d(np.concatenate((gx, (gx[1:] + gx[:-1]) / 2)), np.linspace(0.0, hx[-1], 101))
        got = np.interp(x, gx, gy)
        n = 4000
        want = cross_oracle(lambda u: np.interp(u, hx, hy), lambda u: np.interp(u, lx, ly), x, n)
        slope = max(1.0, float(np.max(np.abs(np.diff(ly) / np.diff(lx)))))
        assert np.all(got <= want + 1e-12)
        assert np.all(want - got <= x / n * slope + 1e-12)

    def test_records_follow_the_contraction_bound(self):
        records = seq.LADDER.records(198)
        assert [r.m for r in records] == list(range(1, 199))
        assert records[0].err == 0.0
        for prev, rec in zip(records, records[1:]):
            assert rec.err == (rec.m - 1.0) / rec.m * prev.err + rec.eta
            assert rec.pieces <= rec.pieces_raw
            assert 0.0 <= rec.eta <= seq._ETA
        assert max(r.eta for r in records[:3]) <= 1e-15  # levels 1..3 are exact
        assert records[29].err <= 2e-8
        assert records[197].err <= 1e-7

    def test_levels_are_convex_with_exact_anchors(self):
        for m, fm in enumerate(seq.LADDER.levels(198), start=1):
            assert fm(0.0) == 1.0 and fm(1.0) == 0.0, m
            assert np.all(np.diff(np.diff(fm.ys) / np.diff(fm.xs)) >= 0.0), m

    @pytest.mark.parametrize("ladder", [seq.LADDER, analysis._SI_LADDER], ids=["LADDER", "_SI_LADDER"])
    @pytest.mark.parametrize("m", [3, 7, 19, 27, 63, 171])
    def test_a_lift_point_1_ulp_below_one_keeps_the_anchors(self, ladder, m):
        # kept and lowered, that point would stand in for x = 1 after
        # canonicalization, so _simplify never keeps it next to the end
        xs, _ = seq._lift(ladder.level(m - 1), m)
        assert (xs[-2], xs[-1]) == (np.nextafter(1.0, 0.0), 1.0)
        fm = ladder.level(m)
        assert fm(0.0) == 1.0 and fm(1.0) == 0.0

    def test_lowered_chords_keep_fewer_pieces(self):
        records = seq.LADDER.records(198)
        assert records[29].pieces <= 19_000
        assert records[99].pieces <= 22_000
        assert records[197].pieces <= 22_000

    @pytest.mark.parametrize("eta", [math.inf, math.nan, -1e-9])
    def test_bad_tolerance_rejected(self, eta):
        with pytest.raises(ValueError):
            seq.Ladder(eta=eta)

    def test_store_raises_when_a_simplified_level_misses_eta(self, monkeypatch, capsys):
        # nothing falls back: a polyline that drops points and misses eta raises
        xs, exact = seq._lift(uniform_additive_value(9), 10)
        monkeypatch.setattr(seq, "_simplify", lambda xs, ys, band: (xs[[0, -1]], ys[[0, -1]]))
        with pytest.raises(ContractViolationError):
            seq._store(xs, exact, seq.LADDER.eta)
        monkeypatch.setattr(seq, "LADDER", seq.Ladder())
        assert cli.main(["solve-uniform", "--m", "10"]) == 1
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert out.out == "" and len(lines) == 1 and lines[0].startswith("riskfree: error:"), out

    def test_a_level_that_rises_into_one_is_not_lifted(self, monkeypatch, capsys):
        # _cross needs the lifted level to fall weakly, so one that rises
        # into x = 1 stops the ladder before its lift
        assert seq.Ladder().records(4)[-1].pieces_raw == 13
        store = seq._store

        def store_rising_f4(xs, exact, eta):
            fm, err = store(xs, exact, eta)
            if len(xs) == 14:  # the lift to f_4
                fm = PiecewiseLinear(fm.xs, np.append(fm.ys[:-2], (-1e-3, 0.0)))
            return fm, err

        monkeypatch.setattr(seq, "_store", store_rising_f4)
        ladder = seq.Ladder()
        assert ladder.level(4).ys[-2] < 0.0
        with pytest.raises(ContractViolationError, match="f_4 rises into x = 1"):
            ladder.level(5)
        assert len(ladder) == 4
        monkeypatch.setattr(seq, "LADDER", seq.Ladder())
        assert cli.main(["solve-uniform", "--m", "5"]) == 1
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert out.out == "" and len(lines) == 1 and lines[0].startswith("riskfree: error:"), out

    def test_store_keeps_the_lowered_polyline(self):
        xs, exact = seq._lift(uniform_additive_value(29), 30)
        eta, band = seq.LADDER.eta, seq._BAND * seq.LADDER.eta
        ys = np.where(np.abs(exact) <= seq._ZERO_SNAP, 0.0, exact)
        gx, gy = seq._simplify(xs, ys, 2.0 * band)
        lowered = PiecewiseLinear(gx, seq._lowered(xs, gx, gy, band))
        fm, err = seq._store(xs, exact, eta)
        np.testing.assert_array_equal(fm.xs, lowered.xs)
        np.testing.assert_array_equal(fm.ys, lowered.ys)
        assert err == float(np.max(np.abs(fm(xs) - exact)))
        assert 0.0 <= err <= eta

    def test_concurrent_extension_builds_each_level_once(self, monkeypatch):
        cold = seq.Ladder()
        monkeypatch.setattr(seq, "LADDER", cold)
        results = [None] * 4

        def work(i):
            results[i] = seq.LADDER.levels(18)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(cold) == 18
        serial = seq.Ladder().levels(18)
        for got in results:
            assert len(got) == 18
            for f, want in zip(got, serial):
                np.testing.assert_array_equal(f.xs, want.xs)
                np.testing.assert_array_equal(f.ys, want.ys)

    def test_two_ladders_extended_at_once_match_serial_builds(self):
        etas = (1e-9, 1e-8)
        ladders = [seq.Ladder(eta=eta) for eta in etas]
        start = threading.Barrier(2)

        def work(ladder):
            start.wait()
            ladder.levels(24)

        threads = [threading.Thread(target=work, args=(ladder,)) for ladder in ladders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for eta, ladder in zip(etas, ladders):
            serial = seq.Ladder(eta=eta)
            for got, want in zip(ladder.levels(24), serial.levels(24), strict=True):
                np.testing.assert_array_equal(got.xs, want.xs)
                np.testing.assert_array_equal(got.ys, want.ys)
            untimed = [[dataclasses.replace(r, build_s=0.0) for r in lad.records(24)] for lad in (ladder, serial)]
            assert untimed[0] == untimed[1]


@pytest.fixture(scope="module")
def serial_ladders():
    """Ladders by eta, built level by level on one thread, for the stream tests."""
    return {eta: seq.Ladder(eta=eta) for eta in (1e-9, 1e-8)}


def assert_same_levels(got, ladder):
    """``got``'s ``(m, f_m, record)`` are ``ladder``'s, bit for bit, ``build_s`` aside."""
    top = len(got)
    assert [m for m, _, _ in got] == list(range(1, top + 1))
    for (_, f, rec), want, want_rec in zip(got, ladder.levels(top), ladder.records(top), strict=True):
        np.testing.assert_array_equal(f.xs, want.xs)
        np.testing.assert_array_equal(f.ys, want.ys)
        assert dataclasses.replace(rec, build_s=0.0) == dataclasses.replace(want_rec, build_s=0.0)


class TestLadderStream:
    @pytest.mark.parametrize("eta, top", [(1e-9, 40), (1e-8, 60)])
    @pytest.mark.parametrize("cached", ["cold", "part", "all"])
    def test_stream_yields_the_cached_levels_bit_for_bit(self, serial_ladders, eta, top, cached):
        ladder = seq.Ladder(eta=eta)
        warm = {"cold": 1, "part": top // 2, "all": top + 3}[cached]
        ladder.levels(warm)
        got = list(ladder.stream(top))
        assert len(ladder) == warm  # the levels it built are not cached
        assert_same_levels(got, serial_ladders[eta])

    def test_stream_rejects_what_levels_rejects(self):
        ladder = seq.Ladder()
        with pytest.raises(ValueError) as want:
            ladder.levels(0)
        with pytest.raises(ValueError, match=str(want.value)):
            ladder.stream(0)  # on the call, before any level is read

    @pytest.mark.parametrize("m", [2.5, 3.0, "3", None])
    @pytest.mark.parametrize("entry", ["levels", "level", "records", "crossing", "stream"])
    def test_an_m_that_is_not_an_integer_is_rejected_before_any_build(self, entry, m):
        ladder = seq.Ladder()
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            getattr(ladder, entry)(m)
        assert len(ladder) == 1

    @pytest.mark.parametrize("entry", ["levels", "level", "records", "crossing", "stream"])
    def test_a_numpy_integer_m_passes(self, entry):
        ladder = seq.Ladder()
        got = getattr(ladder, entry)(np.int64(3))
        if entry == "stream":
            assert [m for m, _, _ in got] == [1, 2, 3] and len(ladder) == 1
        else:
            assert len(ladder) == 3

    def test_stream_holds_a_fraction_of_the_cached_build(self):
        def peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def consume():
            for _ in seq.Ladder(eta=1e-8).stream(198):
                pass

        streamed, cached = peak(consume), peak(lambda: seq.Ladder(eta=1e-8).levels(198))
        assert streamed < cached / 4, (streamed, cached)

    def test_streams_agree_while_another_thread_extends_the_ladder(self, serial_ladders):
        ladder, top = seq.Ladder(eta=1e-8), 24
        start = threading.Barrier(3)
        streams = [None, None]

        def stream(i):
            start.wait()
            streams[i] = list(ladder.stream(top))

        def extend():
            start.wait()
            ladder.levels(top)

        threads = [threading.Thread(target=stream, args=(i,)) for i in range(2)]
        threads.append(threading.Thread(target=extend))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(ladder) == top
        for got in streams:
            assert_same_levels(got, serial_ladders[1e-8])
        assert_same_levels(list(ladder.stream(top)), serial_ladders[1e-8])


class _NoLock:
    """Stands in for a ladder's lock: entering it fails the test."""

    def __enter__(self):
        raise AssertionError("a read of a built level took the lock")

    def __exit__(self, *exc):
        return False


class _LateList(list):
    """A list whose ``append`` first sleeps, so readers run between the
    publication of two levels."""

    def append(self, item):
        time.sleep(1e-3)
        super().append(item)


class TestLockFreeReads:
    def test_reads_while_another_thread_extends_match_the_serial_build(self, serial_ladders):
        ladder, top, serial = seq.Ladder(eta=1e-8), 24, serial_ladders[1e-8]
        ladder._built = _LateList(ladder._built)
        start = threading.Barrier(4)
        done = threading.Event()
        seen = [[], [], []]

        def read(out):
            start.wait()
            while True:
                finished = done.is_set()
                m = len(ladder)
                out.append((m, ladder.level(m), ladder.levels(m), ladder.records(m), *ladder.crossing(m)))
                if finished:
                    return

        def extend():
            start.wait()
            try:
                for m in range(2, top + 1):
                    ladder.level(m)
            finally:
                done.set()

        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        threads.append(threading.Thread(target=extend))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # what the ladder holds is the serial build, and every read returned
        # what it holds: the same objects (list equality tests identity first)
        assert_same_levels(list(ladder.stream(top)), serial)
        levels, records = ladder.levels(top), ladder.records(top)
        keys = [key for _, _, key in ladder._built]
        for fm, key in zip(levels, keys):
            np.testing.assert_array_equal(key, fm.xs - fm.ys)
        for out in seen:
            assert out[-1][0] == top
            for m, got_level, got_levels, got_records, fm, key in out:
                assert len(got_levels) == m and len(got_records) == m
                assert got_levels == levels[:m] and got_records == records[:m]
                assert got_level is fm is levels[m - 1] and key is keys[m - 1]

    def test_reading_built_levels_and_keys_takes_no_lock(self):
        ladder = seq.Ladder()
        ladder.levels(12)
        ladder._lock = _NoLock()
        for m in (1, 7, 8, 12):  # a key is built with its level, so none is read first here
            assert ladder.level(m) is ladder.levels(m)[-1]
            assert len(ladder.records(m)) == m
            fm, key = ladder.crossing(m)
            assert fm is ladder.level(m) and ladder.crossing(m)[1] is key
        assert [m for m, _, _ in ladder.stream(12)] == list(range(1, 13))
        assert len(ladder) == 12
        # a level not built yet does enter the lock
        for read in (ladder.level, ladder.levels, ladder.records, ladder.crossing):
            with pytest.raises(AssertionError, match="took the lock"):
                read(13)


@pytest.mark.parametrize("m", range(2, 40))
def test_equalization_at_zero_and_at_alpha_max_matches_the_bisect(m):
    assert as_hex(equalization_alpha(m, 0.0)) == as_hex(bisect_equalization_alpha(m, 0.0))
    # low budgets: g stays above h, and the optimum is the early return at alpha_max
    for x in (0.25 / m**2, 0.5 / m**2, 1e-300):
        got = equalization_alpha(m, x)
        assert got[0] == min(1.0, m * x), (m, x)
        assert as_hex(got) == as_hex(bisect_equalization_alpha(m, x)), (m, x)


def ulps_around(v, n):
    """v and the n floats on either side of it."""
    lo, hi, out = v, v, [v]
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("m", range(2, 40))
def test_equalization_brackets_inside_the_level_next_to_every_edge(m):
    """``equalization_alpha`` has no case for a crossing past either end of
    f_{m-1}'s breakpoints (its docstring proves none occurs); the bisect
    oracle keeps that case.  The budgets hug the regime edges 1/m^2, 1/m,
    (m-1)/m and 1, and the budgets at which u_0 or u_end is a breakpoint,
    where c comes closest to the key's ends."""
    xs = uniform_additive_value(m - 1).xs
    picks = xs if len(xs) <= 64 else xs[np.linspace(0, len(xs) - 1, 64).astype(int)]
    edges = [1.0 / m**2, 1.0 / m, (m - 1.0) / m, 1.0]
    edges += [v for p in picks.tolist() for v in ((m - 1.0) * p / m, ((m - 1.0) * p + 1.0) / m)]
    for x in (b for v in edges for b in ulps_around(v, 2) if b >= 0.0):
        assert as_hex(equalization_alpha(m, x)) == as_hex(bisect_equalization_alpha(m, x)), (m, x)


@pytest.fixture(scope="module")
def unsimplified_ladder():
    return seq.Ladder(eta=0.0)


def test_exact_levels_double_their_breakpoints(unsimplified_ladder):
    # an event the lift drops changes the count exactly
    for m in range(3, 15):
        assert len(unsimplified_ladder.level(m).xs) == 7 * 2 ** (m - 3), m


@pytest.mark.parametrize("m", [4, 7, 12])
def test_lift_of_a_level_ending_short_of_one(unsimplified_ladder, m):
    # the exact levels from f_3 on stop a few ulps short of u = 1, where
    # their values snap to 0; the lift needs no knot at 1
    fp = unsimplified_ladder.level(m - 1)
    assert fp.xs[0] == 0.0 and fp.xs[-1] < 1.0 and fp.ys[-1] == 0.0
    check_lift(fp, m)


@settings(max_examples=60, deadline=None)
@given(m=hst.integers(1, 16), budgets=hst.lists(hst.floats(0.0, 1.2), min_size=1, max_size=20))
def test_simplified_ladder_within_certified_error(unsimplified_ladder, m, budgets):
    exact, coarse = unsimplified_ladder.level(m), uniform_additive_value(m)
    bound = seq.LADDER.records(m)[-1].err + unsimplified_ladder.records(m)[-1].err
    xs = np.concatenate((exact.xs, coarse.xs, budgets))
    # float rounding in the lift and in evaluation, a few ulps per level,
    # lies outside the certified bound
    assert float(np.max(np.abs(coarse(xs) - exact(xs)))) <= bound + 1e-14


def blocked_greedy_oracle(xs, ys, band, block=32):
    """Indices kept by the slope-window greedy, one block at a time, which
    also keeps the first and last points more than DEDUPE_TOL from the ends."""
    n = len(xs) - 1
    if band <= 0.0 or n < 2:
        return list(range(n + 1))
    first = next((i for i in range(1, n) if xs[i] > xs[0] + pwl.DEDUPE_TOL), n - 1)
    last = max([i for i in range(1, n) if xs[i] < xs[n] - pwl.DEDUPE_TOL], default=1)
    kept = []
    for start in range(0, n, block):
        kept.append(start)
        anchor, lo, hi = start, -math.inf, math.inf
        for p in range(start + 1, min(start + block, n) + 1):
            dx, dy = xs[p] - xs[anchor], ys[p] - ys[anchor]
            if not lo <= dy / dx <= hi or (p - 1 != start and p - 1 in (first, last)):
                anchor, lo, hi = p - 1, -math.inf, math.inf
                kept.append(anchor)
                dx, dy = xs[p] - xs[anchor], ys[p] - ys[anchor]
            lo, hi = max(lo, (dy - band) / dx), min(hi, (dy + band) / dx)
    return kept + [n]


@pytest.mark.parametrize("n", [1, 2, 3, 32, 33, 65])
@settings(max_examples=30, deadline=None)
@given(data=hst.data(), band=hst.floats(0.0, 0.05))
def test_simplify_matches_blocked_greedy_oracle(n, data, band):
    # a non-increasing polyline on [0, 1] with n segments
    gaps = data.draw(hst.lists(hst.floats(1e-6, 1.0), min_size=n, max_size=n))
    drops = data.draw(hst.lists(hst.floats(0.0, 1.0), min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(gaps) / sum(gaps)))
    ys = 1.0 - np.concatenate(([0.0], np.cumsum(drops))) / max(sum(drops), 1.0)
    gx, gy = seq._simplify(xs, ys, band)
    want = blocked_greedy_oracle(xs.tolist(), ys.tolist(), band)
    np.testing.assert_array_equal(gx, xs[want])
    np.testing.assert_array_equal(gy, ys[want])
    assert (gx[0], gx[-1]) == (xs[0], xs[-1])
    # every dropped point lies within the band of the output, up to rounding
    assert float(np.max(np.abs(np.interp(xs, gx, gy) - ys))) <= band + 1e-12
    if band == 0.0:
        np.testing.assert_array_equal(gx, xs)


def drawn_curve(data, n, convex):
    """n segments on [0, 1], strictly decreasing and convex, or arbitrary."""
    gaps = np.asarray(data.draw(hst.lists(hst.floats(1e-3, 1.0), min_size=n, max_size=n)))
    xs = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    if convex:
        # slopes rise from the first segment to the last, which is at most -flat
        flat = data.draw(hst.floats(1e-3, 1.0))
        bends = np.asarray(data.draw(hst.lists(hst.floats(0.0, 1e-2), min_size=n, max_size=n)))
        slopes = -flat - np.cumsum(bends[::-1])[::-1]
    else:
        slopes = np.asarray(data.draw(hst.lists(hst.floats(-1.0, 1.0), min_size=n, max_size=n)))
    ys = np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
    return xs, ys + 1.0 - ys.min()


@pytest.mark.parametrize("n", [1, 2, 40, 200])
@settings(max_examples=40, deadline=None)
@given(data=hst.data(), eta=hst.floats(1e-7, 1e-3))
def test_store_of_a_convex_curve_lowers_its_chords(n, data, eta):
    xs, exact = drawn_curve(data, n, convex=True)
    fm, err = seq._store(xs, exact, eta)
    assert err == float(np.max(np.abs(fm(xs) - exact)))
    assert 0.0 <= err <= eta
    assert (fm(xs[0]), fm(xs[-1])) == (exact[0], exact[-1])
    assert np.all(np.isin(fm.xs, xs))
    # chords within twice the band reach at least as far on a convex curve
    assert fm.piece_count() <= len(seq._simplify(xs, exact, seq._BAND * eta)[0]) - 1


@pytest.mark.parametrize("n", [2, 40, 200])
@settings(max_examples=40, deadline=None)
@given(data=hst.data(), eta=hst.floats(1e-7, 1e-3))
def test_store_of_any_curve_stays_within_eta(n, data, eta):
    xs, exact = drawn_curve(data, n, convex=False)
    try:
        fm, err = seq._store(xs, exact, eta)
    except ContractViolationError:
        return  # a non-convex curve can miss eta, which only raises
    assert err == float(np.max(np.abs(fm(xs) - exact)))
    assert 0.0 <= err <= eta
    assert np.all(np.isin(fm.xs, xs))
