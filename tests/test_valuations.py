import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from riskfree.errors import DegenerateValuationError, InfeasibleInstanceError
from riskfree.valuations import (
    _TOL,
    MAX_ENUM_M,
    AdditiveValuation,
    CoverCertificate,
    SInstanceParams,
    SubadditiveIdenticalValuation,
    XOSValuation,
    _check_certificate,
    beta_cover,
    check_count,
    check_price_rule,
    gamma_star,
    l_threshold,
    make_s_instance,
    random_subadditive_identical,
    s_instance_params,
    sigma_of,
)


class TestValue:
    def test_xos_singleton(self):
        v = XOSValuation([(0.7, 0.2), (0.5, 0.5)])
        assert v.value({1}) == pytest.approx(0.5)

    def test_empty_set_is_zero(self):
        for v in (
            AdditiveValuation((0.3, 0.7)),
            XOSValuation([(1.0, 0.0)]),
            SubadditiveIdenticalValuation((0.0, 0.6, 1.0)),
        ):
            assert v.value(set()) == 0.0

    def test_s_instance_singleton(self):
        # sigma(1/8) = 2, so a single item is worth 1/(2+2)
        v, _ = make_s_instance(0.125, 10)
        assert v.value({3}) == pytest.approx(0.25, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            AdditiveValuation((1.0,)).value({1})

    @pytest.mark.parametrize("subset", [[1.9], [0.0, 0.4], [np.float64(1.0)], ["1"]], ids=repr)
    def test_non_integral_index_rejected(self, subset):
        # int() used to truncate: [1.9] read item 1, [0.0, 0.4] item 0 once
        for v in (AdditiveValuation((0.5, 0.3, 0.2)), XOSValuation([(0.5, 0.3, 0.2), (0.1, 0.1, 0.9)]),
                  SubadditiveIdenticalValuation((0.0, 0.6, 0.9, 1.0))):
            with pytest.raises(TypeError):
                v.value(subset)

    def test_integer_indices_of_any_type_accepted(self):
        v = AdditiveValuation((0.5, 0.3, 0.2))
        assert v.value(np.array([2, 0])) == v.value([np.int64(0), 2]) == v.value((0, 2, 2)) == 0.5 + 0.2

    def test_monotone_random_instances(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(1000):
            m = int(rng.integers(1, 13))
            kind = rng.integers(0, 3)
            if kind == 0:
                v = AdditiveValuation(tuple(rng.uniform(0, 1, m)))
            elif kind == 1:
                v = XOSValuation([tuple(rng.uniform(0, 1, m)) for _ in range(rng.integers(1, 4))])
            else:
                v = random_subadditive_identical(m, rng)
            small = set(int(i) for i in rng.integers(0, m, size=rng.integers(0, m + 1)))
            extra = set(int(i) for i in rng.integers(0, m, size=rng.integers(0, m + 1)))
            assert v.value(small) <= v.value(small | extra) + 1e-12


class TestGammaStar:
    def test_max_total_clause(self):
        v = XOSValuation([(0.7, 0.2), (0.5, 0.5)])
        assert gamma_star(v).weights == (0.5, 0.5)

    def test_single_clause(self):
        v = XOSValuation([(1.0,)])
        assert gamma_star(v).weights == (1.0,)

    def test_tie_breaks_to_lowest_index(self):
        v = XOSValuation([(0.6, 0.4), (0.5, 0.5)])
        assert gamma_star(v).weights == (0.6, 0.4)

    def test_identical_item_table_has_no_dominant_clause(self):
        with pytest.raises(ValueError, match="SubadditiveIdenticalValuation"):
            gamma_star(SubadditiveIdenticalValuation((0.0, 0.6, 1.0)))

    def test_dominates_all_subsets(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(40):
            m = int(rng.integers(1, 13))
            v = XOSValuation([tuple(rng.uniform(0, 1, m)) for _ in range(rng.integers(1, 6))])
            g = np.asarray(gamma_star(v).weights)
            clause_mat = np.array([c.weights for c in v.clauses])
            masks = np.arange(1 << m)
            bits = ((masks[:, None] >> np.arange(m)) & 1).astype(float)
            vals = (bits @ clause_mat.T).max(axis=1)
            assert np.all(vals >= bits @ g - 1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: AdditiveValuation((math.nan, 1.0)),
        lambda: AdditiveValuation((math.inf, 1.0)),
        lambda: XOSValuation([(0.5, 0.5), (0.2, math.nan)]),
        lambda: SubadditiveIdenticalValuation((0.0, math.nan, 1.0)),
        lambda: SubadditiveIdenticalValuation((0.0, 0.6, math.inf)),
    ],
    ids=["additive-nan", "additive-inf", "xos-nan", "table-nan", "table-inf"],
)
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_stored_total_keeps_equality_and_repr():
    a = AdditiveValuation((0.25, 0.5))
    x = XOSValuation([(0.25, 0.5), (0.7, 0.1)])
    assert a.total() == a.value(range(2)) == 0.75
    assert x.total() == x.value(range(2)) == pytest.approx(0.8)
    assert a == AdditiveValuation([0.25, 0.5]) and hash(a) == hash(AdditiveValuation([0.25, 0.5]))
    assert x == XOSValuation([a, (0.7, 0.1)])
    assert repr(a) == "AdditiveValuation(weights=(0.25, 0.5))"
    assert repr(x) == (
        "XOSValuation(clauses=(AdditiveValuation(weights=(0.25, 0.5)), "
        "AdditiveValuation(weights=(0.7, 0.1))))"
    )


class TestSInstance:
    def test_s_instance_scale_matches_marginal_total(self):
        # unnormalized marginals are (1, sigma/d * (m-2 copies), 1), total 2 + sigma
        x, m = 0.125, 10
        v, params = make_s_instance(x, m)
        assert v.total() == pytest.approx(1.0)
        marginals = np.diff(np.asarray(v.table)) * (2.0 + params.sigma)
        expect = np.concatenate(([1.0], np.full(m - 2, params.sigma / params.d), [1.0]))
        np.testing.assert_allclose(marginals, expect, atol=1e-12)

    def test_reference_values(self):
        v, params = make_s_instance(0.125, 10)
        assert params.sigma == pytest.approx(2.0)
        assert params.d == 8
        assert v.table[1] == pytest.approx(0.25)
        assert v.table[2] == pytest.approx(0.3125)
        assert v.table[9] == pytest.approx(0.75)
        assert v.table[10] == 1.0

    def test_below_threshold_rejected(self):
        assert l_threshold(0.125) == pytest.approx(8.0)
        with pytest.raises(InfeasibleInstanceError):
            make_s_instance(0.125, 4)

    def test_x_domain(self):
        with pytest.raises(InfeasibleInstanceError):
            make_s_instance(0.3, 50)
        with pytest.raises(InfeasibleInstanceError):
            sigma_of(0.25)

    def test_sigma(self):
        assert sigma_of(0.125) == pytest.approx(2.0)

    @staticmethod
    def reference_instance(x, m):
        """``make_s_instance`` as it was before ``s_instance_params`` split
        off: table and parameters in one pass, the oracle for both."""
        s = sigma_of(x)
        if m < l_threshold(x) - 1e-12:
            raise InfeasibleInstanceError(
                f"m = {m} is below the feasibility threshold L(x) = {l_threshold(x):.6g}"
            )
        d = m - 2
        denom = 2.0 + s
        table = [0.0] + [1.0 / denom + (i - 1) * s / (d * denom) for i in range(1, m)] + [1.0]
        params = SInstanceParams(x=float(x), m=int(m), sigma=s, d=d, phase2_bid=(1.0 + s) / (d * denom))
        return tuple(table), params

    def test_params_match_the_reference_on_the_si_upper_grid(self):
        xs = (0.05, 0.10, 0.15, 0.20)
        ms = {m for x in xs for m in (math.ceil(l_threshold(x)), 50, 100, 200)}
        cases = [(x, m) for x in (*xs, 0.0, 0.25, 0.3, -0.1, 0.125) for m in sorted(ms | {2, 4, 8, 9})]
        raised = 0
        for x, m in cases:
            try:
                table, want = self.reference_instance(x, m)
            except InfeasibleInstanceError as exc:
                raised += 1
                for build in (s_instance_params, make_s_instance):
                    with pytest.raises(InfeasibleInstanceError, match=re.escape(str(exc))):
                        build(x, m)
                continue
            v, params = make_s_instance(x, m)
            for got in (s_instance_params(x, m), params):
                assert got == want and repr(got) == repr(want)
                assert [float(f).hex() for f in dataclasses.astuple(got)] == [
                    float(f).hex() for f in dataclasses.astuple(want)]
            assert v.table == table
        assert 0 < raised < len(cases)

    def test_subadditive_iff_sigma_at_most_d(self):
        # just above the boundary the table stops being subadditive: build it
        # by hand since the constructor must reject it
        x = 0.2  # sigma = 8*0.2/0.2 = 8
        s = sigma_of(x)
        m = int(s) + 1  # d = m - 2 = 7 < sigma
        d, denom = m - 2, 2.0 + s
        table = [0.0] + [1.0 / denom + (i - 1) * s / (d * denom) for i in range(1, m)] + [1.0]
        with pytest.raises(ValueError):
            SubadditiveIdenticalValuation(table)
        # at m with d >= sigma the same construction passes
        m = int(s) + 2
        d = m - 2
        table = [0.0] + [1.0 / denom + (i - 1) * s / (d * denom) for i in range(1, m)] + [1.0]
        SubadditiveIdenticalValuation(table)


def first_subadditivity_violation(t, tol):
    """The constructor's former O(m^2) double loop, kept as the oracle."""
    m = len(t) - 1
    for i in range(1, m):
        for j in range(1, m - i + 1):
            if t[i + j] > t[i] + t[j] + tol:
                return f"not subadditive: v({i + j}) > v({i}) + v({j})"
    return None


@hst.composite
def monotone_tables(draw):
    """Monotone tables on m = 1..40 with v(0) = 0: sums of random steps, and
    linear tables nudged by a few tolerances, where v(i+j) = v(i) + v(j)."""
    m = draw(hst.integers(1, 40))
    if draw(hst.booleans()):
        steps = draw(hst.lists(hst.just(0.0) | hst.floats(0.0, 1.0), min_size=m, max_size=m))
        return [0.0, *itertools.accumulate(steps)]
    nudges = draw(hst.lists(hst.integers(-2, 2), min_size=m, max_size=m))
    return [0.0] + [k / m + n * _TOL / 2 for k, n in zip(range(1, m + 1), nudges)]


@settings(max_examples=500, deadline=None)
@given(table=monotone_tables())
def test_subadditivity_check_matches_the_double_loop(table):
    if any(b < a - _TOL * abs(table[-1]) for a, b in zip(table, table[1:])):
        return  # the monotonicity check rejects it first
    want = first_subadditivity_violation(table, _TOL * abs(table[-1]))
    if want is None:
        assert SubadditiveIdenticalValuation(table).table == tuple(table)
    else:
        with pytest.raises(ValueError) as err:
            SubadditiveIdenticalValuation(table)
        assert str(err.value) == want


class TestCoverLowerBound:
    """Subadditivity's partition bound: any q-subset is worth at least
    v(I) / ceil(m/q), since ceil(m/q) q-subsets cover the m items."""

    def test_never_exceeds_value(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(200):
            m = int(rng.integers(2, 13))
            v = random_subadditive_identical(m, rng)
            for q in range(1, m + 1):
                assert v.value_of_count(q) >= v.total() / math.ceil(m / q) - 1e-12


class TestBetaCover:
    def test_additive_is_one(self):
        cert = beta_cover(AdditiveValuation((0.5, 0.5)))
        assert cert.beta == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(cert.r, (0.5, 0.5), atol=1e-9)

    def test_xos_is_one(self):
        cert = beta_cover(XOSValuation([(0.7, 0.2), (0.5, 0.5)]))
        assert cert.beta <= 1.0 + 1e-9

    def test_identical_m4_against_grid_oracle(self):
        v = SubadditiveIdenticalValuation((0.0, 0.5, 0.5, 0.75, 1.0))
        cert = beta_cover(v)
        assert cert.beta <= math.log(4) + 1e-6
        # independent oracle: exhaustive (r, beta) search on a 0.01 simplex grid
        step = 0.01
        axis = np.arange(0.0, 1.0 + step / 2, step)
        r1, r2, r3 = np.meshgrid(axis, axis, axis, indexing="ij")
        r4 = 1.0 - r1 - r2 - r3
        ok = r4 >= -1e-12
        rs = np.stack([r1[ok], r2[ok], r3[ok], np.clip(r4[ok], 0.0, None)], axis=1)
        needed_beta = np.zeros(len(rs))
        for mask in range(1, 16):
            items = [i for i in range(4) if mask >> i & 1]
            needed_beta = np.maximum(needed_beta, rs[:, items].sum(axis=1) / v.value(items))
        grid_beta = float(needed_beta.min())
        assert cert.beta <= grid_beta + 1e-9

    def test_symmetric_closed_form(self):
        # for identical items the optimum is the uniform vector, so
        # beta = max(1, max_q (q/m) / v(q))
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(50):
            m = int(rng.integers(2, 7))
            v = random_subadditive_identical(m, rng)
            cert = beta_cover(v)
            expect = max(1.0, max((q / m) / v.value_of_count(q) for q in range(1, m)))
            assert cert.beta == pytest.approx(expect, abs=1e-8)

    def test_worst_case_m3_table(self):
        # v = (0, 1/2, 1/2, 1) needs beta = 4/3, above ln 3: the logarithmic
        # cover claim does not bind at tiny m
        cert = beta_cover(SubadditiveIdenticalValuation((0.0, 0.5, 0.5, 1.0)))
        assert cert.beta == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert cert.beta > math.log(3)

    @pytest.mark.parametrize(
        "table, expect",
        [
            (
                (0.0, 0.40025826333006975, 0.5481315503129457, 0.695818074265124,
                 0.8328339225302656, 1.0),
                1.0,
            ),
            (
                (0.0, 0.30844232662669147, 0.5441665635144325, 0.5697991604394765,
                 0.5952637672380201, 0.7522117394813121, 1.0),
                1.1199516976481716,
            ),
        ],
    )
    def test_regression_tables(self, table, expect):
        # a simplex solve of the cover LP pivoted on ~1e-9 rounding residue
        # for these tables and returned r with sum(r) far from v(I)
        cert = beta_cover(SubadditiveIdenticalValuation(table))
        assert cert.beta == pytest.approx(expect, abs=1e-9)
        assert sum(cert.r) == pytest.approx(1.0, abs=1e-9)

    def test_zero_valued_set_has_no_cover(self):
        # v(1) = 0 < v(I) would leave no cover; the tolerance is relative to
        # v(I), so construction sees v(2) > 2 v(1) even at this tiny scale
        with pytest.raises(ValueError, match="not subadditive"):
            SubadditiveIdenticalValuation((0.0, 0.0, 1e-9, 2e-9))

    def test_check_is_relative_to_v_of_I(self):
        # at v(I) = 2e-9 the true certificate passes and a bogus one fails
        v = SubadditiveIdenticalValuation((0.0, 1e-9, 1.5e-9, 2e-9))
        assert beta_cover(v).beta == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ArithmeticError, match="cover constraint"):
            _check_certificate(v, CoverCertificate(r=(2e-9, 0.0, 0.0), beta=0.0))

    def test_m_cap(self):
        # the 2^m kernel that checks the certificate is the only cap
        with pytest.raises(ValueError, match="capped"):
            beta_cover(AdditiveValuation((1.0 / (MAX_ENUM_M + 1),) * (MAX_ENUM_M + 1)))

    @pytest.mark.parametrize("m", [9, 10, 11, 12])
    def test_identical_tables_above_eight_items(self, m):
        rng = np.random.Generator(np.random.Philox(m))
        extremal = (0.0,) + (0.5,) * (m - 1) + (1.0,)
        tables = [random_subadditive_identical(m, rng).table for _ in range(5)] + [extremal]
        for table in tables:
            cert = beta_cover(SubadditiveIdenticalValuation(table))
            expect = max(1.0, max((q / m) / table[q] for q in range(1, m)))
            assert cert.beta == pytest.approx(expect, abs=1e-12)
        assert cert.beta == pytest.approx(2.0 * (m - 1) / m, abs=1e-12)  # the extremal table


def former_random_table(m, rng):
    """``random_subadditive_identical``'s former ceiling loop, kept as the oracle."""
    t = [0.0, 1.0]
    for k in range(2, m + 1):
        ceiling = min(t[i] + t[k - i] for i in range(1, k // 2 + 1))
        t.append(t[k - 1] + float(rng.random()) * (ceiling - t[k - 1]))
    return tuple(x / t[-1] for x in t)


@pytest.mark.parametrize("m", [1, 2, 3, 20, 50, 100])
def test_random_tables_replay_the_former_generator_bit_for_bit(m):
    for seed in range(8):
        got = random_subadditive_identical(m, np.random.Generator(np.random.Philox(seed))).table
        want = former_random_table(m, np.random.Generator(np.random.Philox(seed)))
        assert [x.hex() for x in got] == [x.hex() for x in want], seed


def test_random_tables_are_valid_and_normalized():
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(100):
        v = random_subadditive_identical(int(rng.integers(1, 30)), rng)
        assert v.total() == pytest.approx(1.0)


@pytest.mark.parametrize("m", [0, -3])
def test_random_table_below_one_item_rejected_before_any_draw(m):
    rng = np.random.Generator(np.random.Philox(4))
    with pytest.raises(ValueError, match=f"m must be at least 1, got {m}"):
        random_subadditive_identical(m, rng)
    assert rng.random() == np.random.Generator(np.random.Philox(4)).random()


@pytest.mark.parametrize("n, least, name", [(0, 1, "m"), (-3, 1, "m"), (1, 2, "k"), (np.int64(4), 5, "--m")])
def test_check_count_rejects_a_count_below_least(n, least, name):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be at least {least}, got {n}")):
        check_count(n, least, name)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None, np.float64(3.0)])
def test_check_count_rejects_a_count_that_is_not_an_integer(n):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        check_count(n)


@pytest.mark.parametrize("n", [1, 7, np.int64(7), np.uint8(7)])
def test_check_count_returns_a_python_int(n):
    got = check_count(n)
    assert type(got) is int and got == n


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AdditiveValuation(()), ValueError, "the item count must be at least 1, got 0"),
        (lambda: AdditiveValuation((0.5, -0.1)), ValueError, "weights must be non-negative"),
        (lambda: XOSValuation([]), ValueError, "an XOS valuation needs at least one clause"),
        (lambda: XOSValuation([(0.5, 0.5), (1.0,)]), ValueError, "all clauses must cover the same item count"),
        (lambda: SubadditiveIdenticalValuation((0.0,)), ValueError, "table must cover counts 0..m with m >= 1"),
        (lambda: SubadditiveIdenticalValuation((0.1, 1.0)), ValueError, "v(0) must be 0"),
        (lambda: SubadditiveIdenticalValuation((0.0, 0.6, 0.5)), ValueError, "table must be non-decreasing"),
        (lambda: SubadditiveIdenticalValuation((0.0, 0.5, 1.0)).value_of_count(3), IndexError, "count out of range"),
        (lambda: beta_cover(AdditiveValuation((0.0, 0.0))), DegenerateValuationError, "v(I) must be positive"),
    ],
    ids=["no-weights", "negative-weight", "no-clauses", "clause-lengths", "table-below-one-item", "table-v0",
         "table-decreasing", "count-out-of-range", "cover-zero-total"],
)
def test_each_boundary_raise_names_its_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("rule", ["third", "First", None])
def test_check_price_rule_rejects(rule):
    with pytest.raises(ValueError, match="price_rule must be 'first' or 'second'"):
        check_price_rule(rule)
