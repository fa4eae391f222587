import math

import numpy as np
import pytest

from riskfree import pwl
from riskfree.errors import BreakpointOverflowError, ContractViolationError
from riskfree.pwl import PiecewiseLinear, add, pointwise_extreme, solve_equal


def close(f, g, tol):
    """f and g agree within ``tol`` at every breakpoint of either and at the
    midpoints between them, which bounds their sup distance."""
    grid = np.union1d(f.xs, g.xs)
    probe = np.concatenate((grid, (grid[:-1] + grid[1:]) / 2.0))
    return bool(np.max(np.abs(f(probe) - g(probe))) <= tol)


def ramp():
    return PiecewiseLinear([0.0, 1.0], [1.0, 0.0])


def f2_table():
    # the two-item profit table as a piecewise-linear function
    return PiecewiseLinear([0.0, 0.25, 0.5, 1.0], [1.0, 0.5, 0.25, 0.0])


class TestEval:
    def test_midpoint(self):
        assert ramp()(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_left_extension_is_constant(self):
        assert ramp()(-1.0) == 1.0

    def test_right_extension_is_constant(self):
        assert ramp()(3.0) == 0.0

    def test_two_item_table_at_03(self):
        assert f2_table()(0.3) == pytest.approx(0.45, abs=1e-15)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 0.25, 0.9, 2.0])
        np.testing.assert_allclose(ramp()(xs), [1.0, 1.0, 0.75, 0.1, 0.0], atol=1e-15)

    @pytest.mark.parametrize("f", [ramp(), f2_table(), PiecewiseLinear([0.3], [2.0])], ids=repr)
    def test_scalar_and_array_types_match_interp_bitwise(self, f):
        xs = np.concatenate((np.linspace(-0.5, 1.5, 41), [0.1 + 0.2, 1.0 / 3.0]))
        want = np.interp(xs, f.xs, f.ys)
        for x, w in zip(xs.tolist(), want.tolist()):
            for arg in (x, np.float64(x), np.array(x)):
                got = f(arg)
                assert type(got) is float and got == w, arg
        for k in (-1, 0, 1, 2):
            got = f(k)
            assert type(got) is float and got == float(np.interp(k, f.xs, f.ys))
        for arr in (xs, xs[:42].reshape(6, 7)):
            got = f(arr)
            assert isinstance(got, np.ndarray) and got.shape == arr.shape
            assert np.array_equal(got, np.interp(arr, f.xs, f.ys))

    @pytest.mark.parametrize(
        "x",
        [3, -2, np.int64(4), np.float32(0.5), np.float32(np.nan), np.array(0.2), np.array(np.nan),
         np.array(1, dtype=np.int32), [0.1, 0.5], (0.1, 2.0), [[0.1, 0.2], [0.3, 5.0]],
         np.array([[0.1], [0.9]]), True, False, float("nan"), [float("nan")], []],
        ids=["int", "int-negative", "int64", "float32", "float32-nan", "0-d", "0-d-nan", "0-d-int", "list",
             "tuple", "2-d-list", "2-d-array", "true", "false", "nan", "nan-list", "empty-list"],
    )
    def test_one_breakpoint_matches_interp(self, x):
        # a constant function reads through np.interp like any other
        f = PiecewiseLinear([0.3], [0.7])
        got, want = f(x), np.interp(x, f.xs, f.ys)
        if np.ndim(x) == 0:
            assert type(got) is float and got == float(want) == 0.7
        else:
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.float64
            assert got.shape == want.shape == np.shape(x) and np.array_equal(got, want)
            assert np.all(got == 0.7)

    def test_breakpoints_reject_writes(self):
        f = f2_table()
        for arr in (f.xs, f.ys):
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = 0.3
        assert f(0.3) == pytest.approx(0.45, abs=1e-15)


class TestAffine:
    def test_identity(self):
        f = f2_table()
        g = f.affine(1.0, 1.0, 0.0, 0.0)
        assert close(f, g, 0.0)

    def test_hand_composition(self):
        # x -> (1/2) f1(2x) with f1 = max(1-x, 0), checked against the
        # direct formula on a dense grid over the function's support
        g = ramp().affine(0.5, 2.0, 0.0, 0.0)
        for x in np.linspace(0.0, 1.5, 100):
            assert g(x) == pytest.approx(0.5 * max(1.0 - 2.0 * x, 0.0), abs=1e-15)

    def test_reflection(self):
        g = ramp().affine(1.0, -1.0, 0.0, 0.0)
        np.testing.assert_allclose(g.xs, [-1.0, 0.0])
        np.testing.assert_allclose(g.ys, [0.0, 1.0])

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            ramp().affine(1.0, 0.0, 0.0, 0.0)

    def test_eval_identity_random(self):
        rng = np.random.Generator(np.random.Philox(1))
        f = f2_table()
        a, b, c, d = 1.7, -0.6, 0.2, -0.3
        g = f.affine(a, b, c, d)
        xs = rng.uniform(-2, 2, size=1000)
        np.testing.assert_allclose(g(xs), a * f(b * xs + c) + d, atol=1e-12)


class TestExtreme:
    def test_tent_minimum(self):
        up = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        down = ramp()
        low = pointwise_extreme(up, down, "min")
        assert 0.5 in low.xs
        assert low(0.5) == pytest.approx(0.5)
        assert low(0.2) == pytest.approx(0.2)
        assert low(0.8) == pytest.approx(0.2)

    def test_idempotent(self):
        f = f2_table()
        assert close(pointwise_extreme(f, f, "max"), f, 0.0)

    def test_middle_branch_crossing(self):
        # 3/4 - B and 1/2 - B/2 cross at B = 1/2
        a = PiecewiseLinear([0.0, 1.0], [0.75, -0.25])
        b = PiecewiseLinear([0.0, 1.0], [0.5, 0.0])
        lo = pointwise_extreme(a, b, "min")
        assert np.min(np.abs(lo.xs - 0.5)) < 1e-15

    def test_commutative_associative(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(50):
            fs = []
            for _ in range(3):
                xs = np.sort(rng.uniform(0, 1, size=rng.integers(2, 6)))
                xs = np.unique(xs)
                if len(xs) < 2:
                    continue
                fs.append(PiecewiseLinear(xs, rng.uniform(-1, 1, size=len(xs))))
            if len(fs) < 3:
                continue
            f, g, h = fs
            assert close(pointwise_extreme(f, g, "min"), pointwise_extreme(g, f, "min"), 1e-12)
            left = pointwise_extreme(pointwise_extreme(f, g, "max"), h, "max")
            right = pointwise_extreme(f, pointwise_extreme(g, h, "max"), "max")
            assert close(left, right, 1e-12)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            pointwise_extreme(ramp(), ramp(), "sum")


@pytest.mark.parametrize(
    "xs, ys, error, message",
    [
        ([0.0, 0.0], [1.0, 0.0], ContractViolationError, "duplicate breakpoint with conflicting values"),
        ([0.0, 1.0], [1.0], ValueError, "need equally many breakpoints and values, at least one"),
        ([], [], ValueError, "need equally many breakpoints and values, at least one"),
        ([0.0, math.inf], [1.0, 0.0], ValueError, "breakpoints and values must be finite"),
    ],
    ids=["conflicting-duplicate", "length-mismatch", "empty", "non-finite-breakpoint"],
)
def test_each_boundary_raise_names_its_input(xs, ys, error, message):
    with pytest.raises(error, match=message) as info:
        PiecewiseLinear(xs, ys)
    assert type(info.value) is error


class TestCanonical:
    def test_collinear_merge(self):
        f = PiecewiseLinear([0.0, 0.5, 1.0], [1.0, 0.5, 0.0])
        assert len(f.xs) == 2

    def test_redundant_flat_ends_dropped(self):
        f = PiecewiseLinear([-1.0, 0.0, 1.0, 2.0], [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(f.xs, [0.0, 1.0])

    def test_canonicalization_preserves_eval(self):
        rng = np.random.Generator(np.random.Philox(3))
        xs = np.linspace(0, 1, 11)
        ys = np.maximum(1 - 2 * xs, 0.0)  # collinear runs on both sides of the kink
        f = PiecewiseLinear(xs, ys)
        # collinear interior points and the redundant flat tail are gone
        assert len(f.xs) == 2
        probes = rng.uniform(0.0, 1.2, size=500)
        np.testing.assert_allclose(f(probes), np.maximum(1 - 2 * probes, 0.0), atol=1e-12)

    def test_breakpoint_cap(self, monkeypatch):
        monkeypatch.setattr(pwl, "MAX_BREAKPOINTS", 8)
        xs = np.arange(20, dtype=float)
        ys = np.where(np.arange(20) % 2 == 0, 0.0, 1.0)
        with pytest.raises(BreakpointOverflowError):
            PiecewiseLinear(xs, ys)


class TestSolveEqual:
    def test_simple_crossing(self):
        lhs = ramp()
        rhs = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        assert solve_equal(lhs, rhs, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_no_crossing(self):
        lhs = PiecewiseLinear([0.0], [2.0])
        rhs = PiecewiseLinear([0.0], [1.0])
        assert solve_equal(lhs, rhs, 0.0, 1.0) is None

    def test_two_item_equalization(self):
        # g(a) = 0.7 - a/2 and h(a) = 0.2 + a/2 on [0, 0.6] cross at a = 0.5
        g = PiecewiseLinear([0.0, 0.6], [0.7, 0.4])
        h = PiecewiseLinear([0.0, 0.6], [0.2, 0.5])
        assert solve_equal(g, h, 0.0, 0.6) == pytest.approx(0.5, abs=1e-15)

    def test_monotonicity_contract(self):
        rising = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ContractViolationError):
            solve_equal(rising, rising, 0.0, 1.0)

    def test_leftmost_of_flat_overlap(self):
        lhs = PiecewiseLinear([0.0, 0.4, 1.0], [1.0, 0.5, 0.5])
        rhs = PiecewiseLinear([0.0, 1.0], [0.5, 0.5])
        assert solve_equal(lhs, rhs, 0.0, 1.0) == pytest.approx(0.4, abs=1e-12)


class TestAdd:
    def test_sum_exact_on_union(self):
        s = add(ramp(), f2_table())
        for x in np.linspace(-0.5, 1.5, 101):
            assert s(x) == pytest.approx(ramp()(x) + f2_table()(x), abs=1e-15)


def test_csv_rows_roundtrip():
    f = f2_table()
    rows = f.csv_rows()
    assert rows[0] == (0.0, 1.0) and rows[-1] == (1.0, 0.0)
    g = PiecewiseLinear([r[0] for r in rows], [r[1] for r in rows])
    assert close(f, g, 0.0)
