"""Algebra of continuous piecewise-linear functions of one variable.

A function is stored as strictly increasing breakpoints ``xs`` with values
``ys``; between breakpoints it interpolates linearly and beyond either end it
extends as a constant.  All operations here are exact in the sense that new
breakpoints are computed from segment coefficients (never by bisection), so
rational boundary values such as 1/9 or 5/9 survive to within one or two ulps.

Canonical form: no duplicate abscissae, no interior breakpoint whose adjacent
slopes agree within ``MERGE_TOL``, and no leading/trailing breakpoint that is
redundant with the constant extension.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BreakpointOverflowError, ContractViolationError

#: Absolute tolerance below which two adjacent slopes are considered equal.
MERGE_TOL = 1e-12

#: Abscissae closer than this are treated as one breakpoint.
DEDUPE_TOL = 1e-13

#: Hard cap on breakpoints; exceeded means the construction blew up.  The
#: value ladder's levels stay under 22k breakpoints (their exact lifts
#: under 43k) at every m up to 200.
MAX_BREAKPOINTS = 6_000_000


def _canonicalize(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]

    # Drop near-duplicate abscissae (keep the first of each cluster).
    if len(xs) > 1:
        keep = np.empty(len(xs), dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(xs) > DEDUPE_TOL
        dropped = ~keep
        if np.any(dropped):
            prev = np.maximum(np.cumsum(keep) - 1, 0)
            if np.max(np.abs(ys[dropped] - ys[keep][prev[dropped]])) > 1e-7:
                raise ContractViolationError(
                    "duplicate breakpoint with conflicting values "
                    "(discontinuity is not representable)"
                )
            xs, ys = xs[keep], ys[keep]

    # Merge interior breakpoints whose adjacent slopes agree.
    if len(xs) > 2:
        slopes = np.diff(ys) / np.diff(xs)
        interior_kink = np.abs(np.diff(slopes)) > MERGE_TOL
        keep = np.concatenate(([True], interior_kink, [True]))
        xs, ys = xs[keep], ys[keep]

    # Strip endpoints made redundant by the constant extension.
    while len(xs) > 1 and abs(ys[1] - ys[0]) <= MERGE_TOL * max(1.0, abs(ys[0])):
        xs, ys = xs[1:], ys[1:]
    while len(xs) > 1 and abs(ys[-1] - ys[-2]) <= MERGE_TOL * max(1.0, abs(ys[-1])):
        xs, ys = xs[:-1], ys[:-1]

    return xs, ys


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view


class PiecewiseLinear:
    """Immutable continuous piecewise-linear function with constant extension.

    ``xs`` and ``ys`` are read-only views of private writeable arrays, which
    evaluation (and ``seq.equalization_alpha``'s fused read) hands to
    ``np.interp``: it copies read-only inputs, which would make every scalar
    read O(breakpoints).
    """

    __slots__ = ("_xs", "_ys", "xs", "ys")

    def __init__(self, xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray):
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        if xs.size == 0 or xs.size != ys.size:
            raise ValueError("need equally many breakpoints and values, at least one")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("breakpoints and values must be finite")
        xs, ys = _canonicalize(xs, ys)
        if len(xs) > MAX_BREAKPOINTS:
            raise BreakpointOverflowError(
                f"{len(xs)} breakpoints exceed the cap of {MAX_BREAKPOINTS}"
            )
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "xs", _read_only(xs))
        object.__setattr__(self, "ys", _read_only(ys))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PiecewiseLinear is immutable")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a scalar or array; constant beyond both ends.

        Values are ``np.interp``'s.  A scalar x (``float``, ``np.float64``,
        ``int`` or 0-d array) gives a Python ``float``, an array an array.  A
        ``float`` and an ndarray of one or more dimensions go straight to
        ``np.interp``, before the ``np.ndim`` tests, whose dispatch costs
        about as much as the interpolation itself; on a one-breakpoint
        function ``np.interp`` already gives the constant everywhere.
        """
        if isinstance(x, float):
            return float(np.interp(x, self._xs, self._ys))
        if isinstance(x, np.ndarray) and x.ndim:
            return np.interp(x, self._xs, self._ys)
        if self.xs.size == 1:
            return np.full_like(np.asarray(x, dtype=float), self.ys[0]) if np.ndim(x) else float(self.ys[0])
        out = np.interp(x, self._xs, self._ys)
        return float(out) if np.ndim(x) == 0 else out

    # -- transforms ---------------------------------------------------------

    def affine(self, a: float, b: float, c: float, d: float) -> "PiecewiseLinear":
        """Return x -> a*f(b*x + c) + d by exact breakpoint remapping."""
        if b == 0.0:
            raise ValueError("b must be nonzero (inner map must be invertible)")
        new_xs = (self.xs - c) / b
        new_ys = a * self.ys + d
        if b < 0:
            new_xs, new_ys = new_xs[::-1], new_ys[::-1]
        return PiecewiseLinear(new_xs, new_ys)

    # -- introspection ------------------------------------------------------

    def piece_count(self) -> int:
        return max(len(self.xs) - 1, 1)

    def csv_rows(self) -> list[tuple[float, float]]:
        """Rows (x, value), one per breakpoint, for CSV emission."""
        return list(zip(self.xs.tolist(), self.ys.tolist()))

    def __repr__(self) -> str:
        return f"PiecewiseLinear({len(self.xs)} breakpoints on [{self.xs[0]:g}, {self.xs[-1]:g}])"


# -- module-level operations ------------------------------------------------


def add(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    """Pointwise sum; exact on the union of breakpoints."""
    grid = np.union1d(f.xs, g.xs)
    return PiecewiseLinear(grid, f(grid) + g(grid))


def pointwise_extreme(f: PiecewiseLinear, g: PiecewiseLinear, mode: str) -> PiecewiseLinear:
    """Pointwise min or max with crossing points inserted exactly.

    The result's breakpoints are the union of both inputs' plus every point
    where the two graphs cross strictly inside a shared segment.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    grid = np.union1d(f.xs, g.xs)
    fv, gv = f(grid), g(grid)
    d = fv - gv
    if len(grid) > 1:
        s0, s1 = d[:-1], d[1:]
        crossing = (s0 * s1) < 0.0
        if np.any(crossing):
            i = np.nonzero(crossing)[0]
            t = grid[i] + (grid[i + 1] - grid[i]) * (s0[i] / (s0[i] - s1[i]))
            grid = np.concatenate((grid, t))
            order = np.argsort(grid, kind="stable")
            grid = grid[order]
            fv, gv = f(grid), g(grid)
    vals = np.minimum(fv, gv) if mode == "min" else np.maximum(fv, gv)
    return PiecewiseLinear(grid, vals)


def solve_equal(lhs: PiecewiseLinear, rhs: PiecewiseLinear,
                lo: float, hi: float, tol: float = 1e-12) -> float | None:
    """Leftmost point of lhs = rhs on [lo, hi].

    Caller asserts lhs is non-increasing and rhs non-decreasing on the
    interval; a detected violation raises ``ContractViolationError``.  Returns
    ``None`` when the interval does not bracket a crossing.  The crossing is
    computed exactly from the bracketing segment pair.
    """
    if hi < lo:
        raise ValueError("empty interval")
    grid = np.union1d(lhs.xs, rhs.xs)
    grid = np.concatenate(([lo], grid[(grid > lo) & (grid < hi)], [hi]))
    lv, rv = lhs(grid), rhs(grid)
    slack = 1e-11
    if np.any(np.diff(lv) > slack):
        raise ContractViolationError("lhs is not non-increasing on the interval")
    if np.any(np.diff(rv) < -slack):
        raise ContractViolationError("rhs is not non-decreasing on the interval")
    d = lv - rv
    if d[0] < -tol or d[-1] > tol:
        return None
    for i in range(len(grid)):
        if abs(d[i]) <= tol:
            return float(grid[i])
        if d[i] < 0.0:
            # crossing strictly inside segment (i-1, i)
            x0, x1, d0, d1 = grid[i - 1], grid[i], d[i - 1], d[i]
            return float(x0 + (x1 - x0) * (d0 / (d0 - d1)))
    return float(grid[-1])
