"""Sequential auction solving against a budgeted adversary.

Three solvers live here:

* an exact backward induction for the uniform additive auction on m identical
  items, producing the game value as a piecewise-linear function of the
  adversary budget (``uniform_additive_value``);
* a grid game-tree oracle for small instances and arbitrary valuations,
  ties to the adversary, by backward induction over a (won, budget) table
  per round (``solve_discretized``);
* a strategy-profile simulator (``simulate``) plus the adversary's exact
  best response to a fixed bid vector (``best_response_to_fixed_bids``).

The uniform additive recursion: after the first of m items is sold, the rest
of the auction is a rescaled copy of the (m-1)-item auction.  With f_{m-1}
known, the bidder's continuation values after winning / losing round one at
adversary bid a/m are

    g_m(x, a) = (1 - a)/m + ((m-1)/m) * f_{m-1}(m x / (m-1))
    h_m(x, a) = ((m-1)/m) * f_{m-1}((m x - a)/(m-1))

and f_m(x) minimizes max(g, h) over feasible a.  Since g is strictly
decreasing and h non-decreasing in a, the optimum is the equalization point
clamped to [0, min(1, mx)].  Each level is lifted segment-exactly; no
bisection is involved, so rational breakpoints (1/9, 5/9, ...) come out to
machine accuracy.

The piece count doubles per level, so each level is then simplified.  Every
level is convex, so a chord through kept breakpoints lies on or above the
points it skips and its error is one-sided: a one-pass band greedy runs
within 2 * 0.9e-9, and the kept breakpoints that span its skipping chords
are lowered by 0.9e-9, which centres that error.  Should the lowered
polyline miss the tolerance, the level falls back to the greedy within
0.9e-9, then to the unsimplified lift; the measured sup error eta_m <= 1e-9
of what is stored is the level's certificate.
The errors do not simply add up: the lift T is monotone and
T(f + c) = T f + r_m c with r_m = (m-1)/m, so T is an r_m-contraction in
the sup norm (Blackwell's conditions) and the stored f_m is within
err_m = r_m err_{m-1} + eta_m of the exact one.  ``LADDER.records(m)``
reports err_m with each level's piece counts and build time; levels 1..3
are exact.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ContractViolationError,
    PolicyContractError,
    StateSpaceError,
)
from .pwl import PiecewiseLinear
from .valuations import (
    AdditiveValuation,
    SubadditiveIdenticalValuation,
    Valuation,
    bid_vector,
    check_budget,
    check_price_rule,
    subset_sums,
    workspace,
)

_TOL = 1e-12


# -- game state and outcomes --------------------------------------------------


class SeqGameState(NamedTuple):
    """Public state visible to a policy before it bids in the current round.

    A named tuple, built once per round by ``simulate``: fields are read by
    name, keyword construction works, and it is immutable and hashable.  As
    a tuple it also unpacks, indexes and compares equal to a plain tuple of
    the same fields; ``dataclasses.replace`` and ``asdict`` do not apply
    (use ``_replace`` and ``_asdict``).
    """

    remaining: tuple[int, ...]
    adversary_budget: float
    won_by_1: frozenset[int]
    prices_paid_1: float
    round: int
    price_rule: str
    m: int

    @property
    def adversary_wins(self) -> int:
        return self.round - len(self.won_by_1)


@dataclass(frozen=True)
class SeqOutcome:
    won_by_1: tuple[int, ...]
    rounds: tuple[tuple[str, float], ...]  # (winner, price) per round
    bidder_paid: float
    adversary_spent: float
    profit: float


# -- exact uniform additive solver --------------------------------------------

#: Default simplification tolerance of a ``Ladder``, the same at every
#: level, and the one ``LADDER`` (every reader but the identical-item
#: ``si_upper`` family, which builds its own ladder at 1e-8) is built at.
#: The exact value function's piece count doubles with every level (1, 3,
#: 6, 13, 27, 55, ... pieces, one fewer than its breakpoints; measured at
#: ``Ladder(eta=0)``), so each level keeps a subset of the lift's
#: breakpoints: the chords of a band greedy within ``2 * _BAND * eta``,
#: lowered by ``_BAND * eta`` where they skip points (see ``_store``); the
#: measured sup error eta_m <= eta is the level's certificate.  Genuine
#: kinks at small m are macroscopic, so levels 1..3 stay exact.  The error
#: left in f_m is certified by the contraction bound documented on
#: ``Ladder``: err_m <= r_m err_{m-1} + eta_m <= eta (m + 1) / 2, about
#: 1e-8 at m = 30 and under 1e-7 at m = 198 for this eta.
_ETA = 1e-9

#: Share of eta given to the stored polyline's band.  Chords on a convex
#: level err on one side only, so ``_simplify`` runs within twice this band
#: and the chords are lowered by it; the rest of eta absorbs rounding in the
#: chords, the zero snap and canonicalization.
_BAND = 0.9

#: Segments per ``_simplify`` block; block ends are always kept.
_BLOCK = 32

#: Values this close to zero are snapped to it (a lossy step, so counted in
#: the level's measured error).
_ZERO_SNAP = 1e-12


@dataclass(frozen=True)
class LevelRecord:
    """How one level f_m of a :class:`Ladder` was built."""

    m: int
    pieces_raw: int  # pieces of the exact lift, before the lossy steps
    pieces: int  # pieces stored
    eta: float  # measured sup error of this level's lossy steps
    err: float  # certified bound on sup |stored f_m - exact f_m|
    build_s: float


def _simplify(xs: np.ndarray, ys: np.ndarray, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of a polyline through a subset of ``(xs, ys)`` within
    ``band`` of every dropped point, in one pass; ``xs`` strictly increase.

    The breakpoints are cut into blocks of ``_BLOCK`` segments whose ends are
    kept, and each block runs the slope-window greedy: an anchor keeps the
    interval [lo, hi] of chord slopes that hold every point skipped since it
    within ``band``; when the next point's chord slope leaves the interval,
    the previous point is kept and becomes the anchor.  Each dropped point is
    thus within ``band`` of the output's chord over it, up to the rounding of
    one slope.  All blocks step in lockstep, as rows of a transposed
    ``(_BLOCK + 1, blocks)`` layout.
    """
    n = len(xs) - 1
    if band <= 0.0 or n < 2:
        return xs, ys
    nb = -(-n // _BLOCK)
    # pad the last block with points past the end: they decide only whether
    # points from the last one on are kept, and that one always is
    pad = nb * _BLOCK - n
    px = np.concatenate((xs, xs[-1] + np.arange(1.0, pad + 1.0)))
    py = np.concatenate((ys, np.full(pad, ys[-1])))
    # column b holds the points b * _BLOCK .. (b + 1) * _BLOCK
    bx = sliding_window_view(px, _BLOCK + 1)[::_BLOCK].T.copy()
    by = sliding_window_view(py, _BLOCK + 1)[::_BLOCK].T.copy()
    # the window of an anchor at point t - 1 once point t is skipped
    step_x, step_lo = np.diff(bx, axis=0), np.diff(by, axis=0)
    step_hi = step_lo + band
    step_lo -= band
    step_lo /= step_x
    step_hi /= step_x
    keep = np.zeros((_BLOCK, nb), dtype=bool)
    ax, ay = bx[0].copy(), by[0].copy()
    lo, hi = np.full(nb, -np.inf), np.full(nb, np.inf)
    dx, dy, s, w = np.empty((4, nb))
    above = np.empty(nb, dtype=bool)
    for t in range(1, _BLOCK + 1):
        # blocks whose chord to point t leaves the window keep point t - 1
        brk = keep[t - 1]
        np.subtract(bx[t], ax, out=dx)
        np.subtract(by[t], ay, out=dy)
        np.divide(dy, dx, out=s)
        np.less(s, lo, out=brk)
        np.greater(s, hi, out=above)
        brk |= above
        np.subtract(dy, band, out=w)
        w /= dx
        np.maximum(lo, w, out=lo)
        np.add(dy, band, out=w)
        w /= dx
        np.minimum(hi, w, out=hi)
        # and restart from it with the window of the one segment to point t
        np.putmask(ax, brk, bx[t - 1])
        np.putmask(ay, brk, by[t - 1])
        np.putmask(lo, brk, step_lo[t - 1])
        np.putmask(hi, brk, step_hi[t - 1])
    keep[0] = True
    mask = np.append(keep.T.ravel(), True)[: n + 1]
    mask[n] = True
    return xs[mask], ys[mask]


def _with_knots(xs: np.ndarray, ys: np.ndarray, knots: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of a polyline with sorted ``knots`` merged in, duplicates dropped."""
    idx = np.searchsorted(xs, knots)
    gx = np.insert(xs, idx, knots)
    gy = np.insert(ys, idx, np.interp(knots, xs, ys))
    keep = np.concatenate(([True], gx[1:] > gx[:-1]))
    return gx[keep], gy[keep]


def _lift(fp: PiecewiseLinear, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The level map: f_m from f_{m-1}, exactly, as sorted raw arrays on [0, 1].

    f_m = max(E_g, f_cross).  E_g(x) = max(1/m - x, 0) + B(x) with
    B(x) = r f_{m-1}(x / r) is the value of committing to win round one at
    the adversary's cap bid.  f_cross is the equalization value: substituting
    u = (m x - a)/(m - 1) turns g = h into phi(u) = psi(x) with
    phi(u) = f_{m-1}(u) - u and psi(x) = (1/m + B(x) - x)/r, both strictly
    decreasing, so the crossing u(x) is unique, f_cross = r (psi + u) and it
    is affine between the knots of psi and the events where u(x) passes a
    breakpoint of f_{m-1}.  Where no feasible crossing exists the minimum of
    max(g, h) sits at alpha_max with value E_g; otherwise the equalization
    value applies and dominates E_g.  The two regimes meet at a grid point:
    for x >= 1/m, alpha_max = 1 and g <= h there, so the crossing is always
    feasible; for x < 1/m, the crossing leaves the feasible range where
    u(x) = 0, the event of f_{m-1}'s breakpoint u = 0.  Every value is
    computed from segment coefficients; nothing is bisected.
    """
    r = (m - 1.0) / m
    # knots of psi: those of B, E_g's kink at 1/m and the window ends
    xs, b = _with_knots(r * fp.xs, r * fp.ys, [0.0, 1.0 / m, 1.0])
    psi = (1.0 / m + b - xs) / r
    us, fu = _with_knots(fp.xs, fp.ys, [0.0, 1.0])
    phi = fu - us  # phi(0) = 1, phi(1) = -1

    u = np.interp(psi, phi[::-1], us[::-1])
    cross = r * (psi + u)
    cross[psi >= phi[0]] = r  # crossing needs a < 0: f_{m-1}(u) = 1
    cross[psi <= phi[-1]] = 0.0  # crossing beyond u = 1: f_{m-1}(u) = 0

    # events: x where psi(x) = phi(u_k) at a breakpoint u_k of f_{m-1}; there
    # u = u_k, f_cross = r f_{m-1}(u_k) and B = r phi(u_k) - 1/m + x
    inside = (phi < psi[0]) & (phi > psi[-1])
    ev_phi = phi[inside]
    ev_x = np.interp(ev_phi, psi[::-1], xs[::-1])
    ev_at = np.searchsorted(xs, ev_x) + np.arange(len(ev_x))
    xs_at = np.ones(len(xs) + len(ev_x), dtype=bool)
    xs_at[ev_at] = False
    xs_at = np.nonzero(xs_at)[0]
    grid, e_g, f_cross = np.empty((3, len(xs_at) + len(ev_at)))
    grid[xs_at], grid[ev_at] = xs, ev_x
    f_cross[xs_at], f_cross[ev_at] = cross, r * fu[inside]
    e_g[xs_at], e_g[ev_at] = b, r * ev_phi - 1.0 / m + ev_x
    e_g += np.maximum(1.0 / m - grid, 0.0)

    # E_g and f_cross meet only at grid points (see above), so their max is
    # affine between grid points too
    vals = np.maximum(e_g, f_cross)
    keep = np.concatenate(([True], grid[1:] > grid[:-1]))
    return grid[keep], vals[keep]


def _lowered(xs: np.ndarray, gx: np.ndarray, gy: np.ndarray, band: float) -> np.ndarray:
    """Values of the kept breakpoints ``(gx, gy)`` of ``xs`` lowered by
    ``band`` from the first to the last kept segment that skips a point,
    never at the two endpoints."""
    k = len(gx)
    low = gy.copy()
    if k < len(xs):
        # the kept points match xs up to the first skip, and from the end
        # back to the last one
        first = int(np.argmax(gx != xs[:k])) - 1
        last = k - 1 - int(np.argmax(gx[::-1] != xs[::-1][:k]))
        low[max(first, 1) : min(last + 2, k - 1)] -= band
    return low


def _store(xs: np.ndarray, exact: np.ndarray, eta: float) -> tuple[PiecewiseLinear, float]:
    """The polyline stored for the exact breakpoints ``(xs, exact)`` and its
    measured sup error, at most ``eta``.

    The error counts every lossy step: the zero snap, the simplification and
    the canonicalization in the ``PiecewiseLinear`` constructor.  The stored
    breakpoints are a subset of ``xs``, so the error peaks there, and the
    measured error is the certificate.

    With ``band = _BAND * eta``, the breakpoints are simplified within
    ``2 band``.  On a convex level every chord lies on or above the points
    it skips, by at most ``2 band``, so lowering the kept breakpoints that
    span the skipping chords by ``band`` centres them: the lowered polyline
    is within ``band`` of every point, with chords about sqrt 2 times as
    long as those within ``band``.  A screen of its chords picks the
    candidate: unlowered if within ``band`` (at levels 1..10 only
    near-collinear points drop), else lowered.  Should its error exceed
    ``eta`` (a non-convex curve, or a skipping chord at an endpoint, never
    lowered) the ``_simplify(xs, ys, band)`` polyline is stored, and should
    its error exceed ``eta`` too, the unsimplified breakpoints.
    """
    ys = exact.copy()
    ys[np.abs(ys) <= _ZERO_SNAP] = 0.0

    def measured(px: np.ndarray, py: np.ndarray) -> tuple[PiecewiseLinear, float]:
        f = PiecewiseLinear(px, py)
        return f, float(np.max(np.abs(f(xs) - exact)))

    band = _BAND * eta
    gx, gy = _simplify(xs, ys, 2.0 * band)
    if np.max(np.abs(np.interp(xs, gx, gy) - exact)) > band:
        gy = _lowered(xs, gx, gy, band)
    fm, err = measured(gx, gy)
    if err > eta:
        fm, err = measured(*_simplify(xs, ys, band))
    if err > eta:
        fm, err = measured(xs, ys)
    return fm, err


class Ladder:
    """The value functions f_1, f_2, ..., built on demand and cached.

    Level m lifts the stored f_{m-1} exactly and then takes lossy steps (zero
    snap, simplification within ``eta``, canonical form) whose sup error
    eta_m is measured.  The exact lift T is monotone in f_{m-1}, and adding
    a constant c to f_{m-1} shifts T f_{m-1} by exactly r_m c, r_m =
    (m-1)/m, since both continuation values g and h carry f_{m-1} with the
    factor r_m.  By Blackwell's sufficient conditions T is an r_m-contraction
    in the sup norm, so the stored f_m is within

        err_m = r_m err_{m-1} + eta_m,   err_1 = 0,

    of the exact f_m, up to floating-point rounding in the lift (a few ulps
    per level).  ``records`` reports each level's piece counts, eta_m,
    err_m and build time.  ``stream`` yields the same levels and records in
    order without caching the ones it builds, for a reader that needs each
    level only until the next one exists.  ``crossing`` adds a level's
    search key, built on its first crossing read and kept beside the level.

    The lock guards building only, so threads sharing a ladder see each
    level and key built once.  A read of what is already built takes no
    lock: the lists and the key dict only grow, a level is appended before
    its record and a key is stored once it is final, so each read checks
    the length of the list it slices, or finds its key, and otherwise
    builds under the lock.
    """

    def __init__(self, eta: float = _ETA):
        if not (math.isfinite(eta) and eta >= 0.0):
            raise ValueError(f"eta must be finite and non-negative, got {eta}")
        self.eta = eta
        self._levels = [PiecewiseLinear([0.0, 1.0], [1.0, 0.0])]
        self._records = [LevelRecord(m=1, pieces_raw=1, pieces=1, eta=0.0, err=0.0, build_s=0.0)]
        self._keys: dict[int, np.ndarray] = {}  # m -> crossing key of f_m
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of levels built so far."""
        return len(self._levels)

    def _next(self, fp: PiecewiseLinear, prev: LevelRecord) -> tuple[PiecewiseLinear, LevelRecord]:
        """The level ``_store`` keeps of ``fp``'s exact lift, and its record."""
        k = prev.m + 1
        t0 = time.perf_counter()
        xs, exact = _lift(fp, k)
        fk, eta_k = _store(xs, exact, self.eta)
        err = (k - 1.0) / k * prev.err + eta_k
        return fk, LevelRecord(
            m=k, pieces_raw=len(xs) - 1, pieces=fk.piece_count(), eta=eta_k, err=err,
            build_s=time.perf_counter() - t0,
        )

    def _upto(self, m: int) -> int:
        if m < 1:
            raise ValueError("m must be at least 1")
        while len(self._levels) < m:
            fk, rec = self._next(self._levels[-1], self._records[-1])
            self._levels.append(fk)
            self._records.append(rec)
        return m

    def levels(self, m: int) -> list[PiecewiseLinear]:
        """[f_1, ..., f_m], building missing levels."""
        levels = self._levels
        if 0 < m <= len(levels):
            return levels[:m]
        with self._lock:
            return self._levels[: self._upto(m)]

    def level(self, m: int) -> PiecewiseLinear:
        """f_m, building missing levels."""
        levels = self._levels
        if 0 < m <= len(levels):
            return levels[m - 1]
        with self._lock:
            return self._levels[self._upto(m) - 1]

    def crossing(self, m: int) -> tuple[PiecewiseLinear, np.ndarray]:
        """f_m and its crossing key ``f_m.xs - f_m.ys``, read-only, building
        missing levels.

        The key is ``-phi`` at the breakpoints, phi(u) = f_m(u) - u, so it is
        sorted: xs strictly increase, ys never do, and rounding a difference
        is monotone in both operands.  It is built under the lock on the
        first call for level m and kept, at 8 bytes a breakpoint (half the
        level's own arrays); ``levels``, ``records`` and ``stream`` never
        build one.  A kept key is read without the lock.
        """
        key = self._keys.get(m)
        if key is not None:
            return self._levels[m - 1], key
        with self._lock:
            fm = self._levels[self._upto(m) - 1]
            key = self._keys.get(m)
            if key is None:
                key = fm.xs - fm.ys
                key.setflags(write=False)
                self._keys[m] = key
            return fm, key

    def records(self, m: int) -> list[LevelRecord]:
        """Build records of f_1, ..., f_m, building missing levels."""
        records = self._records
        if 0 < m <= len(records):
            return records[:m]
        with self._lock:
            return self._records[: self._upto(m)]

    def stream(self, m_max: int) -> Iterator[tuple[int, PiecewiseLinear, LevelRecord]]:
        """``(m, f_m, record)`` for m = 1..m_max, without caching new levels.

        The levels already cached come first, as ``levels`` holds them; the
        rest are built as ``levels`` would build them, bit for bit up to
        ``build_s``, but only the previous one is kept alive, so memory stays
        at two levels however far the stream goes.  It takes no lock: the
        cached prefix ends at the last level whose record exists.
        """
        if m_max < 1:
            raise ValueError("m must be at least 1")
        cached = list(zip(self._levels[:m_max], self._records[:m_max]))
        return self._stream(cached, m_max)

    def _stream(self, cached: list, m_max: int) -> Iterator[tuple[int, PiecewiseLinear, LevelRecord]]:
        for fm, rec in cached:
            yield rec.m, fm, rec
        fm, rec = cached[-1]
        while rec.m < m_max:
            fm, rec = self._next(fm, rec)
            yield rec.m, fm, rec


#: The process-wide ladder; ``LADDER.levels(m)`` is [f_1, ..., f_m].
LADDER = Ladder()


def uniform_additive_value(m: int) -> PiecewiseLinear:
    """Game value f_m of the m-item uniform additive auction, as a function
    of the adversary budget.  f_m(0) = 1 and f_m(x) = 0 for x >= 1."""
    return LADDER.level(m)


def g_h(m: int, x: float, alpha: float) -> tuple[float, float]:
    """Continuation values (g, h) after round one of the m-item auction.

    ``alpha`` is the adversary's first-round bid in units of the per-item
    value 1/m; it must satisfy 0 <= alpha <= min(1, m*x).  ``x`` and
    ``alpha`` may be arrays (broadcast together); g and h then are too.
    Both read f_{m-1} from ``LADDER``.
    """
    if m < 2:
        raise ValueError("g/h need m >= 2")
    array = isinstance(x, np.ndarray) or isinstance(alpha, np.ndarray)
    if array:
        finite = np.all(np.isfinite(x) & np.isfinite(alpha))
        cap = np.minimum(1.0, m * x)
        feasible = np.all((alpha >= -_TOL) & (alpha <= cap + 1e-9))
    else:  # the same tests without numpy's per-call overhead on scalars
        finite = math.isfinite(x) and math.isfinite(alpha)
        cap = min(1.0, m * x)
        feasible = -_TOL <= alpha <= cap + 1e-9
    if not finite:
        raise ValueError("budget and bid ratio must be finite")
    if not feasible:
        raise ContractViolationError(f"alpha = {alpha} outside the feasible range [0, min(1, m x) = {cap}]")
    fp = LADDER.level(m - 1)
    r = (m - 1.0) / m
    g = (1.0 - alpha) / m + r * fp(m * x / (m - 1.0))
    h = r * fp((m * x - alpha) / (m - 1.0))
    return (g, h) if array else (float(g), float(h))


def alpha_tilde(m: int, x):
    """The sufficient first-round bid ratio at a budget or array of budgets x.

    A Python ``int`` or ``float`` x (``np.float64`` included) gives a
    ``float``, checked and rooted by ``math`` without numpy's per-call
    overhead; any other x goes through numpy, as an array would.  Both
    square roots are correctly rounded, so the two agree to the bit.
    """
    scalar = isinstance(x, (int, float))
    if scalar:
        valid = math.isfinite(x) and x >= 0.0
    else:
        valid = np.all(np.isfinite(x) & (x >= 0.0))
    if m < 2 or not valid:
        raise ValueError(f"need m >= 2 and finite budgets x >= 0, got m = {m}, x = {x}")
    one_minus_sqrt = 1.0 - (math.sqrt(x) if scalar else np.sqrt(x))
    return 1.0 - 2.0 * m * one_minus_sqrt + 2.0 * math.sqrt(m * (m - 1.0)) * one_minus_sqrt


def equalization_alpha(m: int, x: float) -> tuple[float, float]:
    """Optimal first-round bid ratio for the adversary in A_m at budget x.

    Returns (alpha, value) where value = f_m(x).  The optimum is the
    equalization point of g and h when it is feasible, else alpha_max.  In
    u = (m x - alpha)/(m - 1), g - h = g(0) - x - r phi(u) with
    phi(u) = f_{m-1}(u) - u strictly decreasing, so the crossing phi(u) = c
    is bracketed by one ``searchsorted`` of -c in the level's sorted key
    ``xs - ys`` (``Ladder.crossing``, built on the level's first crossing
    read and then cached) and solved exactly inside the bracketing segment,
    on Python floats.  f_{m-1} is read at both ends of the feasible range
    in one ``np.interp`` call on the level's arrays, whose values are those
    of two scalar reads.
    """
    if m < 2:
        raise ValueError("equalization needs m >= 2")
    check_budget(x)
    alpha_max = min(1.0, m * x)
    fp, key = LADDER.crossing(m - 1)
    xs, ys = fp._xs, fp._ys
    r = (m - 1.0) / m
    f0, f_end = np.interp((m * x / (m - 1.0), (m * x - alpha_max) / (m - 1.0)), xs, ys).tolist()
    g0 = 1.0 / m + r * f0
    if alpha_max <= 0.0:
        return 0.0, g0
    g_end = g0 - alpha_max / m
    if g_end - r * f_end >= -_TOL:
        return alpha_max, g_end  # g - h stays above -_TOL on the feasible range
    c = (g0 - x) / r  # the crossing solves phi(u) = c
    i = int(key.searchsorted(-c))
    if i == 0 or i == len(xs):  # beyond the breakpoints f_{m-1} is constant
        u = ys.item(min(i, len(xs) - 1)) - c
    else:
        x0, x1, y0, y1 = xs.item(i - 1), xs.item(i), ys.item(i - 1), ys.item(i)
        phi0, phi1 = y0 - x0, y1 - x1
        u = x0 + (phi0 - c) / (phi0 - phi1) * (x1 - x0)
    alpha = min(max(m * x - (m - 1.0) * u, 0.0), alpha_max)
    return alpha, g0 - alpha / m


# -- simulation ---------------------------------------------------------------

Policy = Callable[[SeqGameState], float]


def simulate(
    v: Valuation,
    bidder: Policy,
    adversary: Policy,
    price_rule: str = "first",
    *,
    budget: float,
) -> SeqOutcome:
    """Play all m rounds; higher bid wins with ties to the adversary.

    First price: the winner pays their own bid.  Second price: the winner
    pays the opponent's bid.  The adversary's budget starts at ``budget``, a
    required keyword (a policy is only a map from state to bid), and
    decreases only when he wins (first price: by his bid; second price: by
    Bidder 1's bid).
    """
    check_price_rule(price_rule)
    check_budget(budget)

    m = v.m
    budget_left = float(budget)
    won: set[int] = set()
    paid = 0.0
    spent = 0.0
    rounds: list[tuple[str, float]] = []
    items = tuple(range(m))
    for t in range(m):
        # by position, which costs a third of keyword construction
        state = SeqGameState(items[t:], budget_left, frozenset(won), paid, t, price_rule, m)
        b1 = float(bidder(state))
        b2 = float(adversary(state))
        if not (math.isfinite(b1) and math.isfinite(b2)):
            raise PolicyContractError(f"bids must be finite, got {b1} and {b2}")
        if b1 < -_TOL:
            raise PolicyContractError("bidder emitted a negative bid")
        if b2 < -_TOL or b2 > budget_left + 1e-9:
            raise PolicyContractError(
                f"adversary bid {b2} violates remaining budget {budget_left}"
            )
        if b2 >= b1:  # ties to the adversary
            price = b2 if price_rule == "first" else b1
            budget_left -= price
            spent += price
            rounds.append(("adversary", price))
        else:
            price = b1 if price_rule == "first" else b2
            paid += price
            won.add(t)
            rounds.append(("bidder", price))
    profit = v.value(won) - paid
    return SeqOutcome(
        won_by_1=tuple(sorted(won)),
        rounds=tuple(rounds),
        bidder_paid=paid,
        adversary_spent=spent,
        profit=float(profit),
    )


# -- discretized game-tree oracle ----------------------------------------------


def _is_symmetric(v: Valuation) -> bool:
    if isinstance(v, SubadditiveIdenticalValuation):
        return True
    if isinstance(v, AdditiveValuation):
        return len(set(v.weights)) == 1
    return False


#: Cap on the grid oracle's work: rounds * won states * budget units * bids.
_MAX_GRID_OPS = 2e8


def solve_discretized(
    v: Valuation,
    B: float,
    delta: float,
    price_rule: str = "first",
    leader: str = "adversary",
) -> float:
    """Value of the grid game where each round the leader commits a bid on a
    delta-grid and the follower best-responds (win or lose).

    Ties are awarded to the adversary, so a winning bidder pays one grid step
    above the adversary's bid under first price: this is the conservative
    worst-case reading of the limit-bid convention.  ``leader='adversary'``
    realizes the min-max order; ``leader='bidder'`` the max-min order.

    Backward induction over a table val[w, u], won states w (counts if v is
    symmetric, else masks) by budget units u, one array operation per bid;
    rows a round cannot reach are computed but never read.  With won =
    val[next(w), u]: adversary leading, min over a <= u of max(won - (a +
    [first]) delta, val[w, u - a]); bidder leading, max over b <= min(1/delta,
    u0 + 1) (u0 the starting units) of min(won - pay delta, val[w, u - b] if
    b <= u), pay = b under first price and the drain min(b - 1, u) under
    second.
    """
    check_price_rule(price_rule)
    if leader not in ("adversary", "bidder"):
        raise ValueError("leader must be 'adversary' or 'bidder'")
    check_budget(B)
    if not (math.isfinite(delta) and 0.0 < delta <= 1.0):
        raise ValueError(f"delta must be finite and in (0, 1], got {delta}")
    m = v.m
    if m > 6:
        raise ValueError("the game-tree oracle is capped at m = 6")
    n_max = round(1.0 / delta)
    if abs(n_max * delta - 1.0) > 1e-9:
        raise ValueError("delta must divide the bid range [0, 1] evenly")
    bu0 = int(math.floor(B / delta + 1e-9))

    symmetric = _is_symmetric(v)
    final = np.array([v.value(range(k)) for k in range(m + 1)]) if symmetric else v.values_all()
    # Bidder leading: at budget u a bid above u + 1 is worth no more than
    # u + 1 (it pays more under first price and drains u under second), so
    # her bids stop at bu0 + 1.
    loop = (bu0 + 1) if leader == "adversary" else min(n_max, bu0 + 1) + 1
    if m * len(final) * (bu0 + 1) * loop > _MAX_GRID_OPS:
        raise StateSpaceError("discretized state space exceeds the cap")
    if leader == "bidder":  # the adversary pays at most n_max units a round
        bu0 = min(bu0, m * n_max)

    w, units = np.arange(len(final)), np.arange(bu0 + 1)
    first = int(price_rule == "first")
    val = np.repeat(final[:, None], bu0 + 1, axis=1)
    for t in reversed(range(m)):
        won = val[np.minimum(w + 1, m) if symmetric else w | (1 << t)]
        if leader == "adversary":
            new = np.full_like(val, math.inf)
            for a in range(bu0 + 1):
                follower = np.maximum(won[:, a:] - (a + first) * delta, val[:, : bu0 + 1 - a])
                np.minimum(new[:, a:], follower, out=new[:, a:])
        else:
            new = np.full_like(val, -math.inf)
            for b in range(loop):
                follower = won - (b if first or b == 0 else np.minimum(b - 1, units)) * delta
                if b <= bu0:
                    np.minimum(follower[:, b:], val[:, : bu0 + 1 - b], out=follower[:, b:])
                np.maximum(new, follower, out=new)
        val = new
    return float(val[0, bu0])


# -- exact adversary best response to fixed bids --------------------------------


def best_response_to_fixed_bids(
    v: Valuation,
    bids1: Iterable[float],
    B: float,
    price_rule: str = "first",
) -> tuple[tuple[int, ...], float]:
    """Adversary's profit-minimizing plan against a fixed bid vector.

    The adversary can win a set T exactly when its limit cost sum(bids1[T])
    is strictly below B (he must outbid by a vanishing margin, so spending
    exactly B is out of reach).  Under second price his losing bids also
    drain the bidder, capped by the budget remaining at each round.  Every
    take-set is tried, so m is capped at ``valuations.MAX_ENUM_M``; above
    it the enumeration raises ValueError.  Ties go to the smallest mask.

    Returns (winning plan as a sorted index tuple, Bidder 1's profit).
    """
    check_price_rule(price_rule)
    m = v.m
    bids = bid_vector(bids1, m, "bidder")
    check_budget(B)

    cost, profit, vals = workspace(m)[:3]
    subset_sums(bids, cost)  # the adversary's limit cost of each take-set
    if price_rule == "first":
        pay = cost[::-1]  # the bidder pays her bids on the complement
    else:
        # round-order drain: extending the masks below 2^i by item i, the
        # half where the bidder wins it pays min(b_i, budget left), the half
        # where the adversary takes it spends b_i, which cost already holds;
        # pay is built in the profit row, the capped payments in vals[:n]
        # until the values overwrite them
        pay = profit
        pay[0] = 0.0
        for i, bi in enumerate(bids.tolist()):
            n = 1 << i
            pay[n : 2 * n] = pay[:n]
            drain = np.subtract(B, cost[:n], out=vals[:n])
            np.minimum(bi, drain, out=drain)
            pay[:n] += np.clip(drain, 0.0, None, out=drain)
    np.subtract(v.values_all(vals)[::-1], pay, out=profit)
    infeasible = cost >= B - 1e-12
    infeasible[0] = False  # the empty plan is always available
    np.copyto(profit, math.inf, where=infeasible)
    best_mask = int(np.argmin(profit))
    plan = tuple(i for i in range(m) if best_mask >> i & 1)
    return plan, float(profit[best_mask])
