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
of the auction is a rescaled copy of the (m-1)-item auction.  With
B(x) = r f_{m-1}(x / r), r = (m-1)/m, and the adversary's first bid a
(``g_h``'s alpha / m), f_m = cross(1/m + B, B), where

    cross(hi, lo)(x) = min over 0 <= a <= x of max(hi(x) - a, lo(x - a)).

The bid cap a <= 1/m never binds: for a > 1/m, hi(x) - a < B(x) <= B(x - a).
``_cross`` is segment-exact, with no bisection, so rational breakpoints
(1/9, 5/9, ...) come out to machine accuracy.

The piece count doubles per level, so each level is then simplified
(``_store``) to chords through kept breakpoints within 0.9e-9.  The lift of
a convex level is convex (``_cross``), so those chords lie on or above it
and are convex too; their measured sup error eta_m <= 1e-9 is the
certificate.  The lift is a monotone r_m-contraction (``Ladder``), so the
exact f_m lies in [stored - err_m, stored], err_m = r_m err_{m-1} + eta_m.
``LADDER.records(m)`` reports err_m with each level's piece counts and
build time; levels 1..3 are exact.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    PolicyContractError,
    StateSpaceError,
)
from .pwl import DEDUPE_TOL, PiecewiseLinear
from .valuations import (
    AdditiveValuation,
    SubadditiveIdenticalValuation,
    Valuation,
    bid_vector,
    check_budget,
    check_count,
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
#: breakpoints, a convex polyline on or above it and within eta of it
#: (proved on ``_store``); the measured sup error eta_m <= eta is the
#: level's certificate.  Genuine kinks at small m are macroscopic, so levels
#: 1..3 stay exact.  The error left in f_m is certified by the contraction
#: bound on ``Ladder``:
#: err_m <= r_m err_{m-1} + eta_m <= eta (m + 1) / 2, about 1e-8 at m = 30
#: and under 1e-7 at m = 198 for this eta.
_ETA = 1e-9

#: Share of eta given to the stored polyline's band: ``_simplify``'s chords
#: stay within it, on or above a convex lift (``_store``); the rest of eta
#: absorbs rounding in the chords, the zero snap and canonicalization.
_BAND = 0.9

#: Segments per ``_simplify`` block; block ends are always kept.
_BLOCK = 32

#: Values this close to zero are snapped to it (a lossy step, so counted in
#: the level's measured error).
_ZERO_SNAP = 1e-12


@dataclass(frozen=True)
class LevelRecord:
    """How one level f_m of a :class:`Ladder` was built.  The stored f_m
    lies on or above the exact one, so the exact f_m is in
    [stored - err, stored], up to rounding."""

    m: int
    pieces_raw: int  # pieces of the exact lift, before the lossy steps
    pieces: int  # pieces stored
    eta: float  # measured sup error of this level's lossy steps
    err: float  # certified: 0 <= stored f_m - exact f_m <= err
    build_s: float


def _simplify(xs: np.ndarray, ys: np.ndarray, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of a polyline through a subset of ``(xs, ys)`` within
    ``band`` of every dropped point, in one pass; ``xs`` strictly increase.

    The breakpoints are cut into blocks of ``_BLOCK`` segments whose ends are
    kept, as are the points next to both ends (see ``_store``), and each block
    runs the slope-window greedy: an anchor keeps the interval [lo, hi] of
    chord slopes that hold every point skipped since it within ``band``; when
    the next point's chord slope leaves the interval, the previous point is
    kept and becomes the anchor.  Each dropped point is thus within ``band`` of
    the output's chord over it, up to the rounding of one slope.  All blocks
    step in lockstep, as rows of a transposed ``(_BLOCK + 1, blocks)`` layout.
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
    bx, by = (np.vstack((p[:-1].reshape(nb, _BLOCK).T, p[_BLOCK::_BLOCK])) for p in (px, py))
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
    # the points next to both ends are kept by a forced break at their row
    near = np.searchsorted(xs, xs[0] + DEDUPE_TOL, "right"), np.searchsorted(xs, xs[-1] - DEDUPE_TOL) - 1
    ends = [divmod(min(max(int(p), 1), n - 1), _BLOCK) for p in near]
    for t in range(1, _BLOCK + 1):
        # blocks whose chord to point t leaves the window keep point t - 1
        brk = keep[t - 1]
        np.subtract(bx[t], ax, out=dx)
        np.subtract(by[t], ay, out=dy)
        np.divide(dy, dx, out=s)
        np.less(s, lo, out=brk)
        np.greater(s, hi, out=above)
        brk |= above
        for b, row in ends:
            if row == t - 1:
                brk[b] = True
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


def _cross(hx: np.ndarray, hy: np.ndarray, lx: np.ndarray, ly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of cross(hi, lo), exactly, as sorted raw arrays: hi given
    on its knots ``hx``, lo by ``(lx, ly)``.

    lo falls weakly from lx[0] = 0 and is constant past lx[-1], hi >= lo,
    and psi = hi - id falls strictly.  So does phi = lo - id, and
    max(hi(x) - a, lo(x - a)) is least where phi(v) = psi(x), v = x - a, at
    psi + v: affine between hi's knots and the events where v passes a
    breakpoint of lo, valued lo there.  hi >= lo keeps a >= 0; where
    psi >= phi(0), a would pass x and the all-in bid v = 0 (np.interp's
    clip) is optimal; past lx[-1] the value is ly[-1].

    So the value is G(psi(x)), G(s) = s + phi^-1(s).  For a convex lo, G has
    slope 1 + 1/(lo'(v) - 1) in [0, 1), rising with s as v = phi^-1(s)
    falls, and its clips, slope 1 from phi(0) up and 0 from phi(lx[-1])
    down, keep it convex and non-decreasing.  A convex hi makes psi convex,
    so cross(hi, lo) is convex, as the lift is when f_{m-1} is.
    """
    psi, phi = hy - hx, ly - lx
    vals = psi + np.interp(psi, phi[::-1], lx[::-1])
    vals[psi <= phi[-1]] = ly[-1]
    # events and knots are each sorted, so the stable sort merges them, an
    # event ahead of a knot at the same x
    inside = (phi < psi[0]) & (phi > psi[-1])
    grid = np.concatenate((np.interp(phi[inside], psi[::-1], hx[::-1]), hx))
    order = np.argsort(grid, kind="stable")
    grid, vals = grid[order], np.concatenate((ly[inside], vals))[order]
    keep = np.concatenate(([True], grid[1:] > grid[:-1]))
    return grid[keep], vals[keep]


def _lift(fp: PiecewiseLinear, m: int) -> tuple[np.ndarray, np.ndarray]:
    """f_m = cross(1/m + B, B), B(x) = r f_{m-1}(x / r), exactly, as sorted
    raw arrays on [0, 1], hi on B's knots and 0, 1/m and 1; ``fp`` starts at
    u = 0 and never rises.  The bid cap a <= 1/m never binds: for a > 1/m,
    hi(x) - a < B(x) <= B(x - a)."""
    r = (m - 1.0) / m
    lx, ly = r * fp.xs, r * fp.ys
    hx, b = _with_knots(lx, ly, [0.0, 1.0 / m, 1.0])
    return _cross(hx, 1.0 / m + b, lx, ly)


def _store(xs: np.ndarray, exact: np.ndarray, eta: float) -> tuple[PiecewiseLinear, float]:
    """The polyline stored for the exact breakpoints ``(xs, exact)`` and its
    measured sup error, at most ``eta``, which counts every lossy step: the
    zero snap, the simplification and the canonicalization in the
    ``PiecewiseLinear`` constructor.  The stored breakpoints are a subset of
    ``xs``, so the error peaks there and is the certificate.  A polyline
    that drops points and misses ``eta`` raises ContractViolationError.

    The polyline is ``_simplify``'s within ``band = _BAND * eta``, stored
    as it is; the rest of eta absorbs rounding.  On a convex lift its
    breakpoints are lift points, so its chords lie on or above the points
    they skip: it is convex, non-increasing where the lift is, within
    ``band`` of it and never below it, up to rounding and the zero snap.
    Levels 1..3 keep every point.  ``_simplify`` keeps the points next to
    both ends, the first and last more than ``pwl.DEDUPE_TOL`` from them,
    so the end pieces are the lift's own: a chord into x = 1 would sit up
    to ``band`` above a tail where f_m is about 1/m^2.

    As the lift of a convex, non-increasing level is convex (``_cross``),
    every stored level is, from f_1 on; only a non-convex curve can miss
    ``eta``.
    """
    ys = np.where(np.abs(exact) <= _ZERO_SNAP, 0.0, exact)
    gx, gy = _simplify(xs, ys, _BAND * eta)
    fm = PiecewiseLinear(gx, gy)
    err = float(np.max(np.abs(fm(xs) - exact)))
    if err > eta and len(gx) < len(xs):
        raise ContractViolationError(f"a level simplified within {eta} is off by {err}")
    return fm, err


def _entry(fm: PiecewiseLinear, rec: LevelRecord) -> tuple[PiecewiseLinear, LevelRecord, np.ndarray]:
    """A ``Ladder``'s entry: ``fm``, its record and its crossing key."""
    key = fm.xs - fm.ys
    key.setflags(write=False)
    return fm, rec, key


class Ladder:
    """The value functions f_1, f_2, ..., built on demand and cached.

    Level m lifts the stored f_{m-1} exactly, T f_{m-1} = cross(1/m + B, B)
    with B(x) = r_m f_{m-1}(x / r_m), r_m = (m-1)/m, and then takes lossy
    steps (zero snap, simplification within ``eta``, canonical form) whose
    sup error eta_m is measured; each level is convex, non-increasing and
    on or above its lift (proved on ``_store``).  T is monotone in f_{m-1},
    and adding a constant c to f_{m-1} shifts T f_{m-1} by exactly r_m c,
    since both arguments of the crossing carry f_{m-1} through B.  By
    Blackwell's sufficient conditions T is an r_m-contraction in the sup
    norm, so the stored f_m is within

        err_m = r_m err_{m-1} + eta_m,   err_1 = 0,

    of the exact f_m, up to floating-point rounding in the lift (a few ulps
    per level).  As T is monotone and each level lies on or above T of the
    one before, by induction from the exact f_1, the exact f_m lies in
    [stored - err_m, stored].  A level that rises into x = 1, which
    ``_store`` rules out, would raise ContractViolationError before its lift.
    ``records`` reports each level's piece counts, eta_m, err_m and build
    time.  ``stream`` yields the same levels and records in order without
    caching the ones it builds, for a reader that needs each level only
    until the next one exists.  ``crossing`` adds a level's search key.
    Each of these takes m through ``operator.index`` before it builds
    anything, so a numpy integer passes and a float raises TypeError.

    The lock guards building only, so threads sharing a ladder see each
    level built once.  A read of what is already built takes no lock: the
    list of ``(f_m, record, key)`` entries only grows and an entry is
    appended whole, so a reader that sees level m sees its record and key.
    """

    def __init__(self, eta: float = _ETA):
        if not (math.isfinite(eta) and eta >= 0.0):
            raise ValueError(f"eta must be finite and non-negative, got {eta}")
        self.eta = eta
        first = LevelRecord(m=1, pieces_raw=1, pieces=1, eta=0.0, err=0.0, build_s=0.0)
        self._built = [_entry(PiecewiseLinear([0.0, 1.0], [1.0, 0.0]), first)]  # entry m - 1 is (f_m, record, key)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of levels built so far."""
        return len(self._built)

    def _after(self, fm: PiecewiseLinear, rec: LevelRecord) -> Iterator[tuple[PiecewiseLinear, LevelRecord]]:
        """The levels and records after ``fm``, without end: each level is the
        one ``_store`` keeps of the previous level's exact lift, which
        ``_cross`` proves convex only for a level that never rises."""
        while True:
            if fm._ys[-2] < fm._ys[-1]:
                raise ContractViolationError(f"f_{rec.m} rises into x = 1, so its lift is not proved convex")
            k = rec.m + 1
            t0 = time.perf_counter()
            xs, exact = _lift(fm, k)
            fm, eta_k = _store(xs, exact, self.eta)
            err = (k - 1.0) / k * rec.err + eta_k
            rec = LevelRecord(
                m=k, pieces_raw=len(xs) - 1, pieces=fm.piece_count(), eta=eta_k, err=err,
                build_s=time.perf_counter() - t0,
            )
            yield fm, rec

    def levels(self, m: int) -> list[PiecewiseLinear]:
        """[f_1, ..., f_m], building missing levels."""
        self.level(m)
        return [fm for fm, _, _ in self._built[:m]]

    def level(self, m: int) -> PiecewiseLinear:
        """f_m, building missing levels: the one accessor that builds.  A built
        level is read by ``operator.index`` alone, so ``level(True)`` is f_1."""
        m = operator.index(m)
        if 0 < m <= len(self._built):
            return self._built[m - 1][0]
        check_count(m)
        with self._lock:
            new = self._after(*self._built[-1][:2])
            while len(self._built) < m:
                self._built.append(_entry(*next(new)))
            return self._built[m - 1][0]

    def crossing(self, m: int) -> tuple[PiecewiseLinear, np.ndarray]:
        """f_m and its crossing key ``f_m.xs - f_m.ys``, read-only, building
        missing levels.  Each cached level's key is built with it, at 8 bytes
        a breakpoint (half the level's own arrays).  It is ``-phi`` at the
        breakpoints, phi(u) = f_m(u) - u, so it is sorted: xs strictly
        increase, ys never do, and rounding a difference is monotone in both
        operands."""
        m = operator.index(m)
        if not 0 < m <= len(self._built):
            self.level(m)
        fm, _, key = self._built[m - 1]
        return fm, key

    def records(self, m: int) -> list[LevelRecord]:
        """Build records of f_1, ..., f_m, building missing levels."""
        self.level(m)
        return [rec for _, rec, _ in self._built[:m]]

    def stream(self, m_max: int) -> Iterator[tuple[int, PiecewiseLinear, LevelRecord]]:
        """``(m, f_m, record)`` for m = 1..m_max, without caching new levels.

        The levels already cached come first, as ``levels`` holds them; the
        rest are built as ``levels`` would build them, bit for bit up to
        ``build_s``, but only the previous one is kept alive, so memory stays
        at two levels however far the stream goes.  It takes no lock and
        builds no crossing key.  Readers: ``riskfree solve-uniform``, ``tables``
        and ``simulate``'s closed form, which keep only f_m, and, each level
        once through ``analysis._pass``, every verify family that reads a
        ladder: ``verify_value_bound`` and ``verify_gh_bound`` over ``LADDER``
        (one pass in ``verify_all``) and ``verify_si_upper`` over its own ladder.
        """
        m_max = check_count(m_max)
        cached = [entry[:2] for entry in self._built[:m_max]]
        new = itertools.islice(self._after(*cached[-1]), m_max - len(cached))
        return ((rec.m, fm, rec) for fm, rec in itertools.chain(cached, new))


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
    ``alpha`` are scalars; ``_g_h_at`` is the array form.  g and h read
    f_{m-1} from ``LADDER`` at both budgets in one ``np.interp`` call on
    the level's arrays, as ``equalization_alpha`` does, whose values are
    those of two scalar reads.
    """
    if m < 2:
        raise ValueError("g/h need m >= 2")
    if not (math.isfinite(x) and math.isfinite(alpha)):
        raise ValueError("budget and bid ratio must be finite")
    cap = min(1.0, m * x)
    if not -_TOL <= alpha <= cap + 1e-9:
        raise ContractViolationError(f"alpha = {alpha} outside the feasible range [0, min(1, m x) = {cap}]")
    fp = LADDER.level(m - 1)
    r = (m - 1.0) / m
    f_all, f_rest = np.interp((m * x / (m - 1.0), (m * x - alpha) / (m - 1.0)), fp._xs, fp._ys).tolist()
    return float((1.0 - alpha) / m + r * f_all), r * f_rest


def _g_h_at(fp: PiecewiseLinear, m: int, x: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The array form of ``g_h`` at f_{m-1} = ``fp``, unchecked, with the
    values of scalar ``g_h`` calls: the xos gh sweep calls it on the level
    ``Ladder.stream`` yields, with feasible alphas."""
    r = (m - 1.0) / m
    return (1.0 - alpha) / m + r * fp(m * x / (m - 1.0)), r * fp((m * x - alpha) / (m - 1.0))


def alpha_tilde(m: int, x):
    """The sufficient first-round bid ratio at a budget or array of budgets x.

    A Python ``int`` or ``float`` x (``np.float64`` included) gives a
    ``float``, checked and rooted by ``math`` without numpy's per-call
    overhead; any other x goes through numpy, as an array would.  Both
    square roots are correctly rounded, so the two agree to the bit.  m
    goes through ``operator.index``, so a float m raises TypeError.
    """
    m = operator.index(m)
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
    u = (m x - alpha)/(m - 1), g - h = r (c - phi(u)) with c = (g(0) - x)/r
    and phi(u) = f_{m-1}(u) - u strictly decreasing, so the crossing
    phi(u) = c is bracketed by one ``searchsorted`` of -c in the level's
    sorted key ``xs - ys`` = -phi (``Ladder.crossing``), never past an end:
    g < h at alpha_max and u_end >= 0 = xs[0] give c < phi(u_end) <= phi(0);
    g - h = 1/m at u_0 = m x/(m - 1) gives c > phi(u_0) >= phi(xs[-1]), or
    if u_0 > xs[-1] (= 1), past which f_{m-1} reads ys[-1], alpha_max = 1 and
    c = ys[-1] - u_end > phi(xs[-1]), as u_end >= xs[-1] would give g = h.
    The crossing is solved exactly in the segment, on Python floats, and
    f_{m-1} is read at both ends of the feasible range in one ``np.interp``
    call on the level's arrays, whose values are those of two scalar reads.
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
    i = int(key.searchsorted(-c))  # 0 < i < len(xs): see the docstring
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


#: Caps on the grid oracle: its item count, checked before the valuation's
#: values are read, and its work: rounds * won states * budget units * bids.
_MAX_GRID_M = 6
_MAX_GRID_OPS = 2e8


def solve_discretized(v: Valuation, B: float, delta: float, price_rule: str = "first") -> float:
    """Value of the grid game where each round the adversary commits a bid on
    a delta-grid and the bidder best-responds (win or lose).

    Ties go to the adversary, so a winning bidder pays one grid step above
    his bid under first price (the conservative reading of the limit-bid
    convention) and his bid under second; a losing bidder matches his bid,
    which he pays.  Backward induction over a table val[w, u], won states w
    (counts if v is symmetric, else masks) by his budget units u, one array
    operation per bid; rows a round cannot reach are computed but never
    read.  With W = val[next(w), u] and first = 1 under first price, else 0:

        val[w, u] = min over 0 <= a <= u of max(F(a), G(a)),
        F(a) = W - (a + first) delta,   G(a) = val[w, u - a].

    One order suffices: when v(I) <= 1 this equals, round by round and under
    both rules, the max-min where she bids b first.  Her bid fares
    min(F(b - 1), G(b)), G(u + 1) = inf: he takes the item at b, or lets her
    win, at b under first price and draining min(b - 1, u) under second; a
    bid past u + 1 does no better than u + 1.  Each round is a discrete
    crossing:

    * F falls strictly; G never falls, as more rival budget never helps her;
    * W >= G(0), as winning an item never hurts her, so her bid 0 fares G(0);
    * a bid above 1 never pays: F(1 / delta) <= W - 1 <= 0 <= G.

    With a* the least a where F(a) <= G(a) (u + 1 if none), max(F, G) is at
    least F(a* - 1) below a* and G(a*) from a* on, while min(F(b - 1), G(b))
    is at most G(b) <= G(a* - 1) < F(a* - 1) and <= G(a*) below a*, and
    F(b - 1) <= F(a*) <= G(a*) above it.  Both orders equal
    min(F(a* - 1), G(a*)), which her bid a* <= 1 / delta attains.  For
    v(I) > 1 the orders can differ.
    """
    check_price_rule(price_rule)
    check_budget(B)
    if not (math.isfinite(delta) and 0.0 < delta <= 1.0):
        raise ValueError(f"delta must be finite and in (0, 1], got {delta}")
    m = v.m
    if m > _MAX_GRID_M:
        raise ValueError(f"the game-tree oracle is capped at m = {_MAX_GRID_M}")
    # the grid is sized as floats: 1 / delta is inf for a subnormal delta, and
    # B / delta can overflow to inf; clamped to the cap, it trips the check below
    if abs(round(1.0 / delta, 0) * delta - 1.0) > 1e-9:
        raise ValueError("delta must divide the bid range [0, 1] evenly")
    bu0 = math.floor(min(B / delta + 1e-9, _MAX_GRID_OPS))

    symmetric = _is_symmetric(v)
    final = np.array([v.value(range(k)) for k in range(m + 1)]) if symmetric else v.values_all()
    if m * len(final) * (bu0 + 1) ** 2 > _MAX_GRID_OPS:
        raise StateSpaceError("discretized state space exceeds the cap")

    w = np.arange(len(final))
    first = int(price_rule == "first")
    val = np.repeat(final[:, None], bu0 + 1, axis=1)
    for t in reversed(range(m)):
        won = val[np.minimum(w + 1, m) if symmetric else w | (1 << t)]
        new = np.full_like(val, math.inf)
        for a in range(bu0 + 1):
            follower = np.maximum(won[:, a:] - (a + first) * delta, val[:, : bu0 + 1 - a])
            np.minimum(new[:, a:], follower, out=new[:, a:])
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
            pay[:n] += np.maximum(drain, 0.0, out=drain)
    np.subtract(v.values_all(vals)[::-1], pay, out=profit)
    infeasible = cost >= B - 1e-12
    infeasible[0] = False  # the empty plan is always available
    np.copyto(profit, math.inf, where=infeasible)
    best_mask = int(np.argmin(profit))
    plan = tuple(i for i in range(m) if best_mask >> i & 1)
    return plan, float(profit[best_mask])
