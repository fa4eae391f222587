"""Closed-form bounds, small-auction table replicas, and the numeric
verification harness.

Each ``verify_*`` function sweeps a family of theorem statements over a grid
and returns a :class:`SweepReport` whose ``min_margin`` is the worst observed
value of (bound - quantity); the family passes when that margin is no worse
than -tolerance.  The reported ``worst_point`` is the first point in sweep
order with the least margin, and a sweep that checks no point raises
ValueError rather than passing.  Asymptotic constants that the statements
leave implicit are measured and reported, never assumed.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import seq, simul
from .pwl import PiecewiseLinear
from .strategies import (
    choose_k,
    constant_price_worst_profit,
    tangent_peak,
    tangent_value,
)
from .valuations import (
    AdditiveValuation,
    XOSValuation,
    check_budget,
    random_subadditive_identical,
    s_instance_params,
)


@dataclass
class SweepReport:
    name: str
    description: str
    n_points: int
    min_margin: float
    worst_point: tuple
    passed: bool
    runtime_s: float  # the sweep itself
    setup_s: float = 0.0  # building the value-ladder levels the sweep reads
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self) | {"worst_point": list(self.worst_point)}

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<22} n={self.n_points:<7} min_margin={self.min_margin:+.3e} "
            f"{verdict}  ({self.runtime_s:.2f}s, ladder {self.setup_s:.2f}s)"
        )


# -- closed forms --------------------------------------------------------------


def f_bound(B: float) -> float:
    """The fair-split bound (1 - sqrt(B))^2 at min(B, 1): 0 for B >= 1, as is every f_m."""
    check_budget(B)
    return (1.0 - math.sqrt(min(B, 1.0))) ** 2


def t_star(B: float) -> tuple[float, int]:
    """Upper envelope of the tangent family and its attaining index.

    Tangency points (k/(k+1))^2 accumulate at 1, so searching k up to
    ceil(1/(1 - sqrt(B))) + 2 is sufficient; ties break toward smaller k.
    """
    check_budget(B)
    root = math.sqrt(B)
    k_hi = 64 if root >= 1.0 else math.ceil(1.0 / (1.0 - root)) + 2
    best_k, best_val = tangent_peak(B, k_hi)
    return best_val, best_k


def table_A(m: int, B: float) -> float:
    """Exact guaranteed-profit tables for the 1/2/3-item uniform auctions."""
    check_budget(B)
    if m == 1:
        return 1.0 - B if B < 1.0 else 0.0
    if m == 2:
        if B < 0.25:
            return 1.0 - 2.0 * B
        if B < 0.5:
            return 0.75 - B
        if B < 1.0:
            return 0.5 - B / 2.0
        return 0.0
    if m == 3:
        if B < 1.0 / 9.0:
            return 1.0 - 3.0 * B
        if B < 1.0 / 6.0:
            return 8.0 / 9.0 - 2.0 * B
        if B < 1.0 / 3.0:
            return 7.0 / 9.0 - 4.0 * B / 3.0
        if B < 5.0 / 9.0:
            return 7.0 / 12.0 - 3.0 * B / 4.0
        if B < 2.0 / 3.0:
            return 4.0 / 9.0 - B / 2.0
        if B < 1.0:
            return 1.0 / 3.0 - B / 3.0
        return 0.0
    raise ValueError("tables exist for m in {1, 2, 3}")


# -- verification families ------------------------------------------------------


#: Simplification tolerance of the identical-item ``si_upper`` family's own
#: ladder.  Its pass rule is margin > ladder_err, with a margin of about
#: 0.0141 at the default grid; at this eta the contraction bound
#: err_m <= eta (m + 1) / 2 gives err_198 of about 8.9e-7, four orders below
#: it.  Every other reader stays on ``seq.LADDER`` at ``seq._ETA``.  A coarser
#: eta (1e-7) would move ``si_upper_response_value`` by about 6e-7.
_SI_ETA = 1e-8

#: The si family's budgets and item counts.  Every m is at least L(x) on
#: every x (L is 14 at x = 0.05, the largest), so each response is feasible.
_SI_X = (0.05, 0.10, 0.15, 0.20)
_SI_M = (50, 100, 200)

#: The si family's ladder.  ``si_upper_response_value`` reads its cached
#: levels, built lazily on the first read; ``verify_si_upper`` streams
#: f_1..f_198 through it (``seq.Ladder.stream``) and caches none of them.
_SI_LADDER = seq.Ladder(eta=_SI_ETA)


def _check_grid_step(grid_step: float, below: float = math.inf) -> None:
    """Reject a budget grid step that is not finite and in (0, ``below``)."""
    if not (math.isfinite(grid_step) and 0.0 < grid_step < below):
        raise ValueError(f"grid_step must be finite and in (0, {below}), got {grid_step}")


class _Sweep:
    """One family's sweep: counts the margins noted and keeps the least, at
    the first point noted that reaches it (strict ``<``).  It is timed from
    construction, except a ``_LevelSweep``: every family that reads a ladder
    streams it through ``_pass``, whose build time is the family's
    ``setup_s``, and counts only its own work as ``runtime_s``."""

    def __init__(self, name: str, description: str) -> None:
        self.name, self.description = name, description
        self.n, self.worst, self.point = 0, math.inf, None
        self.t0 = time.perf_counter()

    def note(self, margin: float, point: tuple) -> None:
        self.n += 1
        if margin < self.worst:
            self.worst, self.point = float(margin), point

    def note_all(self, margins: np.ndarray, point_at) -> None:
        """Many margins; ``point_at(i)`` is the point of ``margins[i]``."""
        if len(margins):
            self.n += len(margins)
            i = int(np.argmin(margins))
            if margins[i] < self.worst:
                self.worst, self.point = float(margins[i]), point_at(i)

    def report(self, passed: bool, **fields) -> SweepReport:
        """``fields`` sets ``setup_s`` and ``extra``, or overrides ``n_points`` or ``runtime_s``."""
        if self.n == 0:
            raise ValueError(f"{self.name}: the sweep checked no point")
        runtime_s = fields.pop("runtime_s", time.perf_counter() - self.t0)
        return SweepReport(self.name, self.description, fields.pop("n_points", self.n), self.worst, self.point,
                           passed, runtime_s, **fields)


class _LevelSweep(_Sweep):
    """A sweep fed f_1, f_2, ... of ``ladder`` in order, timed read by read, by ``_pass``."""

    def __init__(self, name: str, description: str, tol: float, ladder: seq.Ladder) -> None:
        super().__init__(name, description)
        self.tol, self.ladder, self.ladder_err, self.runtime_s = tol, ladder, 0.0, 0.0

    def finish(self, setup_s: float) -> SweepReport:
        """Passes when the margin stays above -tol after subtracting ``ladder_err``."""
        return self.report(self.worst - self.ladder_err >= -self.tol, runtime_s=self.runtime_s, setup_s=setup_s,
                           extra={"ladder_err": self.ladder_err, "eta": self.ladder.eta})


def _pass(top: int, *sweeps: _LevelSweep) -> float:
    """Hand f_1..f_top of the sweeps' ladder to each ``read`` in one pass over
    its stream, which caches no level and keeps two alive at a time.  Returns
    the ``build_s`` summed over the levels the ladder did not hold before."""
    ladder = sweeps[0].ladder
    cached, setup_s = len(ladder), 0.0
    for m, fm, rec in ladder.stream(top):
        setup_s += rec.build_s if m > cached else 0.0
        for sweep in sweeps:
            t0 = time.perf_counter()
            sweep.read(m, fm, rec)
            sweep.runtime_s += time.perf_counter() - t0
    return setup_s


class _ValueBound(_LevelSweep):
    """``verify_value_bound``'s sweep, read at f_m for m = 1..m_max."""

    def __init__(self, m_max: int, grid_step: float, tol: float = 1e-9) -> None:
        super().__init__("xos_value_bound", f"f_m <= f + 1/sqrt(m), m <= {m_max}, step {grid_step}", tol,
                         seq.LADDER)
        self.xs = np.arange(grid_step, 1.0, grid_step)
        self.bound_base = (1.0 - np.sqrt(self.xs)) ** 2

    def read(self, m: int, fm: PiecewiseLinear, rec: seq.LevelRecord) -> None:
        xs = self.xs
        self.note_all(self.bound_base + 1.0 / math.sqrt(m) - fm(xs), lambda i: (m, float(xs[i])))
        self.ladder_err = max(self.ladder_err, rec.err)


def verify_value_bound(m_max: int = 30, grid_step: float = 0.005, tol: float = 1e-9) -> SweepReport:
    """(a) f_m(x) <= (1 - sqrt(x))^2 + 1/sqrt(m) on a budget grid.

    Passes when the margin stays above -tol after subtracting the ladder's
    certified error ``extra["ladder_err"]``.  f_1..f_m_max are streamed
    (``_pass``), and ``setup_s`` is the time spent building them.
    """
    _check_grid_step(grid_step)
    sweep = _ValueBound(m_max, grid_step, tol)
    return sweep.finish(_pass(m_max, sweep))


def _intermediate_grid(m: int, grid_step: float) -> np.ndarray:
    lo, hi = 1.0 / m**2, (m - 1.0) / m
    pts = np.arange(lo, hi + grid_step / 2, grid_step)
    return np.clip(pts, lo, hi)


def verify_alpha_feasibility(m_max: int = 30, grid_step: float = 0.002, tol: float = 1e-9) -> SweepReport:
    """(b) 0 <= alpha_tilde <= alpha_max on the intermediate budget interval."""
    _check_grid_step(grid_step)
    sweep = _Sweep("alpha_feasibility", f"0 <= alpha_tilde <= alpha_max, m <= {m_max}, step {grid_step}")
    for m in range(2, m_max + 1):
        xs = _intermediate_grid(m, grid_step)
        at = seq.alpha_tilde(m, xs)
        amax = np.minimum(1.0, m * xs)
        sweep.note_all(np.minimum(at, amax - at), lambda i: (m, float(xs[i])))
    return sweep.report(sweep.worst >= -tol)


class _GhBound(_LevelSweep):
    """``verify_gh_bound``'s sweep: level f_{m-1} is read for m = 2..m_max."""

    def __init__(self, m_max: int, grid_step: float, tol: float = 1e-9) -> None:
        super().__init__("gh_at_alpha_tilde", f"g, h at alpha_tilde <= f + 1/sqrt(m), m <= {m_max}, "
                         f"step {grid_step}", tol, seq.LADDER)
        self.m_max, self.grid_step = m_max, grid_step

    def read(self, k: int, fk: PiecewiseLinear, rec: seq.LevelRecord) -> None:
        m = k + 1
        if m > self.m_max:
            return
        xs = _intermediate_grid(m, self.grid_step)
        at = np.clip(seq.alpha_tilde(m, xs), 0.0, np.minimum(1.0, m * xs))
        g, h = seq._g_h_at(fk, m, xs, at)
        bound = (1.0 - np.sqrt(xs)) ** 2 + 1.0 / math.sqrt(m)
        self.note_all(bound - np.maximum(g, h), lambda i: (m, float(xs[i])))
        self.ladder_err = max(self.ladder_err, (m - 1.0) / m * rec.err)


def verify_gh_bound(m_max: int = 30, grid_step: float = 0.002, tol: float = 1e-9) -> SweepReport:
    """(c) g_m(x, alpha_tilde) and h_m(x, alpha_tilde) <= f(x) + 1/sqrt(m).

    g and h read f_{m-1} scaled by (m-1)/m, so the ladder's certified error
    enters ``extra["ladder_err"]`` with that factor.  f_1..f_{m_max-1} are
    streamed (``_pass``), and ``setup_s`` is the time spent building them.
    """
    _check_grid_step(grid_step)
    sweep = _GhBound(m_max, grid_step, tol)
    return sweep.finish(_pass(max(m_max - 1, 1), sweep))


def verify_si_lower(
    n_instances: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> SweepReport:
    """(d) flat-price profit >= t*(B) - (B k/(k-1))/m on random instances, m in {20, 50, 100}."""
    sweep = _Sweep("si_lower_bound", f"flat price >= t* - (Bk/(k-1))/m on {n_instances} random instances")
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(n_instances):
        m = int(rng.choice(np.asarray((20, 50, 100))))
        si = random_subadditive_identical(m, rng)
        B = float(rng.uniform(0.02, 0.6))
        k = choose_k(B)
        profit, _ = constant_price_worst_profit(si, B, k)
        target = t_star(B)[0] - (B * k / (k - 1.0)) / m
        sweep.note(profit - target, (m, B))
    return sweep.report(sweep.worst >= -tol)


def _si_reads(x: float, m: int) -> tuple[tuple[float, float, float], np.ndarray]:
    """The hard instance's terms ``(v1, mu, p2)`` for budget x on m items,
    and the budgets at which the response value reads levels k = 1..m-2:
    row k - 1 holds a first-loss subgame's ``d / (4 k)`` and a first-win
    one's ``(x - p2) d / (4 x k)``.  A level reads its row in one
    ``np.interp`` call, whose values are those of two scalar reads."""
    params = s_instance_params(x, m)
    s, d, p2 = params.sigma, params.d, params.phase2_bid
    ks = np.arange(1.0, m - 1.0)
    reads = np.stack((d / (4.0 * ks), (x - p2) * d / (4.0 * x * ks)), axis=1)
    return (1.0 / (2.0 + s), s / (d * (2.0 + s)), p2), reads


def _si_combine(m: int, terms: tuple[float, float, float], vals: list, records: list) -> dict:
    """The response value on m items from ``vals[k - 1]``, level k's values
    at its row of ``_si_reads`` budgets, and ``records[k - 1].err``, for
    every level k = 1..m-2."""
    v1, mu, p2 = terms
    concede_first, arg_j1 = 0.0, None  # adversary takes items 1..j1-1 free
    for j1 in range(2, m + 1):
        m_rem = m - j1
        val = v1 if m_rem == 0 else v1 + m_rem * mu * vals[m_rem - 1][0]
        if val > concede_first:
            concede_first, arg_j1 = val, j1

    buy_through = 1.0 - (m - 1) * p2  # she wins every item

    concede_later, arg_j2 = -math.inf, None  # she wins first, loses at j2
    for j2 in range(2, m + 1):
        c = j2 - 1
        held = v1 + (c - 1) * mu
        paid = (j2 - 2) * p2
        m_rem = m - j2
        val = held - paid
        if m_rem >= 1:
            val += m_rem * mu * vals[m_rem - 1][1]
        if val > concede_later:
            concede_later, arg_j2 = val, j2

    value = max(0.0, concede_first, buy_through, concede_later)
    return {
        "value": value,
        "ladder_err": max((k * mu * records[k - 1].err for k in range(1, m - 1)), default=0.0),
        "concede_first": concede_first,
        "best_j1": arg_j1,
        "buy_through": buy_through,
        "concede_later": concede_later,
        "best_j2": arg_j2,
    }


def si_upper_response_value(x: float, m: int) -> dict:
    """Best response value of the bidder against the three-phase adversary on
    the hard instance, maximized over the first-win / first-loss classes.

    Subgames are valued with the cached levels of the si family's own ladder
    ``_SI_LADDER``, built at ``_SI_ETA`` = 1e-8 rather than ``seq.LADDER``'s
    1e-9.  Returns the per-class maxima, the overall value and
    ``ladder_err``, that ladder's certified error scaled as the subgames
    enter the value.
    """
    terms, reads = _si_reads(x, m)
    ladder = _SI_LADDER.levels(max(m - 2, 1))
    records = _SI_LADDER.records(max(m - 2, 1))
    vals = [fk(at).tolist() for fk, at in zip(ladder, reads)]
    return _si_combine(m, terms, vals, records)


class _SiUpper(_LevelSweep):
    """``verify_si_upper``'s sweep: ``read`` keeps level k's record and reads
    the level once at the budgets of every response that needs it."""

    def __init__(self) -> None:
        super().__init__("si_upper_bound", "three-phase adversary holds responses to t_1(x) + C/sqrt(m); "
                         "margin = worst shrink of the excess between the smallest and largest m", 0.0, _SI_LADDER)
        self.reads = {(x, m): _si_reads(x, m) for x in _SI_X for m in _SI_M}
        self.vals, self.records = {key: [] for key in self.reads}, []

    def read(self, k: int, fk: PiecewiseLinear, rec: seq.LevelRecord) -> None:
        self.records.append(rec)
        live = [key for key, (_, at) in self.reads.items() if k <= len(at)]
        for key, pair in zip(live, fk(np.array([self.reads[key][1][k - 1] for key in live])).tolist()):
            self.vals[key].append(pair)

    def finish(self, setup_s: float) -> SweepReport:
        """Combines the responses; passes when each gap exceeds the ladder error on its two ends."""
        t0 = time.perf_counter()
        rows, ladder_err = [], 0.0
        for x in _SI_X:
            resps = [_si_combine(m, self.reads[x, m][0], self.vals[x, m], self.records) for m in _SI_M]
            excesses = [resp["value"] - tangent_value(1, x) for resp in resps]
            rows += [{"x": x, "m": m, "value": r["value"], "excess": e} for m, r, e in zip(_SI_M, resps, excesses)]
            ladder_err = max(ladder_err, resps[0]["ladder_err"] + resps[-1]["ladder_err"])
            self.note(excesses[0] - excesses[-1], (x,))  # positive means shrinking excess
        c_measured = max([0.0, *(row["excess"] * math.sqrt(row["m"]) for row in rows)])
        extra = {"C_measured": c_measured, "ladder_err": ladder_err, "eta": self.ladder.eta, "rows": rows}
        return self.report(self.worst - ladder_err > 0.0 and math.isfinite(c_measured), n_points=len(rows),
                           runtime_s=self.runtime_s + time.perf_counter() - t0, setup_s=setup_s, extra=extra)


def verify_si_upper() -> SweepReport:
    """(e) hard-instance response classes stay near t_1(x), at every budget x
    in ``_SI_X`` and item count m in ``_SI_M``; the excess over t_1 is
    measured, reported as C = max (V - t_1) sqrt(m), and must shrink between
    the smallest and largest m.  Subgames read ``_SI_LADDER`` (eta 1e-8,
    reported as ``extra["eta"]``), whose certified error on both ends of each
    gap is ``extra["ladder_err"]``, under 2e-6 against a margin of about
    0.014; passing needs the margin to exceed it.  The margins are the gaps,
    one per x; ``n_points`` counts the responses valued.

    The ladder is streamed (``_pass``), so no more than two levels are alive
    at once; each response equals ``si_upper_response_value``'s to the bit.
    ``setup_s`` is the time the pass spent building levels and
    ``runtime_s`` the family's own work: its reads and combining.
    """
    sweep = _SiUpper()
    return sweep.finish(_pass(_SI_M[-1] - 2, sweep))  # a response on m items reads f_1..f_(m-2)


#: The tangency family's largest k and budget grid step.
_TANGENCY_K_MAX, _TANGENCY_STEP = 50, 0.001


def verify_tangency(tol: float = 1e-9) -> SweepReport:
    """(f) t_k touches (1-sqrt(B))^2 exactly at (k/(k+1))^2 and t* dominates,
    for k <= ``_TANGENCY_K_MAX`` on the budget grid of step ``_TANGENCY_STEP``."""
    k_max = _TANGENCY_K_MAX
    sweep = _Sweep("tangency", f"t_k tangency identities and envelope dominance, k <= {k_max}")
    ks = range(1, k_max + 1)
    touch = [(k / (k + 1.0)) ** 2 for k in ks]
    gaps = [-abs(tangent_value(k, pt) - f_bound(pt)) for k, pt in zip(ks, touch)]
    sweep.note_all(np.array(gaps), lambda i: (i + 1,))
    grid = np.arange(_TANGENCY_STEP, 1.0, _TANGENCY_STEP)
    budgets = grid.tolist()
    env = np.array([t_star(B)[0] for B in budgets])
    k = np.arange(1.0, k_max + 1.0)
    t_k = 1.0 / (k + 1.0) - grid[:, None] / k  # row B, column k: tangent_value(k, B)
    sweep.note_all((env[:, None] - t_k).ravel(), lambda i: (budgets[i // k_max], i % k_max + 1))
    return sweep.report(sweep.worst >= -tol)


def verify_simul(seed: int = 0, tol: float = 1e-9) -> SweepReport:
    """QP closed form, second-price floor, and the randomized adversary values."""
    sweep = _Sweep("simultaneous", "QP closed form, 1-B second-price floor, w1/w2 adversary values")
    rng = np.random.Generator(np.random.Philox(seed))

    # QP: adversary_qp checks its KKT conditions on every call.
    for B in np.arange(0.1, 0.95, 0.1).tolist():
        for trial in range(3):
            m = 2 if trial < 2 else int(rng.integers(3, 7))
            w = rng.random(m) + 0.05
            sol = simul.adversary_qp(AdditiveValuation(tuple(w / w.sum())), B)
            sweep.note(sol.value - (1.0 - B) ** 2 / 2, ("qp", B, m))

    # Second price: truthful dominant-clause bidding nets at least 1 - B.
    for _ in range(20):
        m = int(rng.integers(2, 9))
        v = _random_xos(m, rng)
        B = float(rng.uniform(0.05, 0.9))
        worst_profit, _ = simul.second_price_truthful_worst(v, B)
        sweep.note(worst_profit - (1.0 - B), ("second_price", m, B))

    # Randomized split adversary: the best reply stays below 1 - B.
    for m in (4, 8, 12):
        for B in np.arange(0.05, 1.0, 0.05).tolist():
            sweep.note((1.0 - B) - simul.best_response_profit(m, B) - 1e-15, ("split_below_1mB", m, B))

    # (1-B)^2/2 beats (1-sqrt(B))^2 beyond B = 3 - 2 sqrt(2).
    for B in np.arange(3.0 - 2.0 * math.sqrt(2.0) + 0.01, 1.0, 0.01):
        sweep.note(0.5 * (1.0 - B) ** 2 - f_bound(float(B)), ("qp_vs_sqrt", float(B)))

    return sweep.report(sweep.worst >= -tol)


def _random_xos(m: int, rng: np.random.Generator) -> XOSValuation:
    """Random normalized XOS instance: 1 to 5 clauses plus a dominant one summing to 1."""
    ell = int(rng.integers(1, 6))
    clauses = []
    for _ in range(ell):
        w = rng.random(m) + 1e-3
        clauses.append(tuple(w / w.sum() * float(rng.uniform(0.3, 1.0))))
    # force one clause to be the normalized dominant one
    w = rng.random(m) + 1e-3
    clauses.append(tuple(w / w.sum()))
    return XOSValuation(tuple(clauses))


def _xos_suite(m_max: int, grid_step: float, **_) -> list[SweepReport]:
    """The xos families in report order.  value_bound and gh read the ladder
    in one ``_pass``, whose build time value_bound carries; gh reports
    after alpha_feasibility, so ``m_max`` 1 fails on alpha_feasibility first."""
    value, gh = _ValueBound(m_max, grid_step), _GhBound(m_max, grid_step)
    setup_s = _pass(m_max, value, gh)
    return [value.finish(setup_s), verify_alpha_feasibility(m_max, grid_step), gh.finish(0.0), verify_tangency()]


#: Each suite's run: ``verify_all``'s arguments by name to its families'
#: reports, in run order.
SUITES: dict[str, Callable[..., list[SweepReport]]] = {
    "xos": _xos_suite,
    "si": lambda seed, **_: [verify_si_lower(seed=seed), verify_si_upper()],
    "simul": lambda seed, **_: [verify_simul(seed=seed)],
}


def verify_all(
    suites: Iterable[str] = ("xos", "si", "simul"),
    m_max: int = 30,
    grid_step: float = 0.01,
    seed: int = 0,
) -> list[SweepReport]:
    """Run the families of the chosen suites, in ``SUITES`` order, in this process.

    Every family that reads a value ladder streams it through ``_pass``,
    caching no level and keeping two alive at a time: value_bound and gh
    read f_1..f_m_max of ``seq.LADDER`` (eta 1e-9) in one shared pass, and
    si_upper_bound reads f_1..f_198 of its own ``_SI_LADDER`` (eta 1e-8).
    A report's ``setup_s`` is the time its pass spent building levels and
    ``runtime_s`` the family's own work.  Each family runs at its own
    default tolerance.  A suite name outside ``SUITES``,
    a bare string for ``suites``, and a grid step that is not finite and in
    (0, 1) raise ValueError.
    """
    if isinstance(suites, str):
        raise ValueError(f"suites must be a collection of suite names, not the string {suites!r}")
    wanted = set(suites)
    if unknown := wanted - SUITES.keys():
        raise ValueError(f"unknown suite(s) {sorted(unknown)}; choose from {list(SUITES)}")
    _check_grid_step(grid_step, below=1.0)
    args = dict(m_max=m_max, grid_step=grid_step, seed=seed)
    return [rep for suite, run in SUITES.items() if suite in wanted for rep in run(**args)]


# -- figure reproduction ----------------------------------------------------------


def figure_value_bound_rows() -> list[tuple[float, str, float]]:
    """Series for the f / f_2 / f_3 comparison figure (x, series, value)."""
    rows: list[tuple[float, str, float]] = []
    xs = np.linspace(0.0, 1.0, 201)
    for x in xs:
        rows.append((float(x), "f", f_bound(float(x))))
        rows.append((float(x), "f+1/sqrt(2)", f_bound(float(x)) + 1.0 / math.sqrt(2)))
        rows.append((float(x), "f+1/sqrt(3)", f_bound(float(x)) + 1.0 / math.sqrt(3)))
    for name, m in (("f2", 2), ("f3", 3)):
        fm = seq.uniform_additive_value(m)
        for x, y in fm.csv_rows():
            rows.append((x, name, y))
    return rows


def figure_tangent_rows() -> list[tuple[float, str, float]]:
    """Series for the tangent-envelope figure (x, series, value)."""
    rows: list[tuple[float, str, float]] = []
    xs = np.linspace(0.0, 1.0, 201)
    for x in xs:
        rows.append((float(x), "f", f_bound(float(x))))
    spans = {1: (0.0, 0.5), 2: (0.0, 2.0 / 3.0), 3: (0.0, 0.75)}
    for k, (lo, hi) in spans.items():
        for x in (lo, hi):
            rows.append((x, f"t{k}", tangent_value(k, x)))
    for x in (0.0, 1.0 / 3.0, 0.5, 0.6):
        rows.append((x, "tstar", t_star(x)[0]))
    return rows
