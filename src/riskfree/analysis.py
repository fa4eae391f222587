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
from typing import Iterable, Sequence

import numpy as np

from . import seq, simul
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
    l_threshold,
    random_subadditive_identical,
    s_instance_params,
)


@dataclass(frozen=True)
class TangentBound:
    k: int
    value: float
    tangency: float  # budget where t_k touches (1 - sqrt(B))^2


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
    """The fair-split bound (1 - sqrt(B))^2."""
    check_budget(B)
    return (1.0 - math.sqrt(B)) ** 2


def tangent_bound(k: int, B: float) -> TangentBound:
    check_budget(B)
    return TangentBound(k=k, value=tangent_value(k, B), tangency=(k / (k + 1.0)) ** 2)


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

#: The si family's ladder.  ``si_upper_response_value`` reads its cached
#: levels, built lazily on the first read; ``verify_si_upper`` streams
#: f_1..f_198 through it (``seq.Ladder.stream``) and caches none of them.
_SI_LADDER = seq.Ladder(eta=_SI_ETA)


def _timed_ladder(ladder: seq.Ladder, m: int) -> tuple[list, list, float]:
    """Levels f_1..f_m of ``ladder``, their build records and the seconds spent building."""
    t0 = time.perf_counter()
    levels = ladder.levels(m)
    return levels, ladder.records(m), time.perf_counter() - t0


def _check_grid_step(grid_step: float, below: float = math.inf) -> None:
    """Reject a budget grid step that is not finite and in (0, ``below``)."""
    if not (math.isfinite(grid_step) and 0.0 < grid_step < below):
        raise ValueError(f"grid_step must be finite and in (0, {below}), got {grid_step}")


class _Sweep:
    """One family's sweep: counts the margins noted and keeps the least, at
    the first point noted that reaches it (strict ``<``).  It is timed from
    construction, which comes after the family's ladder build; a family
    that streams its ladder moves ``t0`` past the stream instead."""

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
        """``fields`` sets ``setup_s`` and ``extra``, or overrides ``n_points``."""
        if self.n == 0:
            raise ValueError(f"{self.name}: the sweep checked no point")
        runtime_s = time.perf_counter() - self.t0
        return SweepReport(self.name, self.description, fields.pop("n_points", self.n), self.worst, self.point,
                           passed, runtime_s, **fields)


def verify_value_bound(m_max: int = 30, grid_step: float = 0.005, tol: float = 1e-9) -> SweepReport:
    """(a) f_m(x) <= (1 - sqrt(x))^2 + 1/sqrt(m) on a budget grid.

    Passes when the margin stays above -tol after subtracting the ladder's
    certified error ``extra["ladder_err"]``.
    """
    _check_grid_step(grid_step)
    ladder, records, setup_s = _timed_ladder(seq.LADDER, m_max)
    sweep = _Sweep("xos_value_bound", f"f_m <= f + 1/sqrt(m), m <= {m_max}, step {grid_step}")
    xs = np.arange(grid_step, 1.0, grid_step)
    bound_base = (1.0 - np.sqrt(xs)) ** 2
    for m in range(1, m_max + 1):
        margins = bound_base + 1.0 / math.sqrt(m) - ladder[m - 1](xs)
        sweep.note_all(margins, lambda i: (m, float(xs[i])))
    ladder_err = max(rec.err for rec in records)
    extra = {"ladder_err": ladder_err, "eta": seq.LADDER.eta}
    return sweep.report(sweep.worst - ladder_err >= -tol, setup_s=setup_s, extra=extra)


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


def verify_gh_bound(m_max: int = 30, grid_step: float = 0.002, tol: float = 1e-9) -> SweepReport:
    """(c) g_m(x, alpha_tilde) and h_m(x, alpha_tilde) <= f(x) + 1/sqrt(m).

    g and h read f_{m-1} scaled by (m-1)/m, so the ladder's certified error
    enters ``extra["ladder_err"]`` with that factor.
    """
    _check_grid_step(grid_step)
    _, records, setup_s = _timed_ladder(seq.LADDER, max(m_max - 1, 1))
    sweep = _Sweep("gh_at_alpha_tilde", f"g, h at alpha_tilde <= f + 1/sqrt(m), m <= {m_max}, "
                   f"step {grid_step}")
    for m in range(2, m_max + 1):
        xs = _intermediate_grid(m, grid_step)
        at = np.clip(seq.alpha_tilde(m, xs), 0.0, np.minimum(1.0, m * xs))
        g, h = seq.g_h(m, xs, at)
        bound = (1.0 - np.sqrt(xs)) ** 2 + 1.0 / math.sqrt(m)
        sweep.note_all(bound - np.maximum(g, h), lambda i: (m, float(xs[i])))
    ladder_err = max([(m - 1.0) / m * records[m - 2].err for m in range(2, m_max + 1)], default=0.0)
    extra = {"ladder_err": ladder_err, "eta": seq.LADDER.eta}
    return sweep.report(sweep.worst - ladder_err >= -tol, setup_s=setup_s, extra=extra)


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


def verify_si_upper(
    x_list: Sequence[float] = (0.05, 0.10, 0.15, 0.20),
    m_list: Sequence[int] = (50, 100, 200),
) -> SweepReport:
    """(e) hard-instance response classes stay near t_1(x); the excess over
    t_1 is measured, reported as C = max (V - t_1) sqrt(m), and must shrink
    between the smallest and largest m.  Subgames read ``_SI_LADDER`` (eta
    1e-8, reported as ``extra["eta"]``), whose certified error on both ends
    of each gap is ``extra["ladder_err"]``, under 2e-6 against a margin of
    about 0.014; passing needs the margin to exceed it.  The margins are the
    gaps, one per x with two or more feasible m; ``n_points`` counts the
    responses valued.

    The ladder is streamed, not cached: one pass over its levels reads each
    at the ``_si_reads`` budgets of every response that needs it and then
    drops it, so no more than two levels are alive at once.  Each response
    equals ``si_upper_response_value``'s to the bit.  ``setup_s`` times that
    pass and ``runtime_s`` the rest.
    """
    m_lists = {}
    for x in x_list:
        ms = sorted({max(math.ceil(l_threshold(x)), m_list[0]), *m_list[1:]})
        m_lists[x] = [m for m in ms if m >= l_threshold(x)]
    top = max((m for ms in m_lists.values() for m in ms), default=3)
    sweep = _Sweep(
        "si_upper_bound",
        "three-phase adversary holds responses to t_1(x) + C/sqrt(m); "
        "margin = worst shrink of the excess between the smallest and largest m",
    )
    reads = {(x, m): _si_reads(x, m) for x, ms in m_lists.items() for m in ms}
    vals = {key: [] for key in reads}
    records = []
    t0 = time.perf_counter()
    for k, fk, rec in _SI_LADDER.stream(max(top - 2, 1)):
        records.append(rec)
        for key, (_, at) in reads.items():
            if k <= len(at):
                vals[key].append(fk(at[k - 1]).tolist())
    setup_s = time.perf_counter() - t0
    sweep.t0 += setup_s  # runtime_s counts the rest

    rows, c_measured, ladder_err = [], 0.0, 0.0
    for x, ms in m_lists.items():
        t1 = tangent_value(1, x)
        excesses, errs = [], []
        for m in ms:
            resp = _si_combine(m, reads[x, m][0], vals[x, m], records)
            val = resp["value"]
            excess = val - t1
            c_measured = max(c_measured, excess * math.sqrt(m))
            excesses.append(excess)
            errs.append(resp["ladder_err"])
            rows.append({"x": x, "m": m, "value": val, "excess": excess})
        if len(excesses) >= 2:
            ladder_err = max(ladder_err, errs[0] + errs[-1])
            sweep.note(excesses[0] - excesses[-1], (x,))  # positive means shrinking excess
    return sweep.report(
        sweep.worst - ladder_err > 0.0 and math.isfinite(c_measured),
        n_points=len(rows),
        setup_s=setup_s,
        extra={"C_measured": c_measured, "ladder_err": ladder_err, "eta": _SI_LADDER.eta, "rows": rows},
    )


def verify_tangency(k_max: int = 50, grid_step: float = 0.001, tol: float = 1e-9) -> SweepReport:
    """(f) t_k touches (1-sqrt(B))^2 exactly at (k/(k+1))^2 and t* dominates."""
    _check_grid_step(grid_step)
    sweep = _Sweep("tangency", f"t_k tangency identities and envelope dominance, k <= {k_max}")
    ks = range(1, k_max + 1)
    touch = [(k / (k + 1.0)) ** 2 for k in ks]
    gaps = [-abs(tangent_value(k, pt) - f_bound(pt)) for k, pt in zip(ks, touch)]
    sweep.note_all(np.array(gaps), lambda i: (i + 1,))
    grid = np.arange(grid_step, 1.0, grid_step)
    budgets = grid.tolist()
    env = np.array([t_star(B)[0] for B in budgets])
    k = np.arange(1.0, k_max + 1.0)
    t_k = 1.0 / (k + 1.0) - grid[:, None] / k  # row B, column k: tangent_value(k, B)
    sweep.note_all((env[:, None] - t_k).ravel(), lambda i: (budgets[i // k_max], i % k_max + 1))
    return sweep.report(sweep.worst >= -tol)


def verify_simul(seed: int = 0, tol: float = 1e-9) -> SweepReport:
    """QP agreement, second-price floor, and the randomized adversary values."""
    sweep = _Sweep("simultaneous", "QP agreement, 1-B second-price floor, w1/w2 adversary values")
    rng = np.random.Generator(np.random.Philox(seed))

    # QP: closed form vs the exact oracle (and lattice at m = 2).
    for B in np.arange(0.1, 0.95, 0.1):
        B = float(B)
        for trial in range(3):
            m = 2 if trial < 2 else int(rng.integers(3, 7))
            w = rng.random(m) + 0.05
            g = AdditiveValuation(tuple(w / w.sum()))
            sol = simul.adversary_qp(g, B)
            gw = np.asarray(g.weights)
            # An iterative oracle once drew its seed here; the draw stays so
            # that every later draw, and each seed's margins, stay put.
            rng.integers(2**31)
            _, qp_value = simul.exact_qp(gw, B)
            sweep.note(1e-6 - abs(qp_value - sol.value), ("qp_pg", B, m))
            if m == 2:
                lattice = simul.qp_grid_search(gw, B)
                sweep.note(1e-4 - abs(lattice - sol.value), ("qp_lattice", B))

    # Second price: truthful dominant-clause bidding nets at least 1 - B.
    for _ in range(20):
        m = int(rng.integers(2, 9))
        v = _random_xos(m, rng)
        B = float(rng.uniform(0.05, 0.9))
        worst_profit, _ = simul.second_price_truthful_worst(v, B)
        sweep.note(worst_profit - (1.0 - B), ("second_price", m, B))

    # Randomized split adversary: exact best response equals the closed form.
    for m in (4, 8, 12):
        for B in np.arange(0.05, 1.0, 0.05):
            B = float(B)
            got, _ = simul.exhaustive_best_response_split(m, B)
            want = simul.best_response_profit(m, B)
            sweep.note(tol - abs(got - want), ("split_value", m, B))
            sweep.note((1.0 - B) - got - 1e-15, ("split_below_1mB", m, B))

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


_GRID = ("m_max", "grid_step", "tol")

#: Each suite's families in run order, with the names of the ``verify_all``
#: arguments each one takes.
SUITES: dict[str, tuple] = {
    "xos": ((verify_value_bound, _GRID), (verify_alpha_feasibility, _GRID), (verify_gh_bound, _GRID),
            (verify_tangency, ("tol",))),
    "si": ((verify_si_lower, ("seed", "tol")), (verify_si_upper, ())),
    "simul": ((verify_simul, ("seed", "tol")),),
}


def verify_all(
    suites: Iterable[str] = ("xos", "si", "simul"),
    m_max: int = 30,
    grid_step: float = 0.01,
    tol: float = 1e-9,
    seed: int = 0,
) -> list[SweepReport]:
    """Run the families of the chosen suites, in ``SUITES`` order, in this process.

    Each report's ``runtime_s`` times its own sweep and ``setup_s`` the
    ladder levels it built.  The xos families read f_1..f_30 of the cached
    ``seq.LADDER`` (eta 1e-9), built once however many families read it;
    ``si_upper_bound`` streams f_1..f_198 of its own ``_SI_LADDER`` (eta
    1e-8), two levels alive at a time.  A suite name outside
    ``SUITES``, a bare string for ``suites``, and a grid step that is not
    finite and in (0, 1) raise ValueError.
    """
    if isinstance(suites, str):
        raise ValueError(f"suites must be a collection of suite names, not the string {suites!r}")
    wanted = set(suites)
    if unknown := wanted - SUITES.keys():
        raise ValueError(f"unknown suite(s) {sorted(unknown)}; choose from {list(SUITES)}")
    _check_grid_step(grid_step, below=1.0)
    args = dict(m_max=m_max, grid_step=grid_step, tol=tol, seed=seed)
    calls = [call for suite, families in SUITES.items() if suite in wanted for call in families]
    return [fn(**{name: args[name] for name in takes}) for fn, takes in calls]


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
