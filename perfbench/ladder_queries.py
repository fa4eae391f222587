"""Workload ``ladder_queries``: seeded read queries against the warm ladder.

Set-up builds f_1..f_30 (and on to f_39, the deepest level the operations
reach) through ``riskfree.uniform_additive_value``; the timed phase only
reads it.

Known defect: ``seq.equalization_alpha(m, x)`` raises
``BreakpointOverflowError`` for 18 <= m <= 31 (``DEFECT_LEVELS``), and so do
the simulations that call it there.  The timed mix keeps every op kind but
draws equalization and simulation inputs only where no level in that range is
reached.  The inputs inside the range are not dropped: ``setup`` returns them
as known-defect ops, which run once per run outside the timed phase, are
checked, and are reported by op kind.
"""

from __future__ import annotations

import math

import numpy as np

from common import FLOOR_TOL, REF_TOL, check, load_reference, stratified
from ops import Op

#: Levels m at which ``seq.equalization_alpha(m, x)`` overflows the breakpoint
#: cap: f_17..f_30 have more than ``pwl.MAX_BREAKPOINTS`` breakpoints.
DEFECT_LEVELS = range(18, 32)

SIZES = {
    # m values per op kind and op counts per pass; a simulation on m items
    # calls equalization at levels up to m, the flat-price one up to m - 2
    "full": dict(ladder_m=30, top=39, f_m=30, gh_m=30,
                 eq_ms=(*range(2, 18), *range(32, 40)), sim_alpha_ms=range(2, 18), sim_flat_ms=range(14, 18),
                 si_m=(14, 32), n_f_scalar=150, n_f_array=30, n_g_h=58, n_eq=60,
                 n_sim_alpha=58, n_sim_flat=27, n_si=38, array_len=256,
                 defect_eq_ms=DEFECT_LEVELS, defect_sim_alpha_ms=range(18, 31), defect_sim_flat_ms=range(18, 41)),
    "tiny": dict(ladder_m=8, top=16, f_m=8, gh_m=8, eq_ms=range(2, 8), sim_alpha_ms=range(2, 8),
                 sim_flat_ms=range(14, 16), si_m=(14, 16), n_f_scalar=8, n_f_array=2, n_g_h=4, n_eq=4,
                 n_sim_alpha=4, n_sim_flat=3, n_si=3, array_len=16,
                 defect_eq_ms=range(8, 9), defect_sim_alpha_ms=range(8, 9), defect_sim_flat_ms=range(16, 17)),
}


def t_star(B: float) -> float:
    """Upper envelope max_k 1/(k+1) - B/k of the tangent family."""
    return max(1.0 / (k + 1) - B / k for k in range(1, 400))


def setup(rf, seed: int, size: str, workdir) -> tuple[list[Op], list[Op]]:
    from riskfree import analysis, seq, strategies, valuations

    cfg = SIZES[size]
    ref = load_reference()
    lad = ref["ladder"]
    grid_n = lad["grid_n"]
    ref_f = {int(m): np.asarray(v) for m, v in lad["values"].items()}
    si_ref = ref["si_upper"]

    rf.uniform_additive_value(cfg["ladder_m"])
    fs = {m: rf.uniform_additive_value(m) for m in range(1, cfg["top"] + 1)}

    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []

    def check_f(m, xs, got):
        xs, got = np.asarray(xs, dtype=float), np.asarray(got, dtype=float)
        base = (1.0 - np.sqrt(xs)) ** 2
        check(bool(np.all(base - REF_TOL <= got)), f"f_{m} below (1-sqrt x)^2")
        check(bool(np.all(got <= base + 1.0 / math.sqrt(m) + REF_TOL)), f"f_{m} above the 1/sqrt(m) bound")
        idx = np.rint(xs * grid_n).astype(int)
        check(float(np.max(np.abs(got - ref_f[m][idx]))) <= REF_TOL, f"f_{m} differs from the reference")
        if m <= 3:
            want = [analysis.table_A(m, float(x)) for x in xs]
            check(float(np.max(np.abs(got - want))) <= 1e-12, f"f_{m} differs from table_A")

    # scalar and array f_m(x) on the reference grid
    for i in range(cfg["n_f_scalar"]):
        m, x = 1 + i % cfg["f_m"], int(rng.integers(0, grid_n + 1)) / grid_n

        def call(tr, m=m, x=x):
            with tr.span("seq.uniform_additive_value"):
                f = rf.uniform_additive_value(m)
            with tr.span("pwl.eval"):
                return f(x)

        ops.append(Op("f_scalar", call, lambda got, m=m, x=x: check_f(m, [x], [got])))
    for i in range(cfg["n_f_array"]):
        m = 1 + i % cfg["f_m"]
        xs = rng.integers(0, grid_n + 1, size=cfg["array_len"]) / grid_n

        def call(tr, m=m, xs=xs):
            with tr.span("seq.uniform_additive_value"):
                f = rf.uniform_additive_value(m)
            with tr.span("pwl.eval"):
                return f(xs)

        ops.append(Op("f_array", call, lambda got, m=m, xs=xs: check_f(m, xs, got)))

    # continuation values: max(g, h) at any feasible alpha is at least f_m(x)
    for i in range(cfg["n_g_h"]):
        m = 2 + i % (cfg["gh_m"] - 1)
        x = int(rng.integers(1, grid_n + 1)) / grid_n
        alpha = float(rng.random()) * min(1.0, m * x)

        def call(tr, m=m, x=x, alpha=alpha):
            with tr.span("seq.g_h"):
                return seq.g_h(m, x, alpha)

        def chk(gh, m=m, x=x):
            g, h = gh
            r = (m - 1.0) / m
            check(-REF_TOL <= h <= r + REF_TOL and g <= 1.0 / m + r + REF_TOL, "g/h out of range")
            check(max(g, h) >= ref_f[m][round(x * grid_n)] - REF_TOL, "max(g, h) below f_m")

        ops.append(Op("g_h", call, chk))

    def eq_op(m, x):
        """Equalization outside the intermediate regime: value f_m(x), alpha feasible."""
        want = fs[m](x)

        def call(tr):
            with tr.span("seq.equalization_alpha"):
                return seq.equalization_alpha(m, x)

        def chk(out):
            alpha, value = out
            check(-FLOOR_TOL <= alpha <= min(1.0, m * x) + FLOOR_TOL, "alpha infeasible")
            check(abs(value - want) <= REF_TOL, "equalization value differs from f_m(x)")

        return Op("equalization_alpha", call, chk)

    def eq_budget(m, u, low):
        return u / m**2 if low else (m - 1.0) / m + u / m

    def sim_alpha_op(m, B):
        """Sqrt bidder against the alpha-tilde adversary: profit >= (1 - sqrt B)^2."""

        def call(tr):
            with tr.span("valuations.AdditiveValuation"):
                v = valuations.AdditiveValuation((1.0 / m,) * m)
            with tr.span("strategies.policies"):
                bidder = strategies.xos_sqrt_policy(v, B)
                adversary = strategies.alpha_tilde_adversary(m, B)
            with tr.span("seq.simulate"):
                return seq.simulate(v, bidder, adversary, "first", budget=B)

        return Op("simulate_sqrt_alpha", call, lambda out: check(
            out.profit >= (1.0 - math.sqrt(B)) ** 2 - FLOOR_TOL, "sqrt bidder below (1-sqrt B)^2"))

    def sim_flat_op(m, x):
        """Flat-price bidder on the hard instance: profit >= t*(x) - (x k/(k-1))/m."""

        def call(tr):
            with tr.span("valuations.make_s_instance"):
                si, params = valuations.make_s_instance(x, m)
            with tr.span("strategies.policies"):
                k = strategies.choose_k(x)
                bidder, _ = strategies.constant_price_policy(si, x, k)
                adversary = strategies.s_instance_adversary(params)
            with tr.span("seq.simulate"):
                return k, seq.simulate(si, bidder, adversary, "first", budget=x)

        def chk(out):
            k, outcome = out
            floor = t_star(x) - (x * k / (k - 1.0)) / m
            check(outcome.profit >= floor - FLOOR_TOL, "flat-price bidder below t*(B) - (Bk/(k-1))/m")

        return Op("simulate_flat_s_adversary", call, chk)

    # equalization, alternating low and high budgets by cycle over the m values
    eq_ms = cfg["eq_ms"]
    for i in range(cfg["n_eq"]):
        m = eq_ms[i % len(eq_ms)]
        ops.append(eq_op(m, eq_budget(m, float(rng.random()), (i // len(eq_ms)) % 2 == 0)))
    for i, B in enumerate(stratified(rng, cfg["n_sim_alpha"], 0.01, 0.99)):
        ops.append(sim_alpha_op(cfg["sim_alpha_ms"][i % len(cfg["sim_alpha_ms"])], B))
    for i, x in enumerate(stratified(rng, cfg["n_sim_flat"], 0.05, 0.2)):
        ops.append(sim_flat_op(cfg["sim_flat_ms"][i % len(cfg["sim_flat_ms"])], x))

    # hard-instance response values against the recorded reference
    lo, hi = cfg["si_m"]
    for i in range(cfg["n_si"]):
        m = lo + i % (hi - lo + 1)
        j = int(rng.integers(0, si_ref["n"]))
        x = si_ref["x0"] + j * si_ref["dx"]

        def call(tr, m=m, x=x):
            with tr.span("analysis.si_upper_response_value"):
                return analysis.si_upper_response_value(x, m)

        ops.append(Op("si_upper_response_value", call, lambda out, m=m, j=j: check(
            abs(out["value"] - si_ref["values"][str(m)][j]) <= REF_TOL,
            "si_upper_response_value differs from the reference")))

    order = rng.permutation(len(ops))
    ops = [ops[int(i)] for i in order]

    # the same op kinds at the levels of the known defect, one seeded input
    # per m (equalization: one low and one high budget)
    drng = np.random.default_rng([seed, 6])
    defect = [eq_op(m, eq_budget(m, float(drng.random()), low))
              for m in cfg["defect_eq_ms"] for low in (True, False)]
    ms = cfg["defect_sim_alpha_ms"]
    defect += [sim_alpha_op(m, B) for m, B in zip(ms, stratified(drng, len(ms), 0.01, 0.99))]
    ms = cfg["defect_sim_flat_ms"]
    defect += [sim_flat_op(m, x) for m, x in zip(ms, stratified(drng, len(ms), 0.05, 0.2))]
    return ops, defect
