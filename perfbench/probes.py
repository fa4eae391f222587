"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions on seeded inputs
and reports a median with its sample count.  The ladder probe runs in a
fresh child process (``python3 perfbench/probes.py ladder ...``) so that it
sees a cold ladder cache, as every CLI user does.

A metric whose layer function no longer exists is reported as absent
(value ``None``) instead of stopping the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    OUT_DIR,
    REF_TOL,
    Tracer,
    import_riskfree,
    last_json_line,
    load_reference,
    median,
    run_child,
    timed,
)
from cold_cli import SIZES as CLI_SIZES, VERIFY_SEEDS

LADDER_LEVELS = (10, 20, 25, 30, 31, 100, 200)

SIZES = {
    "full": dict(pwl_n=100_000, pwl_q=1_000_000, reps=7, ladder_top=200, ladder_need=198,
                 query_m=30, eq_m=31, sim_ms=(5, 10, 15, 20, 25, 30), si_ms=(16, 24, 32),
                 solver_m=16, qp_ms=(2, 16), cover_m=8, counter_m=400, grid_m=4, su_m=30),
    "tiny": dict(pwl_n=2_000, pwl_q=10_000, reps=3, ladder_top=12, ladder_need=6,
                 query_m=12, eq_m=12, sim_ms=(5, 10), si_ms=(14,),
                 solver_m=6, qp_ms=(2, 6), cover_m=5, counter_m=40, grid_m=3, su_m=6),
}


class Metrics(dict):
    """name -> {"value", "unit", "n"}; ``measure`` times a call ``reps`` times."""

    def put(self, name: str, value, unit: str, n: int, note: str = "") -> None:
        self[name] = {"value": value, "unit": unit, "n": n, "note": note}

    def measure(self, name: str, unit: str, scale: float, reps: int, fn) -> None:
        try:
            samples = [timed(fn) for _ in range(reps)]
        except AttributeError as exc:  # the layer function is gone
            self.put(name, None, unit, 0, f"absent: {exc}")
            return
        self.put(name, median(samples) * scale, unit, reps)


# -- pwl kernels ---------------------------------------------------------------


def pwl_probe(out: Metrics, size: str, seed: int) -> None:
    """Kernels on seeded polylines: unary ones on n breakpoints, binary ones
    on two inputs of n/2 - 1 breakpoints whose union (plus one crossing)
    stays within the library's breakpoint cap."""
    from riskfree import pwl

    cfg = SIZES[size]
    n, q, reps = cfg["pwl_n"], cfg["pwl_q"], cfg["reps"]
    rng = np.random.default_rng([seed, 3])
    xs, ys = np.sort(rng.random(n)), rng.random(n)
    f = pwl.PiecewiseLinear(xs, ys)
    half = n // 2 - 1
    pts = np.sort(rng.random(2 * half))
    dec = pwl.PiecewiseLinear(pts[0::2], np.sort(rng.random(half))[::-1])
    inc = pwl.PiecewiseLinear(pts[1::2], np.sort(rng.random(half)))
    sorted_q = np.linspace(-0.05, 1.05, q)
    random_q = rng.permutation(sorted_q)

    out.measure("pwl.construct_ms", "ms", 1e3, reps, lambda: pwl.PiecewiseLinear(xs, ys))
    out.measure("pwl.affine_ms", "ms", 1e3, reps, lambda: f.affine(0.5, 2.0, -0.25, 0.1))
    out.measure("pwl.add_ms", "ms", 1e3, reps, lambda: pwl.add(dec, inc))
    out.measure("pwl.pointwise_max_ms", "ms", 1e3, reps, lambda: pwl.pointwise_extreme(dec, inc, "max"))
    out.measure("pwl.solve_equal_ms", "ms", 1e3, reps, lambda: pwl.solve_equal(dec, inc, 0.0, 1.0))
    out.measure("pwl.eval_sorted_ms", "ms", 1e3, reps, lambda: f(sorted_q))
    out.measure("pwl.eval_random_ms", "ms", 1e3, reps, lambda: f(random_q))


# -- subset enumeration and solvers ----------------------------------------------


def solver_probe(out: Metrics, size: str, seed: int) -> None:
    from riskfree import seq, simul, strategies, valuations
    from solver_mix import random_table, random_weights

    cfg = SIZES[size]
    reps = cfg["reps"]
    rng = np.random.default_rng([seed, 4])
    m, B = cfg["solver_m"], 0.3
    clauses = [tuple(random_weights(rng, m, 10.0) * 0.8) for _ in range(4)] + [tuple(random_weights(rng, m, 10.0))]
    v = valuations.XOSValuation(clauses)
    gstar = valuations.gamma_star(v)
    bids = tuple(math.sqrt(B) * w for w in gstar.weights)
    ratios = tuple(rng.random(m))

    out.measure("seq.best_response_ms.m16.first", "ms", 1e3, reps,
                lambda: seq.best_response_to_fixed_bids(v, bids, B, "first"))
    out.measure("seq.best_response_ms.m16.second", "ms", 1e3, reps,
                lambda: seq.best_response_to_fixed_bids(v, bids, B, "second"))
    out.measure("simul.second_price_truthful_worst_ms.m16", "ms", 1e3, reps,
                lambda: simul.second_price_truthful_worst(v, B))
    out.measure("simul.exact_xos_expected_profit_ms.m16", "ms", 1e3, reps,
                lambda: simul.exact_xos_expected_profit(v, ratios))
    subsets = [np.nonzero(rng.random(m) < 0.5)[0].tolist() for _ in range(200)]
    it = iter(subsets * 2)
    out.measure("valuations.value_us.xos16", "us", 1e6, len(subsets), lambda: v.value(next(it)))

    # computed from the inputs, not measured: the masks the m = 16
    # enumerations visit and the share the adversary can afford
    masks = np.arange(1 << m)
    cost = ((masks[:, None] >> np.arange(m)) & 1) @ np.asarray(bids)
    out.put("enum.masks", float(1 << m), "count", 1, "computed from the inputs")
    out.put("enum.feasible_ratio", float(np.mean((cost < B - 1e-12) | (masks == 0))), "ratio", 1,
            "computed from the inputs")

    for name, qp_m in zip(("simul.adversary_qp_ms.m2", "simul.adversary_qp_ms.m16"), cfg["qp_ms"]):
        g = valuations.AdditiveValuation(tuple(random_weights(rng, qp_m, 10.0)))
        out.measure(name, "ms", 1e3, reps, lambda g=g: simul.adversary_qp(g, B))
    # one seeded table per sample: beta_cover raises ArithmeticError on a few
    # tables (a known defect), and those samples are counted, not timed
    tables = [valuations.SubadditiveIdenticalValuation(random_table(rng, cfg["cover_m"])) for _ in range(reps)]
    beta_cover = getattr(valuations, "beta_cover", None)
    cover_s = []
    for table in tables if beta_cover else ():
        t0 = time.perf_counter()
        try:
            beta_cover(table)
        except ArithmeticError:
            continue
        cover_s.append(time.perf_counter() - t0)
    note = f"{reps - len(cover_s)} of {reps} tables raised ArithmeticError" if beta_cover else "absent: no such function"
    out.put("valuations.beta_cover_ms.m8", median(cover_s) * 1e3 if cover_s else None, "ms", len(cover_s), note)
    cm = cfg["counter_m"]
    counter_v = valuations.XOSValuation([tuple(random_weights(rng, cm, 10.0))])
    raw = rng.random(cm)
    bids2 = tuple(raw / raw.sum() * B)
    out.measure("simul.bidder_counter_to_pure_ms.m400", "ms", 1e3, 20,
                lambda: simul.bidder_counter_to_pure(counter_v, bids2))
    gm = cfg["grid_m"]
    uniform = valuations.AdditiveValuation((1.0 / gm,) * gm)
    out.measure("seq.solve_discretized_ms", "ms", 1e3, reps,
                lambda: seq.solve_discretized(uniform, 0.5, 0.02))
    flat_table = valuations.SubadditiveIdenticalValuation(random_table(rng, m))
    k = strategies.choose_k(B)
    out.measure("strategies.constant_price_worst_profit_us", "us", 1e6, 50,
                lambda: strategies.constant_price_worst_profit(flat_table, B, k))


# -- cold ladder, sweeps, warm queries and emission (child process) ----------------


def _sweeps(size: str, verify_seed: int) -> list[tuple[str, dict]]:
    """The sweep calls ``riskfree verify`` makes with its default options."""
    if size == "tiny":
        common = dict(m_max=6, grid_step=0.05, tol=1e-9)
    else:
        common = dict(m_max=30, grid_step=0.01, tol=1e-9)
    calls = [("verify_value_bound", common), ("verify_alpha_feasibility", common),
             ("verify_gh_bound", common), ("verify_tangency", dict(tol=1e-9))]
    if size == "full":
        calls += [("verify_si_lower", dict(n_instances=200, seed=verify_seed, tol=1e-9)),
                  ("verify_si_upper", {}), ("verify_simul", dict(seed=verify_seed, tol=1e-9))]
    return calls


def ladder_child(size: str, seed: int, workdir: Path) -> dict:
    cfg = SIZES[size]
    tr = Tracer()
    out = Metrics()
    failures: list[str] = []
    with tr.span("import"):
        rf = import_riskfree()
        from riskfree import analysis, cli, seq, strategies, valuations
        from riskfree.errors import RiskFreeError

    # cold ladder, one level per call
    level_s, pieces = {}, {}
    with tr.span("seq.ladder.build"):
        for m in range(1, cfg["ladder_top"] + 1):
            with tr.span("seq.uniform_additive_value"):
                t0 = time.perf_counter()
                f = rf.uniform_additive_value(m)
                level_s[m] = time.perf_counter() - t0
            pieces[m] = len(f.xs) - 1
    for top in (30, 200):
        if top <= cfg["ladder_top"]:
            out.put(f"seq.ladder.build_s.m{top}", sum(level_s[m] for m in range(1, top + 1)), "s", 1,
                    "cumulative, cold process")
        else:
            out.put(f"seq.ladder.build_s.m{top}", None, "s", 0, "absent at this size")
    for m in LADDER_LEVELS:
        present = m in level_s
        out.put(f"seq.ladder.level_ms.m{m}", level_s[m] * 1e3 if present else None, "ms", int(present))
        out.put(f"seq.ladder.pieces.m{m}", float(pieces[m]) if present else None, "count", int(present))

    ref = load_reference()
    grid = np.linspace(0.0, 1.0, ref["ladder"]["grid_n"] + 1)
    for m_key, values in ref["ladder"]["values"].items():
        if int(m_key) in level_s:
            err = float(np.max(np.abs(rf.uniform_additive_value(int(m_key))(grid) - np.asarray(values))))
            if err > REF_TOL:
                failures.append(f"f_{m_key} differs from the reference by {err:.3g}")

    # sweep families on the warm ladder: sweep-only time
    verify_seed = seed % VERIFY_SEEDS
    key = CLI_SIZES[size]["key"]
    ref_margins = dict(ref["verify"][key]["fixed"])
    ref_margins.update(ref["verify"][key]["seeded"].get(str(verify_seed), {}))
    sweep_total = 0.0
    for name, kwargs in _sweeps(size, verify_seed):
        fn = getattr(analysis, name, None)
        if fn is None:
            out.put(f"analysis.{name}_s", None, "s", 0, "absent: no such function")
            continue
        with tr.span(f"analysis.{name}"):
            t0 = time.perf_counter()
            rep = fn(**kwargs)
            dt = time.perf_counter() - t0
        sweep_total += dt
        out.put(f"analysis.{name}_s", dt, "s", 1, "sweep only, ladder warm")
        if not rep.passed or abs(rep.min_margin - ref_margins.get(rep.name, math.inf)) > REF_TOL:
            failures.append(f"sweep {rep.name} margin {rep.min_margin} (passed={rep.passed})")
    for name, _ in _sweeps("full", 0):
        out.setdefault(f"analysis.{name}_s", {"value": None, "unit": "s", "n": 0, "note": "absent at this size"})
    ladder_s = sum(level_s[m] for m in range(1, cfg["ladder_need"] + 1))
    out.put("analysis.ladder_share", ladder_s / (ladder_s + sweep_total), "ratio", 1,
            f"ladder f_1..f_{cfg['ladder_need']} {ladder_s:.3f} s over ladder + sweeps {ladder_s + sweep_total:.3f} s")

    # warm read queries
    rng = np.random.default_rng([seed, 5])
    qm = cfg["query_m"]
    fq = rf.uniform_additive_value(qm)
    xs = iter(rng.random(400).tolist())
    out.measure("seq.eval_scalar_us.m30", "us", 1e6, 200, lambda: fq(next(xs)))
    gh_args = iter([(x, float(rng.random()) * min(1.0, qm * x)) for x in rng.random(200).tolist()])
    out.measure("seq.g_h_us.m30", "us", 1e6, 100, lambda: seq.g_h(qm, *next(gh_args)))

    def timed_calls(calls):
        """Times of the calls that return, and the count that raise a library error."""
        times, failed = [], 0
        for fn in calls:
            t0 = time.perf_counter()
            try:
                fn()
            except RiskFreeError:
                failed += 1
                continue
            times.append(time.perf_counter() - t0)
        return times, failed

    eq_calls = [lambda m=m, x=x: seq.equalization_alpha(m, x)
                for m in range(2, cfg["eq_m"] + 1) for x in (0.5 / m**2, (m - 0.5) / m)]
    sim_calls = [lambda m=m, B=B, v=valuations.AdditiveValuation((1.0 / m,) * m): seq.simulate(
                     v, strategies.xos_sqrt_policy(v, B), strategies.alpha_tilde_adversary(m, B), "first", budget=B)
                 for m in cfg["sim_ms"] for B in (0.1, 0.3, 0.5)]
    try:
        eq_s, eq_failed = timed_calls(eq_calls)
        out.put("seq.equalization_alpha_ms", median(eq_s) * 1e3, "ms", len(eq_s), "successful calls only")
        out.put("seq.equalization_alpha.failed", float(eq_failed), "count", len(eq_calls),
                f"calls raising a library error, of {len(eq_calls)}")
        sim_s, sim_failed = timed_calls(sim_calls)
        out.put("seq.simulate_ms", median(sim_s) * 1e3, "ms", len(sim_s),
                f"sqrt bidder vs alpha-tilde adversary; {sim_failed} failed")
    except AttributeError as exc:  # a layer function is gone
        for name, unit in (("seq.equalization_alpha_ms", "ms"), ("seq.equalization_alpha.failed", "count"),
                           ("seq.simulate_ms", "ms")):
            out.setdefault(name, {"value": None, "unit": unit, "n": 0, "note": f"absent: {exc}"})
    si_args = [(x, m) for m in cfg["si_ms"] for x in (0.1, 0.15)]
    it = iter(si_args)
    out.measure("analysis.si_upper_response_value_ms", "ms", 1e3, len(si_args),
                lambda: analysis.si_upper_response_value(*next(it)))

    # JSON emission of solve-uniform, warm and in-process
    path = workdir / "emit.json"
    with open(path, "w") as sink, contextlib.redirect_stdout(sink), tr.span("cli.solve_uniform_emit"):
        t0 = time.perf_counter()
        code = cli.main(["solve-uniform", "--m", str(cfg["su_m"])])
        emit_s = time.perf_counter() - t0
    if code != 0:
        failures.append(f"in-process solve-uniform exited {code}")
    out.put("cli.solve_uniform_emit_s", emit_s, "s", 1, f"m = {cfg['su_m']}, ladder warm")
    out.put("cli.solve_uniform_bytes", float(path.stat().st_size), "bytes", 1)
    path.unlink()

    tr.write(OUT_DIR / f"spans-ladder-probe-{seed}.json")
    return {"metrics": out, "failures": failures, "self_times": tr.self_times()}


def run_ladder_child(size: str, seed: int, workdir: Path, timeout: float = 170) -> dict:
    proc = run_child([sys.executable, str(Path(__file__).resolve()), "ladder", "--size", size,
                      "--seed", str(seed), "--workdir", str(workdir)], timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"ladder probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return last_json_line(proc.stdout)


def cli_import_probe(out: Metrics, reps: int) -> None:
    code = "import time; t = time.perf_counter(); import riskfree.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(reps):
        proc = run_child([sys.executable, "-c", code], 60)
        if proc.returncode != 0:
            raise RuntimeError(f"cold import failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    out.put("cli.import_s", median(samples), "s", reps, "import riskfree.cli in a fresh process")


def main() -> None:
    ap = argparse.ArgumentParser(description="ladder probe child process")
    ap.add_argument("probe", choices=("ladder",))
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    print(json.dumps(ladder_child(args.size, args.seed, args.workdir)))


if __name__ == "__main__":
    main()
