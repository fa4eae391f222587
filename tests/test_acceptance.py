"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion bodies time themselves where a runtime limit is
part of the criterion.
"""

import math
import time

import numpy as np
import pytest

from riskfree import analysis as A
from riskfree import seq, simul
from riskfree.seq import best_response_to_fixed_bids, uniform_additive_value
from riskfree.strategies import choose_k, constant_price_worst_profit, tangent_value, xos_sqrt_policy
from riskfree.valuations import (
    AdditiveValuation,
    SubadditiveIdenticalValuation,
    XOSValuation,
    beta_cover,
    gamma_star,
    l_threshold,
    random_subadditive_identical,
)

from oracles import exhaustive_best_response_split, qp_grid_search, scan_qp

TOL = 1e-9


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_xos(rng: np.random.Generator, m: int, max_extra_clauses: int = 4) -> XOSValuation:
    clauses = [tuple(rng.random(m)) for _ in range(int(rng.integers(0, max_extra_clauses + 1)))]
    w = rng.random(m) + 1e-3
    clauses.append(tuple(w / w.sum()))
    return XOSValuation(clauses)


def test_criterion_01_table_replication():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(1))
    budgets = rng.uniform(0.0, 1.2, size=10**4)
    worst = 0.0
    for m in (1, 2, 3):
        fm = uniform_additive_value(m)
        table = np.array([A.table_A(m, float(b)) for b in budgets])
        worst = max(worst, float(np.max(np.abs(fm(budgets) - table))))
    f3 = uniform_additive_value(3)
    bp_err = float(
        np.max(np.abs(f3.xs[1:] - np.array([1 / 9, 1 / 6, 1 / 3, 5 / 9, 2 / 3, 1.0])))
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL and bp_err <= TOL and elapsed < 1.0
    announce(1, ok, f"max table error {worst:.2e}, breakpoint error {bp_err:.2e}, {elapsed:.2f}s")
    assert worst <= TOL
    assert bp_err <= TOL
    assert elapsed < 1.0


def test_criterion_02_value_bound_sweep():
    t0 = time.perf_counter()
    rep = A.verify_value_bound(m_max=30, grid_step=0.005, tol=TOL)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    announce(2, ok, f"min margin {rep.min_margin:.2e} at {rep.worst_point}, {elapsed:.1f}s")
    assert rep.passed
    assert elapsed < 60.0


def test_criterion_03_sqrt_policy_property_suite():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(3))
    worst_margin = math.inf
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        v = random_xos(rng, m)
        g = gamma_star(v)
        for B in (0.04, 0.25, 0.49):
            pol = xos_sqrt_policy(g, B)
            _, profit = best_response_to_fixed_bids(v, pol.bids, B)
            worst_margin = min(worst_margin, profit - (1 - math.sqrt(B)) ** 2)
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -TOL and elapsed < 30.0
    announce(3, ok, f"worst margin over 1000 instances {worst_margin:.2e}, {elapsed:.1f}s")
    assert worst_margin >= -TOL
    assert elapsed < 30.0


def test_criterion_04_alpha_claims():
    t0 = time.perf_counter()
    feas = A.verify_alpha_feasibility(m_max=30, grid_step=0.002, tol=TOL)
    gh = A.verify_gh_bound(m_max=30, grid_step=0.002, tol=TOL)
    elapsed = time.perf_counter() - t0
    ok = feas.passed and gh.passed and elapsed < 60.0
    announce(
        4,
        ok,
        f"feasibility margin {feas.min_margin:.2e}, g/h margin {gh.min_margin:.2e}, {elapsed:.1f}s",
    )
    assert feas.passed and gh.passed
    assert elapsed < 60.0


def test_criterion_05_second_price_floor():
    rng = np.random.Generator(np.random.Philox(5))
    worst = math.inf
    for _ in range(40):  # enumerated best responses at m <= 12
        m = int(rng.integers(2, 13))
        v = random_xos(rng, m)
        B = float(rng.uniform(0.05, 0.95))
        profit, _ = simul.second_price_truthful_worst(v, B)
        worst = min(worst, profit - (1 - B))
    v = random_xos(rng, 8)
    g = np.asarray(gamma_star(v).weights)
    B = 0.35
    for _ in range(10**4):  # random feasible adversary vectors
        raw = rng.random(8)
        bids2 = raw / raw.sum() * B
        out = simul.resolve(v, g, bids2, "second")
        worst = min(worst, out.profit - (1 - B))
    ok = worst >= -TOL
    announce(5, ok, f"worst 1-B margin {worst:.2e}")
    assert worst >= -TOL


def test_criterion_06_adversarial_qp():
    rng = np.random.Generator(np.random.Philox(6))
    worst_scan, worst_lattice = 0.0, 0.0
    for i in range(20):
        m = 2 if i < 8 else int(rng.integers(3, 9))
        w = rng.random(m) + 0.05
        g = AdditiveValuation(tuple(w / w.sum()))
        for B in np.arange(0.1, 0.95, 0.1):
            sol = simul.adversary_qp(g, float(B))
            rng.integers(2**31)  # the seed an iterative oracle drew; later draws stay put
            _, scan_value = scan_qp(g.weights, float(B))
            worst_scan = max(worst_scan, abs(scan_value - sol.value))
            if m == 2:
                lattice = qp_grid_search(np.asarray(g.weights), float(B), step=0.001)
                worst_lattice = max(worst_lattice, abs(lattice - sol.value))
    # Monte Carlo vs the closed form at the QP optimizer b = B
    mc_ok = True
    n = 10**6
    for B in (0.1, 0.5, 0.9):
        m = int(rng.integers(2, 9))
        w = rng.random(m) + 0.05
        g = np.asarray(w / w.sum())
        draws = rng.random((n, m)) * g
        wins = draws > B * g
        profits = (g * wins).sum(axis=1) - (draws * wins).sum(axis=1)
        se = float(profits.std()) / math.sqrt(n)
        mc_ok &= abs(float(profits.mean()) - 0.5 * (1 - B) ** 2) <= 3 * se
    ok = worst_scan <= 1e-6 and worst_lattice <= 1e-4 and mc_ok
    announce(
        6,
        ok,
        f"max |closed-scan| {worst_scan:.2e}, max |closed-lattice| {worst_lattice:.2e}, MC within 3 SE: {mc_ok}",
    )
    assert worst_scan <= 1e-6
    assert worst_lattice <= 1e-4
    assert mc_ok


def test_criterion_07_randomized_adversary_values():
    worst = 0.0
    strict_ok = True
    for m in (4, 8, 12):
        for B in np.arange(0.02, 1.0, 0.02):
            B = float(B)
            got, _ = exhaustive_best_response_split(m, B)
            want = 1 - 2 * B if B < 0.25 else 2 * (1 - B) / 3
            worst = max(worst, abs(got - want))
            strict_ok &= got < 1 - B
    ok = worst <= TOL and strict_ok
    announce(7, ok, f"max |value - closed form| {worst:.2e}, strictly below 1-B: {strict_ok}")
    assert worst <= TOL
    assert strict_ok


def test_criterion_08_si_lower_bound():
    rng = np.random.Generator(np.random.Philox(8))
    worst = math.inf
    for _ in range(500):
        m = int(rng.choice([20, 50, 100]))
        si = random_subadditive_identical(m, rng)
        B = float(rng.uniform(0.02, 0.6))
        k = choose_k(B)
        profit, _ = constant_price_worst_profit(si, B, k)
        target = A.t_star(B)[0] - (B * k / (k - 1)) / m
        worst = min(worst, profit - target)
    ok = worst >= -TOL
    announce(8, ok, f"worst margin over 500 instances {worst:.2e}")
    assert worst >= -TOL


def test_criterion_09_si_upper_bound():
    t0 = time.perf_counter()
    xs = (0.05, 0.10, 0.15, 0.20)
    c_measured = 0.0
    converged = True
    rows = []
    for x in xs:
        ms = [max(math.ceil(l_threshold(x)), 50), 100, 200]
        t1 = tangent_value(1, x)
        excesses = []
        for m in ms:
            val = A.si_upper_response_value(x, m)["value"]
            excess = val - t1
            c_measured = max(c_measured, excess * math.sqrt(m))
            excesses.append(excess)
            rows.append((x, m, val, excess))
        converged &= excesses[-1] < excesses[0]
    elapsed = time.perf_counter() - t0
    ok = math.isfinite(c_measured) and converged and elapsed < 120.0
    announce(
        9,
        ok,
        f"measured C {c_measured:.3f}, convergence (excess at 200 < excess at 50): {converged}, {elapsed:.1f}s",
    )
    assert math.isfinite(c_measured)
    assert converged
    assert elapsed < 120.0


def test_criterion_10_deterministic_simultaneous():
    worst_over = 0.0
    for m in (100, 400):
        for B in (0.04, 0.25, 0.49):
            bound = (1 - math.sqrt(B)) ** 2 + 2 / math.sqrt(m)
            for b in np.linspace(1e-6, 2.0 / m, 2000):
                plan = simul.deterministic_counter((float(b),) * m, B)
                worst_over = max(worst_over, plan.realized - bound)
            # bids above the item value never profit
            plan = simul.deterministic_counter((1.5 / m,) * m, B)
            worst_over = max(worst_over, plan.realized - bound)
    rng = np.random.Generator(np.random.Philox(10))
    worst_floor = math.inf
    for m in (100, 400):
        v = XOSValuation([(1.0 / m,) * m])
        B = 0.3
        for _ in range(5000):
            raw = rng.random(m)
            bids2 = raw / raw.sum() * B
            _, profit = simul.bidder_counter_to_pure(v, bids2)
            worst_floor = min(worst_floor, profit - (1 - B))
    ok = worst_over <= TOL and worst_floor >= -TOL
    announce(
        10,
        ok,
        f"constant vectors exceed bound by {worst_over:.2e}; counter floor margin {worst_floor:.2e}",
    )
    assert worst_over <= TOL
    assert worst_floor >= -TOL


def test_criterion_11_log_cover_at_tiny_scale():
    """The log cover factor at tiny m, as proved for identical-item tables.

    Proof: with v(I) = 1 and the uniform r_j = 1/m, a q-subset needs
    beta >= (q/m)/v(q).  Subadditivity gives 1 <= ceil(m/q) v(q), and
    q ceil(m/q) <= m + q - 1 <= 2(m - 1) for q < m, so beta <= max(1, 2(m-1)/m).
    The table v(q) = 1/2 for 0 < q < m attains it at q = m - 1.  Since
    2(m-1)/m <= ln(m) exactly when m >= 5, ln(m) bounds beta only from m = 5 on.
    """
    rng = np.random.Generator(np.random.Philox(0))
    max_beta = 0.0
    over_proved, over_log = [], []
    max_beta_vs_harmonic = -math.inf
    for _ in range(200):
        m = int(rng.integers(3, 7))
        v = random_subadditive_identical(m, rng)
        cert = beta_cover(v)
        max_beta = max(max_beta, cert.beta)
        harmonic = sum(1.0 / i for i in range(1, m + 1))
        max_beta_vs_harmonic = max(max_beta_vs_harmonic, cert.beta - harmonic)
        if cert.beta > max(1.0, 2.0 * (m - 1) / m) + 1e-9:
            over_proved.append((m, cert.beta))
        if m >= 5 and cert.beta > math.log(m) + 1e-6:
            over_log.append((m, cert.beta))
    extremal = {
        m: beta_cover(SubadditiveIdenticalValuation((0.0,) + (0.5,) * (m - 1) + (1.0,))).beta
        for m in range(3, 7)
    }
    off_extremal = {m: b for m, b in extremal.items() if abs(b - 2.0 * (m - 1) / m) > 1e-9}
    ok = not over_proved and not over_log and not off_extremal
    announce(
        11,
        ok,
        f"max beta {max_beta:.4f}; {len(over_proved)} draws exceed max(1, 2(m-1)/m), "
        f"{len(over_log)} draws at m >= 5 exceed ln(m)+1e-6; extremal tables reach "
        f"{', '.join(f'{b:.4f}' for b in extremal.values())} at m = 3..6 "
        f"(all betas stay below H_m by {-max_beta_vs_harmonic:.3f})",
    )
    assert not over_proved, f"beta above the proved bound max(1, 2(m-1)/m): {over_proved}"
    assert not over_log, f"beta above ln(m) at m >= 5: {over_log}"
    assert not off_extremal, (
        "the extremal table (0, 1/2, ..., 1/2, 1) must need beta = 2(m-1)/m, which "
        f"exceeds ln(m) at m = 3, 4; got {off_extremal}; see the README on cover factors"
    )
