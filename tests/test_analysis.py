import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from riskfree import analysis as A
from riskfree import seq, simul
from riskfree.strategies import tangent_value
from riskfree.valuations import l_threshold, sigma_of


def table_transcription(m, B):
    # independent second transcription of the closed-form tables (two-person
    # rule); intentionally written as data, not branches
    segments = {
        1: [(0.0, 1.0, -1.0, 1.0)],
        2: [(0.0, 0.25, -2.0, 1.0), (0.25, 0.5, -1.0, 0.75), (0.5, 1.0, -0.5, 0.5)],
        3: [
            (0.0, 1 / 9, -3.0, 1.0),
            (1 / 9, 1 / 6, -2.0, 8 / 9),
            (1 / 6, 1 / 3, -4 / 3, 7 / 9),
            (1 / 3, 5 / 9, -3 / 4, 7 / 12),
            (5 / 9, 2 / 3, -1 / 2, 4 / 9),
            (2 / 3, 1.0, -1 / 3, 1 / 3),
        ],
    }[m]
    for lo, hi, slope, intercept in segments:
        if lo <= B < hi:
            return intercept + slope * B
    return 0.0


def t_star_scan(B):
    """The scan ``t_star`` replaced: move to k only on a gain above 1e-15."""
    root = math.sqrt(B)
    k_hi = 64 if root >= 1.0 else math.ceil(1.0 / (1.0 - root)) + 2
    best_val, best_k = tangent_value(1, B), 1
    for k in range(2, k_hi + 1):
        v = tangent_value(k, B)
        if v > best_val + 1e-15:
            best_val, best_k = v, k
    return best_val, best_k


def switch_point(j, ulps):
    """B = j/(j+2), where t_j = t_{j+1}, moved by ``ulps`` floats."""
    return j / (j + 2.0) + ulps * math.ulp(j / (j + 2.0))


class TestClosedForms:
    def test_f_bound_tangency(self):
        assert A.f_bound(0.25) == pytest.approx(0.25)
        assert tangent_value(1, 0.25) == pytest.approx(0.25)

    def test_t_star_low_budget(self):
        val, k = A.t_star(0.1)
        assert val == pytest.approx(0.4) and k == 1

    def test_t_star_tie(self):
        val, k = A.t_star(0.5)
        assert val == pytest.approx(1 / 12)
        assert k == 2  # tie with k = 3 breaks toward the smaller index

    def test_t_star_matches_the_scan_at_switch_points(self):
        for j in [*range(1, 300), 500, 1000, 2000, 4000, 5000]:
            for u in range(-3, 4):
                B = switch_point(j, u)
                assert A.t_star(B) == t_star_scan(B), B

    @settings(max_examples=200, deadline=None)
    @given(
        B=hst.one_of(
            hst.builds(switch_point, hst.integers(1, 2000), hst.integers(-4, 4)),
            hst.floats(0.0, 0.999),
            hst.floats(1.0, 1e6),
        )
    )
    def test_t_star_matches_the_scan(self, B):
        assert A.t_star(B) == t_star_scan(B)

    def test_t_star_reaches_k_hi_above_one(self):
        assert A.t_star(1.5) == t_star_scan(1.5)
        assert A.t_star(1.5)[1] == 64

    def test_tangent_bound_fields(self):
        tb = A.tangent_bound(3, 0.5)
        assert tb.tangency == pytest.approx(9 / 16)
        assert tb.value == pytest.approx(0.25 - 0.5 / 3)

    @pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf, -0.5])
    def test_tangent_forms_reject_bad_budgets(self, B):
        with pytest.raises(ValueError, match="budget"):
            A.tangent_bound(3, B)
        with pytest.raises(ValueError, match="budget"):
            A.t_star(B)

    def test_tables_examples(self):
        assert A.table_A(2, 0.6) == pytest.approx(0.2)
        assert A.table_A(3, 0.125) == pytest.approx(8 / 9 - 0.25)
        assert A.table_A(1, 1.5) == 0.0

    def test_tables_against_independent_transcription(self):
        rng = np.random.Generator(np.random.Philox(15))
        for _ in range(2000):
            m = int(rng.integers(1, 4))
            B = float(rng.uniform(0, 1.3))
            assert A.table_A(m, B) == pytest.approx(table_transcription(m, B), abs=1e-12)

    def test_tables_out_of_range(self):
        with pytest.raises(ValueError):
            A.table_A(4, 0.3)

    @pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf, -0.1])
    def test_closed_forms_reject_bad_budgets(self, B):
        for m in (1, 2, 3):
            with pytest.raises(ValueError):
                A.table_A(m, B)
        with pytest.raises(ValueError):
            A.f_bound(B)
        with pytest.raises(ValueError):
            seq.alpha_tilde(3, B)
        with pytest.raises(ValueError):
            seq.alpha_tilde(3, np.array([0.5, B]))

    def test_budget_split_examples(self):
        s = simul.budget_split(0.1)
        assert (s.w1, s.w2) == (pytest.approx(0.2), pytest.approx(0.0))
        assert sigma_of(0.125) == pytest.approx(2.0)
        assert l_threshold(0.125) == pytest.approx(8.0)


class TestSweeps:
    def test_value_bound_small(self):
        rep = A.verify_value_bound(m_max=8, grid_step=0.02)
        assert rep.passed and rep.min_margin >= -1e-9

    def test_alpha_feasibility_small(self):
        rep = A.verify_alpha_feasibility(m_max=10, grid_step=0.01)
        assert rep.passed

    def test_gh_bound_small(self):
        rep = A.verify_gh_bound(m_max=10, grid_step=0.01)
        assert rep.passed

    def test_tangency(self):
        rep = A.verify_tangency()
        assert rep.passed

    def test_tangency_with_an_empty_budget_grid_still_checks_the_identities(self):
        rep = A.verify_tangency(grid_step=2.0)
        assert rep.passed and rep.n_points == 50

    @pytest.mark.parametrize("k_max, grid_step", [(50, 0.001), (7, 0.013), (1, 0.3)])
    def test_tangency_replays_the_former_generator(self, k_max, grid_step):
        # the t_k grid as it was built, one tangent_value call per (B, k)
        ks = range(1, k_max + 1)
        touch = [(k / (k + 1.0)) ** 2 for k in ks]
        gaps = [-abs(tangent_value(k, pt) - A.f_bound(pt)) for k, pt in zip(ks, touch)]
        budgets = np.arange(grid_step, 1.0, grid_step).tolist()
        env = np.array([A.t_star(B)[0] for B in budgets])
        t_k = np.fromiter((tangent_value(k, B) for B in budgets for k in ks), float, len(budgets) * k_max)
        margins = np.concatenate((gaps, np.repeat(env, k_max) - t_k))
        i = int(np.argmin(margins))
        point = (i + 1,) if i < k_max else (budgets[(i - k_max) // k_max], (i - k_max) % k_max + 1)
        rep = A.verify_tangency(k_max=k_max, grid_step=grid_step)
        assert rep.n_points == len(margins)
        assert rep.min_margin.hex() == float(margins[i]).hex()
        assert rep.worst_point == point

    def test_si_lower_small(self):
        rep = A.verify_si_lower(n_instances=60, seed=0)
        assert rep.passed

    def test_si_upper_small(self):
        rep = A.verify_si_upper(x_list=(0.1,), m_list=(30, 60))
        assert rep.passed
        assert rep.extra["C_measured"] >= 0.0
        rows = rep.extra["rows"]
        assert rows[-1]["excess"] < rows[0]["excess"]

    def test_streamed_sweep_matches_the_response_value(self, monkeypatch):
        si_ladder = seq.Ladder(eta=A._SI_ETA)
        monkeypatch.setattr(A, "_SI_LADDER", si_ladder)
        rep = A.verify_si_upper(x_list=(0.1,), m_list=(30, 60))
        assert len(si_ladder) == 1  # the sweep streamed the levels, caching none
        errs = []
        for row in rep.extra["rows"]:
            resp = A.si_upper_response_value(row["x"], row["m"])
            assert row["value"] == resp["value"]
            assert row["excess"] == resp["value"] - tangent_value(1, row["x"])
            errs.append(resp["ladder_err"])
        assert [row["m"] for row in rep.extra["rows"]] == [30, 60]
        assert rep.extra["ladder_err"] == errs[0] + errs[-1]

    @pytest.mark.parametrize("grid_step", [0.0, -0.01, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "sweep",
        [A.verify_value_bound, A.verify_alpha_feasibility, A.verify_gh_bound, A.verify_tangency],
        ids=["value_bound", "alpha_feasibility", "gh_bound", "tangency"],
    )
    def test_bad_grid_step_rejected(self, sweep, grid_step):
        with pytest.raises(ValueError, match="grid_step"):
            sweep(grid_step=grid_step)

    def test_ladder_build_and_error_are_reported(self, monkeypatch):
        ladder, si_ladder = seq.Ladder(), seq.Ladder(eta=A._SI_ETA)
        monkeypatch.setattr(seq, "LADDER", ladder)
        monkeypatch.setattr(A, "_SI_LADDER", si_ladder)
        # (sweep, kwargs, the ladder it reads, its top level, gap ends summed)
        sweeps = [
            (A.verify_value_bound, dict(m_max=8, grid_step=0.02), ladder, 8, 1),
            (A.verify_gh_bound, dict(m_max=8, grid_step=0.02), ladder, 7, 1),
            (A.verify_si_upper, dict(x_list=(0.1,), m_list=(30, 60)), si_ladder, 58, 2),
        ]
        reps = [fn(**kw) for fn, kw, *_ in sweeps]
        assert reps[0].setup_s > 0.0  # the first sweep built the cold ladder
        assert reps[2].setup_s > 0.0  # and si_upper its own
        for rep, (_, _, lad, top, ends) in zip(reps, sweeps):
            assert rep.passed
            assert rep.extra["eta"] == lad.eta
            # contraction bound err_m <= eta (m + 1) / 2; the si subgames
            # enter with weights summing to under 1, once per end of the gap
            for rec in lad.records(top):
                assert rec.err <= lad.eta * (rec.m + 1) / 2
            assert 0.0 <= rep.extra["ladder_err"] <= ends * lad.eta * (top + 1) / 2
            assert rep.to_dict()["setup_s"] == rep.setup_s
            assert "ladder" in rep.summary_line()
        # a certified error as large as the margin fails the sweep; the
        # margin itself is unchanged.  The xos sweeps read the cached
        # records, si_upper the streamed ones.
        records = [dataclasses.replace(r, err=1.0) for r in ladder.records(len(ladder))]
        monkeypatch.setattr(ladder, "records", lambda m: records[:m])
        stream = si_ladder.stream
        monkeypatch.setattr(si_ladder, "stream", lambda m: (
            (k, f, dataclasses.replace(rec, err=1.0)) for k, f, rec in stream(m)))
        for (fn, kw, *_), rep in zip(sweeps, reps):
            worse = fn(**kw)
            assert not worse.passed
            assert worse.min_margin == rep.min_margin

    def test_si_family_reads_its_own_coarser_ladder(self):
        assert A._SI_LADDER is not seq.LADDER
        assert A._SI_LADDER.eta == 1e-8
        assert seq.LADDER.eta == seq._ETA == 1e-9

    def test_si_suite_builds_no_level_of_the_shared_ladder(self, monkeypatch):
        fresh = seq.Ladder()
        monkeypatch.setattr(seq, "LADDER", fresh)
        reps = A.verify_all(suites=("si",))
        assert all(rep.passed for rep in reps)
        assert len(fresh) == 1

    def test_simul(self):
        rep = A.verify_simul(seed=0)
        assert rep.passed

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda: A.verify_alpha_feasibility(m_max=1),
            lambda: A.verify_gh_bound(m_max=1),
            lambda: A.verify_si_upper(x_list=(0.1,), m_list=(30,)),  # one m, so no gap
            lambda: A.verify_si_lower(n_instances=0),
        ],
        ids=["alpha_feasibility", "gh_bound", "si_upper", "si_lower"],
    )
    def test_a_sweep_that_checks_no_point_raises(self, sweep):
        with pytest.raises(ValueError, match="checked no point"):
            sweep()

    def test_verify_all_shapes(self):
        reps = A.verify_all(suites=("simul",))
        assert len(reps) == 1
        d = reps[0].to_dict()
        assert set(d) >= {"name", "min_margin", "passed", "runtime_s"}
        assert isinstance(reps[0].summary_line(), str)


def serial_reports(suites, m_max, grid_step, seed, tol=1e-9):
    """Every family of ``suites`` called here, in ``verify_all``'s order."""
    grid = dict(m_max=m_max, grid_step=grid_step, tol=tol)
    calls = []
    if "xos" in suites:
        calls += [
            (A.verify_value_bound, grid),
            (A.verify_alpha_feasibility, grid),
            (A.verify_gh_bound, grid),
            (A.verify_tangency, dict(tol=tol)),
        ]
    if "si" in suites:
        calls += [(A.verify_si_lower, dict(n_instances=200, seed=seed, tol=tol)), (A.verify_si_upper, {})]
    if "simul" in suites:
        calls.append((A.verify_simul, dict(seed=seed, tol=tol)))
    return [fn(**kw) for fn, kw in calls]


def untimed(rep):
    d = rep.to_dict()
    del d["runtime_s"], d["setup_s"]
    return d


class TestSweepAccumulator:
    def test_first_least_margin_wins_and_every_margin_counts(self):
        sweep = A._Sweep("stub", "a stub sweep")
        sweep.note(2.0, ("a",))
        sweep.note(1.0, ("b",))
        sweep.note(1.0, ("c",))
        assert sweep.point == ("b",)  # a tie keeps the first point
        sweep.note_all(np.array([3.0, 0.5, 0.5]), lambda i: ("array", i))
        assert sweep.point == ("array", 1)  # the array's first argmin
        sweep.note_all(np.array([0.5, 0.75]), lambda i: ("later", i))
        sweep.note_all(np.array([]), lambda i: ("empty", i))  # counts nothing
        sweep.note(0.5, ("last",))
        assert sweep.point == ("array", 1)  # ties across notes keep it too
        rep = sweep.report(True, setup_s=0.25)
        assert (rep.name, rep.description, rep.passed, rep.setup_s) == ("stub", "a stub sweep", True, 0.25)
        assert (rep.n_points, rep.min_margin, rep.worst_point) == (9, 0.5, ("array", 1))
        assert sweep.report(False, n_points=4).n_points == 4

    def test_an_empty_sweep_raises(self):
        with pytest.raises(ValueError, match="stub: the sweep checked no point"):
            A._Sweep("stub", "").report(True)

    def test_to_dict_keys_and_worst_point(self):
        rep = A.SweepReport("n", "d", 3, -0.5, (2, 0.25), False, 1.5, 0.5, {"rows": [{"x": 1}]})
        d = rep.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(A.SweepReport)]
        assert d["worst_point"] == [2, 0.25]
        assert d["extra"] == rep.extra


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestVerifyAll:
    @pytest.mark.parametrize("suites", ["xos", "all", ("bogus",), ("xos", "typo")])
    def test_unknown_suites_rejected(self, suites):
        with pytest.raises(ValueError, match="suite"):
            A.verify_all(suites=suites)

    @pytest.mark.parametrize("grid_step", [0.0, -0.01, 1.0, 2.0, math.nan, math.inf])
    def test_bad_grid_step_rejected(self, grid_step):
        with pytest.raises(ValueError, match="grid_step"):
            A.verify_all(suites=("xos",), grid_step=grid_step)

    @pytest.mark.parametrize("seed", [0, 63])
    def test_margins_replay_the_benchmark_reference(self, seed):
        ref = json.loads(REFERENCE.read_text())["verify"]["full"]
        want = ref["fixed"] | ref["seeded"][str(seed)]
        reps = A.verify_all(seed=seed)
        assert all(rep.passed for rep in reps)
        assert {rep.name for rep in reps} == set(want)
        for rep in reps:
            assert abs(rep.min_margin - want[rep.name]) <= 1e-7, rep.name

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("suites", [("xos", "si", "simul"), ("xos",), ("si",), ("simul",)])
    def test_reports_equal_direct_calls(self, suites, seed):
        got = A.verify_all(suites=suites, m_max=6, grid_step=0.05, seed=seed)
        want = serial_reports(suites, m_max=6, grid_step=0.05, seed=seed)
        assert [r.name for r in got] == [r.name for r in want]
        assert [untimed(r) for r in got] == [untimed(r) for r in want]

    def test_worker_error_reaches_the_caller(self):
        with pytest.raises(ValueError) as direct:
            A.verify_simul(seed=-1)
        with pytest.raises(ValueError, match=re.escape(str(direct.value))):
            A.verify_all(suites=("simul",), seed=-1)

    def test_cli_import_leaves_the_pool_modules_out(self):
        code = (
            "import sys, riskfree.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_verify_all_runs_in_the_calling_process(self):
        code = (
            "import sys; from riskfree import analysis; "
            "analysis.verify_all(suites=('simul',)); "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSiUpperClasses:
    def test_case2_value_is_half_minus_2x(self):
        # buying everything nets 1 - (d+1) p2, just under 1/2 - 2x
        x, m = 0.125, 50
        r = A.si_upper_response_value(x, m)
        assert r["buy_through"] <= 0.5 - 2 * x + 1e-12

    def test_value_dominates_baseline_classes(self):
        r = A.si_upper_response_value(0.1, 60)
        assert r["value"] >= max(r["concede_first"], r["buy_through"], r["concede_later"]) - 1e-15

    def test_early_concessions_prefer_j1_2(self):
        r = A.si_upper_response_value(0.05, 100)
        assert r["best_j1"] == 2
        assert r["best_j2"] == 2


class TestFigures:
    def test_value_bound_series(self):
        rows = A.figure_value_bound_rows()
        f2 = [(x, v) for x, s, v in rows if s == "f2"]
        f3 = [(x, v) for x, s, v in rows if s == "f3"]
        np.testing.assert_allclose(
            f2, [(0, 1), (0.25, 0.5), (0.5, 0.25), (1, 0)], atol=1e-9
        )
        np.testing.assert_allclose(
            f3,
            [
                (0, 1),
                (1 / 9, 2 / 3),
                (1 / 6, 5 / 9),
                (1 / 3, 1 / 3),
                (5 / 9, 1 / 6),
                (2 / 3, 1 / 9),
                (1, 0),
            ],
            atol=1e-9,
        )

    def test_tangent_envelope_breakpoints(self):
        rows = A.figure_tangent_rows()
        tstar = {x: v for x, s, v in rows if s == "tstar"}
        # kinks of the envelope: t1 = t2 at 1/3, t2 = t3 at 1/2
        assert tstar[1 / 3] == pytest.approx(tangent_value(1, 1 / 3))
        assert tstar[1 / 3] == pytest.approx(tangent_value(2, 1 / 3))
        assert tstar[0.5] == pytest.approx(tangent_value(2, 0.5))
        assert tstar[0.5] == pytest.approx(tangent_value(3, 0.5))

    def test_envelope_dominates_tangents_on_grid(self):
        for B in np.linspace(0.001, 0.999, 500):
            env = A.t_star(float(B))[0]
            for k in range(1, 51):
                assert env >= tangent_value(k, float(B)) - 1e-12
