import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from riskfree import analysis, cli, seq, simul, strategies
from riskfree.analysis import SweepReport
from riskfree.valuations import AdditiveValuation, XOSValuation, gamma_star, make_s_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--m", "2", "--b", "0.3")
    assert code == 0
    assert out.strip() == "0.45"


def test_tables_bad_m_exits_1(capsys):
    code, _, _ = run(capsys, "tables", "--m", "0", "--b", "0.1")
    assert code == 1


@pytest.mark.parametrize("argv", [("tables", "--b", "0.3"), ("solve-uniform",)])
@pytest.mark.parametrize("m", ["0", "-1"])
def test_item_count_below_one_exits_1_before_any_level(capsys, monkeypatch, argv, m):
    streamed = []
    monkeypatch.setattr(seq.LADDER, "stream", streamed.append)
    code, out, err = run(capsys, argv[0], "--m", m, *argv[1:])
    assert (code, out, streamed) == (1, "", [])
    assert err == f"riskfree: error: --m must be at least 1, got {m}\n"


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tables_prints_the_closed_forms(capsys, m):
    # f_1..f_3 are exact: at m = 1 and 2 tables prints table_A's bytes; at
    # m = 3 it prints f_3, within 2.3e-16 of table_A, so a digit may differ
    # where f_3 < 1e-4 (at 10 of 150,001 budgets in [0, 1.5], all near B = 1)
    fm = seq.LADDER.level(m)
    parser = cli.build_parser()
    for b in [*np.linspace(0.0, 1.5, 1501), *np.linspace(0.9997, 1.0, 31), 1 / 9, 1 / 6, 1 / 3, 5 / 9, 2 / 3]:
        args = parser.parse_args(["tables", "--m", str(m), "--b", repr(float(b))])
        assert cli._run(args) == 0
        want = analysis.table_A(m, args.b)
        assert capsys.readouterr().out == cli._fmt(want if m < 3 else fm(args.b)) + "\n"
        assert abs(fm(args.b) - want) <= (0.0 if m < 3 else 2.3e-16)


def test_tables_streams_the_ladder_at_any_m(capsys):
    # f_m is the last level of LADDER.stream, as in solve-uniform: no level
    # past the cache is kept
    cached = len(seq.LADDER)
    want = {m: fm(0.3) for m, fm, _ in seq.LADDER.stream(200) if m in (4, 30, 200)}
    for m, value in want.items():
        assert run(capsys, "tables", "--m", str(m), "--b", "0.3") == (0, cli._fmt(value) + "\n", "")
    assert len(seq.LADDER) == cached
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
    for m in (30, 200):  # grid_n = 500, so entry 150 is B = 0.3
        assert abs(want[m] - reference["ladder"]["values"][str(m)][150]) <= 1e-7


def test_an_oracle_command_is_unknown(capsys):
    # the grid oracle stays in the library as seq.solve_discretized
    with pytest.raises(SystemExit) as e:
        cli.main(["oracle", "--m", "2", "--b", "0.3"])
    out = capsys.readouterr()
    assert (e.value.code, out.out) == (1, "")
    assert out.err.startswith("riskfree: error: argument command: invalid choice: 'oracle'")
    assert out.err.count("\n") == 1 and out.err.endswith("\n")


def test_qp(capsys):
    code, out, _ = run(capsys, "qp", "--gamma-star", "0.5,0.5", "--b", "0.5")
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == ["value", "ratios"]
    assert rec["value"] == pytest.approx(0.125)
    assert rec["ratios"] == [0.5, 0.5]


def test_qp_bad_weights_exit_1(capsys):
    code, _, err = run(capsys, "qp", "--gamma-star", "0.9,0.5", "--b", "0.5")
    assert code == 1
    assert "normalized" in err


def test_solve_uniform_branches_reconstruct(capsys, tmp_path):
    csv_path = tmp_path / "f3.csv"
    code, out, _ = run(capsys, "solve-uniform", "--m", "3", "--dump-csv", str(csv_path))
    assert code == 0
    rec = json.loads(out)
    assert rec["m"] == 3
    from riskfree.seq import uniform_additive_value

    f3 = uniform_additive_value(3)
    for lo, hi, slope, intercept in rec["branches"]:
        for x in np.linspace(lo, hi, 5):
            assert intercept + slope * x == pytest.approx(f3(float(x)), abs=1e-9)
    text = csv_path.read_text().splitlines()
    assert text[0] == "x,value"
    assert len(text) == 1 + len(f3.xs)


@pytest.mark.parametrize("b", ["nan", "inf", "-0.1"])
def test_tables_non_finite_budget_exits_1(capsys, monkeypatch, b):
    streamed = []
    monkeypatch.setattr(seq.LADDER, "stream", streamed.append)
    code, out, err = run(capsys, "tables", "--m", "1000", f"--b={b}")
    assert (code, out, streamed) == (1, "", [])
    assert err == f"riskfree: error: budget must be finite and non-negative, got {b}\n"


def test_verify_quick(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--suite", "xos",
        "--m-max", "6",
        "--grid-step", "0.05",
        "--report", str(report),
    )
    assert code == 0
    assert "PASS" in out
    recs = json.loads(report.read_text())
    assert all(r["passed"] for r in recs)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--suite", "xos", "--m-max", "1"), "checked no point"),
        (("--grid-step", "0"), "grid_step"),
        (("--grid-step=-0.01",), "grid_step"),
        (("--grid-step", "2"), "grid_step"),
        (("--grid-step", "nan"), "grid_step"),
    ],
)
def test_verify_out_of_domain_exits_1(capsys, tmp_path, argv, message):
    report = tmp_path / "rep.json"
    code, out, err = run(capsys, "verify", *argv, "--report", str(report))
    assert code == 1
    assert out == ""
    assert err.startswith("riskfree: error: ") and message in err
    assert not report.exists()


def test_verify_bound_violation_exits_2(capsys, monkeypatch):
    fail = SweepReport(
        name="stub", description="", n_points=1, min_margin=-1.0,
        worst_point=(0,), passed=False, runtime_s=0.0,
    )
    monkeypatch.setattr(analysis, "verify_all", lambda **kw: [fail])
    code, out, _ = run(capsys, "verify", "--suite", "simul")
    assert code == 2
    assert "FAIL" in out


def test_figures(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, _, _ = run(capsys, "figures", "--out", str(out_dir))
    assert code == 0
    for name in ("figure1.csv", "figure2.csv", "f2.csv", "f3.csv"):
        assert (out_dir / name).exists()
    header = (out_dir / "figure1.csv").read_text().splitlines()[0]
    assert header == "x,series,value"


def scenario_file(tmp_path, **overrides):
    base = {
        "auction": "sequential",
        "price_rule": "first",
        "valuation": {"kind": "additive", "weights": [0.5, 0.5]},
        "budget": 0.3,
        "bidder": "xos_sqrt",
        "adversary": "alpha_tilde",
        "seed": 7,
    }
    base.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_simulate_sequential_deterministic(capsys, tmp_path):
    path = scenario_file(tmp_path)
    code1, out1, _ = run(capsys, "simulate", "--scenario", path)
    code2, out2, _ = run(capsys, "simulate", "--scenario", path)
    assert code1 == code2 == 0
    assert out1 == out2  # same scenario + seed -> byte-identical report
    rec = json.loads(out1)
    assert rec["closed_form"] == pytest.approx(0.45)
    assert {"profit", "allocation", "rounds", "gap"} <= set(rec)


def test_simulate_closed_form_scales_with_the_total_value(capsys, tmp_path):
    # equal weights: the game is the v(I) = 1 game with every price scaled by
    # V = v(I), so its value is V f_m(B / V); V = 1 reads f_m(B) as it always did
    reports = {}
    for w in (0.5, 0.3, 0.0):
        path = scenario_file(tmp_path, valuation={"kind": "additive", "weights": [w, w]})
        code, out, _ = run(capsys, "simulate", "--scenario", path)
        assert code == 0
        reports[w] = rec = json.loads(out)
        assert rec["gap"] == rec["profit"] - rec["closed_form"]
    assert reports[0.5]["closed_form"] == float(seq.uniform_additive_value(2)(0.3))
    assert reports[0.3]["closed_form"] == pytest.approx(0.15, rel=0, abs=1e-12)
    assert reports[0.0]["closed_form"] == 0.0  # nothing to win, not a division by V = 0


def test_simulate_s_instance(capsys, tmp_path):
    path = scenario_file(
        tmp_path,
        valuation={"kind": "s_instance", "x": 0.125, "m": 10},
        budget=0.125,
        bidder="constant_price(2)",
        adversary="s_adversary",
    )
    code, out, _ = run(capsys, "simulate", "--scenario", path)
    assert code == 0
    rec = json.loads(out)
    assert rec["profit"] >= 0.0


def test_simulate_simultaneous_monte_carlo(capsys, tmp_path):
    path = scenario_file(
        tmp_path,
        auction="simultaneous",
        valuation={"kind": "xos", "clauses": [[0.5, 0.5], [0.7, 0.2]]},
        budget=0.4,
        bidder="uniform_random",
        adversary="fixed(0.2,0.2)",
        mc_samples=200000,
    )
    code, out, _ = run(capsys, "simulate", "--scenario", path)
    assert code == 0
    rec = json.loads(out)
    assert rec["numeric"] == pytest.approx(rec["closed_form"], abs=0.01)
    assert rec["gap"] == pytest.approx(rec["numeric"] - rec["closed_form"])


def test_monte_carlo_replays_the_former_philox_block(capsys, tmp_path):
    # run_scenario once drew its own Philox(seed) block; the bidder's stream is the same
    w, bids2, n = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.05, 0.15]), 1000
    path = scenario_file(
        tmp_path,
        auction="simultaneous",
        valuation={"kind": "additive", "weights": w.tolist()},
        budget=0.3,
        bidder="uniform_random",
        adversary="fixed(0.1,0.05,0.15)",
        mc_samples=n,
        seed=5,
    )
    code, out, _ = run(capsys, "simulate", "--scenario", path)
    assert code == 0
    draws = np.random.Generator(np.random.Philox(5)).random((n, 3)) * w
    wins = draws > bids2
    assert json.loads(out)["numeric"] == float(((w * wins).sum(axis=1) - (draws * wins).sum(axis=1)).mean())


def test_unknown_policy_exits_1(capsys, tmp_path):
    path = scenario_file(tmp_path, bidder="mystery")
    code, _, err = run(capsys, "simulate", "--scenario", path)
    assert code == 1
    assert "mystery" in err


def test_malformed_scenario_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert "scenario" in err


def test_out_of_domain_budget_exits_1(capsys, tmp_path):
    path = scenario_file(tmp_path, budget=-0.2)
    code, _, err = run(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("budget", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize(
    "auction",
    [
        {"auction": "sequential"},
        {"auction": "simultaneous", "bidder": "truthful", "adversary": "fixed(0.1,0.1)"},
    ],
    ids=["sequential", "simultaneous"],
)
def test_non_finite_budget_exits_1(capsys, tmp_path, auction, budget):
    path = scenario_file(tmp_path, budget=budget, **auction)
    assert ("NaN" if budget != budget else "Infinity") in Path(path).read_text()
    code, _, err = run(capsys, "simulate", "--scenario", path)
    assert code == 1
    assert "budget must be finite and non-negative" in err


def test_solve_uniform_json_matches_per_branch_loop(capsys):
    # reference: the per-branch loop the vectorized emission replaced
    from riskfree.seq import uniform_additive_value

    m = 12
    fm = uniform_additive_value(m)
    xs, ys = fm.xs, fm.ys
    branches = []
    for i in range(len(xs) - 1):
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        intercept = ys[i] - slope * xs[i]
        branches.append([float(xs[i]), float(xs[i + 1]), float(slope), float(intercept)])
    code, out, _ = run(capsys, "solve-uniform", "--m", str(m))
    assert code == 0
    assert out == json.dumps({"m": m, "branches": branches}) + "\n"


@pytest.mark.parametrize("blocks", ["below", "equal", "above"])
def test_solve_uniform_blocks_match_whole_record(capsys, tmp_path, monkeypatch, blocks):
    # the references: the per-branch loop above and the per-row CSV writer
    # the block writer replaced; the branch count is below, equal to and
    # above one block
    m = 12
    fm = seq.uniform_additive_value(m)
    n = len(fm.xs) - 1
    monkeypatch.setattr(cli, "_BLOCK_ROWS", {"below": n + 1, "equal": n, "above": n // 3}[blocks])
    xs, ys = fm.xs, fm.ys
    branches = []
    for i in range(n):
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        intercept = ys[i] - slope * xs[i]
        branches.append([float(xs[i]), float(xs[i + 1]), float(slope), float(intercept)])
    rows = [f"{cli._fmt(x)},{cli._fmt(y)}" for x, y in fm.csv_rows()]
    csv_path = tmp_path / "f.csv"
    code, out, _ = run(capsys, "solve-uniform", "--m", str(m), "--dump-csv", str(csv_path))
    assert code == 0
    assert out == json.dumps({"m": m, "branches": branches}) + "\n"
    assert csv_path.read_text() == "\n".join(["x,value"] + rows) + "\n"


def test_solve_uniform_streams_levels(tmp_path):
    # f_m is the last level of LADDER.stream: no level past the cache is
    # kept, and the peak stays near one level and one block, where caching
    # the 20 levels and the whole record took 9.7-16 MB
    cached = len(seq.LADDER)
    with open(tmp_path / "out.json", "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(["solve-uniform", "--m", str(cached + 20)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert len(seq.LADDER) == cached
    assert peak < 6e6
    rec = json.loads((tmp_path / "out.json").read_text())
    assert rec["m"] == cached + 20 and rec["branches"][-1][1] == 1.0


def test_simulate_closed_form_streams_levels(tmp_path):
    # the closed form reads f_m as the last level of LADDER.stream, as
    # solve-uniform does, so no level past the cache is kept
    m = len(seq.LADDER) + 5
    sc = cli.load_scenario(scenario_file(
        tmp_path, valuation={"kind": "additive", "weights": [1.0 / m] * m}, adversary=f"fixed({','.join(['0'] * m)})"
    ))
    report = cli.run_scenario(sc)
    assert len(seq.LADDER) == m - 5
    for _, fm, _ in seq.LADDER.stream(m):
        pass
    V = sc.valuation.total()
    assert report["closed_form"] == V * fm(0.3 / V)


def cli_process(*argv, **kwargs):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen([sys.executable, "-m", "riskfree.cli", *argv], env=env, stderr=subprocess.PIPE, **kwargs)


def test_reader_leaving_mid_output_exits_quietly():
    # 1.5 MB of output fills the pipe, so a write inside the command fails
    proc = cli_process("solve-uniform", "--m", "30", stdout=subprocess.PIPE)
    try:
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head.startswith(b'{"m": 30, "branches": [[')
    assert err == b""
    assert code == cli.EXIT_BROKEN_PIPE == 141


def test_reader_gone_before_output_exits_quietly():
    # four bytes sit in stdout's buffer until main flushes it into a pipe
    # whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process("tables", "--m", "2", "--b", "0.3", stdout=write_end)
    finally:
        os.close(write_end)
    with proc:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == cli.EXIT_BROKEN_PIPE


@pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default_filters", "W_error"])
def test_a_library_warning_prints_one_line_and_keeps_the_report(capsys, tmp_path, flags):
    # high_budget warns at B <= (m-1)/m = 1/2; a plain interpreter printed the
    # warning with its file path, and ``-W error`` turned it into a traceback
    path = scenario_file(tmp_path, bidder="high_budget")
    code, out, err = run(capsys, "simulate", "--scenario", path)
    warning = "riskfree: warning: high_budget_policy outside its intended range B > (m-1)/m\n"
    assert (code, err) == (0, warning)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, *flags, "-m", "riskfree.cli", "simulate", "--scenario", path],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, out, warning)


TABLE = {"kind": "subadditive_identical", "table": [0.0, 0.6, 1.0]}


@pytest.mark.parametrize(
    "scenario",
    [
        dict(valuation={"kind": "s_instance", "x": 0.125, "m": 10}, budget=0.125, adversary="s_adversary"),
        dict(valuation=TABLE, adversary="fixed(0.1,0.1)"),
        dict(auction="simultaneous", valuation=TABLE, bidder="truthful", adversary="fixed(0.1,0.1)"),
        dict(auction="simultaneous", valuation=TABLE, bidder="xos_sqrt", adversary="fixed(0.1,0.1)"),
        dict(auction="simultaneous", valuation=TABLE, bidder="uniform_random", adversary="fixed(0.1,0.1)"),
    ],
    ids=["sequential-s_instance", "sequential-table", "simultaneous-truthful", "simultaneous-xos_sqrt",
         "simultaneous-uniform_random"],
)
def test_dominant_clause_bidder_on_an_identical_item_table_exits_1(capsys, tmp_path, scenario):
    code, out, err = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, **scenario))
    assert (code, out) == (1, "")
    assert "SubadditiveIdenticalValuation" in err and "Traceback" not in err


def test_simultaneous_fixed_bids_on_an_identical_item_table(capsys, tmp_path):
    path = scenario_file(tmp_path, auction="simultaneous", valuation=TABLE, bidder="fixed(0.5,0.1)",
                         adversary="fixed(0.2,0.2)", budget=0.4)
    code, out, _ = run(capsys, "simulate", "--scenario", path)
    assert code == 0
    rec = json.loads(out)
    assert rec["allocation"] == [0]
    assert rec["profit"] == pytest.approx(0.6 - 0.5)


@pytest.mark.parametrize("text", ['["a"]', "3", "null", '{"valuation": [1], "budget": 0.3, "bidder": "fixed(0.1)", '
                                  '"adversary": "fixed(0.1)"}'], ids=["list", "number", "null", "valuation-list"])
def test_scenario_that_is_not_an_object_exits_1(capsys, tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code, out, err = run(capsys, "simulate", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert "JSON object" in err or "valuation kind" in err


def test_uniform_random_bidder_under_second_price_exits_1(capsys, tmp_path):
    path = scenario_file(tmp_path, auction="simultaneous", price_rule="second", bidder="uniform_random",
                         adversary="fixed(0.2,0.2)", budget=0.4)
    code, out, err = run(capsys, "simulate", "--scenario", path)
    assert (code, out) == (1, "")
    assert "first price" in err


@pytest.mark.parametrize(
    "bidder, adversary, message",
    [
        ("truthful", "fixed(-5,0.2)", "adversary bids must be non-negative"),
        ("fixed(-1,0.2)", "fixed(0.1,0.1)", "bidder bids must be non-negative"),
        ("uniform_random", "fixed(-5,0.2)", "adversary bids must be non-negative"),
        ("uniform_random", "fixed(0.1,0.1,0.1)", "adversary bids must have one entry per item (2)"),
        ("truthful", "fixed(0.1,0.1,0.1)", "adversary bids must have one entry per item (2)"),
    ],
    ids=["negative-adversary", "negative-bidder", "negative-adversary-uniform_random",
         "long-adversary-uniform_random", "long-adversary-truthful"],
)
def test_simultaneous_bad_fixed_bids_exit_1(capsys, tmp_path, bidder, adversary, message):
    path = scenario_file(tmp_path, auction="simultaneous", bidder=bidder, adversary=adversary, budget=0.3)
    code, out, err = run(capsys, "simulate", "--scenario", path)
    assert (code, out) == (1, "")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(bidder=None), "scenario is missing required key 'bidder'"),
        (dict(auction="parallel"), "unknown auction kind: 'parallel'"),
        (dict(bidder="xos_sqrt("), "malformed policy spec: 'xos_sqrt('"),
        (dict(bidder="constant_price"), "constant_price needs an identical-item valuation"),
        (dict(adversary="s_adversary"), "s_adversary needs an s_instance valuation"),
        (dict(auction="simultaneous", bidder="truthful", adversary="fixed(0.3,0.3)"),
         "adversary bid vector exceeds the budget"),
    ],
    ids=["missing-key", "unknown-auction", "malformed-spec", "constant_price-additive", "s_adversary-additive",
         "simultaneous-over-budget"],
)
def test_a_bad_scenario_exits_1_with_one_error_line(capsys, tmp_path, overrides, message):
    path = Path(scenario_file(tmp_path, **overrides))
    # a key set to None is left out of the file
    path.write_text(json.dumps({k: v for k, v in json.loads(path.read_text()).items() if v is not None}))
    code, out, err = run(capsys, "simulate", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err == f"riskfree: error: {message}\n"


S_INSTANCE = dict(valuation={"kind": "s_instance", "x": 0.125, "m": 10}, budget=0.125,
                  bidder="constant_price(2)", adversary="s_adversary")
MC = dict(auction="simultaneous", bidder="uniform_random", adversary="fixed(0.1,0.1)")


@pytest.mark.parametrize(
    "scenario, field",
    [
        (dict(MC, mc_samples=-7), "mc_samples"),
        (dict(MC, mc_samples=2.9), "mc_samples"),
        (dict(MC, mc_samples=True), "mc_samples"),
        (dict(MC, seed=2.7), "seed"),
        (dict(MC, seed=-1), "seed"),
        (dict(MC, seed=float("nan")), "seed"),
        (dict(seed=False), "seed"),
        (dict(seed="3"), "seed"),
        (dict(S_INSTANCE, valuation={"kind": "s_instance", "x": 0.125, "m": 40.7}), "s_instance m"),
        (dict(S_INSTANCE, valuation={"kind": "s_instance", "x": 0.125, "m": True}), "s_instance m"),
        (dict(S_INSTANCE, bidder="constant_price(3.9)"), "constant_price's k"),
        (dict(S_INSTANCE, bidder="constant_price(inf)"), "constant_price's k"),
        (dict(budget=True), "budget"),
        (dict(budget="0.3"), "budget"),
    ],
    ids=["mc_samples-negative", "mc_samples-fraction", "mc_samples-bool", "seed-fraction", "seed-negative",
         "seed-nan", "seed-bool", "seed-string", "m-fraction", "m-bool", "k-fraction", "k-inf", "budget-bool",
         "budget-string"],
)
def test_scenario_number_that_is_not_whole_exits_1(capsys, tmp_path, scenario, field):
    code, out, err = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, **scenario))
    assert (code, out) == (1, "")
    assert err.startswith(f"riskfree: error: {field} must be ") and "Traceback" not in err


@pytest.mark.parametrize(
    "valuation, message",
    [
        ({"kind": "additive", "weights": 5}, "weights must be a list, got 5"),
        ({"kind": "additive", "weights": ["0.5", "0.5"]}, "weights[0] must be a number, got '0.5'"),
        ({"kind": "additive", "weights": [True, False]}, "weights[0] must be a number, got True"),
        ({"kind": "xos", "clauses": 5}, "clauses must be a list, got 5"),
        ({"kind": "xos", "clauses": [0.5, 0.5]}, "clauses[0] must be a list, got 0.5"),
        ({"kind": "xos", "clauses": [[0.5, 0.5], [0.5, "a"]]}, "clauses[1][1] must be a number, got 'a'"),
        ({"kind": "subadditive_identical", "table": None}, "table must be a list, got None"),
        ({"kind": "subadditive_identical", "table": [0, 0.6, "1"]}, "table[2] must be a number, got '1'"),
        ({"kind": "s_instance", "x": [0.1], "m": 10}, "s_instance x must be a number, got [0.1]"),
        ({"kind": "s_instance", "x": "0.1", "m": 10}, "s_instance x must be a number, got '0.1'"),
    ],
    ids=["weights-number", "weights-strings", "weights-bools", "clauses-number", "clause-number",
         "clause-string", "table-null", "table-string", "x-list", "x-string"],
)
def test_scenario_valuation_of_the_wrong_type_exits_1(capsys, tmp_path, valuation, message):
    code, out, err = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, valuation=valuation))
    assert (code, out) == (1, "")
    assert err == f"riskfree: error: {message}\n"


@pytest.mark.parametrize("out", [1.5, ["out.json"]], ids=["number", "list"])
def test_scenario_out_that_is_not_a_path_exits_1(capsys, tmp_path, out):
    code, printed, err = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, out=out))
    assert (code, printed) == (1, "")
    assert err.startswith("riskfree: error: out must be a path string") and "Traceback" not in err


def test_scenario_whole_numbers_written_as_floats_run(capsys, tmp_path):
    # constant_price(3) parses as 3.0; a whole float is a whole number
    sc = dict(S_INSTANCE, valuation={"kind": "s_instance", "x": 0.125, "m": 12.0}, bidder="constant_price(3)",
              seed=4.0)
    code, out, _ = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, **sc))
    assert code == 0
    rec = json.loads(out)
    assert rec["seed"] == 4 and len(rec["rounds"]) == 12
    assert sum(r[0] == "bidder" for r in rec["rounds"]) <= 4  # k = 3 targets ceil(12 / 3) wins


def test_zero_mc_samples_draws_one_sample(capsys, tmp_path):
    code, out, _ = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, **MC, mc_samples=0))
    assert code == 0
    assert json.loads(out)["mc_samples"] == 1


UNIFORM2 = {"kind": "additive", "weights": [0.5, 0.5]}
UNIFORM4 = {"kind": "additive", "weights": [0.25] * 4}
XOS = {"kind": "xos", "clauses": [[0.5, 0.5], [0.7, 0.2]]}
S_VAL = {"kind": "s_instance", "x": 0.125, "m": 10}


def seq_report(valuation, budget, bidder, adversary, price_rule="first"):
    out = seq.simulate(valuation, bidder, adversary, price_rule, budget=budget)
    return {"profit": out.profit, "allocation": list(out.won_by_1), "rounds": [list(r) for r in out.rounds]}


def simul_report(valuation, bids1, bids2, price_rule):
    out = simul.resolve(valuation, bids1, bids2, price_rule)
    return {"profit": out.profit, "allocation": list(out.won_by_1)}


def uniform_random_report(valuation, bids2, seed, n):
    g = gamma_star(valuation)
    w = np.asarray(g.weights)
    closed = simul.expected_profit_uniform_random(g, np.clip(bids2 / w, 0.0, 1.0))
    draws = strategies.UniformRandomBidder(g, seed).draws(n)
    wins = draws > bids2
    return {"closed_form": closed, "numeric": float(((w * wins).sum(axis=1) - (draws * wins).sum(axis=1)).mean())}


def s_instance():
    return make_s_instance(0.125, 10)


XOS_V = XOSValuation(XOS["clauses"])
UNIFORM2_V = AdditiveValuation(UNIFORM2["weights"])
UNIFORM4_V = AdditiveValuation(UNIFORM4["weights"])

#: (auction-side-name, the scenario, the report fields of the library call the name stands for)
POLICY_CASES = {
    "sequential-bidder-fixed": (
        dict(valuation=UNIFORM2, budget=0.3, bidder="fixed(0.4,0.2)", adversary="alpha_tilde"),
        lambda: seq_report(UNIFORM2_V, 0.3, strategies.FixedBidsPolicy((0.4, 0.2)),
                           strategies.alpha_tilde_adversary(2, 0.3))),
    "sequential-bidder-xos_sqrt": (
        dict(valuation=XOS, budget=0.4, bidder="xos_sqrt", adversary="fixed(0.2,0.1)", price_rule="second"),
        lambda: seq_report(XOS_V, 0.4, strategies.xos_sqrt_policy(gamma_star(XOS_V), 0.4),
                           strategies.FixedBidsPolicy((0.2, 0.1)), "second")),
    "sequential-bidder-low_budget": (
        dict(valuation=UNIFORM2, budget=0.2, bidder="low_budget", adversary="alpha_tilde"),
        lambda: seq_report(UNIFORM2_V, 0.2, strategies.low_budget_policy(0.2),
                           strategies.alpha_tilde_adversary(2, 0.2))),
    "sequential-bidder-high_budget": (
        dict(valuation=UNIFORM2, budget=0.7, bidder="high_budget", adversary="alpha_tilde"),
        lambda: seq_report(UNIFORM2_V, 0.7, strategies.high_budget_policy(2, 0.7),
                           strategies.alpha_tilde_adversary(2, 0.7))),
    "sequential-bidder-constant_price": (
        dict(valuation=S_VAL, budget=0.125, bidder="constant_price", adversary="s_adversary"),
        lambda: seq_report(s_instance()[0], 0.125,
                           strategies.constant_price_policy(s_instance()[0], 0.125, strategies.choose_k(0.125))[0],
                           strategies.s_instance_adversary(s_instance()[1]))),
    "sequential-bidder-constant_price-k": (
        dict(valuation=S_VAL, budget=0.125, bidder="constant_price(3)", adversary="s_adversary"),
        lambda: seq_report(s_instance()[0], 0.125, strategies.constant_price_policy(s_instance()[0], 0.125, 3)[0],
                           strategies.s_instance_adversary(s_instance()[1]))),
    "sequential-adversary-fixed": (
        dict(valuation=UNIFORM2, budget=0.3, bidder="xos_sqrt", adversary="fixed(0.1,0.15)"),
        lambda: seq_report(UNIFORM2_V, 0.3, strategies.xos_sqrt_policy(UNIFORM2_V, 0.3),
                           strategies.FixedBidsPolicy((0.1, 0.15)))),
    "sequential-adversary-alpha_tilde": (
        dict(valuation=UNIFORM4, budget=0.3, bidder="xos_sqrt", adversary="alpha_tilde", price_rule="second"),
        lambda: seq_report(UNIFORM4_V, 0.3, strategies.xos_sqrt_policy(UNIFORM4_V, 0.3),
                           strategies.alpha_tilde_adversary(4, 0.3), "second")),
    "sequential-adversary-s_adversary": (
        dict(valuation=S_VAL, budget=0.125, bidder="constant_price(2)", adversary="s_adversary"),
        lambda: seq_report(s_instance()[0], 0.125, strategies.constant_price_policy(s_instance()[0], 0.125, 2)[0],
                           strategies.s_instance_adversary(s_instance()[1]))),
    "simultaneous-bidder-fixed": (
        dict(auction="simultaneous", valuation=XOS, budget=0.4, bidder="fixed(0.3,0.1)", adversary="fixed(0.2,0.2)"),
        lambda: simul_report(XOS_V, [0.3, 0.1], [0.2, 0.2], "first")),
    "simultaneous-bidder-xos_sqrt": (
        dict(auction="simultaneous", price_rule="second", valuation=XOS, budget=0.4, bidder="xos_sqrt",
             adversary="fixed(0.2,0.2)"),
        lambda: simul_report(XOS_V, strategies.xos_sqrt_policy(gamma_star(XOS_V), 0.4).bids, [0.2, 0.2], "second")),
    "simultaneous-bidder-truthful": (
        dict(auction="simultaneous", price_rule="second", valuation=XOS, budget=0.4, bidder="truthful",
             adversary="split"),
        lambda: simul_report(XOS_V, gamma_star(XOS_V).weights, simul.randomized_adversary(2, 0.4, 7), "second")),
    "simultaneous-bidder-uniform_random": (
        dict(auction="simultaneous", valuation=XOS, budget=0.4, bidder="uniform_random", adversary="fixed(0.2,0.1)",
             mc_samples=100, seed=3),
        lambda: uniform_random_report(XOS_V, np.array([0.2, 0.1]), 3, 100)),
    "simultaneous-adversary-fixed": (
        dict(auction="simultaneous", price_rule="second", valuation=XOS, budget=0.4, bidder="truthful",
             adversary="fixed(0.1,0.25)"),
        lambda: simul_report(XOS_V, gamma_star(XOS_V).weights, [0.1, 0.25], "second")),
    "simultaneous-adversary-split": (
        dict(auction="simultaneous", valuation=UNIFORM4, budget=0.3, bidder="truthful", adversary="split"),
        lambda: simul_report(UNIFORM4_V, UNIFORM4_V.weights, simul.randomized_adversary(4, 0.3, 7), "first")),
}


@pytest.mark.parametrize("case", POLICY_CASES)
def test_every_scenario_policy_plays_its_library_strategy(capsys, tmp_path, case):
    scenario, report = POLICY_CASES[case]
    code, out, err = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, **scenario))
    assert code == 0, err
    want = report()
    assert {k: json.loads(out)[k] for k in want} == want


def test_the_policy_cases_cover_every_name_in_the_table():
    names = {(auction, side, name) for (auction, side), table in cli._POLICIES.items() for name in table}
    assert {tuple(case.split("-")[:3]) for case in POLICY_CASES} == names


#: Each case's policy given one argument too many: one bid too many for fixed.
ONE_TOO_MANY = {
    "sequential-bidder-fixed": "fixed(0.4,0.2,0.1)",
    "sequential-bidder-xos_sqrt": "xos_sqrt(0.9)",
    "sequential-bidder-low_budget": "low_budget(1)",
    "sequential-bidder-high_budget": "high_budget(1)",
    "sequential-bidder-constant_price-k": "constant_price(3,1)",
    "sequential-adversary-fixed": "fixed(0.1,0.15,0.1)",
    "sequential-adversary-alpha_tilde": "alpha_tilde(7)",
    "sequential-adversary-s_adversary": "s_adversary(1)",
    "simultaneous-bidder-fixed": "fixed(0.3,0.1,0.1)",
    "simultaneous-bidder-xos_sqrt": "xos_sqrt(0.9)",
    "simultaneous-bidder-truthful": "truthful(1)",
    "simultaneous-bidder-uniform_random": "uniform_random(1)",
    "simultaneous-adversary-fixed": "fixed(0.1,0.25,0.1)",
    "simultaneous-adversary-split": "split(9)",
}


@pytest.mark.parametrize("case, spec", ONE_TOO_MANY.items())
def test_a_policy_given_one_argument_too_many_exits_1(capsys, tmp_path, case, spec):
    auction, side, name = case.split("-")[:3]
    scenario = {**POLICY_CASES[case][0], side: spec}
    code, out, err = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, **scenario))
    assert (code, out) == (1, "")
    assert err.startswith("riskfree: error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert (f"{side} bids must have one entry per item" if name == "fixed" else spec) in err


@pytest.mark.parametrize("side", ["bidder", "adversary"])
@pytest.mark.parametrize("auction", ["sequential", "simultaneous"])
@pytest.mark.parametrize("spec", ["fixed(0.1,,0.2)", "fixed(0.1,)", "fixed(0.1,0.2,)"])
def test_a_policy_spec_with_an_empty_entry_exits_1(capsys, tmp_path, side, auction, spec):
    scenario = {**POLICY_CASES[f"{auction}-{side}-fixed"][0], side: spec}
    code, out, err = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, **scenario))
    assert (code, out) == (1, "")
    assert err == f"riskfree: error: empty entry in policy spec {spec!r}\n"


def not_a_directory(tmp_path):
    """A path whose parent is a regular file: no process can create it."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    return blocker / "out"


def test_unwritable_outputs_exit_1(capsys, tmp_path, monkeypatch):
    bad = not_a_directory(tmp_path)
    calls = []  # work that an unwritable path must not reach
    code, out, err = run(capsys, "solve-uniform", "--m", "3", "--dump-csv", str(bad))
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err
    assert out == ""  # the path is opened before the ladder is read
    scenario = scenario_file(tmp_path, out=str(bad))
    monkeypatch.setattr(cli, "run_scenario", lambda sc: calls.append(sc) or {})
    code, _, err = run(capsys, "simulate", "--scenario", scenario)
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err
    code, _, err = run(capsys, "figures", "--out", str(tmp_path / "file"))
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err
    ok = SweepReport(name="stub", description="", n_points=1, min_margin=1.0, worst_point=(0,), passed=True,
                     runtime_s=0.0)
    monkeypatch.setattr(analysis, "verify_all", lambda **kw: calls.append(kw) or [ok])
    code, _, err = run(capsys, "verify", "--suite", "simul", "--report", str(bad))
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err
    assert calls == []  # neither the scenario nor the sweep ran


@pytest.mark.parametrize("seed", ["-1", "x", "2.5"])
def test_verify_bad_seed_exits_1_before_any_sweep(capsys, monkeypatch, seed):
    calls = []
    monkeypatch.setattr(analysis, "verify_all", lambda **kw: calls.append(kw) or [])
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "--seed", seed])
    out = capsys.readouterr()
    assert e.value.code == 1 and out.out == ""
    assert out.err == f"riskfree: error: argument --seed: must be a non-negative integer, got {seed!r}\n"
    assert calls == []  # rejected while parsing, before the sweep


def test_subcommand_usage_error_names_the_program(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["tables", "--m", "x", "--b", "0.5"])
    out = capsys.readouterr()
    assert e.value.code == 1 and out.out == ""
    assert out.err == "riskfree: error: argument --m: invalid int value: 'x'\n"


def test_output_files_written_on_success_only(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, printed, _ = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, out=str(out)))
    assert code == 0 and out.read_text() == printed
    out.unlink()
    code, printed, _ = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, out=str(out), bidder="nope"))
    assert code == 1 and printed == ""
    assert not out.exists()  # the file claimed before the run is removed again
    out.write_text("kept")
    code, _, _ = run(capsys, "simulate", "--scenario", scenario_file(tmp_path, out=str(out), bidder="nope"))
    assert code == 1 and out.read_text() == "kept"  # an existing file is left as it was


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
def test_failed_allocation_exits_1(capsys, monkeypatch, message):
    # stands in for numpy's "Unable to allocate 7.28 TiB" at --grid-step 1e-12,
    # which a machine that overcommits memory might not raise
    def allocate(**kw):
        raise MemoryError(message)

    monkeypatch.setattr(analysis, "verify_all", allocate)
    code, out, err = run(capsys, "verify", "--suite", "xos", "--grid-step", "1e-12")
    assert (code, out) == (1, "")
    assert err == f"riskfree: error: {message or 'MemoryError'}\n"
