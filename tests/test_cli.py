import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskfree import analysis, cli
from riskfree.analysis import SweepReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--m", "2", "--b", "0.3")
    assert code == 0
    assert out.strip() == "0.45"


def test_tables_bad_m_exits_1(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["tables", "--m", "5", "--b", "0.1"])
    assert e.value.code == 1


def test_qp(capsys):
    code, out, _ = run(capsys, "qp", "--gamma-star", "0.5,0.5", "--b", "0.5")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.125)
    assert rec["pg_value"] == pytest.approx(0.125, abs=1e-6)


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


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "2", "--b", "0.3", "--delta", "0.005")
    assert code == 0
    assert abs(float(out.strip()) - 0.45) <= 0.05


@pytest.mark.parametrize(
    "argv",
    [
        ("--b=-0.5",),
        ("--b=-0.5", "--leader", "bidder"),
        ("--b", "0.3", "--delta=-1"),
        ("--b", "0.3", "--delta", "0"),
        ("--b", "inf"),
        ("--b", "nan"),
    ],
)
def test_oracle_out_of_domain_exits_1(capsys, argv):
    code, out, err = run(capsys, "oracle", "--m", "2", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("riskfree: error: ")


@pytest.mark.parametrize("b", ["nan", "inf", "-0.1"])
def test_tables_non_finite_budget_exits_1(capsys, b):
    code, out, err = run(capsys, "tables", "--m", "1", f"--b={b}")
    assert code == 1
    assert out == ""
    assert err.startswith("riskfree: error: ")


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


def not_a_directory(tmp_path):
    """A path whose parent is a regular file: no process can create it."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    return blocker / "out"


def test_unwritable_outputs_exit_1(capsys, tmp_path, monkeypatch):
    bad = not_a_directory(tmp_path)
    code, _, err = run(capsys, "solve-uniform", "--m", "3", "--dump-csv", str(bad))
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err
    scenario = scenario_file(tmp_path, out=str(bad))
    code, _, err = run(capsys, "simulate", "--scenario", scenario)
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err
    code, _, err = run(capsys, "figures", "--out", str(tmp_path / "file"))
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err
    ok = SweepReport(name="stub", description="", n_points=1, min_margin=1.0, worst_point=(0,), passed=True,
                     runtime_s=0.0)
    monkeypatch.setattr(analysis, "verify_all", lambda **kw: [ok])
    code, _, err = run(capsys, "verify", "--suite", "simul", "--report", str(bad))
    assert code == 1 and err.startswith("riskfree: error: ") and "Traceback" not in err


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
