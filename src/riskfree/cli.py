"""Batch front end: scenario files in, JSON/CSV reports out.

Exit codes: 0 on success (all bounds pass), 2 when a verification sweep
reports a violated bound, 1 on usage or configuration errors, on a file
that cannot be read or written and on an allocation that fails, and 141
(128 + SIGPIPE, as a shell reports a tool that SIGPIPE ended) when the
reader of stdout closes it early, as ``riskfree solve-uniform | head``
does; that exit prints nothing to stderr.  Every exit 1 prints one
``riskfree: error: ...`` line to stderr, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import analysis, seq, simul, strategies
from .errors import RiskFreeError
from .valuations import (
    AdditiveValuation,
    SubadditiveIdenticalValuation,
    Valuation,
    XOSValuation,
    bid_vector,
    check_budget,
    check_price_rule,
    gamma_star,
    make_s_instance,
)


#: Exit status when stdout's reader closes the pipe early: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class Scenario:
    auction: str
    price_rule: str
    valuation: Valuation
    budget: float
    bidder: str
    adversary: str
    seed: int
    mc_samples: int
    out: str | None
    s_params: Any = None


def _number(value: Any, field: str, whole: bool = False) -> float | int:
    """Scenario ``field`` as a float, or with ``whole`` as a non-negative
    int (3.0 counts, 3.5 does not); a boolean or a non-number raises a
    ValueError naming the field, as does a fraction or a negative with
    ``whole``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    if not whole:
        return float(value)
    if value < 0 or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{field} must be a non-negative whole number, got {value!r}")
    return int(value)


def parse_valuation(spec: dict) -> tuple[Valuation, Any]:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "additive":
        return AdditiveValuation(spec["weights"]), None
    if kind == "xos":
        return XOSValuation([tuple(c) for c in spec["clauses"]]), None
    if kind == "subadditive_identical":
        return SubadditiveIdenticalValuation(spec["table"]), None
    if kind == "s_instance":
        return make_s_instance(float(spec["x"]), _number(spec["m"], "s_instance m", whole=True))
    raise ValueError(f"unknown valuation kind: {kind!r}")


def load_scenario(path: str) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read scenario file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"a scenario file must hold a JSON object, not {type(raw).__name__}")
    try:
        valuation, s_params = parse_valuation(raw["valuation"])
        sc = Scenario(
            auction=raw.get("auction", "sequential"),
            price_rule=raw.get("price_rule", "first"),
            valuation=valuation,
            budget=_number(raw["budget"], "budget"),
            bidder=str(raw["bidder"]),
            adversary=str(raw["adversary"]),
            seed=_number(raw.get("seed", 0), "seed", whole=True),
            mc_samples=_number(raw.get("mc_samples", 0), "mc_samples", whole=True),
            out=raw.get("out"),
            s_params=s_params,
        )
    except KeyError as exc:
        raise ValueError(f"scenario is missing required key {exc}") from exc
    if sc.auction not in ("sequential", "simultaneous"):
        raise ValueError(f"unknown auction kind: {sc.auction!r}")
    check_price_rule(sc.price_rule)
    check_budget(sc.budget)
    return sc


def _parse_call(spec: str) -> tuple[str, list[float]]:
    spec = spec.strip()
    if "(" not in spec:
        return spec, []
    if not spec.endswith(")"):
        raise ValueError(f"malformed policy spec: {spec!r}")
    name, _, inner = spec.partition("(")
    args = [float(a) for a in inner[:-1].split(",") if a.strip()]
    return name.strip(), args


def make_policy(spec: str, side: str, sc: Scenario):
    """Resolve a policy name for the sequential game."""
    name, args = _parse_call(spec)
    v, B = sc.valuation, sc.budget
    if name == "fixed":
        if len(args) != v.m:
            raise ValueError(f"fixed(...) needs {v.m} bids")
        return strategies.FixedBidsPolicy(tuple(args))
    if side == "bidder":
        if name == "xos_sqrt":
            return strategies.xos_sqrt_policy(gamma_star(v), B)
        if name == "low_budget":
            return strategies.low_budget_policy(B)
        if name == "high_budget":
            return strategies.high_budget_policy(v.m, B)
        if name == "constant_price":
            if not isinstance(v, SubadditiveIdenticalValuation):
                raise ValueError("constant_price needs an identical-item valuation")
            k = _number(args[0], "constant_price's k", whole=True) if args else strategies.choose_k(B)
            return strategies.constant_price_policy(v, B, k)[0]
    else:
        if name == "alpha_tilde":
            return strategies.alpha_tilde_adversary(v.m, B)
        if name == "s_adversary":
            if sc.s_params is None:
                raise ValueError("s_adversary needs an s_instance valuation")
            return strategies.s_instance_adversary(sc.s_params)
    raise ValueError(f"unknown {side} policy: {name!r}")


def run_scenario(sc: Scenario) -> dict:
    if sc.auction == "sequential":
        bidder = make_policy(sc.bidder, "bidder", sc)
        adversary = make_policy(sc.adversary, "adversary", sc)
        outcome = seq.simulate(sc.valuation, bidder, adversary, sc.price_rule, budget=sc.budget)
        closed = None
        if isinstance(sc.valuation, AdditiveValuation) and len(set(sc.valuation.weights)) == 1:
            closed = float(seq.uniform_additive_value(sc.valuation.m)(sc.budget))
        return {
            "auction": "sequential",
            "price_rule": sc.price_rule,
            "seed": sc.seed,
            "profit": outcome.profit,
            "allocation": list(outcome.won_by_1),
            "rounds": [list(r) for r in outcome.rounds],
            "closed_form": closed,
            "gap": None if closed is None else outcome.profit - closed,
        }

    # simultaneous
    name1, args1 = _parse_call(sc.bidder)
    name2, args2 = _parse_call(sc.adversary)
    if name2 == "fixed":
        bids2 = bid_vector(args2, sc.valuation.m, "adversary")
    elif name2 == "split":
        bids2 = simul.randomized_adversary(sc.valuation.m, sc.budget, seed=sc.seed)
    else:
        raise ValueError(f"unknown adversary policy: {name2!r}")
    if float(bids2.sum()) > sc.budget + 1e-9:
        raise ValueError("adversary bid vector exceeds the budget")

    if name1 in ("uniform_random", "xos_sqrt", "truthful"):  # the policies that read gamma*
        g = gamma_star(sc.valuation)
    if name1 == "uniform_random":
        if sc.price_rule != "first":
            raise ValueError(f"the uniform_random bidder is for first price only, got {sc.price_rule!r}")
        ratios = np.clip(bids2 / np.maximum(np.asarray(g.weights), 1e-300), 0.0, 1.0)
        closed = simul.expected_profit_uniform_random(g, ratios)
        n = max(sc.mc_samples, 1)
        draws = strategies.UniformRandomBidder(g, sc.seed).draws(n)
        wins = draws > bids2
        profits = (np.asarray(g.weights) * wins).sum(axis=1) - (draws * wins).sum(axis=1)
        numeric = float(profits.mean())
        return {
            "auction": "simultaneous",
            "price_rule": sc.price_rule,
            "seed": sc.seed,
            "mc_samples": n,
            "closed_form": closed,
            "numeric": numeric,
            "gap": numeric - closed,
        }
    if name1 == "xos_sqrt":
        bids1 = np.sqrt(sc.budget) * np.asarray(g.weights)
    elif name1 == "truthful":
        bids1 = np.asarray(g.weights, dtype=float)
    elif name1 == "fixed":
        bids1 = np.asarray(args1, dtype=float)
    else:
        raise ValueError(f"unknown bidder policy: {name1!r}")
    outcome = simul.resolve(sc.valuation, bids1, bids2, sc.price_rule)
    return {
        "auction": "simultaneous",
        "price_rule": sc.price_rule,
        "seed": sc.seed,
        "profit": outcome.profit,
        "allocation": list(outcome.won_by_1),
        "closed_form": None,
        "gap": None,
    }


# -- subcommands -----------------------------------------------------------------


def _cmd_solve_uniform(args) -> int:
    fm = seq.uniform_additive_value(args.m)
    xs, ys = fm.xs, fm.ys
    slope = np.diff(ys) / np.diff(xs)
    intercept = ys[:-1] - slope * xs[:-1]
    branches = np.column_stack((xs[:-1], xs[1:], slope, intercept)).tolist()
    print(json.dumps({"m": args.m, "branches": branches}))
    if args.dump_csv:
        _write_pwl_csv(fm, args.dump_csv)
    return 0


def _write_pwl_csv(fm, path: str) -> None:
    lines = ["x,value"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in fm.csv_rows()]
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_tables(args) -> int:
    print(_fmt(analysis.table_A(args.m, args.b)))
    return 0


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    report = run_scenario(sc)
    text = json.dumps(report, indent=2, sort_keys=True)
    if sc.out:
        Path(sc.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_oracle(args) -> int:
    v = AdditiveValuation((1.0 / args.m,) * args.m)
    val = seq.solve_discretized(v, args.b, args.delta, args.price_rule, args.leader)
    print(_fmt(val))
    return 0


def _cmd_qp(args) -> int:
    weights = tuple(float(w) for w in args.gamma_star.split(","))
    sol = simul.adversary_qp(AdditiveValuation(weights), args.b)
    _, exact_value = simul.exact_qp(weights, args.b)
    print(json.dumps({"value": sol.value, "pg_value": exact_value, "ratios": list(sol.ratios)}))
    return 0


def _cmd_verify(args) -> int:
    suites = tuple(analysis.SUITES) if args.suite == "all" else (args.suite,)
    reports = analysis.verify_all(
        suites=suites, m_max=args.m_max, grid_step=args.grid_step, seed=args.seed
    )
    for rep in reports:
        print(rep.summary_line())
    if args.report:
        Path(args.report).write_text(
            json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
        )
    return 0 if all(r.passed for r in reports) else 2


def _cmd_figures(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in (
        ("figure1.csv", analysis.figure_value_bound_rows()),
        ("figure2.csv", analysis.figure_tangent_rows()),
    ):
        lines = ["x,series,value"] + [f"{_fmt(x)},{s},{_fmt(v)}" for x, s, v in rows]
        (out / name).write_text("\n".join(lines) + "\n")
    for m in (2, 3):
        _write_pwl_csv(seq.uniform_additive_value(m), str(out / f"f{m}.csv"))
    print(f"wrote figure CSVs to {out}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="riskfree", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-uniform", help="exact value function of the m-item uniform auction")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dump-csv", default=None)
    sp.set_defaults(fn=_cmd_solve_uniform)

    sp = sub.add_parser("tables", help="closed-form profit tables for m in {1,2,3}")
    sp.add_argument("--m", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument("--b", type=float, required=True)
    sp.set_defaults(fn=_cmd_tables)

    sp = sub.add_parser("simulate", help="run a scenario file")
    sp.add_argument("--scenario", required=True)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("oracle", help="discretized game-tree value of the uniform auction")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.01)
    sp.add_argument("--leader", choices=("adversary", "bidder"), default="adversary")
    sp.add_argument("--price-rule", choices=("first", "second"), default="first")
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("qp", help="adversarial QP value for a weight vector")
    sp.add_argument("--gamma-star", required=True, help="comma-separated weights")
    sp.add_argument("--b", type=float, required=True)
    sp.set_defaults(fn=_cmd_qp)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=(*analysis.SUITES, "all"), default="all")
    sp.add_argument("--m-max", type=int, default=30)
    sp.add_argument("--grid-step", type=float, default=0.01)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--report", default=None)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("figures", help="emit the figure CSVs")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_figures)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader left: send what stdout still buffers to devnull, so the
        # interpreter's final flush raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (RiskFreeError, ValueError, IndexError, KeyError, OSError, MemoryError) as exc:
        print(f"riskfree: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
