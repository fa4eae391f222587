"""Batch front end: scenario files in, JSON/CSV reports out.

Exit codes: 0 on success (all bounds pass), 2 when a verification sweep
reports a violated bound, 1 on usage or configuration errors, on a file
that cannot be read or written and on an allocation that fails, and 141
(128 + SIGPIPE, as a shell reports a tool that SIGPIPE ended) when the
reader of stdout closes it early, as ``riskfree solve-uniform | head``
does; that exit prints nothing to stderr.  Every exit 1 prints one
``riskfree: error: ...`` line to stderr, with no traceback.  A warning the
library raises while a subcommand runs prints one ``riskfree: warning: ...``
line to stderr, whatever the interpreter's warning filters, and changes
neither stdout nor the exit code.

``simulate`` checks each side's policy spec, ``name`` or ``name(a, b, ...)``, against one
table of names and argument counts per auction and side before anything is played.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

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
    check_count,
    check_price_rule,
    gamma_star,
    make_s_instance,
)


#: Exit status when stdout's reader closes the pipe early: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _seed(text: str) -> int:
    """A ``--seed`` value, checked while parsing: digits only, so >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        # "riskfree", not self.prog: a subcommand's prog is "riskfree verify"
        self.exit(1, f"riskfree: error: {message}\n")


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


def _list(value: Any, field: str, entry: Callable[[Any, str], Any] = _number) -> list:
    """Scenario ``field`` as a list, entry i read by ``entry`` as ``field[i]``."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return [entry(x, f"{field}[{i}]") for i, x in enumerate(value)]


def parse_valuation(spec: dict) -> tuple[Valuation, Any]:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "additive":
        return AdditiveValuation(_list(spec["weights"], "weights")), None
    if kind == "xos":
        return XOSValuation(_list(spec["clauses"], "clauses", lambda c, name: tuple(_list(c, name)))), None
    if kind == "subadditive_identical":
        return SubadditiveIdenticalValuation(_list(spec["table"], "table")), None
    if kind == "s_instance":
        x = _number(spec["x"], "s_instance x")
        return make_s_instance(x, _number(spec["m"], "s_instance m", whole=True))
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
    if sc.out is not None and not isinstance(sc.out, str):
        raise ValueError(f"out must be a path string, got {sc.out!r}")
    if sc.auction not in ("sequential", "simultaneous"):
        raise ValueError(f"unknown auction kind: {sc.auction!r}")
    check_price_rule(sc.price_rule)
    check_budget(sc.budget)
    return sc


def _parse_call(spec: str) -> tuple[str, list[float]]:
    """``name`` or ``name(a, b, ...)`` as the name and its float arguments."""
    spec = spec.strip()
    name, paren, inner = spec.partition("(")
    if paren and not inner.endswith(")"):
        raise ValueError(f"malformed policy spec: {spec!r}")
    entries = inner[:-1].split(",") if inner[:-1].strip() else []
    if not all(e.strip() for e in entries):
        raise ValueError(f"empty entry in policy spec {spec!r}")
    return name.strip(), [float(e) for e in entries]


def _fixed(sc: Scenario, side: str, args: list[float]) -> strategies.FixedBidsPolicy:
    return strategies.FixedBidsPolicy(tuple(bid_vector(args, sc.valuation.m, side).tolist()))


def _xos_sqrt(sc: Scenario, *_) -> strategies.FixedBidsPolicy:
    return strategies.xos_sqrt_policy(gamma_star(sc.valuation), sc.budget)


def _constant_price(sc: Scenario, side: str, args: list[float]) -> strategies.ConstantPricePolicy:
    if not isinstance(sc.valuation, SubadditiveIdenticalValuation):
        raise ValueError("constant_price needs an identical-item valuation")
    k = _number(args[0], "constant_price's k", whole=True) if args else strategies.choose_k(sc.budget)
    return strategies.constant_price_policy(sc.valuation, sc.budget, k)[0]


def _s_adversary(sc: Scenario, *_) -> strategies.SInstanceAdversary:
    if sc.s_params is None:
        raise ValueError("s_adversary needs an s_instance valuation")
    return strategies.s_instance_adversary(sc.s_params)


def _split(sc: Scenario, side: str, _) -> strategies.FixedBidsPolicy:
    return _fixed(sc, side, simul.randomized_adversary(sc.valuation.m, sc.budget, seed=sc.seed))


#: Every policy a scenario may name, per (auction, side): name -> (the argument counts it
#: takes, its builder).  ``fixed`` takes one bid per item, which ``bid_vector`` checks.  A
#: simultaneous side plays the bids of the FixedBidsPolicy it resolves to, or uniform_random's draws.
_POLICIES: dict[tuple[str, str], dict[str, tuple[tuple[int, ...] | None, Callable]]] = {
    ("sequential", "bidder"): {
        "fixed": (None, _fixed),
        "xos_sqrt": ((0,), _xos_sqrt),
        "low_budget": ((0,), lambda sc, *_: strategies.low_budget_policy(sc.budget)),
        "high_budget": ((0,), lambda sc, *_: strategies.high_budget_policy(sc.valuation.m, sc.budget)),
        "constant_price": ((0, 1), _constant_price),
    },
    ("sequential", "adversary"): {
        "fixed": (None, _fixed),
        "alpha_tilde": ((0,), lambda sc, *_: strategies.alpha_tilde_adversary(sc.valuation.m, sc.budget)),
        "s_adversary": ((0,), _s_adversary),
    },
    ("simultaneous", "bidder"): {
        "fixed": (None, _fixed),
        "xos_sqrt": ((0,), _xos_sqrt),
        "truthful": ((0,), lambda sc, *_: strategies.FixedBidsPolicy(gamma_star(sc.valuation).weights)),
        "uniform_random": (
            (0,), lambda sc, *_: strategies.UniformRandomBidder(gamma_star(sc.valuation), sc.seed)),
    },
    ("simultaneous", "adversary"): {"fixed": (None, _fixed), "split": ((0,), _split)},
}


def _policy(sc: Scenario, side: str):
    """The scenario's ``side`` ("bidder" or "adversary") policy, checked and built by ``_POLICIES``."""
    spec = getattr(sc, side)
    name, args = _parse_call(spec)
    counts, build = _POLICIES[sc.auction, side].get(name, (None, None))
    if build is None:
        raise ValueError(f"unknown {side} policy: {name!r}")
    if counts is not None and len(args) not in counts:
        raise ValueError(f"{spec!r}: {name} takes {' or '.join(map(str, counts))} arguments, not {len(args)}")
    return build(sc, side, args)


def run_scenario(sc: Scenario) -> dict:
    bidder, adversary = _policy(sc, "bidder"), _policy(sc, "adversary")
    report = {"auction": sc.auction, "price_rule": sc.price_rule, "seed": sc.seed, "closed_form": None}
    if sc.auction == "sequential":
        outcome = seq.simulate(sc.valuation, bidder, adversary, sc.price_rule, budget=sc.budget)
        report["rounds"] = [list(r) for r in outcome.rounds]
        if isinstance(sc.valuation, AdditiveValuation) and len(set(sc.valuation.weights)) == 1:
            # f_m is the game at v(I) = 1: scaling every price by V = v(I) gives V f_m(B / V)
            f, V = seq.uniform_additive_value(sc.valuation.m), sc.valuation.total()
            report["closed_form"] = V * float(f(sc.budget / V)) if V else 0.0
    else:
        bids2 = np.asarray(adversary.bids)
        if float(bids2.sum()) > sc.budget + 1e-9:
            raise ValueError("adversary bid vector exceeds the budget")
        if isinstance(bidder, strategies.UniformRandomBidder):  # Monte Carlo beside the closed form
            if sc.price_rule != "first":
                raise ValueError(f"the uniform_random bidder is for first price only, got {sc.price_rule!r}")
            g = np.asarray(bidder.gstar.weights)
            ratios = np.clip(bids2 / np.maximum(g, 1e-300), 0.0, 1.0)
            closed = simul.expected_profit_uniform_random(bidder.gstar, ratios)
            n = max(sc.mc_samples, 1)
            draws = bidder.draws(n)
            wins = draws > bids2
            numeric = float(((g * wins).sum(axis=1) - (draws * wins).sum(axis=1)).mean())
            return report | dict(mc_samples=n, closed_form=closed, numeric=numeric, gap=numeric - closed)
        outcome = simul.resolve(sc.valuation, bidder.bids, bids2, sc.price_rule)
    gap = None if report["closed_form"] is None else outcome.profit - report["closed_form"]
    return report | {"profit": outcome.profit, "allocation": list(outcome.won_by_1), "gap": gap}


# -- subcommands -----------------------------------------------------------------


def _cmd_solve_uniform(args) -> int:
    levels = seq.LADDER.stream(args.m)  # checks m before the CSV path is claimed
    with _claim_output(args.dump_csv):
        for _, fm, _ in levels:  # keeps f_m, not f_1..f_m
            pass
        xs, ys = fm.xs, fm.ys
        slope = np.diff(ys) / np.diff(xs)
        intercept = ys[:-1] - slope * xs[:-1]
        branches = np.column_stack((xs[:-1], xs[1:], slope, intercept))
        # the bytes of print(json.dumps({"m": m, "branches": branches.tolist()}))
        sys.stdout.write(f'{{"m": {args.m}, "branches": [')
        _write_blocks(sys.stdout, branches, lambda rows: json.dumps(rows)[1:-1], ", ")
        sys.stdout.write("]}\n")
        if args.dump_csv:
            _write_pwl_csv(fm, args.dump_csv)
    return 0


#: Rows that ``_write_blocks`` turns into text at a time.
_BLOCK_ROWS = 1024


def _write_blocks(out, rows: np.ndarray, render: Callable[[list], str], sep: str) -> None:
    """Write ``render`` of each block of ``_BLOCK_ROWS`` rows of ``rows`` (as
    lists of floats) to ``out``, with ``sep`` between blocks, so only one
    block's text exists at a time."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        if start:
            out.write(sep)
        out.write(render(rows[start : start + _BLOCK_ROWS].tolist()))


@contextlib.contextmanager
def _claim_output(path: str | None):
    """Fail before the work when ``path`` cannot be written: open it for
    appending, which creates a missing file and changes no existing one.
    A body that raises leaves no file it created behind."""
    created = bool(path) and not os.path.exists(path)
    if path:
        open(path, "a").close()
    try:
        yield
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write_pwl_csv(fm, path: str) -> None:
    with open(path, "w") as out:
        out.write("x,value\n")
        _write_blocks(out, np.column_stack((fm.xs, fm.ys)),
                      lambda rows: "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in rows), "")


def _cmd_tables(args) -> int:
    print(_fmt(analysis.table_A(args.m, args.b)))
    return 0


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    with _claim_output(sc.out):
        report = run_scenario(sc)
        text = json.dumps(report, indent=2, sort_keys=True)
        if sc.out:
            Path(sc.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_oracle(args) -> int:
    check_count(args.m, name="--m")  # before 1 / m is taken
    if args.m > seq._MAX_GRID_M:  # before m weights are allocated
        raise ValueError(f"the game-tree oracle is capped at m = {seq._MAX_GRID_M}")
    v = AdditiveValuation((1.0 / args.m,) * args.m)
    val = seq.solve_discretized(v, args.b, args.delta, args.price_rule)
    print(_fmt(val))
    return 0


def _cmd_qp(args) -> int:
    weights = tuple(float(w) for w in args.gamma_star.split(","))
    sol = simul.adversary_qp(AdditiveValuation(weights), args.b)
    print(json.dumps({"value": sol.value, "ratios": list(sol.ratios)}))
    return 0


def _cmd_verify(args) -> int:
    suites = tuple(analysis.SUITES) if args.suite == "all" else (args.suite,)
    with _claim_output(args.report):
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
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--report", default=None)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("figures", help="emit the figure CSVs")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_figures)

    return p


def _run(args: argparse.Namespace) -> int:
    """``args.fn(args)``, printing each distinct warning it raised as one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.fn(args)
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"riskfree: warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _run(args)
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
