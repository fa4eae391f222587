"""Every library name the benchmark under ``perfbench/`` reads must exist.

``perfbench/probes.py`` reports a probe whose library function is gone as
``"value": null`` and still counts the run as correct, so a deletion or a
rename in ``src/`` would blank a per-layer metric without failing anything.
These tests parse the benchmark's sources (without importing them) and look
each name up in the library.
"""

import ast
from pathlib import Path

import pytest

import riskfree
from riskfree import analysis, cli, pwl, seq, simul, strategies, valuations

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

#: The names the benchmark binds the library's modules to.
MODULES = {
    "pwl": pwl,
    "seq": seq,
    "simul": simul,
    "strategies": strategies,
    "valuations": valuations,
    "analysis": analysis,
    "cli": cli,
    "rf": riskfree,
}


def _module_name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) and node.id in MODULES else None


def _references(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each ``module.name`` and ``getattr(module, "name")``,
    and ("analysis", name) for each ``verify_*`` string in ``_sweeps``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _module_name(node.value):
            refs.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
              and len(node.args) >= 2 and _module_name(node.args[0])
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            refs.add((node.args[0].id, node.args[1].value))
        elif isinstance(node, ast.FunctionDef) and node.name == "_sweeps":
            refs.update(("analysis", c.value) for c in ast.walk(node)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str) and c.value.startswith("verify_"))
    return refs


def _trees() -> dict[str, ast.AST]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(BENCH_DIR.glob("*.py"))}


TREES = _trees()
REFERENCES = sorted(set().union(*(_references(tree) for tree in TREES.values())))


def test_the_parser_finds_the_probed_names():
    # a parser that finds nothing would pass every lookup below
    for ref in [("pwl", "add"), ("pwl", "solve_equal"), ("seq", "g_h"), ("rf", "uniform_additive_value"),
                ("valuations", "beta_cover"), ("analysis", "verify_si_upper"), ("cli", "main")]:
        assert ref in REFERENCES


@pytest.mark.parametrize("module, name", REFERENCES, ids=[f"{m}.{n}" for m, n in REFERENCES])
def test_referenced_name_exists(module, name):
    assert hasattr(MODULES[module], name), f"perfbench reads {module}.{name}, which the library lacks"


def test_piecewise_linear_affine_exists():
    # probes.py times ``f.affine(...)`` on a PiecewiseLinear
    uses = [node for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "affine"]
    assert uses
    assert callable(getattr(pwl.PiecewiseLinear, "affine", None))
