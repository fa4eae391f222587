"""Workload ``cold_cli``: the batch CLI in fresh processes, one after the other.

Each pass runs ``riskfree verify --suite all --seed <s>`` and then
``riskfree solve-uniform --m 30`` with stdout sent to a file that is parsed
back.  Every CLI user pays the cold ladder build here.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from common import REF_TOL, check, load_reference, run_child
from ops import Op

#: Verify seeds cycle through the recorded references for the seeded families.
VERIFY_SEEDS = 64

SIZES = {
    "full": dict(verify=["--suite", "all"], su_m=30, key="full", timeout=170),
    "tiny": dict(verify=["--suite", "xos", "--m-max", "6", "--grid-step", "0.05"], su_m=6,
                 key="tiny", timeout=60),
}

CLI = [sys.executable, "-m", "riskfree.cli"]


def setup(rf, seed: int, size: str, workdir: Path) -> tuple[list, list]:
    import riskfree.cli  # noqa: F401  (each CLI call pays this import)

    return make_ops(seed, size, workdir), []


def make_ops(seed: int, size: str, workdir: Path) -> list:
    """The two CLI calls of a pass; outputs go to files in ``workdir``."""
    cfg = SIZES[size]
    ref = load_reference()
    verify_seed = seed % VERIFY_SEEDS
    ref_margins = dict(ref["verify"][cfg["key"]]["fixed"])
    ref_margins.update(ref["verify"][cfg["key"]]["seeded"].get(str(verify_seed), {}))
    ref_f = np.asarray(ref["ladder"]["values"][str(cfg["su_m"])])
    grid = np.linspace(0.0, 1.0, ref["ladder"]["grid_n"] + 1)

    report = workdir / "verify_report.json"
    su_out = workdir / "solve_uniform.json"

    def verify(tr):
        report.unlink(missing_ok=True)
        argv = CLI + ["verify", *cfg["verify"], "--seed", str(verify_seed), "--report", str(report)]
        with tr.span("cli.verify"):
            return run_child(argv, cfg["timeout"])

    def check_verify(proc):
        check(proc.returncode == 0 and report.exists(),
              f"verify exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        reports = json.loads(report.read_text())
        check({r["name"] for r in reports} == set(ref_margins), "verify ran other sweep families")
        for r in reports:
            check(r["passed"], f"sweep {r['name']} failed")
            check(abs(r["min_margin"] - ref_margins[r["name"]]) <= REF_TOL,
                  f"sweep {r['name']} margin {r['min_margin']} differs from the reference")

    def solve_uniform(tr):
        with open(su_out, "w") as sink, tr.span("cli.solve_uniform"):
            return run_child(CLI + ["solve-uniform", "--m", str(cfg["su_m"])], cfg["timeout"], stdout=sink)

    def check_solve_uniform(proc):
        check(proc.returncode == 0, f"solve-uniform exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        rec = json.loads(su_out.read_text())
        su_out.unlink()
        check(rec["m"] == cfg["su_m"], "solve-uniform reported another m")
        br = np.asarray(rec["branches"], dtype=float)
        check(br.ndim == 2 and br.shape[1] == 4 and len(br) >= 1, "malformed branch list")
        check(bool(np.all(br[1:, 0] == br[:-1, 1])) and bool(np.all(br[:, 1] > br[:, 0])),
              "branches are not contiguous")
        got = branch_values(br, grid)
        check(float(np.max(np.abs(got - ref_f))) <= REF_TOL, "solve-uniform differs from the reference")
        base = (1.0 - np.sqrt(grid)) ** 2
        check(bool(np.all((base - REF_TOL <= got) & (got <= base + 1 / math.sqrt(cfg["su_m"]) + REF_TOL))),
              "solve-uniform breaks the value bounds")

    return [Op("cli_verify", verify, check_verify), Op("cli_solve_uniform", solve_uniform, check_solve_uniform)]


def branch_values(br: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate [lo, hi, slope, intercept] branches, constant beyond both ends."""
    x = np.clip(xs, br[0, 0], br[-1, 1])
    i = np.clip(np.searchsorted(br[:, 0], x, side="right") - 1, 0, len(br) - 1)
    return br[i, 3] + br[i, 2] * x
