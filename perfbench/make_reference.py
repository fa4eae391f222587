"""Record the reference outputs that the benchmark checks against.

Run once, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: ladder values f_m on a budget grid,
hard-instance response values, and the margins of every ``riskfree verify``
sweep family (the seeded families for each verify seed the benchmark uses).
Later commits keep this file as it is, so that a change to the library's
results shows as a failed check.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from common import OUT_DIR, REFERENCE_PATH, child_env, import_riskfree
from cold_cli import CLI, SIZES as CLI_SIZES, VERIFY_SEEDS

GRID_N = 500
LADDER_LEVELS = list(range(1, 31)) + [100, 200]
SI_M = range(14, 33)
SI_X0, SI_DX, SI_N = 0.05, 0.0025, 61
SEEDED_FAMILIES = ("si_lower_bound", "simultaneous")


def cli_margins(verify_args: list[str], seed: int) -> dict[str, float]:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        report = Path(tmp) / "report.json"
        subprocess.run(CLI + ["verify", *verify_args, "--seed", str(seed), "--report", str(report)],
                       check=True, env=child_env(), stdout=subprocess.DEVNULL)
        return {r["name"]: r["min_margin"] for r in json.loads(report.read_text())}


def main() -> None:
    rf = import_riskfree()
    from riskfree import analysis

    grid = np.linspace(0.0, 1.0, GRID_N + 1)
    ladder = {str(m): [float(v) for v in rf.uniform_additive_value(m)(grid)] for m in LADDER_LEVELS}
    si_values = {
        str(m): [analysis.si_upper_response_value(SI_X0 + j * SI_DX, m)["value"] for j in range(SI_N)]
        for m in SI_M
    }

    seeded = {
        str(s): {
            "si_lower_bound": analysis.verify_si_lower(n_instances=200, seed=s, tol=1e-9).min_margin,
            "simultaneous": analysis.verify_simul(seed=s, tol=1e-9).min_margin,
        }
        for s in range(VERIFY_SEEDS)
    }
    # the in-process calls above must be the ones the CLI makes
    for s in (0, VERIFY_SEEDS - 1):
        full = cli_margins(CLI_SIZES["full"]["verify"], s)
        if {k: full[k] for k in SEEDED_FAMILIES} != seeded[str(s)]:
            raise SystemExit(f"in-process sweeps disagree with the CLI at seed {s}")

    ref = {
        "ladder": {"grid_n": GRID_N, "values": ladder},
        "si_upper": {"x0": SI_X0, "dx": SI_DX, "n": SI_N, "values": si_values},
        "verify": {
            "full": {"fixed": {k: v for k, v in full.items() if k not in SEEDED_FAMILIES},
                     "seeded": seeded},
            "tiny": {"fixed": cli_margins(CLI_SIZES["tiny"]["verify"], 0), "seeded": {}},
        },
    }
    REFERENCE_PATH.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
