"""Smoke test of the benchmark itself at tiny size.

    python3 perfbench/smoke.py

Runs every workload at ``--size tiny``, untraced and traced, and checks that
each run exits 0, checks its outputs, and prints exactly the metric names
that ``BENCHMARK.json`` declares, with the declared units.  Exits 1 on the
first mismatch.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, ROOT, last_json_line


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = last_json_line(proc.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{label}: bad result {json.dumps(result)[:300]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                units = sorted(n for n in set(got) & set(declared[trace]) if got[n] != declared[trace][n])
                problems.append(f"{label}: missing {missing}, undeclared {extra}, unit mismatch {units}")
            print(f"{label}: {len(got)} metrics, attempted={result['attempted']} failed={result['failed']}")
    for p in problems:
        print("FAIL " + p)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
