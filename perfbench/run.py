"""riskfree benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload <cold_cli|ladder_queries|solver_mix> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``.  Every workload is a closed loop with one client: each operation
starts only after the previous one returned.  The timed phase repeats whole
passes over the seeded operation list until ``--seconds`` have passed (at
least one pass).  Every output is checked.  A workload's known-defect ops
(inputs on which the library is known to raise) run once afterwards, outside
the timed phase and outside ``attempted`` and ``failed``; they are checked
and reported by op kind.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, and the
spans are written to ``perfbench/out/``.  Lines before it are for people.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

from common import (
    OUT_DIR,
    ROOT,
    SRC,
    NullTracer,
    Tracer,
    import_riskfree,
    last_json_line,
    library_errors,
    median,
    percentile,
    run_child,
)

WORKLOADS = ("cold_cli", "ladder_queries", "solver_mix")

#: Set-ups per run (one in this process, the rest in fresh child processes);
#: set-up time is their median.
SETUP_SAMPLES = {"cold_cli": 11, "ladder_queries": 3, "solver_mix": 11}


def do_setup(workload: str, seed: int, size: str, workdir):
    """Import the library and warm up the workload; returns (ops, known-defect ops, seconds)."""
    t0 = time.perf_counter()
    rf = import_riskfree()
    ops, defect = importlib.import_module(workload).setup(rf, seed, size, workdir)
    return ops, defect, time.perf_counter() - t0


def child_setup_s(args) -> float:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--setup-only"]
    proc = run_child(argv, 170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return last_json_line(proc.stdout)["setup_s"]


def environment(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "riskfree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cold_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def report_phase(phase) -> None:
    print(f"  passes={len(phase.pass_s)} attempted={phase.attempted} failed={phase.failed} "
          f"fail_ratio={phase.failed / phase.attempted:.6f} ratio")
    by_kind: dict[str, list[float]] = {}
    for kind, t in phase.latencies:
        by_kind.setdefault(kind, []).append(t * 1e3)
    for kind, ts in sorted(by_kind.items()):
        print(f"  op {kind:<28} n={len(ts):<6} p50={median(ts):10.3f} ms  max={max(ts):10.3f} ms  "
              f"sum={sum(ts) / 1e3:8.3f} s")
    for key, count in sorted(phase.errors.items()):
        print(f"  failures  {key}: {count}")
    for line in phase.unexpected[:10]:
        print(f"  WRONG  {line}")


def run_defects(defect, errors):
    """Run the known-defect ops once and report them; returns their unexpected outcomes."""
    from ops import run_phase

    if not defect:
        return []
    res = run_phase(defect, 0, NullTracer(), errors)
    kinds: dict[str, int] = {}
    for op in defect:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    print(f"known defects: {len(defect)} ops run once, outside the timed phase and its counts")
    for kind, n in sorted(kinds.items()):
        raised = {key.split(": ", 1)[1]: c for key, c in res.errors.items() if key.startswith(kind + ":")}
        detail = ", ".join(f"{c} raised {err}" for err, c in sorted(raised.items())) or "none raised"
        print(f"  defect {kind:<28} n={n:<4} {detail}")
    for line in res.unexpected[:10]:
        print(f"  WRONG  {line}")
    return res.unexpected


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    body = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": body})


def end_to_end(args, workdir) -> tuple[bool, int, int, dict]:
    setups = [child_setup_s(args) for _ in range(SETUP_SAMPLES[args.workload] - 1)]
    ops, defect, s = do_setup(args.workload, args.seed, args.size, workdir)
    setups.append(s)
    from ops import run_phase

    phase = run_phase(ops, args.seconds, NullTracer(), library_errors())
    lat_ms = [t * 1e3 for _, t in phase.latencies]
    metrics = {
        "setup_s": {"value": median(setups), "unit": "s", "n": len(setups)},
        "run_s": {"value": median(phase.pass_s), "unit": "s", "n": len(phase.pass_s)},
        "ops_per_s": {"value": phase.attempted / phase.wall_s, "unit": "1/s", "n": phase.attempted},
        "op_p50_ms": {"value": percentile(lat_ms, 50), "unit": "ms", "n": len(lat_ms)},
        "op_p99_ms": {"value": percentile(lat_ms, 99), "unit": "ms", "n": len(lat_ms)},
        "peak_rss_mb": {"value": peak_rss_mb(args.workload), "unit": "MB", "n": 1},
    }
    print(f"workload {args.workload}: {len(ops)} ops per pass, one client, closed loop")
    report_phase(phase)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    wrong = run_defects(defect, library_errors())
    return not phase.unexpected and not wrong, phase.attempted, phase.failed, metrics


def traced(args, workdir) -> tuple[bool, int, int, dict]:
    import probes
    from ops import run_phase

    ops, defect, _ = do_setup(args.workload, args.seed, args.size, workdir)
    errors = library_errors()

    # untraced and traced passes alternate, so neither side gets the warm-up
    tracer = Tracer()
    plain = run_phase(ops, 0, NullTracer(), errors)
    phase = run_phase(ops, 0, tracer, errors)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds - plain.wall_s - phase.wall_s:
        plain.merge(run_phase(ops, 0, NullTracer(), errors))
        phase.merge(run_phase(ops, 0, tracer, errors))
    print(f"workload {args.workload} (traced): {len(ops)} ops per pass")
    report_phase(phase)
    ratio = median(phase.pass_s) / median(plain.pass_s)
    failures = run_defects(defect, errors)

    out = probes.Metrics()
    probes.pwl_probe(out, args.size, args.seed)
    probes.solver_probe(out, args.size, args.seed)
    ladder = probes.run_ladder_child(args.size, args.seed, workdir)
    out.update(ladder["metrics"])
    probes.cli_import_probe(out, 3)
    failures += ladder["failures"]
    if args.workload == "cold_cli":
        cli_phase = phase
    else:  # one cold pass of the CLI, checked like the workload's
        import cold_cli

        cli_phase = run_phase(cold_cli.make_ops(args.seed, args.size, workdir), 0, NullTracer(), errors)
        failures += [f"{k}: {n}" for k, n in cli_phase.errors.items()] + cli_phase.unexpected
    by_kind = {kind: t for kind, t in cli_phase.latencies}
    for name, kind in (("cli.verify_s", "cli_verify"), ("cli.solve_uniform_s", "cli_solve_uniform")):
        out.put(name, by_kind.get(kind), "s", int(kind in by_kind), "cold process wall time")
    out.put("trace.overhead_ratio", ratio, "ratio", len(phase.pass_s),
            f"traced pass {median(phase.pass_s):.4f} s over untraced pass {median(plain.pass_s):.4f} s")

    print("self time by layer (spans recorded around the benchmark's calls):")
    layers: dict[str, list[float]] = {}
    for name, (count, total, own) in tracer.self_times().items():
        acc = layers.setdefault(name.split(".", 1)[0], [0, 0.0])
        acc[0] += count
        acc[1] += own
    for layer, (count, own) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        print(f"  {layer:<12} self {own:10.4f} s  spans={count}")
    print("ladder probe (cold child) self time by span:")
    for name, (count, total, own) in sorted(ladder["self_times"].items(), key=lambda kv: -kv[1][2])[:12]:
        print(f"  {name:<40} self {own:9.4f} s  total {total:9.4f} s  spans={count}")
    for line in failures:
        print(f"  WRONG  {line}")
    for name, m in out.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name} = {value} {m['unit']} (n={m['n']}) {m['note']}".rstrip())

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    correct = not phase.unexpected and not plain.unexpected and not failures
    return correct, plain.attempted + phase.attempted, plain.failed + phase.failed, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's own smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            _, _, s = do_setup(args.workload, args.seed, args.size, workdir)
            print(json.dumps({"setup_s": s}))
            return 0
        correct, attempted, failed, metrics = (traced if args.trace else end_to_end)(args, workdir)
        print("env " + json.dumps(environment(args.seed) | {"workload": args.workload, "size": args.size,
                                                           "seconds": args.seconds, "trace": args.trace}))
        print(result_line(correct, attempted, failed, metrics))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
