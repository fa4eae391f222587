"""Shared pieces of the benchmark: paths, tracing, child processes, statistics.

Nothing here imports ``riskfree``: the set-up timer in ``run.py`` must see the
first import of the library.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: Ladder values and sweep margins must match the recorded reference this
#: closely.  It is no tighter than 1e-7 so that a certified simplification
#: error (cumulative ~2e-7 by m = 200) still passes.
REF_TOL = 1e-7

#: Slack for closed-form floors and ceilings computed in floating point.
FLOOR_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned a result that its output check rejects."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_riskfree():
    """Import the library from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import riskfree

    if Path(riskfree.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"riskfree was imported from {riskfree.__file__}, not from {SRC}")
    return riskfree


def library_errors() -> tuple[type, ...]:
    """Errors the library raises on purpose: its own error types, and the
    ArithmeticError its self-checks raise instead of returning a result they
    cannot certify.  An operation that raises one of these failed loudly; it
    did not return a wrong output."""
    from riskfree.errors import RiskFreeError

    return (RiskFreeError, ArithmeticError)


def run_child(argv: list[str], timeout: float, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run one child process to completion; kill and reap it on timeout."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent, op id), kept in memory.

    Spans are recorded by the benchmark around its own calls into the
    library's public functions; a span's name starts with the layer (module)
    it calls into, e.g. ``seq.simulate``.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [count, total seconds, self seconds]."""
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_total[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op_id")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


class NullTracer:
    """Stand-in with the Tracer interface that records nothing."""

    op_id = 0

    def span(self, name: str):
        return nullcontext()


# -- statistics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def stratified(rng, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one uniform draw in each of n equal strata of [lo, hi), shuffled.

    Stratifying keeps the input mix, and so the run time, nearly the same
    from seed to seed while every value still comes from the seed.
    """
    width = (hi - lo) / n
    vals = [lo + width * (j + float(rng.random())) for j in range(n)]
    order = rng.permutation(n)
    return [vals[int(i)] for i in order]
