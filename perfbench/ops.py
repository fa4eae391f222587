"""Running a workload's seeded operation list: timing, checking, counting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from common import CheckFailed


@dataclass
class Op:
    """One closed-loop request: ``call`` is timed, ``check`` is not."""

    kind: str
    call: Callable[[Any], Any]  # receives the tracer
    check: Callable[[Any], None]


@dataclass
class PhaseResult:
    pass_s: list[float] = field(default_factory=list)
    latencies: list[tuple[str, float]] = field(default_factory=list)  # (kind, s), successful ops
    attempted: int = 0
    errors: dict[str, int] = field(default_factory=dict)  # "kind: ErrorType" -> failed ops
    unexpected: list[str] = field(default_factory=list)  # wrong outputs, foreign errors
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def merge(self, other: "PhaseResult") -> None:
        self.pass_s += other.pass_s
        self.latencies += other.latencies
        self.attempted += other.attempted
        for key, count in other.errors.items():
            self.errors[key] = self.errors.get(key, 0) + count
        self.unexpected += other.unexpected
        self.wall_s += other.wall_s


def run_phase(ops: list[Op], seconds: float, tracer, library_errors: tuple[type, ...]) -> PhaseResult:
    """Run whole passes over ``ops``, one op at a time, until ``seconds`` pass.

    ``pass_s`` holds each pass's wall time less the time spent checking
    outputs that passed their check.

    At least one pass runs.  An op fails when it raises or its check rejects
    the output.  A raise of one of ``library_errors`` is a loud failure; any
    other exception or a rejected output also marks the run incorrect.
    """
    res = PhaseResult()
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        checking = 0.0  # check time is left out of the pass time
        for op in ops:
            res.attempted += 1
            tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("bench." + op.kind):
                    out = op.call(tracer)
                elapsed = time.perf_counter() - t0
                op.check(out)
                checking += time.perf_counter() - t0 - elapsed
            except library_errors as exc:
                _fail(res, op.kind, type(exc).__name__)
                continue
            except CheckFailed as exc:
                _fail(res, op.kind, "CheckFailed")
                res.unexpected.append(f"{op.kind}: {exc}")
                continue
            except Exception as exc:  # a foreign error means a broken contract
                _fail(res, op.kind, type(exc).__name__)
                res.unexpected.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            res.latencies.append((op.kind, elapsed))
        res.pass_s.append(time.perf_counter() - t_pass - checking)
        if time.perf_counter() - t_start >= seconds:
            break
    res.wall_s = time.perf_counter() - t_start
    return res


def _fail(res: PhaseResult, kind: str, error: str) -> None:
    key = f"{kind}: {error}"
    res.errors[key] = res.errors.get(key, 0) + 1
