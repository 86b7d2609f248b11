"""Session-level triage: minimize a crashing trace, steps first.

A session crash needs its whole trace to reproduce — the provoking
packet only faults against the server state the prefix built up.  The
minimizer therefore works outside-in:

1. **step drop** — greedily remove whole steps (re-executing the
   candidate trace through a live session each time) until no single
   step can be removed without losing the ``(kind, site)`` key;
2. **step shrink** — run the existing field-aware shrink + byte-level
   ddmin of :mod:`repro.triage.minimize` on the *crashing step's*
   packet, where "reproduces" means "the full candidate trace still
   crashes with the same key".

Bindings are re-derived on every candidate execution (the
:class:`~repro.state.binder.TraceBinder` echoes the server's live
sequence numbers into each step), so dropping a prefix step never
leaves stale framing behind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.protocols import PROTOCOLS_PATH_PREFIX
from repro.runtime.instrument import make_line_collector
from repro.runtime.target import Target, TraceResult
from repro.sanitizer.report import CrashReport
from repro.state.binder import TraceBinder
from repro.state.trace import TraceStep, decode_trace, encode_trace
from repro.triage.minimize import (
    MinimizationResult, ddmin_bytes, shrink_fields,
)


class TraceChecker:
    """Re-executes candidate traces under the sanitizer.

    The session analog of :class:`~repro.triage.minimize.CrashChecker`:
    every check replays the whole candidate trace against a freshly
    reset server (one live session per candidate) with the hang-budget
    collector attached.  ``executions`` counts *steps*, matching the
    engine's accounting.
    """

    def __init__(self, target_spec, hang_budget: int = 120_000):
        collector = make_line_collector((PROTOCOLS_PATH_PREFIX,),
                                        hang_budget=hang_budget)
        self.target = Target(target_spec.make_server, collector)
        self.pit = target_spec.make_pit()
        self.executions = 0
        self._cache: Dict[bytes, Optional[tuple]] = {}

    def run(self, steps: List[TraceStep]) -> TraceResult:
        """One full trace execution (used to rebuild the final report)."""
        binder = TraceBinder(self.pit, steps)
        result = self.target.run_trace(
            [(step.packet, step.model_name) for step in steps], binder)
        self.executions += result.steps_executed
        return result

    def crash_key(self, steps: List[TraceStep]) -> Optional[tuple]:
        """The ``(kind, site)`` the trace triggers, or None."""
        encoded = encode_trace(steps)
        if encoded in self._cache:
            return self._cache[encoded]
        result = self.run(steps)
        key = result.crash.dedup_key if result.crash is not None else None
        self._cache[encoded] = key
        return key


def _drop_steps(checker: TraceChecker, steps: List[TraceStep], key: tuple,
                budget: List[int]) -> Tuple[List[TraceStep], bool]:
    """Greedy whole-step removal to a fixpoint; returns (steps, improved)."""
    improved_any = False
    improved = True
    while improved and len(steps) > 1:
        improved = False
        for index in range(len(steps) - 1, -1, -1):
            if budget[0] <= 0 or len(steps) == 1:
                return steps, improved_any
            candidate = steps[:index] + steps[index + 1:]
            budget[0] -= 1
            if checker.crash_key(candidate) == key:
                steps = candidate
                improved = improved_any = True
                break
    return steps, improved_any


def _crash_index(checker: TraceChecker, steps: List[TraceStep]
                 ) -> Optional[int]:
    result = checker.run(steps)
    return result.crash_step if result.crash is not None else None


def minimize_trace(target_spec, report: CrashReport, *,
                   max_executions: int = 3000,
                   checker: Optional[TraceChecker] = None
                   ) -> MinimizationResult:
    """Minimize one session crash while preserving its dedup key.

    ``original``/``minimized`` of the returned result hold the trace in
    its canonical encoded form (what the workspace persists and the
    reproducer script replays); *max_executions* bounds the number of
    candidate re-executions (each candidate is one whole trace).
    """
    if report.trace is None:
        raise ValueError("minimize_trace needs a session crash "
                         "(report.trace is None)")
    if checker is None:
        checker = TraceChecker(target_spec)
    key = report.dedup_key
    started = checker.executions
    steps = decode_trace(report.trace)
    budget = [max_executions]
    if checker.crash_key(steps) != key:
        return MinimizationResult(
            original=report.trace, minimized=report.trace,
            dedup_key=key, confirmed=False,
            executions=checker.executions - started)

    improved = True
    while improved and budget[0] > 0:
        steps, improved = _drop_steps(checker, steps, key, budget)
        crash_at = _crash_index(checker, steps)
        if crash_at is None:
            break  # cache/limit artifact: keep what reproduced last
        victim = steps[crash_at]

        def reproduces(candidate_packet: bytes) -> bool:
            candidate = list(steps)
            candidate[crash_at] = TraceStep(
                model_name=victim.model_name, packet=candidate_packet,
                state=victim.state, bind=dict(victim.bind),
                capture=dict(victim.capture), expect=victim.expect)
            return checker.crash_key(candidate) == key

        packet = victim.packet
        shrunk = shrink_fields(checker.pit, packet, reproduces, budget)
        shrunk = ddmin_bytes(shrunk, reproduces, budget)
        if len(shrunk) < len(packet):
            steps[crash_at] = TraceStep(
                model_name=victim.model_name, packet=shrunk,
                state=victim.state, bind=dict(victim.bind),
                capture=dict(victim.capture), expect=victim.expect)
            improved = True

    final = checker.run(steps)
    minimized = encode_trace(steps)
    final_report = final.crash
    if final_report is not None:
        final_report.trace = minimized
        final_report.crash_step = final.crash_step
    return MinimizationResult(
        original=report.trace, minimized=minimized, dedup_key=key,
        confirmed=True, executions=checker.executions - started,
        report=final_report)
