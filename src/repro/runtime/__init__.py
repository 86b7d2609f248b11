"""Instrumented-target runtime: coverage maps, collectors, clock, harness."""

from repro.runtime.clock import CostModel, SimulatedClock
from repro.runtime.coverage import (
    BUCKET_LUT, MAP_SIZE, CoverageMap, GlobalCoverage, bucket_count,
)
from repro.runtime.instrument import (
    CRASH_CONTEXT_DEPTH, Collector, ExplicitCollector, HangBudgetExceeded,
    ProbeCollector, TracingCollector, capture_crash_context,
    make_line_collector, resolve_backend,
)
from repro.runtime.target import ExecResult, ProtocolServer, Target

__all__ = [
    "BUCKET_LUT", "CRASH_CONTEXT_DEPTH", "Collector", "CostModel",
    "CoverageMap", "ExecResult", "ExplicitCollector", "GlobalCoverage",
    "HangBudgetExceeded", "MAP_SIZE", "ProbeCollector",
    "ProtocolServer", "SimulatedClock", "Target", "TracingCollector",
    "bucket_count", "capture_crash_context", "make_line_collector",
    "resolve_backend",
]
