"""Instrumentation collectors: how basic-block ids reach the coverage map.

The paper compiles targets with ``Peach*-clang``, an LLVM pass that
inserts the edge-count snippet at every basic block.  Our targets are
Python, so the collectors are:

* :class:`ProbeCollector` — the paper's design, and what campaigns
  use: the protocol modules are compiled with a probe call before every
  statement, on every loop back-edge and on every comprehension
  iteration (:mod:`repro.runtime.probes`).  The collector binds the
  probes to its hit function for the length of a collection window, and
  to a no-op outside it, so codec code that runs during generation or
  cracking records nothing.
* :class:`TracingCollector` — the reference, via ``sys.settrace``: every
  executed line of the target's modules is a basic block.  It also
  counts the continuation lines of multi-line statements, which the
  probes do not, so the two give different hit counts and paths.  It
  traces any scope, not only the probed modules.
* :class:`ExplicitCollector` — targets call :meth:`ExplicitCollector.hit`
  with a label at interesting points; for unit-testing the coverage
  plumbing.

Block ids are :func:`line_block_id`, a stable hash of the
package-relative file name and line, so probes and settrace name a
statement the same way and ids do not depend on where the checkout
lives.  :func:`make_line_collector` picks the collector from the scope
alone: probes for the probed ``repro/protocols`` scope, settrace for
any other.  There is no user setting; tests build the settrace
reference directly.

The module also provides :func:`capture_crash_context`: the in-scope
call-site sequence at fault time, used by the triage subsystem to
bucket crashes (a cheap stand-in for an ASan stack hash).  For line
collectors it is derived from the fault's traceback — the actual stack
at the raise, so a crash inside already-visited code gets *its own*
context, not the stale first-touch journal tail — at zero cost on the
hot path; collectors without a scope filter fall back to the journal
tail.

Collectors separate the per-execution map reset
(:meth:`Collector.begin_execution`) from arming the instrumentation
(:meth:`Collector.open_window`/:meth:`Collector.close_window`), so a
harness can rebind ``Collector.map`` (the batched pipeline rotates a
map pool through one collector) or re-arm without paying the other
half.  ``begin()``/``end()`` compose both, preserving the one-execution
context-manager contract.  Windows do not nest.

All collectors feed the same :class:`~repro.runtime.coverage.CoverageMap`
and count executed blocks so the harness can flag hangs (runaway loops).
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.runtime import probes
from repro.runtime.coverage import CoverageMap
from repro.runtime.probes import line_block_id
from repro.util import fnv1a32

#: the scope the probes cover: collectors for it use them
PROBED_SCOPE = os.path.join("repro", "protocols")


def _is_probed_scope(module_prefixes: Iterable[str]) -> bool:
    """True when every prefix lies inside the probed modules."""
    prefixes = tuple(module_prefixes)
    return bool(prefixes) and all(
        os.path.normpath(prefix).startswith(PROBED_SCOPE)
        for prefix in prefixes)


def resolve_backend(backend: str = "auto",
                    module_prefixes: Iterable[str] = (PROBED_SCOPE,)
                    ) -> str:
    """The collector :func:`make_line_collector` builds for
    *module_prefixes*: ``"probe"`` when they lie inside the probed
    modules (the default scope does), ``"settrace"`` otherwise.

    *backend* must be ``"auto"``.  Older configs could name a backend
    (``settrace``, ``monitoring``); one read back from disk that still
    does is rejected here rather than silently run on another collector.
    """
    if (backend or "auto") != "auto":
        raise ValueError(
            f"unknown coverage backend {backend!r}; the collector follows "
            "the instrumented scope (choices: auto)")
    return "probe" if _is_probed_scope(module_prefixes) else "settrace"


class HangBudgetExceeded(Exception):
    """Raised inside a traced execution that exceeded its block budget."""


#: how many trailing journal entries identify a crash context
CRASH_CONTEXT_DEPTH = 16


def capture_crash_context(collector: Optional["Collector"],
                          fault: Optional[BaseException] = None,
                          depth: int = CRASH_CONTEXT_DEPTH
                          ) -> Tuple[int, ...]:
    """The call-site sequence that led into the current fault.

    With *fault* and a scoped line collector, walks the exception's
    traceback and returns the block ids (the same stable
    ``filename:lineno`` hashes the collectors record) of the in-scope
    frames, outermost first — the actual call path into the fault.  The
    old journal-tail heuristic returned the edges *first reached* before
    the crash, so a crash inside already-visited code inherited a stale
    context from much earlier in the execution and bucketed wrongly.

    Without a traceback (hangs, explicit collectors, the dense reference
    map) the journal tail remains the fallback.  Valid only between the
    faulting execution and the next ``begin()``; the harness captures it
    while handling the fault.
    """
    if collector is None:
        return ()
    matches = getattr(collector, "_file_matches", None)
    if fault is not None and matches is not None:
        sites = []
        tb = fault.__traceback__
        while tb is not None:
            filename = tb.tb_frame.f_code.co_filename
            if matches(filename):
                sites.append(line_block_id(filename, tb.tb_lineno))
            tb = tb.tb_next
        if sites:
            return tuple(sites[-depth:])
    journal = getattr(collector.map, "journal", None)
    if not journal:
        return ()
    return tuple(journal[-depth:])


class Collector:
    """Common interface: a context manager scoped to one execution.

    ``begin()``/``end()`` bracket one execution.  They decompose into
    :meth:`begin_execution` (reset the map/counters for the next run)
    and :meth:`open_window`/:meth:`close_window` (arm/disarm the
    instrumentation mechanism), so a harness can drive either half
    independently (map swaps, window-only toggles).
    """

    #: which instrumentation mechanism feeds the map (for stats/reports)
    backend_name = "none"

    def __init__(self, coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = 200_000):
        self.map = coverage_map if coverage_map is not None else CoverageMap()
        self.hang_budget = hang_budget
        self.blocks_executed = 0

    def begin_execution(self) -> None:
        """Reset per-execution state; the window state is untouched."""
        self.map.fast_reset()
        self.blocks_executed = 0

    def open_window(self) -> None:
        """Arm the instrumentation mechanism (no-op by default)."""

    def close_window(self) -> None:
        """Disarm the instrumentation mechanism (no-op by default)."""

    def begin(self) -> None:
        self.begin_execution()
        self.open_window()

    def end(self) -> None:
        self.close_window()

    def __enter__(self):
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end()
        return False


class ExplicitCollector(Collector):
    """Targets call :meth:`hit` with a stable label at each branch point."""

    backend_name = "explicit"

    def __init__(self, coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = 200_000):
        super().__init__(coverage_map, hang_budget)
        self._label_ids: Dict[str, int] = {}

    def hit(self, label: str) -> None:
        """Record entry into the basic block named *label*."""
        block_id = self._label_ids.get(label)
        if block_id is None:
            block_id = fnv1a32(label)
            self._label_ids[label] = block_id
        self.map.visit(block_id)
        self.blocks_executed += 1
        if self.blocks_executed > self.hang_budget:
            raise HangBudgetExceeded(label)


class _LineCollector(Collector):
    """Shared state of the two statement-granularity backends."""

    def __init__(self, module_prefixes: Iterable[str],
                 coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = 200_000):
        super().__init__(coverage_map, hang_budget)
        self.module_prefixes = tuple(module_prefixes)
        self._file_match_cache: Dict[str, bool] = {}
        self._visit = self.map.visit

    def _file_matches(self, filename: str) -> bool:
        cached = self._file_match_cache.get(filename)
        if cached is None:
            cached = any(prefix in filename
                         for prefix in self.module_prefixes)
            self._file_match_cache[filename] = cached
        return cached

    def begin_execution(self) -> None:
        super().begin_execution()
        # rebind in case the map object was swapped between executions
        # (the equivalence tests inject the dense reference this way,
        # and the batched pipeline rotates through its map pool)
        self._visit = self.map.visit


class ProbeCollector(_LineCollector):
    """Block coverage from the probes compiled into the protocol modules.

    :mod:`repro.runtime.probes` compiles a ``_repro_cov(<block id>)``
    call before every statement of the probed modules' functions, on
    every loop back-edge and on every comprehension iteration.
    :meth:`open_window` binds ``_repro_cov`` in each probed module whose
    file is in scope to a hit function that visits the map, counts
    blocks and enforces the hang budget, as the settrace callback does;
    :meth:`close_window` binds it back to
    :data:`probes.NOOP <repro.runtime.probes.NOOP>`, so in-scope code
    running between windows records nothing and pays one C call per
    statement.
    """

    backend_name = "probe"

    def __init__(self, module_prefixes: Iterable[str],
                 coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = 200_000):
        super().__init__(module_prefixes, coverage_map, hang_budget)
        #: globals of the in-scope probed modules, refreshed when more
        #: modules have been probed since
        self._namespaces: List[dict] = []
        self._probed_seen = 0
        self._window_blocks = None

    def _scope(self) -> List[dict]:
        probed = probes.probed_modules()
        if self._probed_seen != len(probed):
            self._namespaces = [namespace for filename, namespace in probed
                                if self._file_matches(filename)]
            self._probed_seen = len(probed)
        return self._namespaces

    def open_window(self) -> None:
        # the hit function counts in a closure cell, not on self: a cell
        # costs half the attribute traffic, and close_window reads the
        # count back into blocks_executed
        visit = self._visit
        budget = self.hang_budget
        count = self.blocks_executed

        def hit(block_id: int) -> None:
            nonlocal count
            visit(block_id)
            count += 1
            if count > budget:
                caller = sys._getframe(1)
                raise HangBudgetExceeded(
                    f"{caller.f_code.co_filename}:{caller.f_lineno}")

        def window_blocks() -> int:
            return count

        self._window_blocks = window_blocks
        for namespace in self._scope():
            namespace[probes.PROBE_NAME] = hit

    def close_window(self) -> None:
        for namespace in self._namespaces:
            namespace[probes.PROBE_NAME] = probes.NOOP
        self.blocks_executed = self._window_blocks()


class TracingCollector(_LineCollector):
    """``sys.settrace``-based line/edge coverage scoped to target modules.

    Parameters
    ----------
    module_prefixes:
        Only code objects whose ``co_filename`` contains one of these
        substrings are traced; everything else (the fuzzer itself, the
        stdlib) is skipped at call granularity, keeping overhead low.
    """

    backend_name = "settrace"

    def __init__(self, module_prefixes: Iterable[str],
                 coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = 200_000):
        super().__init__(module_prefixes, coverage_map, hang_budget)
        #: code object -> {lineno -> block id}; code objects are cached by
        #: identity so the hot path never rebuilds filename:lineno strings
        self._code_line_ids: Dict[object, Dict[int, int]] = {}
        self._saved_trace = None

    def open_window(self) -> None:
        self._saved_trace = sys.gettrace()
        sys.settrace(self._global_trace)

    def close_window(self) -> None:
        sys.settrace(self._saved_trace)
        self._saved_trace = None

    # -- trace callbacks -----------------------------------------------------

    def _global_trace(self, frame, event, arg):
        if event != "call":
            return None
        if not self._file_matches(frame.f_code.co_filename):
            return None
        return self._local_trace

    def _local_trace(self, frame, event, arg):
        if event != "line":
            return self._local_trace
        code = frame.f_code
        line_ids = self._code_line_ids.get(code)
        if line_ids is None:
            self._code_line_ids[code] = line_ids = {}
        lineno = frame.f_lineno
        block_id = line_ids.get(lineno)
        if block_id is None:
            block_id = line_block_id(code.co_filename, lineno)
            line_ids[lineno] = block_id
        self._visit(block_id)
        self.blocks_executed += 1
        if self.blocks_executed > self.hang_budget:
            raise HangBudgetExceeded(f"{code.co_filename}:{lineno}")
        return self._local_trace


def make_line_collector(module_prefixes: Iterable[str], *,
                        coverage_map: Optional[CoverageMap] = None,
                        hang_budget: int = 200_000) -> _LineCollector:
    """Build the line collector :func:`resolve_backend` picks: a
    :class:`ProbeCollector` for a scope inside the probed
    ``repro/protocols`` modules, a :class:`TracingCollector` for any
    other."""
    kind = (ProbeCollector if resolve_backend("auto", module_prefixes)
            == "probe" else TracingCollector)
    return kind(module_prefixes, coverage_map=coverage_map,
                hang_budget=hang_budget)
