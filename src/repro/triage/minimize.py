"""Test-case minimization: smallest packet, same crash.

The campaign stores whatever oversized mutant happened to trigger each
fault; the analyst wants the minimal reproducer.  Two reducers compose:

* :func:`shrink_fields` — *field-aware* shrinking.  When the crashing
  packet parses under one of the pit's data models (strictly, or
  leniently — illegal field values are often exactly why a mutant
  crashes), whole sub-trees are candidates: optional Repeat elements
  are dropped and variable-length leaves truncated *on the InsTree*,
  and the candidate packet is re-built through ``DataModel.build`` so
  the existing Relation/Fixup machinery recomputes sizes, counts and
  checksums.  This is what byte-level reduction cannot do: remove a
  chunk and keep the framing honest in the same step.
* :func:`ddmin_bytes` — classic Zeller/Hildebrandt delta debugging on
  the raw bytes, for packets (the common case) that are *not* legal
  under any model precisely because malformedness is what crashes the
  target.

Every candidate is re-executed under the sanitizer via
:class:`CrashChecker` and accepted only when it still triggers the same
``(kind, site)`` dedup key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.fixup_engine import TreeEchoProvider
from repro.model.fields import ModelError, ParseError, Repeat
from repro.protocols import PROTOCOLS_PATH_PREFIX
from repro.runtime.instrument import make_line_collector
from repro.runtime.target import Target
from repro.sanitizer.report import CrashReport


class CrashChecker:
    """Re-executes candidate packets under the sanitizer.

    Each check runs against a fresh heap (and a reset server) with a
    hang-budget collector attached, so a shrink candidate that loops
    forever is classified as "does not reproduce" instead of wedging
    the triage run.  *hang_budget* mirrors the campaign knob
    (``CampaignConfig.hang_budget``).
    """

    def __init__(self, target_spec, hang_budget: int = 120_000):
        collector = make_line_collector((PROTOCOLS_PATH_PREFIX,),
                                        hang_budget=hang_budget)
        self.target = Target(target_spec.make_server, collector)
        self.executions = 0
        self._cache: Dict[bytes, Optional[tuple]] = {}

    def crash_key(self, packet: bytes) -> Optional[tuple]:
        """The ``(kind, site)`` the packet triggers, or None."""
        cached = self._cache.get(packet)
        if cached is not None or packet in self._cache:
            return cached
        result = self.target.run(packet)
        self.executions += 1
        key = result.crash.dedup_key if result.crash is not None else None
        self._cache[packet] = key
        return key

    def run(self, packet: bytes, model_name: Optional[str] = None):
        """One full execution (used to rebuild the final crash report)."""
        self.executions += 1
        return self.target.run(packet, model_name)


def ddmin_bytes(packet: bytes, reproduces: Callable[[bytes], bool],
                budget: Optional[List[int]] = None) -> bytes:
    """Byte-granularity ddmin: a 1-minimal subsequence that reproduces.

    *budget* is a one-element mutable execution allowance shared with the
    caller; the reduction stops (keeping its best result) when it runs
    dry.
    """
    if len(packet) <= 1:
        return packet
    granularity = 2
    while len(packet) >= 2:
        chunk = len(packet) / granularity
        reduced = False
        for index in range(granularity):
            if budget is not None and budget[0] <= 0:
                return packet
            start = int(index * chunk)
            end = int((index + 1) * chunk)
            candidate = packet[:start] + packet[end:]
            if not candidate:
                continue
            if budget is not None:
                budget[0] -= 1
            if reproduces(candidate):
                packet = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(packet):
                break
            granularity = min(granularity * 2, len(packet))
    return packet


def _parse_for_shrink(model, packet: bytes):
    """Parse strictly, then leniently; None when structure won't match."""
    for strict in (True, False):
        try:
            return model.parse(packet, strict=strict)
        except ParseError:
            continue
    return None


def _rebuild(model, tree) -> Optional[bytes]:
    """Re-serialize a (mutated) tree through the Relation/Fixup pipeline."""
    try:
        rebuilt = model.build(TreeEchoProvider(tree))
    except (ModelError, ParseError, ValueError):
        return None
    return model.to_wire(rebuilt)


def _structural_candidates(model, tree) -> List[bytes]:
    """Smaller packets obtained by pruning the parsed InsTree.

    Each candidate mutates the tree in place (drop one optional Repeat
    element, truncate a variable-length leaf), re-builds the packet —
    which recomputes every size/count relation and checksum fixup via
    the existing machinery — and reverts the mutation.
    """
    candidates: List[bytes] = []

    def emit():
        wire = _rebuild(model, tree)
        if wire is not None:
            candidates.append(wire)

    for node in tree.root.iter_nodes():
        field = node.field
        if isinstance(field, Repeat) and \
                len(node.children) > max(field.min_count, 1):
            for index in (len(node.children) - 1, 0):
                victim = node.children.pop(index)
                emit()
                node.children.insert(index, victim)
        elif node.is_leaf and field.fixed_width() is None and \
                isinstance(node.value, (bytes, str)) and node.value:
            saved = node.value
            for size in sorted({0, len(saved) // 2, len(saved) - 1}):
                node.value = saved[:size]
                emit()
            node.value = saved
    return candidates


def shrink_fields(pit, packet: bytes, reproduces: Callable[[bytes], bool],
                  budget: Optional[List[int]] = None) -> bytes:
    """Field-aware greedy shrink, iterated to a fixpoint."""
    improved = True
    while improved:
        improved = False
        for model in pit:
            tree = _parse_for_shrink(model, packet)
            if tree is None:
                continue
            for candidate in _structural_candidates(model, tree):
                if budget is not None:
                    if budget[0] <= 0:
                        return packet
                    budget[0] -= 1
                if len(candidate) < len(packet) and reproduces(candidate):
                    packet = candidate
                    improved = True
                    break
            if improved:
                break
    return packet


@dataclass
class MinimizationResult:
    """Outcome of minimizing one crash input."""

    original: bytes
    minimized: bytes
    dedup_key: tuple
    confirmed: bool          # the original reproduced at all
    executions: int          # sanitizer runs spent
    report: Optional[CrashReport] = None  # re-captured on the minimized input

    @property
    def reduced(self) -> bool:
        return self.confirmed and len(self.minimized) < len(self.original)

    @property
    def reduction_pct(self) -> float:
        if not self.original:
            return 0.0
        return 100.0 * (1.0 - len(self.minimized) / len(self.original))


def minimize_crash(target_spec, report: CrashReport, *,
                   max_executions: int = 3000,
                   checker: Optional[CrashChecker] = None
                   ) -> MinimizationResult:
    """Minimize one crash input while preserving its dedup key.

    Field-aware shrinking runs first (it removes whole semantic units and
    keeps integrity fields honest), ddmin then grinds the remainder down
    byte by byte; the pair is iterated until neither makes progress or
    the execution budget is spent.
    """
    if checker is None:
        checker = CrashChecker(target_spec)
    key = report.dedup_key
    started = checker.executions
    if checker.crash_key(report.packet) != key:
        return MinimizationResult(
            original=report.packet, minimized=report.packet,
            dedup_key=key, confirmed=False,
            executions=checker.executions - started)

    def reproduces(candidate: bytes) -> bool:
        return checker.crash_key(candidate) == key

    pit = target_spec.make_pit()
    budget = [max_executions]
    best = report.packet
    while budget[0] > 0:
        shrunk = shrink_fields(pit, best, reproduces, budget)
        shrunk = ddmin_bytes(shrunk, reproduces, budget)
        if len(shrunk) >= len(best):
            break
        best = shrunk
    final = checker.run(best, report.model_name)
    return MinimizationResult(
        original=report.packet, minimized=best, dedup_key=key,
        confirmed=True, executions=checker.executions - started,
        report=final.crash)
