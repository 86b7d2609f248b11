"""Per-layer measurement from outside the program.

Two instruments, each used in its own pass of a ``--trace 1`` run:

* :class:`Tracer` wraps the public entry points of every layer (class
  attributes and module globals, restored afterwards) and records one
  span -- name, start, end, parent, campaign, execution index -- around
  each call.  Spans stay in memory until :meth:`Tracer.write`.  A span's
  self time is its duration minus its child spans, so the self times of
  all spans partition the time covered by top-level spans.
* :func:`count_layer_calls` attributes every Python call to the
  ``repro/<layer>/`` package that defines the called code, through
  ``sys.setprofile``.  Those counts depend only on the work done, never
  on the host.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

import repro
import repro.core.campaign as campaign_module
import repro.core.engine as engine_module
import repro.state.engine as session_engine_module
from repro.core.cracker import FileCracker
from repro.core.seedpool import SeedPool
from repro.core.semantic import SemanticGenerator
from repro.model.datamodel import DataModel
from repro.net.target import SocketTarget
from repro.runtime.instrument import make_line_collector
from repro.runtime.target import Target
from repro.state.binder import TraceBinder
from repro.store.workspace import CampaignWorkspace

#: every way a campaign starts a target execution (a whole trace in
#: session mode); ``campaign.py`` times the first call to any of them
EXECUTION_ENTRY_POINTS = ((Target, "run"), (Target, "run_into"),
                          (Target, "run_trace"), (SocketTarget, "run_trace"))
#: spans around one target execution
TARGET_SPANS = tuple(f"{owner.__name__}.{attr}"
                     for owner, attr in EXECUTION_ENTRY_POINTS)
#: top-level spans that produce the *next* execution's input
PRODUCE_SPANS = ("generate_packet", "SemanticGenerator.construct",
                 "DataModel.build")
#: the columns of a span record (see Tracer.write)
SPAN_FIELDS = ("name", "start", "end", "parent", "campaign", "exec")
#: executions kept for the bare/instrumented server replay
REPLAY_LIMIT = 1500


class Tracer:
    """Span recorder plus the per-call observations the metrics need."""

    def __init__(self):
        #: one list per span, columns as in SPAN_FIELDS; ``parent`` is
        #: the parent's index in this list (-1 at top level)
        self.spans: List[list] = []
        self._open: List[int] = []
        self.campaign = 0
        self._executions = 0
        self.counts: Counter = Counter()
        self.journal_lens: List[int] = []
        self.state_bytes = 0
        self.crackers: Dict[int, FileCracker] = {}
        #: campaign -> the engine of its last make_engine call (a resumed
        #: campaign builds a second one)
        self.engines: Dict[int, object] = {}
        #: per executed iteration: [(wire bytes, model name), ...]
        self.replay: List[List[Tuple[bytes, str]]] = []
        # filled in by summarize(), once the traced pass is over
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: wall time covered by top-level spans
        self.covered_s = 0.0
        #: spans that start before or end after their parent
        self.unnested = 0
        #: the span names install() wraps
        self.span_names: List[str] = []

    def begin_campaign(self) -> None:
        self.campaign += 1
        self._executions = 0

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> int:
        """Open a span; kept minimal, since it runs inside the timing."""
        if self._open:
            parent = self._open[-1]
            exec_index = self.spans[parent][5]
        else:
            parent = -1
            # production belongs to the execution it precedes, feedback
            # to the one that just ended
            exec_index = self._executions + (
                name in TARGET_SPANS or name in PRODUCE_SPANS)
        if name in TARGET_SPANS:
            self._executions += 1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.campaign, exec_index]
        self.spans.append(span)
        self._open.append(index)
        span[1] = time.perf_counter()
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def summarize(self) -> None:
        """Per-name calls, durations and self times, from the spans."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                _, outer_start, outer_end, *_ = self.spans[parent]
                self.unnested += start < outer_start or end > outer_end
            else:
                self.covered_s += end - start
        for index, (name, start, end, *_) in enumerate(self.spans):
            self.calls[name] += 1
            self.durations[name].append(end - start)
            self.self_s[name] += end - start - child_s[index]

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, after a header line
        naming the fields (a traced run holds ~10 spans per execution)."""
        import gzip  # not at module level, for the reason in install()
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # -- observations ----------------------------------------------------

    def _on_exec(self, args, result) -> None:
        self.counts["blocks"] += result.blocks_executed
        if result.coverage is not None:
            self.journal_lens.append(len(result.coverage.journal))
        if not result.hang and len(self.replay) < REPLAY_LIMIT:
            model = args[2] if len(args) > 2 else None
            self.replay.append([(args[1], model)])

    def _on_trace(self, args, result) -> None:
        self.counts["blocks"] += result.blocks_executed
        self.counts["steps"] += result.steps_executed
        self.counts["traces"] += 1
        if result.coverage is not None:
            self.journal_lens.append(len(result.coverage.journal))
        if result.delivered:
            self.counts["frames"] += sum(len(frames)
                                         for frames in result.delivered)
        else:
            self.counts["frames"] += result.steps_executed
        if not result.hang and len(self.replay) < REPLAY_LIMIT:
            models = [model for _, model in args[1]]
            self.replay.append(list(zip(
                result.sent[:result.steps_executed], models)))

    def _on_construct(self, args, result) -> None:
        self.counts["spliced_built"] += len(result)

    def _on_consider(self, args, result) -> None:
        self.counts["valuable"] += result is not None

    def _on_crack(self, args, result) -> None:
        self.crackers[id(args[0])] = args[0]

    def _on_checkpoint(self, args, result) -> None:
        path = os.path.join(args[0].root, "state.json")
        self.state_bytes = max(self.state_bytes, os.path.getsize(path))

    def _on_make_engine(self, args, result) -> None:
        self.engines[self.campaign] = result

    def crack_cache_hits(self) -> int:
        return sum(cracker.cache_hits for cracker in self.crackers.values())

    # -- installation ----------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Wrap every traced entry point; returns the undo function."""
        # imported here, not at module level: campaign.py imports this
        # module, and a campaign without channel faults never loads the
        # channel layer, so its set-up time must not include it
        from repro.channel.oracle import DifferentialOracle
        wraps = [
            (engine_module, "generate_packet", "generate_packet", None),
            (session_engine_module, "generate_packet", "generate_packet",
             None),
            (SemanticGenerator, "construct", None, self._on_construct),
            (DataModel, "build", None, None),
            (DataModel, "parse", None, None),
            (FileCracker, "crack", None, self._on_crack),
            (SeedPool, "consider", None, self._on_consider),
        ] + [
            (owner, attr, None,
             self._on_trace if attr == "run_trace" else self._on_exec)
            for owner, attr in EXECUTION_ENTRY_POINTS
        ] + [
            (CampaignWorkspace, "checkpoint", None, self._on_checkpoint),
            (CampaignWorkspace, "record_seed", None, None),
            (CampaignWorkspace, "restore", None, None),
            (DifferentialOracle, "examine", None, None),
            (TraceBinder, "prepare", None, None),
            (TraceBinder, "observe", None, None),
        ]
        undo = []
        for owner, attr, name, observe in wraps:
            original = owner.__dict__[attr]
            span = name or f"{owner.__name__}.{attr}"
            self.span_names.append(span)
            setattr(owner, attr, self._wrap(original, span, observe))
            undo.append((owner, attr, original))
        original = campaign_module.make_engine
        campaign_module.make_engine = self._observer(original,
                                                     self._on_make_engine)
        undo.append((campaign_module, "make_engine", original))

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return uninstall

    def _wrap(self, fn, name: str, observe):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(index)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    @staticmethod
    def _observer(fn, observe):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, result)
            return result
        return observed


def replay_seconds(spec, replay: List[List[Tuple[bytes, str]]], *,
                   sessions: bool, instrumented: bool) -> float:
    """Wall seconds to replay executed inputs through a fresh Target.

    Bare (no collector) this is the protocol server alone; instrumented
    it adds the campaign's line collector, so the difference is the
    instrumentation cost.  Session inputs replay as whole traces.
    """
    collector = make_line_collector(("repro/protocols",)) \
        if instrumented else None
    target = Target(spec.make_server, collector)
    start = time.perf_counter()
    if sessions:
        for steps in replay:
            target.run_trace(steps)
    else:
        for ((packet, model),) in replay:
            target.run(packet, model)
    return time.perf_counter() - start


def _package_layer(root: str) -> Callable[[str], str]:
    prefix = os.path.join(root, "")

    @functools.lru_cache(maxsize=None)
    def layer_of(filename: str) -> str:
        if not filename.startswith(prefix):
            return ""
        head = filename[len(prefix):].split(os.sep, 1)[0]
        return "repro" if head.endswith(".py") else head
    return layer_of


def count_layer_calls(fn: Callable[[], object]) -> Tuple[object, Counter]:
    """Run *fn* under ``sys.setprofile``; returns (its result, calls).

    *calls* maps each ``repro`` sub-package (``model``, ``core``, ...;
    ``repro`` for top-level modules) to the Python calls into functions
    it defines.  Generator and coroutine resumptions count as calls.
    Module and class bodies do not: they run once, when a module is
    first imported, which a campaign may or may not be the first to do.
    """
    layer_of = _package_layer(os.path.dirname(os.path.abspath(
        repro.__file__)))
    layers: Dict[object, str] = {}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            layer = layers.get(code)
            if layer is None:
                layer = layers[code] = layer_of(code.co_filename) \
                    if code.co_flags & inspect.CO_OPTIMIZED else ""
            counts[layer] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    counts.pop("", None)
    return result, counts
