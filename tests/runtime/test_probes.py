"""Compile-time block probes (``repro.runtime.probes``) and their collector.

* **Parity.** On the conformance packets of all six protocols (each
  model's default packet plus seeded generated ones), the probes record
  exactly the settrace reference's block ids restricted to
  statement-start lines, with the same outcomes and crash call sites.
* **Rewrite rules** on a snippet: where probes go, loop back-edges,
  comprehension iterations, docstrings, traceback lines.
* **Windows.** Probed code run between windows records nothing, and a
  runaway loop trips the hang budget and leaves the probes unbound.
* **Cache.** Touching the source or ``probes.py`` invalidates the cached
  code; an unwritable ``__pycache__`` still imports.
"""

import ast
import importlib.util
import os
import random
import shutil

import pytest

from repro.model.generation import generate_packet
from repro.protocols import all_targets
from repro.protocols.iccp import build_associate
from repro.protocols.iccp.server import IccpServer
from repro.protocols.modbus import ModbusServer, build_read_request
from repro.protocols.modbus import server as modbus_server
from repro.runtime import probes
from repro.runtime.coverage import CoverageMap
from repro.runtime.instrument import (
    HangBudgetExceeded, ProbeCollector, TracingCollector, line_block_id,
)
from repro.runtime.target import Target
from repro.sanitizer import SimHeap

PREFIXES = ("repro/protocols",)
#: generated packets per target on top of the default packets; enough
#: for the seeded generator to reach crashes on several targets
GENERATED = 60

SNIPPET = '''\
def loop(n):
    """Docstring."""
    total = 0
    for i in range(n):
        if i == 1:
            continue
        total += i
    return total


class Holder:
    value = 1

    def method(self):
        return self.value


def boom():
    x = 1
    raise ValueError(x)


def spin():
    while True:
        pass


def reads(data):
    return sum(b for b in data if b > 1) + len([[x for x in range(y)]
                                                for y in data])
'''


class RecordingMap(CoverageMap):
    """A coverage map that also keeps the block ids it was handed."""

    __slots__ = ("ids",)

    def __init__(self):
        super().__init__()
        self.ids = []

    def visit(self, cur_location):
        self.ids.append(cur_location)
        CoverageMap.visit(self, cur_location)

    def fast_reset(self):
        self.ids = []
        CoverageMap.fast_reset(self)


def _load(path, name="probed_snippet"):
    """Import *path* through the probe loader."""
    loader = probes.ProbeLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, str(path),
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


@pytest.fixture
def snippet(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    return path


def _probe_lines(filename):
    """The statement-start lines of *filename* that carry a probe."""
    with open(filename, "rb") as handle:
        tree = ast.parse(handle.read(), filename)
    return probes.instrument(tree, filename)


def _statement_ids():
    """Ids of every statement-start line that carries a probe."""
    ids = set()
    for filename, _ in probes.probed_modules():
        ids |= {line_block_id(filename, line)
                for line in _probe_lines(filename)}
    return ids


def _conformance_packets(spec):
    pit = spec.make_pit()
    models = list(pit)
    packets = [(model.to_wire(model.build_default()), model.name)
               for model in models]
    rng = random.Random(1)
    for _ in range(GENERATED):
        model = rng.choice(models)
        packets.append((generate_packet(model, rng)[1], model.name))
    return packets


class TestParity:
    def test_protocol_modules_are_probed(self):
        assert isinstance(modbus_server.__spec__.loader, probes.ProbeLoader)
        assert probes.PROBE_NAME in \
            ModbusServer.handle_packet.__code__.co_names
        assert modbus_server.__dict__[probes.PROBE_NAME] is probes.NOOP

    def test_probe_ids_equal_settrace_statement_ids(self):
        statements = _statement_ids()
        crashes = 0
        for spec in all_targets():
            probed = Target(spec.make_server, ProbeCollector(
                PREFIXES, coverage_map=RecordingMap()))
            traced = Target(spec.make_server, TracingCollector(
                PREFIXES, coverage_map=RecordingMap()))
            for packet, model in _conformance_packets(spec):
                by_probe = probed.run(packet, model)
                by_trace = traced.run(packet, model)
                context = (spec.name, model, packet.hex())
                assert set(probed.collector.map.ids) == \
                    set(traced.collector.map.ids) & statements, context
                assert by_probe.hang == by_trace.hang, context
                assert (by_probe.crash is None) == \
                    (by_trace.crash is None), context
                if by_probe.crash is not None:
                    crashes += 1
                    assert by_probe.crash.dedup_key == \
                        by_trace.crash.dedup_key, context
                    assert by_probe.crash.call_sites == \
                        by_trace.crash.call_sites, context
        assert crashes > 0


class TestRewrite:
    def test_probe_lines(self, snippet):
        # class bodies, def lines at module or class level and the
        # docstring get no probe
        assert _probe_lines(str(snippet)) == \
            {3, 4, 5, 6, 7, 8, 15, 19, 20, 24, 25, 29}

    def test_statements_and_back_edges(self, snippet):
        module = _load(snippet)
        hits = []
        module.__dict__[probes.PROBE_NAME] = hits.append
        assert module.loop(3) == 2
        lines = {line_block_id(str(snippet), line): line
                 for line in range(1, 30)}
        # the header (4) counts on entry and once per iteration; the
        # continue (6) jumps back through a back-edge probe
        assert [lines[block] for block in hits] == \
            [3, 4, 5, 7, 4, 5, 6, 4, 5, 7, 4, 8]

    def test_comprehension_iterations(self, snippet):
        module = _load(snippet)
        hits = []
        module.__dict__[probes.PROBE_NAME] = hits.append
        assert module.reads(bytes([0, 1, 2, 3])) == 9
        # the statement once, then every iteration of every ``for``
        # clause, filtered out or not: 4 (generator) + 4 (outer list)
        # + 0 + 1 + 2 + 3 (inner lists), all with the statement's id
        assert hits == [line_block_id(str(snippet), 29)] * 15

    def test_docstrings_and_classes_survive(self, snippet):
        module = _load(snippet)
        assert module.loop.__doc__ == "Docstring."
        assert module.Holder().method() == 1

    def test_traceback_lines_unchanged(self, snippet):
        module = _load(snippet)
        with pytest.raises(ValueError) as info:
            module.boom()
        tb = info.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_lineno == 20


class TestComprehensions:
    def test_generator_reads_count_per_byte(self):
        """libiccp reads the bilateral-table id one byte per iteration
        of a generator; each extra byte is one more block under the
        probes, and more blocks under the settrace reference too."""
        for kind in (ProbeCollector, TracingCollector):
            collector = kind(PREFIXES)
            server = IccpServer()
            blocks = []
            for length in (1, 2, 3, 8, 16):
                with collector:
                    server.handle_packet(SimHeap(),
                                         build_associate("X" * length))
                blocks.append(collector.blocks_executed)
            assert blocks == sorted(set(blocks)), (kind, blocks)
            if kind is ProbeCollector:
                assert [b - blocks[0] for b in blocks] == \
                    [0, 1, 2, 7, 15]


class TestWindows:
    def test_no_recording_between_executions(self):
        packet = build_read_request(3, 0, 2)
        collector = ProbeCollector(PREFIXES, coverage_map=RecordingMap())
        server = ModbusServer()
        with collector:
            server.handle_packet(SimHeap(), packet)
        baseline = list(collector.map.ids)
        assert baseline
        # in-scope codec code running outside a window records nothing
        build_read_request(3, 0, 2)
        server.handle_packet(SimHeap(), packet)
        assert collector.map.ids == baseline
        assert modbus_server.__dict__[probes.PROBE_NAME] is probes.NOOP
        with collector:
            server.handle_packet(SimHeap(), packet)
        assert collector.map.ids == baseline

    def test_runaway_loop_trips_the_hang_budget(self, snippet):
        module = _load(snippet)
        collector = ProbeCollector((str(snippet.parent),), hang_budget=50)
        with pytest.raises(HangBudgetExceeded, match=r"snippet\.py:2[45]"):
            with collector:
                module.spin()
        assert collector.blocks_executed == 51
        assert module.__dict__[probes.PROBE_NAME] is probes.NOOP
        # and the next window starts afresh
        with collector:
            module.loop(2)
        assert collector.blocks_executed == 9


class TestCache:
    @pytest.fixture
    def rewrites(self, monkeypatch):
        """The files the loader parses and rewrites (cache misses)."""
        calls = []
        instrument = probes.instrument

        def counting(tree, filename):
            calls.append(filename)
            return instrument(tree, filename)
        monkeypatch.setattr(probes, "instrument", counting)
        return calls

    def test_cache_hit_and_source_invalidation(self, snippet, rewrites):
        _load(snippet)
        assert len(rewrites) == 1
        cache = probes._cache_path(str(snippet))
        assert os.path.exists(cache)
        assert cache.endswith(".probes.pyc")
        _load(snippet)
        assert len(rewrites) == 1
        stat = os.stat(snippet)
        os.utime(snippet, ns=(stat.st_atime_ns,
                              stat.st_mtime_ns + 1_000_000_000))
        _load(snippet)
        assert len(rewrites) == 2
        _load(snippet)
        assert len(rewrites) == 2

    def test_rewriter_change_invalidates(self, snippet, rewrites,
                                         monkeypatch, tmp_path):
        rewriter = tmp_path / "probes_copy.py"
        shutil.copyfile(probes.__file__, rewriter)
        monkeypatch.setattr(probes, "_REWRITER", str(rewriter))
        _load(snippet)
        _load(snippet)
        assert len(rewrites) == 1
        stat = os.stat(rewriter)
        os.utime(rewriter, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000_000))
        _load(snippet)
        assert len(rewrites) == 2

    def test_corrupt_cache_is_rewritten(self, snippet, rewrites):
        _load(snippet)
        cache = probes._cache_path(str(snippet))
        with open(cache, "r+b") as handle:
            handle.truncate(10)
        assert _load(snippet).loop(3) == 2
        assert len(rewrites) == 2
        _load(snippet)
        assert len(rewrites) == 2

    @pytest.mark.parametrize("blocker", ["read-only", "file"])
    def test_unwritable_pycache_still_imports(self, snippet, rewrites,
                                              blocker, monkeypatch):
        pycache = snippet.parent / "__pycache__"
        if blocker == "file":
            pycache.write_text("not a directory")
        else:
            # a read-only directory, as every user sees one (root would
            # write through a chmod)
            pycache.mkdir()
            real_open = os.open

            def read_only(path, flags, *args):
                if os.path.dirname(path) == str(pycache) and \
                        flags & (os.O_WRONLY | os.O_RDWR):
                    raise PermissionError(13, "Permission denied", path)
                return real_open(path, flags, *args)
            monkeypatch.setattr(os, "open", read_only)
        for _ in range(2):
            assert _load(snippet).loop(3) == 2
        assert len(rewrites) == 2
        if blocker == "read-only":
            assert os.listdir(pycache) == []
