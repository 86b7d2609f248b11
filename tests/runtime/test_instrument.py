"""Unit tests for the instrumentation collectors."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.runtime.instrument import (
    ExplicitCollector, HangBudgetExceeded, TracingCollector, line_block_id,
)
from repro.protocols.modbus import ModbusServer, build_read_request
from repro.sanitizer import SimHeap
from repro.util import fnv1a32

#: the ``src`` directory this test imported ``repro`` from
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_CAMPAIGN = """
import json
from repro import CampaignConfig, get_target, run_campaign
result = run_campaign("peach-star", get_target("lib60870"), seed=7,
                      config=CampaignConfig(max_executions=500))
print(json.dumps({
    "file": __import__("repro").__file__,
    "edges": result.final_edges,
    "path_hashes": result.path_hashes,
    "buckets": sorted(list(crash.bucket_key)
                      for crash in result.unique_crashes),
}))
"""


class TestExplicitCollector:
    def test_hits_recorded(self):
        collector = ExplicitCollector()
        with collector:
            collector.hit("block-a")
            collector.hit("block-b")
        assert collector.map.edge_count() == 2
        assert collector.blocks_executed == 2

    def test_labels_have_stable_ids(self):
        one = ExplicitCollector()
        two = ExplicitCollector()
        with one:
            one.hit("x")
        with two:
            two.hit("x")
        assert list(one.map.iter_hits()) == list(two.map.iter_hits())

    def test_hang_budget_enforced(self):
        collector = ExplicitCollector(hang_budget=10)
        with pytest.raises(HangBudgetExceeded):
            with collector:
                for _ in range(20):
                    collector.hit("loop")

    def test_begin_resets_between_executions(self):
        collector = ExplicitCollector()
        with collector:
            collector.hit("a")
        with collector:
            collector.hit("b")
        assert collector.map.edge_count() == 1


class TestTracingCollector:
    def _run_modbus(self, collector, packet):
        server = ModbusServer()
        with collector:
            server.handle_packet(SimHeap(), packet)

    def test_traces_target_module_lines(self):
        collector = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(collector, build_read_request(3, 0, 2))
        assert collector.map.edge_count() > 10
        assert collector.blocks_executed > 10

    def test_ignores_out_of_scope_modules(self):
        collector = TracingCollector(module_prefixes=("no/such/prefix",))
        self._run_modbus(collector, build_read_request(3, 0, 2))
        assert collector.map.edge_count() == 0

    def test_different_function_codes_differ_in_coverage(self):
        first = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(first, build_read_request(0x01, 0, 2))
        second = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(second, build_read_request(0x03, 0, 2))
        assert first.map.path_hash() != second.map.path_hash()

    def test_same_packet_same_coverage(self):
        packet = build_read_request(3, 0, 5)
        hashes = []
        for _ in range(2):
            collector = TracingCollector(
                module_prefixes=("repro/protocols",))
            self._run_modbus(collector, packet)
            hashes.append(collector.map.path_hash())
        assert hashes[0] == hashes[1]

    def test_loop_iterations_bump_counts(self):
        """A larger read quantity executes the register loop more times —
        the hit-count bucketing must be able to tell the difference."""
        small = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(small, build_read_request(3, 0, 1))
        large = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(large, build_read_request(3, 0, 40))
        assert large.blocks_executed > small.blocks_executed
        assert small.map.path_hash() != large.map.path_hash()

    def test_trace_hook_restored_after_execution(self):
        import sys
        before = sys.gettrace()
        collector = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(collector, build_read_request(3, 0, 1))
        assert sys.gettrace() is before


class TestBlockIds:
    def test_package_files_hash_their_package_relative_path(self):
        server = os.path.join(SRC, "repro", "protocols", "modbus",
                              "server.py")
        assert line_block_id(server, 12) == \
            fnv1a32("repro/protocols/modbus/server.py:12")

    def test_other_files_hash_their_filename(self):
        assert line_block_id("/elsewhere/mod.py", 3) == \
            fnv1a32("/elsewhere/mod.py:3")

    def test_campaign_does_not_depend_on_the_checkout(self, tmp_path):
        """One seeded campaign run from two copies of ``src/`` at
        different paths: same edges, path hashes and crash buckets."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") and key != "PYTHONPATH"}
        outcomes = []
        for copy in ("a", "b/deeper"):
            src = str(tmp_path / copy / "src")
            shutil.copytree(SRC, src, ignore=shutil.ignore_patterns(
                "__pycache__", "*.egg-info"))
            done = subprocess.run(
                [sys.executable, "-c", _CAMPAIGN], capture_output=True,
                text=True, env=dict(env, PYTHONPATH=src), timeout=300)
            assert done.returncode == 0, done.stderr
            outcome = json.loads(done.stdout.splitlines()[-1])
            assert outcome.pop("file").startswith(src)
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["buckets"]
