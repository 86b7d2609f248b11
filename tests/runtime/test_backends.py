"""Coverage-collector selection: block probes vs the settrace reference.

The collector follows the instrumented scope: the probes compiled into
``repro/protocols`` for that scope, the settrace tracer for any other.
There is no backend option; a config read from disk that still names
one (``settrace``, or the removed ``monitoring``) is rejected loudly.
Probe behaviour itself is in ``test_probes.py``.
"""

import pytest

from repro.core import CampaignConfig, config_from_dict, config_to_dict
from repro.core import make_engine
from repro.protocols import get_target
from repro.runtime.instrument import (
    ProbeCollector, TracingCollector, make_line_collector, resolve_backend,
)

PREFIXES = ("repro/protocols",)


class TestResolveBackend:
    def test_probes_for_the_protocols_scope(self):
        assert resolve_backend("auto") == "probe"
        assert resolve_backend("auto", PREFIXES) == "probe"
        assert resolve_backend("auto", ("repro/protocols/modbus",)) == \
            "probe"

    def test_settrace_for_other_scopes(self):
        assert resolve_backend("auto", ("examples",)) == "settrace"
        assert resolve_backend("auto", ("repro/protocols", "examples")) \
            == "settrace"

    @pytest.mark.parametrize("backend", ["settrace", "monitoring", "ptrace"])
    def test_named_backends_are_rejected(self, backend):
        with pytest.raises(ValueError, match=rf"'{backend}'.*choices: auto"):
            resolve_backend(backend)


class TestFactory:
    def test_probes_for_the_protocols_scope(self):
        collector = make_line_collector(PREFIXES)
        assert isinstance(collector, ProbeCollector)
        assert collector.backend_name == "probe"

    def test_settrace_for_other_scopes(self):
        collector = make_line_collector(("examples",))
        assert isinstance(collector, TracingCollector)
        assert collector.backend_name == "settrace"

    def test_campaigns_run_on_the_probes(self):
        engine = make_engine("peach-star", get_target("libmodbus"), seed=1)
        assert isinstance(engine.target.collector, ProbeCollector)


class TestConfigFromDisk:
    def test_config_names_no_backend(self):
        assert "coverage_backend" not in config_to_dict(CampaignConfig())

    def test_auto_still_loads(self):
        blob = dict(config_to_dict(CampaignConfig()), coverage_backend="auto")
        assert config_from_dict(blob) == CampaignConfig()

    @pytest.mark.parametrize("backend", ["settrace", "monitoring"])
    def test_named_backend_is_rejected(self, backend):
        blob = dict(config_to_dict(CampaignConfig()), coverage_backend=backend)
        with pytest.raises(ValueError, match=rf"'{backend}'.*choices: auto"):
            config_from_dict(blob)
