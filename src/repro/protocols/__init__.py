"""The six ICS protocol targets of the paper's evaluation (§V-A).

Each target bundles a server (the program under test), a pit (the format
specification), a per-execution cost model for the simulated clock, and
the set of seeded vulnerability sites expected from Table I.

Use :func:`get_target` / :func:`all_targets` to enumerate them:

>>> from repro.protocols import get_target
>>> spec = get_target("libmodbus")
>>> server, pit = spec.make_server(), spec.make_pit()
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.runtime import probes
from repro.runtime.clock import CostModel
from repro.runtime.target import ProtocolServer

# every submodule is compiled with block probes (repro.runtime.probes),
# so the finder goes in before the first of them is imported
probes.install()

from repro.protocols import (  # noqa: E402,F401  (re-exported subpackages)
    dnp3, iccp, iec104, iec61850, lib60870, modbus,
)

#: filesystem prefix used by the tracing collector to scope instrumentation
PROTOCOLS_PATH_PREFIX = os.path.join("repro", "protocols")


@dataclass(frozen=True)
class TargetSpec:
    """Everything the campaign driver needs to fuzz one project."""

    name: str                      # registry key, paper's project name
    paper_project: str             # name as printed in the paper
    make_server: Callable[[], ProtocolServer]
    make_pit: Callable
    cost_model: CostModel
    seeded_bug_sites: FrozenSet[Tuple[str, str]] = frozenset()
    description: str = ""
    #: session state machine factory — all six targets ship one (the
    #: `peachstar fuzz --sessions` hand-modelled mode requires it;
    #: `--learn-states` infers an automaton instead and works without)
    make_state_model: Optional[Callable] = None
    #: raw TCP stream framing this protocol family speaks on the wire
    #: (key into :func:`repro.net.framing.framer_for`)
    framing: str = "apci"

    @property
    def seeded_bug_count(self) -> int:
        return len(self.seeded_bug_sites)

    @property
    def supports_sessions(self) -> bool:
        return self.make_state_model is not None


def _costs(exec_seconds: float) -> CostModel:
    """Target-specific execution cost (bigger codebases run slower).

    The virtual scale is compressed (see :class:`CostModel`): per-target
    costs are chosen so the paper's 24-hour budget corresponds to roughly
    1.4k (libiec61850) to 2.4k (IEC104) virtual executions.
    """
    return CostModel(exec_cost_ms=exec_seconds * 1000.0,
                     coverage_overhead_ms=exec_seconds * 50.0,
                     crack_cost_ms=exec_seconds * 200.0,
                     semantic_gen_cost_ms=exec_seconds * 10.0,
                     fixup_cost_ms=exec_seconds * 4.0)


_REGISTRY: Dict[str, TargetSpec] = {}


def _register(spec: TargetSpec) -> None:
    _REGISTRY[spec.name] = spec


_register(TargetSpec(
    name="libmodbus",
    framing="mbap",
    paper_project="libmodbus",
    make_server=modbus.ModbusServer,
    make_pit=modbus.make_pit,
    make_state_model=modbus.make_state_model,
    cost_model=_costs(40.0),
    seeded_bug_sites=frozenset({
        ("heap-use-after-free", "modbus.c:respond_exception_after_free"),
        ("SEGV", "modbus.c:fc23_read_registers"),
    }),
    description="Modbus/TCP server (libmodbus analog), 16 function codes",
))

_register(TargetSpec(
    name="iec104",
    framing="apci",
    paper_project="IEC104",
    make_server=iec104.Iec104Server,
    make_pit=iec104.make_pit,
    make_state_model=iec104.make_state_model,
    cost_model=_costs(36.0),
    seeded_bug_sites=frozenset(),
    description="Minimal IEC 60870-5-104 slave (airpig2011/IEC104 analog)",
))

_register(TargetSpec(
    name="lib60870",
    framing="apci",
    paper_project="lib60870",
    make_server=lib60870.Lib60870Server,
    make_pit=lib60870.make_pit,
    make_state_model=lib60870.make_state_model,
    cost_model=_costs(43.0),
    seeded_bug_sites=frozenset({
        ("SEGV", "cs101_asdu.c:CS101_ASDU_getCOT"),
        ("SEGV", "cs101_slave.c:lookup_object"),
        ("SEGV", "cs104_slave.c:handle_clock_sync"),
    }),
    description="Full CS101/CS104 ASDU stack (mz-automation lib60870 analog)",
))

_register(TargetSpec(
    name="opendnp3",
    framing="dnp3",
    paper_project="opendnp3",
    make_server=dnp3.Dnp3Server,
    make_pit=dnp3.make_pit,
    make_state_model=dnp3.make_state_model,
    cost_model=_costs(54.0),
    seeded_bug_sites=frozenset(),
    description="DNP3 outstation with CRC link layer (opendnp3 analog)",
))

_register(TargetSpec(
    name="libiec61850",
    framing="tpkt",
    paper_project="libiec61850",
    make_server=iec61850.Iec61850Server,
    make_pit=iec61850.make_pit,
    make_state_model=iec61850.make_state_model,
    cost_model=_costs(60.0),
    seeded_bug_sites=frozenset(),
    description="MMS server over TPKT/COTP/BER (libiec61850 analog)",
))

_register(TargetSpec(
    name="libiccp",
    framing="tpkt",
    paper_project="libiec iccp mod",
    make_server=iccp.IccpServer,
    make_pit=iccp.make_pit,
    make_state_model=iccp.make_state_model,
    cost_model=_costs(48.0),
    seeded_bug_sites=frozenset({
        ("SEGV", "iccp_im.c:im_lookup"),
        ("SEGV", "tase2_ts.c:ts_name_tail"),
        ("SEGV", "iccp_dv.c:dv_element"),
        ("heap-buffer-overflow", "iccp_dv.c:dv_write_copy"),
    }),
    description="TASE.2/ICCP endpoint (libiec_iccp_mod analog)",
))

#: evaluation order used throughout the benchmarks (paper Fig. 4 order)
TARGET_NAMES = ("libmodbus", "iec104", "libiec61850", "lib60870",
                "libiccp", "opendnp3")


def get_target(name: str) -> TargetSpec:
    """Look up a target by registry name; raises KeyError with choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; choices: {sorted(_REGISTRY)}") from None


def all_targets() -> Tuple[TargetSpec, ...]:
    """All six targets, in the paper's Fig. 4 order."""
    return tuple(_REGISTRY[name] for name in TARGET_NAMES)
