"""Host-speed calibration: a fixed pure-Python loop.

The loop imports nothing from ``repro`` (and nothing else), so its rate
moves only with the host and the interpreter, never with the code under
test.  Its operation mix mirrors the fuzzing hot path: Python-level
calls, slotted attribute reads and writes, dict and list updates, bytes
indexing and small-int arithmetic.  ``run.py`` runs it between the
seeded campaigns of every run and rescales the measured execution rate
by ``REFERENCE_OPS_PER_S / <this run's rate>``.
"""

from __future__ import annotations

import time

#: calibration rate of the reference host (2-core x86-64 VM, CPython
#: 3.11.7); ``norm_execs_per_s`` is expressed at this speed
REFERENCE_OPS_PER_S = 2_000_000.0

#: loop iterations per timed slice (~20 ms at the reference speed)
SAMPLE_OPS = 40_000
#: slices per sample; their median is the sample, which keeps a
#: preempted slice or two from skewing it
SAMPLE_SLICES = 5

#: checksum of one ``SAMPLE_OPS`` loop; a different value means the loop
#: did not run as written
EXPECTED_CHECKSUM = 39904


class _Cell:
    __slots__ = ("value", "trail")

    def __init__(self, value: int):
        self.value = value
        self.trail = []


def _step(cell: _Cell, table: dict, data: bytes, index: int) -> int:
    value = (cell.value * 31 + data[index & 1023]) & 0xFFFF
    slot = value & 0xFF
    table[slot] = table.get(slot, 0) + 1
    cell.value = value
    return value


def calibration_loop(ops: int) -> int:
    """Run the fixed loop for *ops* iterations; returns its checksum."""
    data = bytes(range(256)) * 4
    table: dict = {}
    cell = _Cell(7)
    checksum = 0
    for index in range(ops):
        checksum ^= _step(cell, table, data, index)
        if index % 7 == 0:
            cell.trail.append(checksum)
            if len(cell.trail) > 64:
                cell.trail.clear()
    return checksum ^ len(table)


def sample() -> float:
    """One calibration sample, in loop iterations per second."""
    rates = []
    for _ in range(SAMPLE_SLICES):
        start = time.perf_counter()
        checksum = calibration_loop(SAMPLE_OPS)
        rates.append(SAMPLE_OPS / (time.perf_counter() - start))
        if checksum != EXPECTED_CHECKSUM:
            raise RuntimeError(f"calibration checksum {checksum} != "
                               f"{EXPECTED_CHECKSUM}")
    return sorted(rates)[len(rates) // 2]
