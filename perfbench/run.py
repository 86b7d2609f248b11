"""Peach* repository benchmark: one workload, one seed, one JSON verdict.

    python3 perfbench/run.py --workload modbus-inproc --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` runs each of the workload's campaigns in its own process
(``campaign.py``) and prints the end-to-end metrics.  ``--trace 1`` runs
them in this process, untimed and then traced, runs the first one again
under a call counter, replays executed inputs through a bare and an
instrumented target, and prints the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``; ``perfbench/README.md`` defines each.
The last line of standard output is the JSON verdict; a failed output
check prints ``"correct": false`` without numbers and exits 1.  Every
result is also written, with the recorded environment, under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: variables that would change what the campaigns run; cleared so every
#: run resolves the defaults (the resolved values are recorded)
PINNED_ENV = ("REPRO_COVERAGE_BACKEND", "REPRO_COVERAGE_IMPL", "REPRO_JOBS")
PINNED_PREFIX = "REPRO_BENCH_"
#: campaigns per run whose twin (resumed vs uninterrupted, socket vs
#: in-process) is run and compared; each twin costs a whole campaign
TWIN_CHECKS = 2
#: the per-layer self times and the spans each one sums; with
#: campaign.residual_us_per_exec they partition the traced pass, if every
#: traced span is listed here once (see README.md, *Accounting*)
SELF_TIME_SPANS = {
    "model.generate_us_per_exec": ("generate_packet",),
    "model.build_us_per_exec": ("DataModel.build",),
    "model.parse_us_per_exec": ("DataModel.parse",),
    "core.semantic.construct_us_per_exec": ("SemanticGenerator.construct",),
    "core.cracker.crack_us_per_exec": ("FileCracker.crack",),
    "core.seedpool.consider_us_per_exec": ("SeedPool.consider",),
    "runtime.target.self_us_per_exec":
        ("Target.run", "Target.run_into", "Target.run_trace"),
    # session campaigns count trace steps as executions
    "net.run_trace_us_per_step": ("SocketTarget.run_trace",),
    "store.self_us_per_exec": ("CampaignWorkspace.checkpoint",
                               "CampaignWorkspace.record_seed",
                               "CampaignWorkspace.restore"),
    "channel.oracle_us_per_exec": ("DifferentialOracle.examine",),
    "state.binder_us_per_step": ("TraceBinder.prepare", "TraceBinder.observe"),
}


def pin_environment() -> None:
    for key in list(os.environ):
        if key in PINNED_ENV or key.startswith(PINNED_PREFIX):
            del os.environ[key]


def recorded_environment() -> Dict[str, object]:
    """What a result depends on besides the code (see compare.py)."""
    from repro.runtime.coverage import resolve_coverage_impl
    from repro.runtime.instrument import resolve_backend
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": resolve_backend("auto"),
        "coverage_impl": resolve_coverage_impl("auto"),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "checkout": ROOT,
    }


@dataclass
class Pass:
    """The campaigns of one pass, timed one by one."""

    results: List = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    #: the calibration samples before and after each campaign, in turn
    calibration: List[float] = field(default_factory=list)
    #: wall time rescaled to the reference host's calibration speed
    ref_s: float = 0.0
    #: per campaign, when each ran in its own process: seconds from
    #: spawn to the first execution, and peak RSS
    setups: List[float] = field(default_factory=list)
    peaks_mib: List[float] = field(default_factory=list)

    def add_campaign(self, wall: float, before: float,
                     after: float) -> None:
        """Record a campaign's wall time and the calibration samples
        taken just before and after it; rescaling the time by their mean
        makes host-speed changes within the run cancel out of the rate."""
        self.walls.append(wall)
        self.calibration += [before, after]
        self.ref_s += wall * (before + after) / 2 \
            / calibrate.REFERENCE_OPS_PER_S

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def executions(self) -> int:
        return sum(result.executions for result in self.results)

    def stat(self, name: str) -> int:
        return sum(result.stats[name] for result in self.results)

    def rates(self) -> Dict[str, float]:
        """The raw and calibration rates behind the normalized rate."""
        return {"raw_execs_per_s": self.executions / self.wall_s,
                "calib_ops_per_s": statistics.median(self.calibration),
                "norm_execs_per_s": self.executions / self.ref_s}

    @property
    def harness_failures(self) -> int:
        """Net timeouts and reconnects; crashes and hangs are findings."""
        return self.stat("net_timeouts") + self.stat("net_reconnects")

    def campaigns(self) -> List[dict]:
        rows = [{"seed": result.seed, "executions": result.executions,
                 "paths": result.final_paths, "wall_s": wall,
                 "calibration_before": before, "calibration_after": after}
                for result, wall, before, after in zip(
                    self.results, self.walls, self.calibration[::2],
                    self.calibration[1::2])]
        for row, setup, peak in zip(rows, self.setups, self.peaks_mib):
            row.update(setup_s=setup, peak_rss_mib=peak)
        return rows


def run_pass(workload, seeds, scratch: str, tracer=None) -> Pass:
    """Run the campaigns back to back in this process (trace runs)."""
    import workloads
    done = Pass()
    after = calibrate.sample()
    for seed in seeds:
        workdir = tempfile.mkdtemp(prefix="campaign-", dir=scratch)
        if tracer is not None:
            tracer.begin_campaign()
        before = after
        start = time.perf_counter()
        result = workloads.run_one(workload, seed, workdir)
        wall = time.perf_counter() - start
        after = calibrate.sample()
        shutil.rmtree(workdir)
        done.results.append(result)
        done.add_campaign(wall, before, after)
    return done


def run_in_processes(workload, seeds, scratch: str) -> Pass:
    """Run each campaign in its own process (``campaign.py``).

    The process reports the campaign's wall time with the calibration
    samples taken around it, its set-up time and its peak memory.
    """
    script = os.path.join(HERE, "campaign.py")
    done = Pass()
    for seed in seeds:
        workdir = tempfile.mkdtemp(prefix="campaign-", dir=scratch)
        child = subprocess.run(
            [sys.executable, script, workload.name, str(seed), workdir,
             repr(time.monotonic())],
            capture_output=True, text=True, timeout=150)
        if child.returncode != 0:
            raise RuntimeError(f"campaign {seed} exited with "
                               f"{child.returncode}:\n{child.stderr}")
        report = json.loads(child.stdout.splitlines()[-1])
        with open(os.path.join(workdir, "result.pickle"), "rb") as handle:
            done.results.append(pickle.load(handle))
        shutil.rmtree(workdir)
        done.add_campaign(report["wall_s"], report["calibration_before"],
                          report["calibration_after"])
        done.setups.append(report["setup_s"])
        done.peaks_mib.append(report["peak_rss_kib"] / 1024)
    return done


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def check_pass(workload, done: Pass) -> List[str]:
    import workloads
    failures = []
    for index, result in enumerate(done.results):
        failures += workloads.check_campaign(
            workload, result, twin=index < TWIN_CHECKS)
    return failures


def end_to_end(workload, seeds, scratch: str) -> tuple:
    # the campaigns run before any other work here: a child's ru_maxrss
    # starts from this process's RSS at spawn
    done = run_in_processes(workload, seeds, scratch)
    speed = statistics.median(done.calibration) \
        / calibrate.REFERENCE_OPS_PER_S
    failed = done.harness_failures
    metrics = {
        "norm_execs_per_s": done.rates()["norm_execs_per_s"],
        "paths": sum(result.final_paths for result in done.results),
        # set-up is mostly imports, whose speed follows the host's slow
        # and fast phases but not the calibration's moment-to-moment
        # jitter, so it is rescaled by the median sample
        "setup_s": statistics.median(done.setups) * speed,
        # a mean, not a median: on the workspace workload peak memory is
        # bimodal across seeds (the largest checkpoint dominates it) and
        # a median of a few campaigns flips between the modes
        "peak_rss_mb": statistics.mean(done.peaks_mib),
        "ok_exec_ratio": (done.executions - failed) / done.executions,
    }
    return metrics, done, check_pass(workload, done)


def per_layer(workload, seeds, scratch: str, spans_path: str) -> tuple:
    import tracing
    import workloads
    from repro import get_target

    untimed = run_pass(workload, seeds, scratch)
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        traced = run_pass(workload, seeds, scratch, tracer)
    finally:
        uninstall()
    tracer.summarize()
    tracer.write(spans_path)
    workdir = tempfile.mkdtemp(prefix="calls-", dir=scratch)
    counted, calls = tracing.count_layer_calls(
        lambda: workloads.run_one(workload, seeds[0], workdir))
    shutil.rmtree(workdir)
    spec = get_target(workload.target)
    replay_execs = sum(len(steps) for steps in tracer.replay)
    bare_s = tracing.replay_seconds(spec, tracer.replay,
                                    sessions=workload.sessions,
                                    instrumented=False)
    instrumented_s = tracing.replay_seconds(spec, tracer.replay,
                                            sessions=workload.sessions,
                                            instrumented=True)

    failures = check_pass(workload, untimed)
    for name, other in (("traced", traced.results),
                        ("call-counted", [counted])):
        for mine, theirs in zip(untimed.results, other):
            if workloads.signature(mine) != workloads.signature(theirs):
                failures.append(f"{workload.name} seed {mine.seed}: the "
                                f"{name} run changed the campaign")

    execs = traced.executions
    host = traced.ref_s / traced.wall_s  # to reference-host seconds
    self_s, calls_n, counts = tracer.self_s, tracer.calls, tracer.counts
    durations = tracer.durations

    def us(seconds: float) -> float:
        return seconds * host * 1e6 / execs

    def self_us(*names: str) -> float:
        return us(sum(self_s[name] for name in names))

    target_durations = [d for name in tracing.TARGET_SPANS
                        for d in durations[name]]
    steps = counts["steps"]
    metrics = {
        "campaign.wall_s": untimed.wall_s,
        "campaign.raw_execs_per_s": untimed.executions / untimed.wall_s,
        "campaign.calib_ops_per_s": statistics.median(untimed.calibration),
        "campaign.residual_us_per_exec":
            us(traced.wall_s - tracer.covered_s),
        "campaign.trace_overhead_ratio": traced.ref_s / untimed.ref_s - 1,
        "model.builds_per_exec": calls_n["DataModel.build"] / execs,
        "model.parses_per_exec": calls_n["DataModel.parse"] / execs,
        "core.semantic.executed_ratio":
            traced.stat("semantic_executions")
            / max(1, counts["spliced_built"]),
        # read from each campaign's final engine once it has ended
        "core.semantic.pending_at_end":
            sum(len(engine._pending) for engine in tracer.engines.values()),
        "core.cracker.cache_hit_ratio":
            tracer.crack_cache_hits() / max(1, calls_n["FileCracker.crack"]),
        "core.seedpool.valuable_ratio":
            counts["valuable"] / max(1, calls_n["SeedPool.consider"]),
        "runtime.target.exec_us_p50":
            percentile(target_durations, 50) * host * 1e6,
        "runtime.target.exec_us_p99":
            percentile(target_durations, 99) * host * 1e6,
        "runtime.target.exec_samples": len(target_durations),
        "runtime.instrument_us_per_exec":
            (instrumented_s - bare_s) * host * 1e6 / max(1, replay_execs),
        "runtime.blocks_per_exec": counts["blocks"] / execs,
        "runtime.journal_len_p50": percentile(tracer.journal_lens, 50),
        "runtime.journal_len_p90": percentile(tracer.journal_lens, 90),
        "runtime.edges": sum(r.final_edges for r in traced.results),
        "protocols.server_us_per_exec":
            bare_s * host * 1e6 / max(1, replay_execs),
        "store.checkpoints": calls_n["CampaignWorkspace.checkpoint"],
        "store.checkpoint_ms_p50": percentile(
            durations["CampaignWorkspace.checkpoint"], 50) * host * 1e3,
        "store.state_bytes": tracer.state_bytes,
        "store.record_seed_us_per_exec":
            self_us("CampaignWorkspace.record_seed"),
        "store.restore_ms": percentile(
            durations["CampaignWorkspace.restore"], 50) * host * 1e3,
        "net.frames_per_step": counts["frames"] / max(1, steps),
        "net.timeouts": traced.stat("net_timeouts"),
        "net.reconnects": traced.stat("net_reconnects"),
        "channel.faults_per_frame": traced.stat("channel_faults") / execs,
        "channel.divergences":
            sum(len(r.unique_divergences) for r in traced.results),
        "state.steps_per_trace": steps / max(1, counts["traces"]),
        "findings.unique_crashes":
            sum(len(r.unique_crashes) for r in traced.results),
    }
    metrics.update({name: self_us(*spans)
                    for name, spans in SELF_TIME_SPANS.items()})
    for layer in ("model", "core", "runtime", "protocols", "sanitizer",
                  "store", "net", "channel", "state"):
        metrics[f"calls.{layer}_per_exec"] = \
            calls[layer] / counted.executions

    # the self times and the residual partition the traced time only if
    # every traced span is reported once, spans nest, and the top-level
    # spans fit inside the campaigns' wall time
    listed = [span for spans in SELF_TIME_SPANS.values()
              for span in spans]
    if len(set(listed)) != len(listed) \
            or set(listed) != set(tracer.span_names):
        failures.append(f"traced spans {sorted(set(tracer.span_names))} "
                        f"are not each in one self time: {listed}")
    if tracer.unnested:
        failures.append(f"{tracer.unnested} spans outlasted by their "
                        "children: spans do not nest")
    if tracer.covered_s > traced.wall_s:
        failures.append(f"spans cover {tracer.covered_s:.3f} s of a "
                        f"{traced.wall_s:.3f} s traced pass")
    return metrics, untimed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its campaign process and removes its
    # scratch directory: SystemExit unwinds through both
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    pin_environment()
    sys.path.insert(0, SRC)
    import repro
    import workloads
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: "
                     + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    seeds = workload.campaign_seeds(args.seed, args.seconds,
                                    bench["run_seconds"])
    declared = bench["per_layer" if args.trace else "end_to_end"]

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(OUT, "tmp"))
    try:
        if args.trace:
            metrics, done, failures = per_layer(
                workload, seeds, scratch,
                os.path.join(OUT, f"{stem}-spans.jsonl.gz"))
        else:
            metrics, done, failures = end_to_end(workload, seeds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        failures.append("measured metrics differ from BENCHMARK.json: "
                        f"{sorted(set(names) ^ set(metrics))}")
    correct = not failures
    reported = {entry["name"]: {"value": metrics[entry["name"]],
                                "unit": entry["unit"]}
                for entry in declared} if correct else {}
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": recorded_environment(),
              "rates": done.rates(), "campaigns": done.campaigns(),
              "correct": correct,
              "failures": failures, "metrics": reported}
    with open(os.path.join(OUT, f"{stem}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"campaigns={len(seeds)}")
    print("environment: " + json.dumps(record["environment"],
                                       sort_keys=True))
    print("rates: " + json.dumps(record["rates"]))
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, entry in reported.items():
        print(f"  {name:<40} {entry['value']:>16.4f} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": done.executions,
                      "failed": done.harness_failures,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
