"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

* ``paths`` and crashes do not depend on the checkout path, so a parent
  and a change may be measured from different checkouts;
* the ``calls.*`` counts repeat exactly;
* the span checks behind the self-time accounting can fail;
* the output checks reject a broken result;
* ``run.py`` prints every metric ``BENCHMARK.json`` declares, and fails
  without printing a result where there is no program to measure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: simulated budget of the short campaigns these tests run
SHORT_HOURS = 6.0
SEED = 3

_RUN_IN_COPY = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import repro, workloads
assert repro.__file__.startswith(sys.argv[1]), repro.__file__
result = workloads.run_one(workloads.WORKLOADS[sys.argv[3]],
                           int(sys.argv[4]), sys.argv[5],
                           hours=float(sys.argv[6]))
print(json.dumps({"paths": result.final_paths,
                  "crashes": sorted(map(list, (crash.dedup_key for crash
                                               in result.unique_crashes)))}))
"""


def _clean_env() -> dict:
    return {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONPATH"}


def _copy_checkout(dest, *, with_src: bool = True) -> str:
    ignore = shutil.ignore_patterns("__pycache__")
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src",
                        ignore=ignore)
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return str(dest)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_paths_and_crashes_do_not_depend_on_the_checkout(name, tmp_path):
    outcomes = []
    for copy in ("a", "b"):
        src = _copy_checkout(tmp_path / copy) + "/src"
        workdir = tmp_path / f"work-{copy}"
        workdir.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _RUN_IN_COPY, src, HERE, name,
             str(SEED), str(workdir), str(SHORT_HOURS)],
            capture_output=True, text=True, env=_clean_env(), timeout=300)
        assert done.returncode == 0, done.stderr
        outcomes.append(json.loads(done.stdout.splitlines()[-1]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]["paths"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_call_counts_repeat_exactly(name, tmp_path):
    passes = []
    for index in range(2):
        workdir = tmp_path / str(index)
        workdir.mkdir()
        _, calls = tracing.count_layer_calls(lambda: workloads.run_one(
            workloads.WORKLOADS[name], SEED, str(workdir),
            hours=SHORT_HOURS))
        passes.append(calls)
    assert passes[0] == passes[1]
    assert passes[0]["protocols"] > 0 and passes[0]["model"] > 0


def test_every_traced_span_is_in_one_self_time():
    tracer = tracing.Tracer()
    tracer.install()()
    listed = [span for spans in run.SELF_TIME_SPANS.values()
              for span in spans]
    assert sorted(listed) == sorted(set(tracer.span_names))


def test_spans_that_do_not_nest_are_counted():
    nested, crossed = tracing.Tracer(), tracing.Tracer()
    #: name, start, end, parent, campaign, exec
    nested.spans = [["Target.run", 0.0, 2.0, -1, 1, 1],
                    ["DataModel.parse", 0.5, 1.5, 0, 1, 1]]
    # a child that ends after its parent: both self times stay positive
    crossed.spans = [["Target.run", 0.0, 2.0, -1, 1, 1],
                     ["DataModel.parse", 1.5, 2.5, 0, 1, 1]]
    nested.summarize()
    crossed.summarize()
    assert (nested.unnested, crossed.unnested) == (0, 1)
    assert nested.covered_s == 2.0


def test_output_checks_reject_broken_results(tmp_path):
    workload = workloads.WORKLOADS["iec104-sessions-socket"]
    result = workloads.run_one(workload, SEED, str(tmp_path),
                               hours=SHORT_HOURS)
    assert workloads.check_campaign(workload, result,
                                    hours=SHORT_HOURS) == []

    foreign = types.SimpleNamespace(dedup_key=("SEGV", "nowhere.c:f"))
    broken = {
        "not a seeded bug site": dataclasses.replace(
            result, unique_crashes=[foreign]),
        "short of the": dataclasses.replace(
            result, series=result.series[:1]),
        "in-process twin": dataclasses.replace(
            result, path_hashes=result.path_hashes[:-1]),
    }
    for message, bad in broken.items():
        failures = workloads.check_campaign(workload, bad,
                                            hours=SHORT_HOURS)
        assert any(message in failure for failure in failures), failures


def _run(checkout: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modbus-inproc",
         "--seed", "1", "--seconds", "1", *args],
        cwd=checkout, capture_output=True, text=True, env=_clean_env(),
        timeout=600)


def test_run_prints_every_declared_metric(tmp_path):
    checkout = _copy_checkout(tmp_path / "checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(checkout, "--trace", trace)
        assert done.returncode == 0, done.stderr
        verdict = json.loads(done.stdout.splitlines()[-1])
        assert verdict["correct"] is True and verdict["failed"] == 0
        assert verdict["attempted"] > 0
        declared = {entry["name"]: entry["unit"] for entry in bench[section]}
        assert {name: metric["unit"] for name, metric
                in verdict["metrics"].items()} == declared


def test_run_fails_without_a_program(tmp_path):
    checkout = _copy_checkout(tmp_path / "bare", with_src=False)
    done = _run(checkout, "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
