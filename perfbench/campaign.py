"""One timed campaign in a fresh process, for ``--trace 0`` runs.

``run.py`` starts this script once per campaign, so every campaign pays
what a ``peachstar fuzz`` process pays and shows what only a fresh
process shows: set-up time (interpreter start, imports, pit,
``make_engine``, workspace initialisation) up to the first execution,
and peak resident memory.  The calibration samples around the campaign
are taken here, not in the parent, because the parent may run on
another core whose speed differs.  It prints one JSON line::

    {"setup_s": <seconds from the parent's spawn to the first execution,
                 less the calibration sample taken in between>,
     "wall_s": <seconds inside run_one: the whole campaign, make_engine
                included, imports not>,
     "calibration_before": ..., "calibration_after": <samples, ops/s>,
     "peak_rss_kib": <ru_maxrss once the campaign has ended>}

and pickles the CampaignResult to ``<workdir>/result.pickle`` for the
output checks, which the parent runs.

    python3 perfbench/campaign.py <workload> <seed> <empty workdir> \\
        <time.monotonic() at spawn>
"""

import json
import os
import pickle
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402  (needs the src/ path above)
from tracing import EXECUTION_ENTRY_POINTS  # noqa: E402


def time_first_execution(spawned: float) -> list:
    """Record ``monotonic() - spawned`` when an execution first starts.

    The wrappers take themselves out on that first call; a bound method
    cached before then only re-checks a flag.  Returns the list the
    time is appended to.
    """
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr in EXECUTION_ENTRY_POINTS]
    first_at = []

    def once(fn):
        def first(*args, **kwargs):
            if not first_at:
                first_at.append(time.monotonic() - spawned)
                for owner, attr, original in originals:
                    setattr(owner, attr, original)
            return fn(*args, **kwargs)
        return first

    for owner, attr, original in originals:
        setattr(owner, attr, once(original))
    return first_at


if __name__ == "__main__":
    name, seed, workdir, spawned = sys.argv[1:5]
    first_at = time_first_execution(float(spawned))
    # the sample runs between spawn and the first execution; its time is
    # the benchmark's, not the program's, so set-up time leaves it out
    sampled = time.monotonic()
    calibration_before = calibrate.sample()
    sample_s = time.monotonic() - sampled
    start = time.perf_counter()
    result = workloads.run_one(workloads.WORKLOADS[name], int(seed), workdir)
    wall = time.perf_counter() - start
    calibration_after = calibrate.sample()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(workdir, "result.pickle"), "wb") as handle:
        pickle.dump(result, handle)
    print(json.dumps({"setup_s": first_at[0] - sample_s, "wall_s": wall,
                      "calibration_before": calibration_before,
                      "calibration_after": calibration_after,
                      "peak_rss_kib": peak}))
