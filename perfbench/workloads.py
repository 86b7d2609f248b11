"""The three benchmark workloads, driven through the public campaign API.

Each workload is a list of seeded Peach* campaigns at a fixed simulated
budget, run back to back in one process.  A campaign goes through
``make_engine``/``run_campaign``/``resume_campaign`` exactly as a user
would call them; nothing here reaches into the engine's loop.

The output checks (``check_campaign``) run outside every timed region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro import CampaignConfig, get_target, resume_campaign, run_campaign
from repro.net.config import NetConfig

ENGINE = "peach-star"
#: simulated budget of every campaign (the paper's 24 h)
BUDGET_HOURS = 24.0


@dataclass(frozen=True)
class Workload:
    name: str
    target: str
    #: campaigns in a run of BENCHMARK.json's ``run_seconds``; a run of
    #: ``--seconds S`` scales it by ``S / run_seconds``, a count fixed by
    #: S alone so that ``paths`` never depends on host speed
    campaigns: int
    sessions: bool = False
    channel_faults: float = 0.0
    #: drive the target over a loopback TCP socket (``NetConfig()``)
    socket: bool = False
    #: persist to a workspace, kill after this many executions, resume
    kill_after: Optional[int] = None

    def campaign_seeds(self, seed: int, seconds: float,
                       run_seconds: float) -> List[int]:
        """The campaign seeds of a run of *seconds* seeded *seed*."""
        count = max(2, round(self.campaigns * seconds / run_seconds))
        return [seed * 1000 + index for index in range(count)]

    def config(self, *, hours: Optional[float] = None,
               workspace: Optional[str] = None,
               in_process: bool = False) -> CampaignConfig:
        return CampaignConfig(
            budget_hours=BUDGET_HOURS if hours is None else hours,
            sessions=self.sessions,
            channel_faults=self.channel_faults,
            net=NetConfig() if self.socket and not in_process else None,
            workspace=workspace)


WORKLOADS = {w.name: w for w in (
    # the headline campaign: single-packet, in process, batched hot path;
    # store/net/channel/state do no work here
    # ~1.05 s per campaign at the reference calibration speed
    Workload("modbus-inproc", "libmodbus", campaigns=14),
    # heaviest server and production, journals straddle the vector
    # threshold; the only workload that writes and restores a workspace.
    # 24 h is ~1325 executions, so 660 is the midpoint.  ~3.5 s per
    # campaign, so a run measures longer than run_seconds: its paths and
    # rate vary most from seed to seed, and fewer campaigns spread wider
    Workload("iec61850-workspace", "libiec61850", campaigns=7,
             kill_after=660),
    # hand-written iec104 sessions over loopback TCP with channel faults
    # (which attach the differential oracle): net, channel, state and the
    # model's parse side; bypasses the batched loop and the vector path.
    # ~2.1 s per campaign
    Workload("iec104-sessions-socket", "iec104", campaigns=7,
             sessions=True, channel_faults=0.1, socket=True),
)}


def run_one(workload: Workload, seed: int, workdir: str, *,
            hours: Optional[float] = None):
    """Run one campaign of *workload*; returns its CampaignResult.

    The workspace workload persists into ``<workdir>/ws`` (*workdir* is
    an empty directory the caller removes), is killed after
    ``kill_after`` executions (scaled to *hours*) and resumed to the end
    of its budget.
    """
    spec = get_target(workload.target)
    if workload.kill_after is None:
        return run_campaign(ENGINE, spec, seed=seed,
                            config=workload.config(hours=hours))
    budget = BUDGET_HOURS if hours is None else hours
    kill_after = max(1, round(workload.kill_after * budget / BUDGET_HOURS))
    config = workload.config(hours=hours,
                             workspace=os.path.join(workdir, "ws"))
    killed = run_campaign(ENGINE, spec, seed=seed, config=config,
                          stop_after_executions=kill_after)
    if killed is not None:
        raise RuntimeError(f"{workload.name} seed {seed} finished before "
                           f"the kill at {kill_after} executions")
    return resume_campaign(config.workspace)


def signature(result) -> tuple:
    """What a resumed or socket campaign must reproduce exactly."""
    return (result.final_paths, tuple(result.path_hashes),
            sorted(crash.dedup_key for crash in result.unique_crashes),
            sorted(result.stats.items()))


def check_campaign(workload: Workload, result, *,
                   hours: Optional[float] = None,
                   twin: bool = True) -> List[str]:
    """Output checks for one campaign; returns the failures found.

    Every campaign must spend its whole simulated budget and report only
    crashes at the target's seeded bug sites.  With *twin*, the
    workspace workload must equal a same-seed uninterrupted in-memory
    run, and the socket workload its in-process twin; the twin runs
    here, so call this outside any timed region.
    """
    failures = []
    where = f"{workload.name} seed {result.seed}"
    budget = BUDGET_HOURS if hours is None else hours
    config = workload.config(hours=hours)
    end_hours = result.series[-1][0] if result.series else 0.0
    if end_hours < budget or result.executions >= config.max_executions:
        failures.append(f"{where}: stopped at {end_hours:.3f} h and "
                        f"{result.executions} executions, short of the "
                        f"{budget} h budget")
    seeded = get_target(workload.target).seeded_bug_sites
    for crash in result.unique_crashes:
        if crash.dedup_key not in seeded:
            failures.append(f"{where}: crash {crash.dedup_key} is not a "
                            "seeded bug site")
    twin_config = None
    if twin and workload.kill_after is not None:
        twin_config = config
    elif twin and workload.socket:
        twin_config = workload.config(hours=hours, in_process=True)
    if twin_config is not None:
        twin = run_campaign(ENGINE, get_target(workload.target),
                            seed=result.seed, config=twin_config)
        if signature(twin) != signature(result):
            kind = "uninterrupted in-memory" if workload.kill_after \
                else "in-process"
            failures.append(f"{where}: signature differs from its {kind} "
                            "twin")
    return failures
