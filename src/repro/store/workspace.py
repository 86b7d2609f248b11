"""CampaignWorkspace: everything a campaign needs to survive its process.

Layout of a workspace directory::

    <root>/
      config.json     campaign manifest: engine, target, seed, config
                      (including the live-network NetConfig, when set —
                      a killed socket campaign resumes with the exact
                      transport scenario it started with: url, framing,
                      timeout/reconnect axes, concurrency degree)
      state.json      atomic checkpoint (RNG/clock/corpus/stats snapshot)
      corpus/         one <exec>.bin + <exec>.json per valuable seed
      crashes/        one <slug>.bin + <slug>.json per unique crash
      divergences/    one <slug>.bin + <slug>.json per unique
                      differential-oracle finding (faulted campaigns)
      coverage.jsonl  sparse coverage journal, one line per valuable seed
      series.jsonl    paths-over-time samples (the Fig. 4 series)
      result.json     final summary, written when the campaign completes
      repro/          triage output (minimized reproducers), if any

``state.json`` is the recovery point: it is rewritten atomically (tmp +
rename) every ``checkpoint_every`` executions and captures *all* mutable
engine state — main and corpus RNG states, the simulated clock, engine
stats, the puzzle-corpus store (order-preserving: donor sampling and
eviction tie-breaks are order-sensitive), cracker counters and the
pending semantic queue.  The append-only files (corpus, crashes,
coverage/series journals) may run ahead of the last checkpoint when the
process is killed; :meth:`CampaignWorkspace.restore` prunes them back to
the checkpoint and the resumed campaign deterministically regenerates
the pruned tail, which is why a killed-and-resumed campaign finishes
bit-identical to an uninterrupted one.

This module deliberately imports nothing from :mod:`repro.core` at
module level (the campaign driver imports it); engine classes are only
touched through attributes and late imports.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.model import ModelError
from repro.runtime.coverage import BUCKET_LUT
from repro.sanitizer.report import CrashReport
from repro.util import fs_slug

#: bump when the on-disk layout changes incompatibly (2: pending queue
#: as splice plans; coverage block ids hash package-relative paths;
#: 3: edges come from block probes, so a virgin map of format 2 means
#: something else)
STATE_FORMAT = 3


class WorkspaceError(RuntimeError):
    """Raised for missing, corrupt or conflicting workspace state."""


def _atomic_write(path: str, payload: str) -> None:
    """Durably replace *path* with *payload*.

    The rename alone is not enough: without flushing and fsyncing the
    tmp file first, a power loss after ``os.replace`` can leave an empty
    or torn file under the final name — the data may still be in page
    cache when the rename hits the journal.  The directory fsync then
    persists the rename itself.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _rng_state_to_json(state) -> list:
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(blob) -> tuple:
    version, internal, gauss = blob
    return (version, tuple(internal), gauss)


# -- pending semantic queue ---------------------------------------------------
#
# Pending entries are splice plans: donor leaf values plus the build seed
# that fills every other decision, so an entry is a few hundred bytes of
# pure JSON — no pickle, so resuming a workspace from an untrusted source
# cannot execute code.

def _value_to_json(value):
    if isinstance(value, bytes):
        return {"b": value.hex()}
    return value


def _value_from_json(blob):
    if isinstance(blob, dict):
        return bytes.fromhex(blob["b"])
    return blob


def _pending_to_json(pending) -> list:
    return [{"model": model_name, "seed": plan.seed,
             "assignments": {path: _value_to_json(value)
                             for path, value in plan.assignments.items()}}
            for plan, model_name in pending]


def _pending_from_json(entries: list, pit) -> list:
    """Decode pending plans, checking each against *pit* without building.

    state.json is outside input: a plan naming a model or a leaf the pit
    does not have fails here, not when the plan is popped mid-campaign.
    """
    from repro.core.semantic import SplicePlan, leaf_paths  # late: layering
    known: Dict[str, frozenset] = {}
    pending = []
    for blob in entries:
        name = blob["model"]
        if name not in known:
            try:
                known[name] = leaf_paths(pit.model(name))
            except ModelError as exc:
                raise WorkspaceError(f"pending plan: {exc}") from exc
        unknown = sorted(set(blob["assignments"]) - known[name])
        if unknown:
            raise WorkspaceError(
                f"pending plan for model {name!r} pins unknown leaves "
                f"{unknown}; workspace is corrupt or from an incompatible "
                "version")
        assignments = {path: _value_from_json(value)
                       for path, value in blob["assignments"].items()}
        pending.append((SplicePlan(assignments, int(blob["seed"])), name))
    return pending


def _report_from_meta(meta: dict, packet: bytes) -> CrashReport:
    """Rebuild a persisted finding (crash or divergence, session
    context included)."""
    trace = meta.get("trace")
    oracle = meta.get("oracle")
    if oracle is not None:
        from repro.channel.oracle import DivergenceReport  # late: layering
        return DivergenceReport(
            kind=meta["kind"], site=meta["site"], detail=meta["detail"],
            packet=packet, model_name=meta["model_name"],
            execution_index=meta["execution_index"],
            oracle=oracle,
        )
    return CrashReport(
        kind=meta["kind"], site=meta["site"], detail=meta["detail"],
        packet=packet, model_name=meta["model_name"],
        execution_index=meta["execution_index"],
        call_sites=tuple(meta["call_sites"]),
        trace=bytes.fromhex(trace) if trace is not None else None,
        crash_step=meta.get("crash_step"),
    )


class CampaignWorkspace:
    """On-disk store for one campaign (create fresh, or attach to resume)."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.corpus_dir = os.path.join(self.root, "corpus")
        self.crashes_dir = os.path.join(self.root, "crashes")
        self.divergences_dir = os.path.join(self.root, "divergences")
        self.repro_dir = os.path.join(self.root, "repro")
        self.inbox_dir = os.path.join(self.root, "inbox")
        self._config_path = os.path.join(self.root, "config.json")
        self._state_path = os.path.join(self.root, "state.json")
        self._coverage_path = os.path.join(self.root, "coverage.jsonl")
        self._series_path = os.path.join(self.root, "series.jsonl")
        self._result_path = os.path.join(self.root, "result.json")
        #: fleet corpus-sync high-water mark: how many sync rounds this
        #: campaign has *applied*.  Persisted with every checkpoint so a
        #: kill between import application and the post-import checkpoint
        #: replays the round instead of double-importing (restore prunes
        #: the orphaned import records).  Always 0 outside a fleet.
        self.synced_rounds = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def has_state(self) -> bool:
        return os.path.exists(self._state_path)

    def initialize(self, engine_name: str, target_name: str, seed: int,
                   config_dict: dict) -> None:
        """Create a fresh workspace; refuses to clobber an existing one."""
        if self.has_state:
            raise WorkspaceError(
                f"workspace {self.root} already holds campaign state; "
                "use `peachstar resume` (or a fresh directory) instead")
        os.makedirs(self.corpus_dir, exist_ok=True)
        os.makedirs(self.crashes_dir, exist_ok=True)
        manifest = {
            "format": STATE_FORMAT,
            "engine": engine_name,
            "target": target_name,
            "seed": seed,
            "config": config_dict,
        }
        _atomic_write(self._config_path,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def load_manifest(self) -> dict:
        if not os.path.exists(self._config_path):
            raise WorkspaceError(f"{self.root} is not a campaign workspace "
                                 "(no config.json)")
        with open(self._config_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != STATE_FORMAT:
            raise WorkspaceError(
                f"workspace format {manifest.get('format')!r} is not "
                f"supported (expected {STATE_FORMAT})")
        return manifest

    # ------------------------------------------------------------------
    # incremental records (append-only; may run ahead of the checkpoint)
    # ------------------------------------------------------------------

    def record_sample(self, execution: int, hours: float,
                      paths: int) -> None:
        with open(self._series_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"exec": execution, "hours": hours,
                                     "paths": paths}) + "\n")

    def record_seed(self, seed, coverage_map) -> None:
        """Persist one valuable seed plus its coverage-journal line."""
        stem = os.path.join(self.corpus_dir,
                            f"{seed.execution_index:07d}")
        with open(stem + ".bin", "wb") as handle:
            handle.write(seed.packet)
        meta = {
            "execution_index": seed.execution_index,
            "model_name": seed.model_name,
            "sim_time_ms": seed.sim_time_ms,
            "edges_touched": seed.edges_touched,
            "path_hash": seed.path_hash,
        }
        _atomic_write(stem + ".json",
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")
        bucketed = [[index, BUCKET_LUT[count]]
                    for index, count in coverage_map.iter_hits()]
        with open(self._coverage_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "exec": seed.execution_index,
                "path_hash": seed.path_hash,
                "map": bucketed,
            }) + "\n")

    def record_import(self, seed, bucketed_map: List[List[int]],
                      sync_round: int, src_shard: int,
                      src_exec: int) -> None:
        """Persist one fleet-sync import exactly like a local discovery.

        The stem sorts *after* a local seed of the same execution index
        (``.`` < ``_``), matching the in-memory order: a seed discovered
        at the round boundary precedes the imports applied there.
        """
        stem = os.path.join(
            self.corpus_dir,
            f"{seed.execution_index:07d}_sync_r{sync_round:03d}"
            f"_s{src_shard:03d}_{src_exec:07d}")
        with open(stem + ".bin", "wb") as handle:
            handle.write(seed.packet)
        meta = {
            "execution_index": seed.execution_index,
            "model_name": seed.model_name,
            "sim_time_ms": seed.sim_time_ms,
            "edges_touched": seed.edges_touched,
            "path_hash": seed.path_hash,
            "sync_round": sync_round,
            "src_shard": src_shard,
            "src_exec": src_exec,
        }
        _atomic_write(stem + ".json",
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")
        with open(self._coverage_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "exec": seed.execution_index,
                "path_hash": seed.path_hash,
                "map": [list(pair) for pair in bucketed_map],
                "sync_round": sync_round,
            }) + "\n")

    # ------------------------------------------------------------------
    # fleet sync inbox (written by the fleet driver, consumed on resume)
    # ------------------------------------------------------------------

    def inbox_round_dir(self, sync_round: int) -> str:
        return os.path.join(self.inbox_dir, f"round_{sync_round:03d}")

    def write_inbox_entry(self, sync_round: int, src_shard: int,
                          src_exec: int, packet: bytes,
                          meta: dict) -> None:
        """Stage one selected cross-shard seed for the next round.

        Rewriting an entry is idempotent — a sync phase interrupted and
        redone produces byte-identical files.
        """
        directory = self.inbox_round_dir(sync_round)
        os.makedirs(directory, exist_ok=True)
        stem = os.path.join(directory,
                            f"s{src_shard:03d}_{src_exec:07d}")
        with open(stem + ".bin", "wb") as handle:
            handle.write(packet)
        _atomic_write(stem + ".json",
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")

    def load_inbox_rounds(self, after: int,
                          through: int) -> List[Tuple[int, List[dict]]]:
        """Staged sync rounds in ``(after, through]``, entries in the
        deterministic application order (source shard, source exec)."""
        rounds: List[Tuple[int, List[dict]]] = []
        for sync_round in range(after + 1, through + 1):
            directory = self.inbox_round_dir(sync_round)
            if not os.path.isdir(directory):
                continue
            entries = []
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    meta = json.load(handle)
                meta["_bin"] = path[:-len(".json")] + ".bin"
                entries.append(meta)
            if entries:
                rounds.append((sync_round, entries))
        return rounds

    def crash_stem(self, report: CrashReport) -> str:
        name = fs_slug(f"{report.kind}_{report.site}")
        return os.path.join(self.crashes_dir, name)

    def record_crash(self, report: CrashReport, hours: float) -> None:
        """Persist one *new unique* crash input plus its metadata."""
        stem = self.crash_stem(report)
        with open(stem + ".bin", "wb") as handle:
            handle.write(report.packet)
        meta = {
            "kind": report.kind,
            "site": report.site,
            "detail": report.detail,
            "model_name": report.model_name,
            "execution_index": report.execution_index,
            "hours": hours,
            "call_sites": list(report.call_sites),
        }
        if report.trace is not None:
            # session crash: the provoking step is in .bin; the full
            # trace needed to reproduce it rides along in the metadata
            meta["trace"] = report.trace.hex()
            meta["crash_step"] = report.crash_step
        _atomic_write(stem + ".json",
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")

    def record_divergence(self, report, hours: float) -> None:
        """Persist one *new unique* differential-oracle finding.

        Same .bin/.json pair as crashes, in ``divergences/`` — the
        ``oracle`` meta key is what routes the report back to
        :class:`~repro.channel.oracle.DivergenceReport` on load.
        """
        os.makedirs(self.divergences_dir, exist_ok=True)
        name = fs_slug(f"{report.kind}_{report.site}")
        stem = os.path.join(self.divergences_dir, name)
        # one trace can surface several findings at the same execution
        # index, so the index alone cannot reconstruct discovery order
        # on restore; an explicit sequence number does
        seq = sum(1 for entry in os.listdir(self.divergences_dir)
                  if entry.endswith(".json"))
        with open(stem + ".bin", "wb") as handle:
            handle.write(report.packet)
        meta = {
            "kind": report.kind,
            "site": report.site,
            "detail": report.detail,
            "model_name": report.model_name,
            "execution_index": report.execution_index,
            "seq": seq,
            "hours": hours,
            "oracle": report.oracle,
        }
        _atomic_write(stem + ".json",
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self, engine) -> None:
        """Atomically snapshot every piece of mutable engine state."""
        state = {
            "format": STATE_FORMAT,
            "synced_rounds": self.synced_rounds,
            "executions": engine.stats.executions,
            "target_executions": engine.target.executions,
            "clock_ms": engine.clock.now_ms,
            "rng_state": _rng_state_to_json(engine.rng.getstate()),
            "stats": engine.stats.as_dict(),
            "edges_seen": engine.seed_pool.coverage.edges_seen,
        }
        corpus = getattr(engine, "corpus", None)
        if corpus is not None:
            state["puzzle_corpus"] = {
                "rng_state": _rng_state_to_json(corpus.rng.getstate()),
                "max_per_rule": corpus.max_per_rule,
                "total_added": corpus.total_added,
                "total_reinforced": corpus.total_reinforced,
                # order matters twice over: donor sampling walks buckets
                # in insertion order and eviction ties consume RNG per
                # entry visited, so the snapshot is a list, not a map
                "store": [[signature, [[puzzle.hex(), count]
                                       for puzzle, count in bucket.items()]]
                          for signature, bucket in corpus._store.items()],
            }
            state["cracker"] = {
                "seeds_cracked": engine.cracker.seeds_cracked,
                "models_matched": engine.cracker.models_matched,
                "puzzles_deposited": engine.cracker.puzzles_deposited,
            }
            state["pending"] = _pending_to_json(engine._pending)
        state_model = getattr(engine, "state_model", None)
        if state_model is not None and hasattr(state_model, "snapshot"):
            # learned-state campaigns: the automaton is mutable engine
            # state (walks depend on it), so it checkpoints with the RNG
            state["learner"] = state_model.snapshot()
        channel = getattr(engine.target, "channel", None)
        if channel is not None:
            # faulted campaigns: the channel RNG draws per frame, so its
            # state must rewind with the engine RNG (stateless channels
            # snapshot to None and are skipped)
            snap = channel.snapshot()
            if snap is not None:
                state["channel"] = snap
        _atomic_write(self._state_path,
                      json.dumps(state, sort_keys=True) + "\n")

    def load_state(self) -> dict:
        if not self.has_state:
            raise WorkspaceError(f"{self.root} has no state.json to "
                                 "resume from")
        with open(self._state_path, encoding="utf-8") as handle:
            state = json.load(handle)
        if state.get("format") != STATE_FORMAT:
            raise WorkspaceError(
                f"state format {state.get('format')!r} is not supported "
                f"(expected {STATE_FORMAT})")
        return state

    def finalize(self, result_dict: dict) -> None:
        _atomic_write(self._result_path,
                      json.dumps(result_dict, indent=2, sort_keys=True)
                      + "\n")

    def load_result(self) -> Optional[dict]:
        if not os.path.exists(self._result_path):
            return None
        with open(self._result_path, encoding="utf-8") as handle:
            return json.load(handle)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def restore(self, engine) -> Tuple[List[Tuple[float, int]],
                                       Dict[tuple, float]]:
        """Rewind *engine* to the last checkpoint; returns (series,
        crash_times).

        Append-only records past the checkpoint are pruned — the resumed
        loop re-executes that window and regenerates them identically.
        """
        from repro.core.seedpool import ValuableSeed  # late: avoid cycle

        state = self.load_state()
        exec_limit = state["executions"]
        self.synced_rounds = state.get("synced_rounds", 0)

        engine.rng.setstate(_rng_state_from_json(state["rng_state"]))
        engine.clock.now_ms = state["clock_ms"]
        engine.target.executions = state["target_executions"]
        for name, value in state["stats"].items():
            setattr(engine.stats, name, value)

        # -- valuable seeds + global coverage --------------------------------
        pool = engine.seed_pool
        for meta in self._load_corpus_entries(exec_limit, prune=True,
                                              sync_limit=self.synced_rounds):
            with open(meta["_bin"], "rb") as handle:
                packet = handle.read()
            pool.seeds.append(ValuableSeed(
                packet=packet,
                model_name=meta["model_name"],
                tree=None,  # only consumed at crack time, already done
                execution_index=meta["execution_index"],
                sim_time_ms=meta["sim_time_ms"],
                edges_touched=meta["edges_touched"],
                path_hash=meta["path_hash"],
            ))
        virgin = pool.coverage.virgin
        for line in self._prune_jsonl(self._coverage_path, exec_limit,
                                      sync_limit=self.synced_rounds):
            for index, bucket in line["map"]:
                virgin[index] |= bucket
        pool.coverage.edges_seen = state["edges_seen"]

        # -- crash database ---------------------------------------------------
        crash_times: Dict[tuple, float] = {}
        for meta in self._load_crash_entries(exec_limit, prune=True):
            with open(meta["_bin"], "rb") as handle:
                packet = handle.read()
            report = _report_from_meta(meta, packet)
            engine.crashes.add(report, meta["hours"])
            crash_times[report.dedup_key] = meta["hours"]
        engine.crashes.total_crashes = state["stats"]["crashes_total"]

        # -- divergence database ----------------------------------------------
        for meta in self._load_divergence_entries(exec_limit, prune=True):
            with open(meta["_bin"], "rb") as handle:
                packet = handle.read()
            engine.divergences.add(_report_from_meta(meta, packet),
                                   meta["hours"])
        engine.divergences.total_crashes = \
            state["stats"].get("divergences_total", 0)

        # -- channel RNG -------------------------------------------------------
        if "channel" in state:
            channel = getattr(engine.target, "channel", None)
            if channel is None or not hasattr(channel, "restore"):
                raise WorkspaceError(
                    "workspace checkpoints a faulting channel but the "
                    "rebuilt engine has none; workspace is corrupt or "
                    "from an incompatible version")
            channel.restore(state["channel"])

        # -- Peach*-only state -------------------------------------------------
        corpus = getattr(engine, "corpus", None)
        if corpus is not None and "puzzle_corpus" in state:
            snap = state["puzzle_corpus"]
            corpus.rng.setstate(_rng_state_from_json(snap["rng_state"]))
            corpus.max_per_rule = snap["max_per_rule"]
            corpus.total_added = snap["total_added"]
            corpus.total_reinforced = snap["total_reinforced"]
            corpus._store = {
                signature: {bytes.fromhex(puzzle): count
                            for puzzle, count in bucket}
                for signature, bucket in snap["store"]
            }
            engine.cracker.seeds_cracked = state["cracker"]["seeds_cracked"]
            engine.cracker.models_matched = state["cracker"]["models_matched"]
            engine.cracker.puzzles_deposited = \
                state["cracker"]["puzzles_deposited"]
            engine.stats.puzzles = corpus.puzzle_count()
            engine._pending.clear()
            engine._pending.extend(
                _pending_from_json(state["pending"], engine.pit))

        # -- learned-state automaton ------------------------------------------
        if "learner" in state:
            state_model = getattr(engine, "state_model", None)
            if state_model is None or not hasattr(state_model, "restore"):
                raise WorkspaceError(
                    "workspace checkpoints a learned state automaton but "
                    "the rebuilt engine is not a learning session fuzzer; "
                    "workspace is corrupt or from an incompatible version")
            state_model.restore(state["learner"])

        series = [(line["hours"], line["paths"])
                  for line in self._prune_jsonl(self._series_path,
                                                exec_limit)]
        return series, crash_times

    # ------------------------------------------------------------------
    # readers (used by restore, triage and the analysis layer)
    # ------------------------------------------------------------------

    @staticmethod
    def _load_entries(directory: str, exec_limit: Optional[int] = None,
                      prune: bool = False,
                      sync_limit: Optional[int] = None) -> List[dict]:
        """Metadata (+ ``_bin`` path) of every ``.json``/``.bin`` pair in
        *directory*, sorted by execution index (name-order on ties, so a
        boundary seed precedes the imports applied at the same index);
        entries past *exec_limit* — or from a sync round past
        *sync_limit* — are skipped (and deleted when *prune* — the
        resumed loop regenerates them)."""
        entries = []
        if not os.path.isdir(directory):
            return entries
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                meta = json.load(handle)
            meta["_bin"] = path[:-len(".json")] + ".bin"
            stale = (exec_limit is not None
                     and meta["execution_index"] > exec_limit) or \
                    (sync_limit is not None
                     and meta.get("sync_round", 0) > sync_limit)
            if stale:
                if prune:
                    os.unlink(path)
                    if os.path.exists(meta["_bin"]):
                        os.unlink(meta["_bin"])
                continue
            entries.append(meta)
        # "seq" (divergence entries) breaks intra-execution ties in
        # discovery order; elsewhere it is absent and name order rules
        entries.sort(key=lambda meta: (meta["execution_index"],
                                       meta.get("seq", 0)))
        return entries

    def _load_corpus_entries(self, exec_limit: Optional[int] = None,
                             prune: bool = False,
                             sync_limit: Optional[int] = None) -> List[dict]:
        return self._load_entries(self.corpus_dir, exec_limit, prune,
                                  sync_limit)

    def _load_crash_entries(self, exec_limit: Optional[int] = None,
                            prune: bool = False) -> List[dict]:
        return self._load_entries(self.crashes_dir, exec_limit, prune)

    def _load_divergence_entries(self, exec_limit: Optional[int] = None,
                                 prune: bool = False) -> List[dict]:
        return self._load_entries(self.divergences_dir, exec_limit, prune)

    def _prune_jsonl(self, path: str, exec_limit: int,
                     sync_limit: Optional[int] = None) -> List[dict]:
        """Load a journal, drop entries past the checkpoint, rewrite.

        A record that does not decode is dropped too: a SIGKILL landing
        mid-append leaves a torn final line, which by construction is
        past the last checkpoint — the resumed loop regenerates it.
        """
        if not os.path.exists(path):
            return []
        kept: List[dict] = []
        dropped = False
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except ValueError:
                    dropped = True
                    continue
                if line["exec"] > exec_limit or \
                        (sync_limit is not None
                         and line.get("sync_round", 0) > sync_limit):
                    dropped = True
                    continue
                kept.append(line)
        if dropped:
            _atomic_write(path,
                          "".join(json.dumps(line) + "\n" for line in kept))
        return kept

    def load_crash_reports(self) -> List[CrashReport]:
        """All persisted unique crashes, in discovery order (for triage)."""
        reports = []
        for meta in self._load_crash_entries():
            with open(meta["_bin"], "rb") as handle:
                packet = handle.read()
            reports.append(_report_from_meta(meta, packet))
        return reports

    def load_divergence_reports(self) -> List[CrashReport]:
        """All persisted unique divergences, in discovery order."""
        reports = []
        for meta in self._load_divergence_entries():
            with open(meta["_bin"], "rb") as handle:
                packet = handle.read()
            reports.append(_report_from_meta(meta, packet))
        return reports

    def crash_times(self) -> Dict[tuple, float]:
        return {(meta["kind"], meta["site"]): meta["hours"]
                for meta in self._load_crash_entries()}

    def corpus_path_hashes(self) -> List[int]:
        """path_hash of every persisted valuable seed, discovery order."""
        return [meta["path_hash"] for meta in self._load_corpus_entries()]

    def corpus_packets(self) -> List[bytes]:
        packets = []
        for meta in self._load_corpus_entries():
            with open(meta["_bin"], "rb") as handle:
                packets.append(handle.read())
        return packets
