"""Campaign workspace persistence + kill-and-resume determinism.

The acceptance gate of the persistence subsystem: a campaign stopped
mid-budget and resumed from its workspace must finish **bit-identical**
to the same campaign run uninterrupted — same series, final paths,
coverage path-hash set, unique crashes, stats and RNG trajectory.
"""

import dataclasses
import json
import os

import pytest

from repro.core import (
    CampaignConfig, config_from_dict, config_to_dict, make_engine,
    resume_campaign, run_campaign,
)
from repro.protocols import get_target
from repro.store import CampaignWorkspace, WorkspaceError


def _config(**overrides):
    base = dict(budget_hours=24.0, max_executions=400, record_every=10,
                checkpoint_every=50)
    base.update(overrides)
    return CampaignConfig(**base)


def _signature(result):
    return (
        result.series,
        result.final_paths,
        result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        result.crash_times,
        result.stats,
        result.path_hashes,
    )


class TestWorkspaceLifecycle:
    def test_initialize_creates_layout(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        config = _config(workspace=ws_dir, max_executions=60)
        run_campaign("peach-star", get_target("libmodbus"), seed=3,
                     config=config)
        for name in ("config.json", "state.json", "series.jsonl",
                     "result.json", "corpus"):
            assert os.path.exists(os.path.join(ws_dir, name)), name
        manifest = CampaignWorkspace(ws_dir).load_manifest()
        assert manifest["engine"] == "peach-star"
        assert manifest["target"] == "libmodbus"
        assert manifest["seed"] == 3

    def test_initialize_refuses_existing_state(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        config = _config(workspace=ws_dir, max_executions=30)
        run_campaign("peach", get_target("iec104"), seed=1, config=config)
        with pytest.raises(WorkspaceError):
            run_campaign("peach", get_target("iec104"), seed=1,
                         config=config)

    def test_resume_needs_a_workspace(self, tmp_path):
        with pytest.raises(WorkspaceError):
            resume_campaign(str(tmp_path / "nope"))

    def test_config_dict_roundtrip(self):
        config = _config(workspace="/some/dir", semantic_ratio=0.25)
        clone = config_from_dict(config_to_dict(config))
        assert clone == config

    def test_corpus_files_carry_coverage_metadata(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        run_campaign("peach-star", get_target("libmodbus"), seed=3,
                     config=_config(workspace=ws_dir, max_executions=120))
        workspace = CampaignWorkspace(ws_dir)
        hashes = workspace.corpus_path_hashes()
        assert hashes and all(isinstance(h, int) and h > 0 for h in hashes)
        metas = workspace._load_corpus_entries()
        assert all(meta["edges_touched"] > 0 for meta in metas)
        # one coverage-journal line per valuable seed
        with open(os.path.join(ws_dir, "coverage.jsonl")) as handle:
            lines = [json.loads(raw) for raw in handle if raw.strip()]
        assert [line["exec"] for line in lines] == \
            [meta["execution_index"] for meta in metas]


class TestKillAndResumeDeterminism:
    """The subsystem's headline guarantee, on a crashing and a clean
    target and for both engines."""

    @pytest.mark.parametrize("engine_name,target_name,stop_after", [
        ("peach-star", "lib60870", 137),   # crashes + puzzle corpus state
        ("peach-star", "libmodbus", 77),   # crashes, different protocol
        ("peach", "iec104", 133),          # baseline engine, no corpus
    ])
    def test_killed_campaign_resumes_bit_identical(
            self, tmp_path, engine_name, target_name, stop_after):
        spec = get_target(target_name)
        full_dir = str(tmp_path / "full")
        killed_dir = str(tmp_path / "killed")

        full = run_campaign(engine_name, spec, seed=7,
                            config=_config(workspace=full_dir))
        # stop_after is deliberately NOT a checkpoint multiple: resume
        # must rewind to the last checkpoint and re-execute the window
        killed = run_campaign(engine_name, spec, seed=7,
                              config=_config(workspace=killed_dir),
                              stop_after_executions=stop_after)
        assert killed is None  # simulated SIGKILL: no result, no finalize
        assert CampaignWorkspace(killed_dir).load_result() is None

        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)
        # the workspaces converge too: same persisted path-hash set and
        # crash ledger
        assert CampaignWorkspace(killed_dir).corpus_path_hashes() == \
            CampaignWorkspace(full_dir).corpus_path_hashes()
        assert CampaignWorkspace(killed_dir).crash_times() == \
            CampaignWorkspace(full_dir).crash_times()

    def test_resume_matches_workspace_free_run(self, tmp_path):
        spec = get_target("lib60870")
        plain = run_campaign("peach-star", spec, seed=7, config=_config())
        ws_dir = str(tmp_path / "ws")
        run_campaign("peach-star", spec, seed=7,
                     config=_config(workspace=ws_dir),
                     stop_after_executions=190)
        resumed = resume_campaign(ws_dir)
        assert _signature(resumed) == _signature(plain)

    def test_resume_finished_campaign_reproduces_result(self, tmp_path):
        spec = get_target("libmodbus")
        ws_dir = str(tmp_path / "ws")
        first = run_campaign("peach-star", spec, seed=11,
                             config=_config(workspace=ws_dir,
                                            max_executions=150))
        again = resume_campaign(ws_dir)
        assert _signature(again) == _signature(first)

    def test_double_kill_still_converges(self, tmp_path):
        """Kill, resume, kill again, resume again."""
        spec = get_target("lib60870")
        full = run_campaign("peach-star", spec, seed=9, config=_config())
        ws_dir = str(tmp_path / "ws")
        assert run_campaign("peach-star", spec, seed=9,
                            config=_config(workspace=ws_dir),
                            stop_after_executions=90) is None
        assert resume_campaign(ws_dir, stop_after_executions=260) is None
        resumed = resume_campaign(ws_dir)
        assert _signature(resumed) == _signature(full)


class TestPendingQueueCheckpoint:
    """The pending semantic queue persists as plans (format 2)."""

    def _killed(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        assert run_campaign("peach-star", get_target("libiec61850"), seed=7,
                            config=_config(workspace=ws_dir),
                            stop_after_executions=300) is None
        return ws_dir

    def test_restore_builds_nothing(self, tmp_path, build_calls):
        ws_dir = self._killed(tmp_path)
        workspace = CampaignWorkspace(ws_dir)
        pending = workspace.load_state()["pending"]
        assert pending
        assert set(pending[0]) == {"model", "seed", "assignments"}
        manifest = workspace.load_manifest()
        engine = make_engine(manifest["engine"], get_target("libiec61850"),
                             manifest["seed"],
                             config_from_dict(manifest["config"]))
        del build_calls[:]
        workspace.restore(engine)
        assert build_calls == []
        assert len(engine._pending) == len(pending)

    @pytest.mark.parametrize("old_format", [1, 2])
    @pytest.mark.parametrize("files", [("config.json", "state.json"),
                                       ("state.json",)])
    def test_older_format_workspace_is_rejected(self, tmp_path, files,
                                                old_format):
        ws_dir = self._killed(tmp_path)
        for name in files:
            path = os.path.join(ws_dir, name)
            with open(path, encoding="utf-8") as handle:
                blob = json.load(handle)
            blob["format"] = old_format
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(blob, handle)
        with pytest.raises(WorkspaceError,
                           match=rf"format {old_format} is not supported "
                                 r"\(expected 3\)"):
            resume_campaign(ws_dir)

    @pytest.mark.parametrize("edit, message", [
        (lambda entry: entry.update(model="NoSuchModel"),
         r"no model 'NoSuchModel'"),
        (lambda entry: entry["assignments"].update({"no.such.leaf": 0}),
         r"pins unknown leaves \['no\.such\.leaf'\]"),
    ], ids=["unknown-model", "unknown-leaf"])
    def test_foreign_pending_plan_fails_at_resume(self, tmp_path, edit,
                                                  message):
        ws_dir = self._killed(tmp_path)
        path = os.path.join(ws_dir, "state.json")
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
        edit(state["pending"][-1])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        with pytest.raises(WorkspaceError, match=message):
            resume_campaign(ws_dir)


class TestAtomicWriteDurability:
    """The fsync contract of _atomic_write (crash-durability bugfix)."""

    def test_crash_before_replace_preserves_old_contents(
            self, tmp_path, monkeypatch):
        """Fault injection: die between the tmp write and os.replace.

        The file under the final name must still hold its previous
        contents — the half-written update only ever exists under the
        .tmp name.
        """
        import repro.store.workspace as ws_mod

        path = str(tmp_path / "state.json")
        ws_mod._atomic_write(path, "old\n")

        def crash_replace(src, dst):
            raise RuntimeError("simulated crash before rename")

        monkeypatch.setattr(ws_mod.os, "replace", crash_replace)
        with pytest.raises(RuntimeError):
            ws_mod._atomic_write(path, "new\n")
        monkeypatch.undo()
        with open(path) as handle:
            assert handle.read() == "old\n"
        # the interrupted attempt left only the tmp file; retrying
        # clobbers it and completes normally
        assert os.path.exists(path + ".tmp")
        ws_mod._atomic_write(path, "new\n")
        with open(path) as handle:
            assert handle.read() == "new\n"

    def test_fsync_file_then_replace_then_fsync_dir(
            self, tmp_path, monkeypatch):
        """The durability ordering: flush+fsync the tmp file BEFORE the
        rename, fsync the directory after — otherwise a power loss can
        leave an empty file despite the atomic replace."""
        import repro.store.workspace as ws_mod

        events = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(ws_mod.os, "fsync", spy_fsync)
        monkeypatch.setattr(ws_mod.os, "replace", spy_replace)
        ws_mod._atomic_write(str(tmp_path / "state.json"), "payload\n")
        assert events == ["fsync", "replace", "fsync"]
