"""Unit tests for the job journal: appends, replay, compaction, degradation.

The replay fold must converge — identically — for clean journals, torn
tails, duplicated records and out-of-order records, because a crash can
produce any of those shapes.  The property-style tests drive the fold with
seeded random transition sequences against an independent in-test model.
"""

import json
import random

import pytest

from repro import faults
from repro.service.journal import (
    DEFAULT_FILENAME,
    JobJournal,
    snapshot_record,
)
from repro.service.jobs import Job


@pytest.fixture
def journal(tmp_path):
    instance = JobJournal(str(tmp_path / DEFAULT_FILENAME))
    yield instance
    instance.close()


def _submit(journal, job_id, kind="compare", request=None):
    assert journal.append(
        "submitted", job_id, kind=kind, request=request or {"grid": "tiny"}
    )


class TestAppendAndReplay:
    def test_round_trip_done_job_carries_result(self, journal):
        _submit(journal, "compare-aaa")
        journal.append("running", "compare-aaa")
        journal.append("done", "compare-aaa", result={"cells": [1, 2]})
        replay = journal.replay()
        job = replay.jobs["compare-aaa"]
        assert job.state == "done"
        assert job.result == {"cells": [1, 2]}
        assert job.error is None
        assert replay.torn == 0 and replay.dropped == 0
        assert replay.interrupted == []

    def test_failed_job_carries_error(self, journal):
        _submit(journal, "compare-bbb")
        journal.append("running", "compare-bbb")
        journal.append(
            "failed", "compare-bbb", error={"type": "RuntimeError", "message": "x"}
        )
        job = journal.replay().jobs["compare-bbb"]
        assert job.state == "failed"
        assert job.error == {"type": "RuntimeError", "message": "x"}

    def test_interrupted_jobs_are_reported(self, journal):
        _submit(journal, "compare-queued")
        _submit(journal, "compare-running")
        journal.append("running", "compare-running")
        replay = journal.replay()
        assert {job.id for job in replay.interrupted} == {
            "compare-queued",
            "compare-running",
        }

    def test_missing_file_is_an_empty_replay(self, tmp_path):
        journal = JobJournal(str(tmp_path / "never-written.jsonl"))
        replay = journal.replay()
        assert replay.jobs == {} and replay.records == 0

    def test_unknown_event_name_is_rejected_at_append(self, journal):
        with pytest.raises(ValueError):
            journal.append("exploded", "compare-aaa")

    def test_pending_cancel_request_resolves_to_cancelled(self, journal):
        _submit(journal, "compare-ccc")
        journal.append("running", "compare-ccc")
        journal.append("cancel-requested", "compare-ccc")
        # The process died before the executor reached a checkpoint: the
        # client abandoned this job, so replay must not resurrect it.
        job = journal.replay().jobs["compare-ccc"]
        assert job.state == "cancelled"

    def test_resubmission_of_terminal_job_requeues_on_replay(self, journal):
        _submit(journal, "compare-ddd")
        journal.append("running", "compare-ddd")
        journal.append(
            "failed", "compare-ddd", error={"type": "E", "message": "m"}
        )
        _submit(journal, "compare-ddd")  # the retry that never ran
        job = journal.replay().jobs["compare-ddd"]
        assert job.state == "queued"
        assert job.submissions == 2
        assert job.error is None


class TestTornAndCorrupt:
    def test_torn_final_line_is_skipped_not_fatal(self, journal):
        _submit(journal, "compare-aaa")
        journal.append("running", "compare-aaa")
        journal.append("done", "compare-aaa", result={"ok": True})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"format": 1, "event": "subm')  # crash mid-write
        replay = journal.replay()
        assert replay.torn == 1
        assert replay.jobs["compare-aaa"].state == "done"

    def test_garbage_in_the_middle_is_skipped(self, journal):
        _submit(journal, "compare-aaa")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        journal.append("running", "compare-aaa")
        replay = journal.replay()
        assert replay.torn == 1
        assert replay.jobs["compare-aaa"].state == "running"

    def test_event_for_unknown_job_is_dropped(self, journal):
        # The submitted line was torn away: nothing to rebuild the job from.
        journal.append("done", "compare-ghost", result={"ok": True})
        replay = journal.replay()
        assert replay.dropped == 1
        assert "compare-ghost" not in replay.jobs

    def test_non_object_records_are_dropped(self, journal):
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n")
            handle.write('"a string"\n')
        replay = journal.replay()
        assert replay.dropped == 2


class TestCompaction:
    def test_compact_rewrites_to_snapshots(self, journal):
        _submit(journal, "compare-aaa")
        journal.append("running", "compare-aaa")
        journal.append("done", "compare-aaa", result={"ok": True})
        job = Job(
            id="compare-aaa", kind="compare", request={"grid": "tiny"},
            state="done", result={"ok": True},
        )
        assert journal.compact([snapshot_record(job)])
        with open(journal.path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == 1 and lines[0]["event"] == "snapshot"
        replayed = journal.replay().jobs["compare-aaa"]
        assert replayed.state == "done"
        assert replayed.result == {"ok": True}

    def test_snapshot_preserves_cancel_requested(self, journal):
        job = Job(
            id="compare-bbb", kind="compare", request={}, state="running",
            cancel_requested=True,
        )
        journal.compact([snapshot_record(job)])
        # Replay resolves the still-pending cancel request to cancelled even
        # though the snapshot recorded the job as running.
        assert journal.replay().jobs["compare-bbb"].state == "cancelled"

    def test_should_compact_tracks_append_volume(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"), compact_every=3)
        _submit(journal, "compare-aaa")
        journal.append("running", "compare-aaa")
        assert not journal.should_compact
        journal.append("done", "compare-aaa", result={})
        assert journal.should_compact
        journal.compact([])
        assert not journal.should_compact
        journal.close()

    def test_invalid_compact_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JobJournal(str(tmp_path / "j.jsonl"), compact_every=0)


class TestDegradation:
    def test_append_oserror_degrades_and_recovers(self, journal):
        plan = {"journal.append": {"kind": "raise", "times": 1}}
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning, match="journal degraded"):
                assert journal.append("submitted", "x", kind="k", request={}) is False
            assert journal.append_failures == 1
            # The very next append lands: the handle was reopened.
            _submit(journal, "compare-aaa")
        assert journal.appends == 1
        assert "compare-aaa" in journal.replay().jobs


# -- property-style round trips ------------------------------------------------


def _model_fold(events):
    """An independent (dict-based) model of the replay fold for one job."""
    state = None
    for event in events:
        if event == "submitted":
            if state is None:
                state = {"state": "queued", "submissions": 1, "cancel": False}
            else:
                state["submissions"] += 1
                if state["state"] in ("failed", "cancelled"):
                    state.update(state="queued", cancel=False)
        elif state is None:
            continue  # dropped: unknown job
        elif event == "requeued":
            state["submissions"] += 1
            state.update(state="queued", cancel=False)
        elif event == "running":
            if state["state"] == "queued":
                state["state"] = "running"
        elif event == "cancel-requested":
            state["cancel"] = True
        elif event in ("done", "failed", "cancelled"):
            state["state"] = event
    if state and state["cancel"] and state["state"] in ("queued", "running"):
        state["state"] = "cancelled"
    return state


class TestReplayProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_transition_sequences_match_the_model(self, tmp_path, seed):
        rng = random.Random(seed)
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        events = ("submitted", "requeued", "running", "done", "failed",
                  "cancelled", "cancel-requested")
        per_job = {}
        for _ in range(rng.randint(20, 60)):
            job_id = f"compare-{rng.randint(0, 5)}"
            event = rng.choice(events)
            if event == "submitted":
                _submit(journal, job_id)
            elif event == "done":
                journal.append(event, job_id, result={"r": rng.randint(0, 9)})
            elif event == "failed":
                journal.append(event, job_id, error={"type": "E", "message": "m"})
            else:
                journal.append(event, job_id)
            per_job.setdefault(job_id, []).append(event)
        replay = journal.replay()
        journal.close()
        for job_id, events_seen in per_job.items():
            expected = _model_fold(events_seen)
            if expected is None:
                assert job_id not in replay.jobs
                continue
            job = replay.jobs[job_id]
            assert job.state == expected["state"], (job_id, events_seen)
            assert job.submissions == expected["submissions"]

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_terminal_records_converge(self, tmp_path, seed):
        """Appending every post-submission record twice changes nothing
        terminal: the latest terminal record wins either way."""
        rng = random.Random(1000 + seed)
        clean = JobJournal(str(tmp_path / "clean.jsonl"))
        doubled = JobJournal(str(tmp_path / "doubled.jsonl"))
        for index in range(rng.randint(3, 8)):
            job_id = f"compare-{index}"
            outcome = rng.choice(("done", "failed", "cancelled"))
            for target, repeats in ((clean, 1), (doubled, 2)):
                _submit(target, job_id)
                for _ in range(repeats):
                    target.append("running", job_id)
                    if outcome == "done":
                        target.append(outcome, job_id, result={"i": index})
                    elif outcome == "failed":
                        target.append(
                            outcome, job_id,
                            error={"type": "E", "message": str(index)},
                        )
                    else:
                        target.append(outcome, job_id)
        clean_replay, doubled_replay = clean.replay(), doubled.replay()
        clean.close(), doubled.close()
        assert set(clean_replay.jobs) == set(doubled_replay.jobs)
        for job_id, job in clean_replay.jobs.items():
            other = doubled_replay.jobs[job_id]
            assert job.state == other.state
            assert job.result == other.result
            assert job.error == other.error

    def test_truncated_journal_prefix_is_always_consistent(self, tmp_path):
        """Cutting the journal after any byte yields a replayable file whose
        jobs are each in a valid state — the crash-anywhere property."""
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        _submit(journal, "compare-a")
        journal.append("running", "compare-a")
        journal.append("done", "compare-a", result={"ok": True})
        _submit(journal, "compare-b")
        journal.append("running", "compare-b")
        journal.close()
        with open(journal.path, "rb") as handle:
            content = handle.read()
        valid_states = {"queued", "running", "done", "failed", "cancelled"}
        for cut in range(len(content) + 1):
            truncated_path = tmp_path / "truncated.jsonl"
            truncated_path.write_bytes(content[:cut])
            replay = JobJournal(str(truncated_path)).replay()
            assert replay.torn <= 1  # at most the one torn line per cut
            for job in replay.jobs.values():
                assert job.state in valid_states
                if job.state == "done":
                    assert job.result == {"ok": True}
