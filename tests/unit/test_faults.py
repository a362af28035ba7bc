"""Unit tests for the deterministic fault-injection harness (``repro.faults``)."""

import os
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.faults import (
    DIE_EXIT_CODE,
    ENV_VAR,
    Fault,
    FaultPlan,
    FaultPlanError,
    InjectedFaultError,
    WorkerThreadDeath,
)

SRC_DIR = os.path.dirname(os.path.dirname(faults.__file__))


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="explode")

    @pytest.mark.parametrize("kind", ["transient", "hang", "oserror"])
    def test_retired_kinds_rejected(self, kind):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            Fault.from_dict({"kind": kind})

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_slow_needs_positive_seconds(self, seconds):
        with pytest.raises(FaultPlanError):
            Fault(kind="slow", seconds=seconds)

    def test_times_must_be_positive_or_none(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="raise", times=0)
        assert Fault(kind="raise", times=None).times is None

    @pytest.mark.parametrize("field", ["fuse", "attempts"])
    def test_from_dict_rejects_unknown_fields(self, field):
        with pytest.raises(FaultPlanError, match="unknown fault fields"):
            Fault.from_dict({"kind": "raise", field: 3})

    def test_from_dict_requires_kind(self):
        with pytest.raises(FaultPlanError):
            Fault.from_dict({"times": 3})

    def test_from_dict_rejects_uncoercible_values(self):
        with pytest.raises(FaultPlanError, match="invalid fault"):
            Fault.from_dict({"kind": "slow", "seconds": "soon"})

    def test_plan_entries_must_be_faults(self):
        with pytest.raises(FaultPlanError):
            FaultPlan({"a/b/c": "raise"})

    def test_plan_must_be_a_mapping(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_mapping(["a/b/c"])


class TestSites:
    @pytest.mark.parametrize(
        "site",
        [
            "journal.append",
            "job.start",
            "job.run",
            "worker.start",
            "a/b/c",
            "hillclimb/tpch:partsupp@0.1/hdd:equal",
            "hillclimb/exrobust:w/hdd [sqlite]",
        ],
    )
    def test_named_sites_and_cell_labels_accepted(self, site):
        assert FaultPlan({site: Fault(kind="raise")}).sites() == (site,)

    @pytest.mark.parametrize("site", ["journal.vanish", "job.begin", "a/b", ""])
    def test_unknown_site_rejected(self, site):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultPlan({site: Fault(kind="raise")})


class TestPlanRoundTrip:
    PLAN = FaultPlan.from_mapping(
        {
            "hillclimb/w/hdd": {"kind": "raise", "message": "boom"},
            "navathe/w/hdd": {"kind": "raise", "times": 2},
            "o2p/w/hdd": {"kind": "slow", "seconds": 1.5},
            "trojan/w/hdd": {"kind": "die"},
            "journal.append": {"kind": "raise", "times": 2},
            "job.start": {"kind": "slow", "seconds": 0.5},
        }
    )

    def test_json_round_trip_is_lossless(self):
        assert FaultPlan.from_json(self.PLAN.to_json()) == self.PLAN
        assert self.PLAN.sites()[:2] == ("hillclimb/w/hdd", "job.start")

    def test_invalid_json_raises(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")

    def test_injected_installs_and_restores(self):
        previous = os.environ.get(ENV_VAR)
        with faults.injected(self.PLAN) as plan:
            assert plan is self.PLAN
            assert os.environ[ENV_VAR] == self.PLAN.to_json()
            assert faults.active_plan() == self.PLAN
            assert faults.active_plan().get("navathe/w/hdd").times == 2
            assert faults.active_plan().get("unknown/cell/label") is None
        assert os.environ.get(ENV_VAR) == previous

    def test_injected_accepts_plain_mappings_and_none(self):
        with faults.injected({"a/b/c": {"kind": "raise"}}) as plan:
            assert isinstance(plan, FaultPlan) and len(plan) == 1
        with faults.injected(None) as plan:
            assert plan is None and faults.active_plan() is None

    def test_injected_restores_previous_value(self, monkeypatch):
        outer = FaultPlan.from_mapping({"x/y/z": {"kind": "raise"}})
        monkeypatch.setenv(ENV_VAR, outer.to_json())
        with faults.injected(self.PLAN):
            assert faults.active_plan().get("trojan/w/hdd") is not None
        assert faults.active_plan() == outer

    def test_installing_empty_plan_uninstalls(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, self.PLAN.to_json())
        with faults.injected(FaultPlan({})):
            assert ENV_VAR not in os.environ

    def test_active_plan_raises_loudly_on_garbage(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "{broken")
        with pytest.raises(FaultPlanError):
            faults.active_plan()


class TestTrigger:
    def test_no_plan_is_a_noop(self):
        with faults.injected(None):
            faults.trigger("journal.append")
            faults.trigger("a/b/c", 1)

    def test_other_sites_are_untouched(self):
        with faults.injected({"job.start": {"kind": "raise"}}):
            faults.trigger("journal.append")

    def test_raise_fault_always_raises(self):
        with faults.injected({"a/b/c": {"kind": "raise", "message": "broken cell"}}):
            for attempt in (1, 2, 5):
                with pytest.raises(InjectedFaultError, match="broken cell"):
                    faults.trigger("a/b/c", attempt)

    def test_raise_is_an_oserror(self):
        # The journal's OSError handling degrades on it like a real disk error.
        plan = {"journal.append": {"kind": "raise", "message": "disk gone"}}
        with faults.injected(plan):
            with pytest.raises(OSError, match="disk gone"):
                faults.trigger("journal.append")

    def test_times_window_follows_the_passed_attempt(self):
        with faults.injected({"a/b/c": {"kind": "raise", "times": 2}}):
            for attempt in (1, 2):
                with pytest.raises(InjectedFaultError):
                    faults.trigger("a/b/c", attempt)
            faults.trigger("a/b/c", 3)  # past the failing window
            # Attempts, not calls, select the window: attempt 1 fails again.
            with pytest.raises(InjectedFaultError):
                faults.trigger("a/b/c", 1)

    def test_times_window_counts_named_site_occurrences(self):
        with faults.injected({"journal.append": {"kind": "raise", "times": 2}}):
            for _ in range(2):
                with pytest.raises(OSError):
                    faults.trigger("journal.append")
            faults.trigger("journal.append")
            faults.trigger("journal.append")

    def test_count_numbers_a_site_only_while_a_fault_is_installed(self):
        # A parent counts a child's site; the child fires the number passed.
        assert faults.count("job.run") is None
        with faults.injected({"job.run": {"kind": "raise", "times": 1}}):
            assert [faults.count("job.run") for _ in range(3)] == [1, 2, 3]
            assert faults.count("job.start") is None
            with pytest.raises(InjectedFaultError):
                faults.trigger("job.run", 1)
            faults.trigger("job.run", 2)

    def test_injected_resets_occurrences_between_blocks(self):
        plan = {"journal.append": {"kind": "raise", "times": 1}}
        for _ in range(2):  # each block gets its own times window
            with faults.injected(plan):
                with pytest.raises(OSError):
                    faults.trigger("journal.append")
                faults.trigger("journal.append")

    @pytest.mark.parametrize("site", ["job.start", "a/b/c"])
    def test_slow_sleeps_then_returns(self, site):
        with faults.injected({site: {"kind": "slow", "seconds": 0.05}}):
            started = time.perf_counter()
            faults.trigger(site)
            assert time.perf_counter() - started >= 0.04

    @pytest.mark.parametrize("site", ["job.start", "a/b/c"])
    def test_die_in_process_raises_a_base_exception(self, site):
        # In-process an os._exit would take the test runner down; the serial
        # grid path and service worker threads get a BaseException instead.
        with faults.injected({site: {"kind": "die", "message": "gone"}}):
            with pytest.raises(WorkerThreadDeath, match="gone"):
                faults.trigger(site)
        assert not issubclass(WorkerThreadDeath, Exception)

    def test_die_out_of_process_exits_with_the_distinctive_code(self):
        plan = FaultPlan.from_mapping({"a/b/c": {"kind": "die"}})
        env = {**os.environ, ENV_VAR: plan.to_json(), "PYTHONPATH": SRC_DIR}
        child = subprocess.run(
            [sys.executable, "-c",
             "from repro import faults; faults.trigger('a/b/c', 1, in_process=False)"],
            env=env, capture_output=True, timeout=60,
        )
        assert child.returncode == DIE_EXIT_CODE == 86
