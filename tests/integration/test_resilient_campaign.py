"""Integration tests: resilient campaigns under injected faults.

Covers the acceptance scenario: a 3x2 campaign with one poisoned cell
completes with an error record for exactly that cell, and after a
simulated mid-sweep crash, resuming from the journal completes the grid
without re-running finished cells (verified by cell-execution counters).
"""

import pytest

from repro.dram.config import multichannel_config
from repro.errors import MappingConfigError, SchemeConfigError, WorkloadConfigError
from repro.experiments.campaign import Campaign, MappingSpec
from repro.experiments.common import get_simulator
from repro.resilience.executor import CellBudget, ResilientExecutor, RetryPolicy
from repro.resilience.faults import FaultPlan, FaultySimulator, SimulatedCrash
from repro.resilience.journal import CheckpointJournal

WORKLOADS = ["xz", "namd", "lbm"]
MAPPINGS = [MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)]


def make_campaign() -> Campaign:
    return Campaign(
        workloads=WORKLOADS,
        mappings=MAPPINGS,
        schemes=["blockhammer"],
        thresholds=[128],
        scale=0.05,
    )


def faulty(plan: FaultPlan) -> FaultySimulator:
    return FaultySimulator(get_simulator(), plan)


class TestFaultIsolation:
    def test_poisoned_cell_yields_error_record_others_complete(self):
        campaign = make_campaign()
        records = campaign.run(
            simulator=faulty(FaultPlan(fail_cells=("namd|Rubix-S",)))
        )
        assert len(records) == campaign.size() == 6
        errors = [r for r in records if r["status"] == "error"]
        assert len(errors) == 1
        (error,) = errors
        assert error["workload"] == "namd"
        assert error["mapping"] == "rubix-s-gs4"
        assert error["error_type"] == "FaultInjectedError"
        assert "normalized_performance" not in error
        for record in records:
            if record is not error:
                assert record["status"] == "ok"
                assert record["normalized_performance"] > 0

    def test_transient_fault_retries_to_success(self):
        campaign = make_campaign()
        executor = ResilientExecutor(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0), sleep=lambda s: None
        )
        records = campaign.run(
            executor=executor,
            simulator=faulty(FaultPlan(transient_cells={"xz|CoffeeLake": 2})),
        )
        by_cell = {(r["workload"], r["mapping"]): r for r in records}
        flaky = by_cell[("xz", "coffeelake")]
        assert flaky["status"] == "ok" and flaky["attempts"] == 3
        assert all(r["status"] == "ok" for r in records)

    def test_dropped_mitigation_events_flagged_never_silent(self):
        campaign = make_campaign()
        records = campaign.run(
            simulator=faulty(FaultPlan(drop_mitigation_cells=("xz|CoffeeLake",)))
        )
        by_cell = {(r["workload"], r["mapping"]): r for r in records}
        tampered = by_cell[("xz", "coffeelake")]
        # xz under Coffee Lake has a >=T_RH row, so zero mitigations is
        # impossible -- the invariant check must flag the record.
        assert tampered["status"] == "degraded"
        assert "suspect-mitigation-count" in tampered["flags"]
        assert by_cell[("lbm", "coffeelake")]["status"] == "ok"


class TestCrashAndResume:
    def test_resume_completes_grid_without_rerunning(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"

        reference = make_campaign()
        expected = reference.run()
        assert reference.cells_executed == 6

        interrupted = make_campaign()
        with pytest.raises(SimulatedCrash):
            interrupted.run(
                journal=journal_path,
                simulator=faulty(FaultPlan(crash_after_cells=3)),
            )
        assert interrupted.cells_executed == 3
        assert len(CheckpointJournal(journal_path)) == 3

        resumed = make_campaign()
        records = resumed.run(resume_from=journal_path)
        # Only the unfinished half ran; the grid result is identical to
        # an uninterrupted sweep, including the journal-replayed cells.
        assert resumed.cells_executed == 3
        assert records == expected
        assert len(CheckpointJournal(journal_path)) == 6

    def test_resume_of_complete_journal_runs_nothing(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        first = make_campaign()
        expected = first.run(journal=journal_path)
        again = make_campaign()
        records = again.run(resume_from=journal_path)
        assert again.cells_executed == 0
        assert records == expected

    def test_journal_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            make_campaign().run(
                journal=tmp_path / "a.jsonl", resume_from=tmp_path / "b.jsonl"
            )


def one_cell_campaign(**overrides) -> Campaign:
    kwargs = dict(
        workloads=["xz"],
        mappings=[MappingSpec("coffeelake")],
        schemes=["blockhammer"],
        thresholds=[128],
        scale=0.05,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


def over_budget() -> ResilientExecutor:
    """Every cell overruns this budget, so the degrade policy decides it."""
    return ResilientExecutor(budget=CellBudget(max_activations=1))


class TestJournalIdentity:
    """A journal replays a record only for the inputs that produced it."""

    @pytest.mark.parametrize(
        "changed, status",
        [
            ({"degrade_scale_factor": None}, "error"),
            ({"config": multichannel_config(2)}, "degraded"),
        ],
        ids=["degrade-policy", "dram-config"],
    )
    def test_resume_under_changed_inputs_reruns_the_cell(
        self, tmp_path, changed, status
    ):
        journal_path = tmp_path / "campaign.jsonl"
        (journaled,) = one_cell_campaign().run(
            executor=over_budget(), journal=journal_path
        )
        assert journaled["status"] == "degraded"

        direct = one_cell_campaign(**changed).run(executor=over_budget())
        assert direct[0]["status"] == status
        resumed = one_cell_campaign(**changed)
        records = resumed.run(executor=over_budget(), resume_from=journal_path)
        assert records == direct
        assert resumed.cells_executed == 1

    def test_degraded_cell_counts_as_one_cell(self):
        # The failing attempt and the degraded re-run are one cell.
        campaign = one_cell_campaign()
        (record,) = campaign.run(executor=over_budget())
        assert record["status"] == "degraded"
        assert campaign.cells_executed == 1


class TestFailFastValidation:
    def test_unknown_workload_rejected_before_any_cell(self):
        with pytest.raises(WorkloadConfigError, match="stream-copy"):
            Campaign(workloads=["quake3"], mappings=MAPPINGS)

    def test_unknown_mapping_kind_rejected(self):
        with pytest.raises(MappingConfigError, match="rubix-s"):
            Campaign(workloads=["xz"], mappings=[MappingSpec("randomizer-9000")])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SchemeConfigError, match="blockhammer"):
            Campaign(workloads=["xz"], mappings=MAPPINGS, schemes=["magic"])

    def test_config_errors_are_value_errors_for_old_callers(self):
        with pytest.raises(ValueError):
            Campaign(workloads=["xz"], mappings=MAPPINGS, schemes=["magic"])


class TestRunnerJournalCLI:
    def test_run_all_style_journal_resume(self, tmp_path, capsys):
        from repro.experiments.runner import main

        journal = tmp_path / "suite.jsonl"
        assert main(["run", "fig1a", "--journal", str(journal)]) == 0
        assert CheckpointJournal(journal).completed_keys() == {"fig1a"}
        assert main(["run", "fig1a", "--journal", str(journal), "--resume"]) == 0
        assert "skipped (resume)" in capsys.readouterr().out

    def test_resume_requires_journal(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "fig1a", "--resume"]) == 2
