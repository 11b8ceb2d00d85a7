"""Unit tests: chaos-harness determinism, the completion gate, journal tearing."""

import json

import pytest

from repro.resilience.journal import CheckpointJournal
from repro.service.chaos import (
    ChaosEngine,
    ChaosSpec,
    CompletionGate,
    planned_faults,
    planned_wire_faults,
    truncate_journal_tail,
)

KEYS = [f"wl{i}|map|scheme|trh128" for i in range(40)]


class TestChaosSpec:
    def test_fractions_validated(self):
        with pytest.raises(ValueError):
            ChaosSpec(kill_before_frac=0.7, kill_after_frac=0.4)
        with pytest.raises(ValueError):
            ChaosSpec(hang_frac=-0.1)
        with pytest.raises(ValueError):
            ChaosSpec(duplicate_frac=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(reorder_every=-1)


class TestChaosEngine:
    def test_decisions_are_deterministic(self):
        spec = ChaosSpec(seed=3, kill_before_frac=0.2, hang_frac=0.2, duplicate_frac=0.3)
        a = ChaosEngine(spec)
        b = ChaosEngine(ChaosSpec(seed=3, kill_before_frac=0.2, hang_frac=0.2, duplicate_frac=0.3))
        for key in KEYS:
            assert a.decide(key, 1) == b.decide(key, 1)

    def test_seed_changes_schedule(self):
        kwargs = dict(kill_before_frac=0.3, duplicate_frac=0.3)
        plan_a = planned_faults(ChaosSpec(seed=1, **kwargs), KEYS)
        plan_b = planned_faults(ChaosSpec(seed=2, **kwargs), KEYS)
        assert plan_a != plan_b

    def test_retries_always_run_clean(self):
        """Chaos fires only on attempt 1 -- the convergence guarantee."""
        spec = ChaosSpec(seed=5, kill_before_frac=0.5, kill_after_frac=0.3, hang_frac=0.2, duplicate_frac=1.0)
        engine = ChaosEngine(spec)
        for key in KEYS:
            for attempt in (2, 3, 7):
                assert engine.decide(key, attempt).benign

    def test_fractions_partition_priority_order(self):
        spec = ChaosSpec(seed=9, kill_before_frac=0.25, kill_after_frac=0.25, hang_frac=0.25, hang_s=2.0)
        actions = [ChaosEngine(spec).decide(key, 1).action for key in KEYS]
        seen = set(actions)
        assert seen <= {"kill-before", "kill-after", "hang", "none"}
        assert len(seen) >= 3  # 40 draws at 25% each: all kinds appear
        for key in KEYS:
            decision = ChaosEngine(spec).decide(key, 1)
            assert decision.hang_s == (2.0 if decision.action == "hang" else 0.0)

    def test_zero_spec_is_benign(self):
        engine = ChaosEngine(ChaosSpec(seed=4))
        assert all(engine.decide(key, 1).benign for key in KEYS)

    def test_planned_faults_matches_engine(self):
        spec = ChaosSpec(seed=6, kill_before_frac=0.3, duplicate_frac=0.2)
        plan = dict(planned_faults(spec, KEYS))
        engine = ChaosEngine(spec)
        for key in KEYS:
            decision = engine.decide(key, 1)
            if decision.benign:
                assert key not in plan
            else:
                assert plan[key] == decision


WIRE_SPEC = ChaosSpec(
    seed=11,
    wire_drop_frac=0.2,
    wire_corrupt_frac=0.2,
    wire_truncate_frac=0.15,
    wire_conn_drop_frac=0.2,
    wire_delay_frac=0.2,
    wire_delay_s=0.25,
    duplicate_frac=0.2,
)


class TestWireChaos:
    def test_wire_fractions_validated(self):
        with pytest.raises(ValueError, match="frame-fate"):
            ChaosSpec(wire_drop_frac=0.5, wire_corrupt_frac=0.4, wire_truncate_frac=0.2)
        with pytest.raises(ValueError):
            ChaosSpec(wire_conn_drop_frac=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(wire_delay_s=-0.1)

    def test_has_wire_faults_flag(self):
        assert not ChaosSpec(kill_before_frac=0.5).has_wire_faults
        assert ChaosSpec(wire_corrupt_frac=0.1).has_wire_faults
        assert ChaosSpec(wire_conn_drop_frac=0.1).has_wire_faults

    def test_decisions_are_deterministic(self):
        a, b = ChaosEngine(WIRE_SPEC), ChaosEngine(WIRE_SPEC)
        for key in KEYS:
            assert a.decide_wire(key, 1) == b.decide_wire(key, 1)

    def test_retries_always_ship_clean_frames(self):
        """Wire chaos fires only on attempt 1 -- the convergence guarantee."""
        engine = ChaosEngine(WIRE_SPEC)
        for key in KEYS:
            for attempt in (2, 3, 7):
                assert engine.decide_wire(key, attempt).benign

    def test_fates_partition_and_decorrelate_from_process_faults(self):
        spec = ChaosSpec(
            seed=11,
            kill_before_frac=0.3,
            wire_drop_frac=0.25,
            wire_corrupt_frac=0.25,
            wire_truncate_frac=0.25,
        )
        engine = ChaosEngine(spec)
        fates = {engine.decide_wire(key, 1).fate for key in KEYS}
        assert fates == {"drop", "corrupt", "truncate", "none"}
        # Wire and process draws use distinct labels: the same seed must
        # not make every killed cell also lose its frame (or vice versa).
        paired = [
            (engine.decide(key, 1).action, engine.decide_wire(key, 1).fate)
            for key in KEYS
        ]
        killed = [fate for action, fate in paired if action == "kill-before"]
        assert len(set(killed)) > 1

    def test_truncate_implies_connection_drop_conn_drop_needs_clean_frame(self):
        engine = ChaosEngine(WIRE_SPEC)
        decisions = [engine.decide_wire(key, 1) for key in KEYS]
        for decision in decisions:
            if decision.fate == "truncate":
                assert decision.drops_connection and not decision.conn_drop
            if decision.conn_drop:
                # A corrupted frame awaiting a nacked resend must not have
                # its connection yanked: conn_drop pairs only with a frame
                # that either arrived clean or vanished entirely.
                assert decision.fate in ("none", "drop")
        assert any(d.drops_connection for d in decisions)

    def test_zero_wire_spec_is_benign(self):
        engine = ChaosEngine(ChaosSpec(seed=11, kill_before_frac=0.5))
        assert all(engine.decide_wire(key, 1).benign for key in KEYS)

    def test_planned_wire_faults_matches_engine(self):
        plan = dict(planned_wire_faults(WIRE_SPEC, KEYS))
        engine = ChaosEngine(WIRE_SPEC)
        for key in KEYS:
            decision = engine.decide_wire(key, 1)
            if decision.benign:
                assert key not in plan
            else:
                assert plan[key] == decision

    def test_delay_only_when_drawn(self):
        engine = ChaosEngine(WIRE_SPEC)
        delays = {engine.decide_wire(key, 1).delay_s for key in KEYS}
        assert delays == {0.0, WIRE_SPEC.wire_delay_s}


class TestCompletionGate:
    def make(self, every, now=None):
        clock = now if now is not None else (lambda: 0.0)
        return CompletionGate(ChaosSpec(reorder_every=every, max_hold_s=10.0), clock=clock)

    def test_disabled_gate_passes_through(self):
        gate = self.make(0)
        assert gate.intercept("m1") == ["m1"]
        assert gate.flush() == []

    def test_every_kth_held_and_reordered(self):
        gate = self.make(3)
        assert gate.intercept("m1") == ["m1"]
        assert gate.intercept("m2") == ["m2"]
        assert gate.intercept("m3") == []  # held
        assert gate.intercept("m4") == ["m4", "m3"]  # delivered late
        assert gate.intercept("m5") == ["m5"]
        assert gate.intercept("m6") == []
        assert gate.flush() == ["m6"]

    def test_flush_due_releases_after_max_hold(self):
        now = {"t": 0.0}
        gate = CompletionGate(
            ChaosSpec(reorder_every=1, max_hold_s=0.5), clock=lambda: now["t"]
        )
        assert gate.intercept("m1") == []
        assert gate.flush_due() == []  # not yet due
        now["t"] = 1.0
        assert gate.flush_due() == ["m1"]
        assert gate.flush_due() == []


class TestJournalTruncation:
    def fill(self, tmp_path, cells=3):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        for i in range(cells):
            journal.append(f"cell-{i}", {"value": i, "padding": "x" * 30})
        return path

    def test_tear_is_seeded_and_loadable(self, tmp_path):
        path_a, path_b = self.fill(tmp_path / "a"), self.fill(tmp_path / "b")
        cut_a = truncate_journal_tail(path_a, seed=1)
        cut_b = truncate_journal_tail(path_b, seed=1)
        assert cut_a == cut_b > 0  # same seed, same file name -> same tear
        journal = CheckpointJournal(path_a)
        # The torn final record is skipped, everything before survives.
        assert journal.completed_keys() == {"cell-0", "cell-1"}
        assert journal.skipped_lines == 1

    def test_tear_never_consumes_whole_line(self, tmp_path):
        for seed in range(12):
            path = self.fill(tmp_path / f"s{seed}", cells=2)
            truncate_journal_tail(path, seed=seed)
            lines = path.read_text().splitlines()
            assert len(lines) == 2  # damaged, not deleted
            json.loads(lines[0])  # first record intact
            with pytest.raises(json.JSONDecodeError):
                json.loads(lines[1])

    def test_empty_journal_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            truncate_journal_tail(path)
