"""Durable checkpoints: verified restore, crash-mid-scenario resume."""

from __future__ import annotations

import json

import pytest

from repro.core.clock import StepClock
from repro.exceptions import ValidationError
from repro.core.migration import MigrationCostModel
from repro.service.checkpoint import (
    Checkpoint,
    config_from_dict,
    config_to_dict,
    event_from_dict,
    event_to_dict,
    load_checkpoint,
    migration_from_dict,
    migration_to_dict,
    record_from_dict,
    record_to_dict,
    restore_controller,
    restore_service,
    snapshot_from_dict,
    snapshot_to_dict,
    write_checkpoint,
)
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    LinkDegrade,
    LinkFailure,
    RegionOutage,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.queue import FleetService
from repro.service.scenarios import build_scenario, replay

from .conftest import make_line


def _replay_all(scenario) -> FleetController:
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    for event in scenario.events:
        controller.handle(event)
    return controller


class TestEventCodec:
    @pytest.mark.parametrize(
        "event",
        [
            DeployRequest("alpha", make_line("alpha", [10e6, 20e6])),
            DeployRequest(
                "beta", make_line("beta", [5e6]), algorithm="Exhaustive"
            ),
            UndeployRequest("gamma"),
            ServerFailed("S2"),
            ServerJoined("S9", 2e9, 5e7, propagation_s=0.001),
            WorkloadDrift("alpha", make_line("alpha", [15e6, 25e6])),
            CapacityDrift("S3", 1.25e9),
            LinkFailure("S1", "S2"),
            LinkDegrade("S1", "S3", 0.25),
            LinkDegrade("S2", "S3", 0.5, propagation_factor=1.5),
            RegionOutage("us-east"),
            Tick(),
        ],
    )
    def test_round_trip(self, event):
        decoded = event_from_dict(event_to_dict(event))
        assert type(decoded) is type(event)
        assert event_to_dict(decoded) == event_to_dict(event)

    def test_json_serializable(self):
        event = DeployRequest("alpha", make_line("alpha", [10e6]))
        text = json.dumps(event_to_dict(event), sort_keys=True)
        assert event_from_dict(json.loads(text)).tenant == "alpha"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            event_from_dict({"kind": "teleport"})

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            event_from_dict({"kind": "deploy"})


class TestConfigCodec:
    def test_round_trip_defaults(self):
        config = FleetConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_with_options(self):
        config = FleetConfig(
            algorithm="GreedyPaths",
            admission_load_limit_s=0.25,
            drift_threshold=0.5,
            seed=9,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_admission_limit_decodes_as_a_float(self):
        document = config_to_dict(FleetConfig())
        document["admission_load_limit_s"] = "0.05"
        assert config_from_dict(document).admission_load_limit_s == 0.05


class TestRecordAndSnapshotCodecs:
    def test_record_round_trip_preserves_line(self):
        controller = replay("steady", seed=7)
        for record in controller.log:
            decoded = record_from_dict(record_to_dict(record))
            assert decoded.to_line() == record.to_line()

    def test_snapshot_round_trip_is_exact(self):
        controller = replay("steady", seed=7)
        snapshot = controller.state.snapshot()
        document = json.loads(json.dumps(snapshot_to_dict(snapshot)))
        assert snapshot_from_dict(document) == snapshot


class TestWriteAndLoad:
    def test_full_round_trip(self, tmp_path):
        controller = replay("churn", seed=3)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        checkpoint = load_checkpoint(path)
        assert isinstance(checkpoint, Checkpoint)
        assert checkpoint.deterministic
        assert len(checkpoint.events) == len(controller.history)
        assert len(checkpoint.records) == len(controller.log.records)
        assert checkpoint.pending == ()

    def test_missing_file_raises_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            load_checkpoint(tmp_path / "nope.json")

    def test_malformed_json_raises_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_wrong_format_raises_validation_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "network", "version": 1}))
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        controller = replay("steady", seed=1)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError):
            load_checkpoint(path)


#: One corruption per checkpoint field that must decode as a number (or
#: a pair) in its range: each must raise ValidationError naming the file.
CORRUPTIONS = {
    "config-seed": lambda doc: doc["config"].update(seed="x"),
    "config-admission-limit": lambda doc: doc["config"].update(
        admission_load_limit_s="x"
    ),
    "config-admission-limit-negative": lambda doc: doc["config"].update(
        admission_load_limit_s=-1.0
    ),
    "clock-step": lambda doc: doc["clock"].update(step_s="x"),
    # a step clock must move forward: a replay under any other step
    # would only surface as a log divergence
    "clock-step-negative": lambda doc: doc["clock"].update(step_s=-1),
    "clock-step-zero": lambda doc: doc["clock"].update(step_s=0),
    "clock-step-nan": lambda doc: doc["clock"].update(step_s="nan"),
    "details-pair": lambda doc: doc["log"][0]["details"].__setitem__(
        0, ["only"]
    ),
    "link-speed": lambda doc: doc["network"]["links"][0].update(
        speed_bps="x"
    ),
    "server-power": lambda doc: doc["network"]["servers"][0].update(
        power_hz=[1]
    ),
}


def corrupt_checkpoint(path, corruption):
    """Rewrite the checkpoint at *path* with *corruption* applied."""
    document = json.loads(path.read_text())
    CORRUPTIONS[corruption](document)
    path.write_text(json.dumps(document))


class TestMalformedFields:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_restore_raises_validation_error(self, tmp_path, corruption):
        path = write_checkpoint(
            replay("steady", seed=1), tmp_path / "fleet.json"
        )
        corrupt_checkpoint(path, corruption)
        with pytest.raises(ValidationError, match="malformed checkpoint"):
            restore_controller(path)

    @pytest.mark.parametrize(
        "corruption",
        ["clock-step", "clock-step-negative", "clock-step-zero", "clock-step-nan"],
    )
    def test_bad_clock_step_names_the_field(self, tmp_path, corruption):
        path = write_checkpoint(
            replay("steady", seed=1), tmp_path / "fleet.json"
        )
        corrupt_checkpoint(path, corruption)
        pattern = r"fleet\.json: malformed checkpoint .*clock\.step_s"
        with pytest.raises(ValidationError, match=pattern):
            load_checkpoint(path)


class TestVerifiedRestore:
    def test_restore_reproduces_log_byte_identically(self, tmp_path):
        controller = replay("churn", seed=3)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        restored, pending = restore_controller(path)
        assert pending == ()
        assert restored.log.to_text() == controller.log.to_text()
        assert restored.state.snapshot() == controller.state.snapshot()

    def test_restored_controller_is_live(self, tmp_path):
        controller = replay("steady", seed=7)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        restored, _ = restore_controller(path)
        record = restored.handle(
            DeployRequest("late", make_line("late", [25e6]))
        )
        assert record.event == "deploy"

    def test_tampered_log_fails_verification(self, tmp_path):
        controller = replay("steady", seed=7)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        document = json.loads(path.read_text())
        document["log"][0]["action"] = "tampered"
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError, match="diverged"):
            restore_controller(path)

    def test_tampered_snapshot_fails_verification(self, tmp_path):
        controller = replay("steady", seed=7)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        document = json.loads(path.read_text())
        document["snapshot"]["tenants"] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError, match="snapshot"):
            restore_controller(path)

    def test_truncated_history_fails_verification(self, tmp_path):
        controller = replay("steady", seed=7)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        document = json.loads(path.read_text())
        document["events"] = document["events"][:-1]
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError):
            restore_controller(path)

    def test_classmethod_restore_matches_function(self, tmp_path):
        controller = replay("steady", seed=7)
        path = write_checkpoint(controller, tmp_path / "fleet.json")
        via_class = FleetController.restore(path)
        assert via_class.log.to_text() == controller.log.to_text()


@pytest.mark.parametrize("name", ["steady", "churn"])
class TestCrashRestoreResume:
    """The acceptance criterion: kill at an arbitrary event boundary,
    checkpoint (remaining events as pending), restore, resume -- the
    final decision log is byte-identical to the uninterrupted run's."""

    def test_resume_equals_uninterrupted_at_every_boundary(
        self, name, tmp_path
    ):
        scenario = build_scenario(name, seed=11)
        uninterrupted = _replay_all(build_scenario(name, seed=11))
        expected = uninterrupted.log.to_text()
        total = len(scenario.events)
        for cut in range(total + 1):
            crashed = FleetController(
                build_scenario(name, seed=11).network,
                config=scenario.config,
                clock=StepClock(),
            )
            for event in scenario.events[:cut]:
                crashed.handle(event)
            path = crashed.checkpoint(
                tmp_path / f"cut{cut}.json",
                pending=scenario.events[cut:],
            )
            resumed, pending = restore_controller(path)
            assert len(pending) == total - cut
            for event in pending:
                resumed.handle(event)
            assert resumed.log.to_text() == expected, (
                f"divergence after crash at event boundary {cut}"
            )
            assert (
                resumed.state.snapshot() == uninterrupted.state.snapshot()
            )
        # metrics are deliberately not compared: the restore-time
        # verification snapshot touches the shared caches, so hit/miss
        # counters diverge while every decision stays identical (same
        # caveat as the batch-pricing determinism test).

    def test_double_checkpoint_is_stable(self, name, tmp_path):
        """checkpoint -> restore -> checkpoint writes identical bytes."""
        controller = _replay_all(build_scenario(name, seed=11))
        first = write_checkpoint(controller, tmp_path / "one.json")
        restored, _ = restore_controller(first)
        second = write_checkpoint(restored, tmp_path / "two.json")
        assert first.read_text() == second.read_text()


class TestMigrationCodec:
    MODEL = MigrationCostModel(
        state_bits_per_cycle=0.25, state_bits_base=5e5, downtime_s=0.02
    )

    def test_none_passes_through(self):
        assert migration_to_dict(None) is None
        assert migration_from_dict(None) is None

    def test_model_round_trips(self):
        document = json.loads(json.dumps(migration_to_dict(self.MODEL)))
        assert migration_from_dict(document) == self.MODEL

    def test_config_round_trips_the_policy_knobs(self):
        config = FleetConfig(
            migration=self.MODEL,
            migration_weight=0.05,
            rebalance_cooldown_ticks=3,
        )
        document = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(document) == config

    def test_pre_migration_documents_decode_with_defaults(self):
        document = config_to_dict(FleetConfig())
        for key in (
            "migration",
            "migration_weight",
            "rebalance_cooldown_ticks",
        ):
            document.pop(key, None)
        config = config_from_dict(document)
        assert config.migration is None
        assert config.migration_weight == 0.0
        assert config.rebalance_cooldown_ticks == 0


#: A checkpoint written before ``FleetConfig.use_batch`` was removed:
#: two line tenants on a 2-server bus and one rebalancing tick, with the
#: scalar-pricing switch set (``"use_batch":false``). It also carries
#: ``"parallel_workers":1``, ``"rebalance_budget":null`` and
#: ``"rebalance_min_gain":0.0``, options removed since.
LEGACY_CHECKPOINT = (
    '{"clock":{"kind":"step","step_s":0.001},'
    '"config":{"admission_load_limit_s":null,'
    '"algorithm":"HeavyOps-LargeMsgs","drift_threshold":0.0,'
    '"execution_weight":0.5,"max_moves_per_rebalance":4,"migration":null,'
    '"migration_weight":0.0,"parallel_workers":1,"penalty_mode":"mad",'
    '"penalty_weight":0.5,"rebalance_budget":null,'
    '"rebalance_cooldown_ticks":0,"rebalance_min_gain":0.0,"seed":0,'
    '"use_batch":false},"events":[{"algorithm":null,"kind":"deploy",'
    '"tenant":"a","workflow":{"format":"workflow",'
    '"messages":[{"probability":1.0,"size_bits":10000,"source":"O1",'
    '"target":"O2"},{"probability":1.0,"size_bits":10000,"source":"O2",'
    '"target":"O3"}],"name":"a","operations":[{"cycles":10000000.0,'
    '"kind":"operational","name":"O1"},{"cycles":30000000.0,'
    '"kind":"operational","name":"O2"},{"cycles":20000000.0,'
    '"kind":"operational","name":"O3"}],"version":1}},{"algorithm":null,'
    '"kind":"deploy","tenant":"b","workflow":{"format":"workflow",'
    '"messages":[{"probability":1.0,"size_bits":10000,"source":"O1",'
    '"target":"O2"}],"name":"b","operations":[{"cycles":40000000.0,'
    '"kind":"operational","name":"O1"},{"cycles":5000000.0,'
    '"kind":"operational","name":"O2"}],"version":1}},{"kind":"tick"}],'
    '"format":"fleet-checkpoint","log":[{"action":"admitted",'
    '"details":[["algorithm","HeavyOps-LargeMsgs"],["balance","1.000000"],'
    '["objective","0.020050"],["operations","3"],["projected_load",'
    '"0.020000"],["servers_used","2"]],"event":"deploy","latency_s":0.001,'
    '"seq":0,"subject":"a"},{"action":"admitted","details":[["algorithm",'
    '"HeavyOps-LargeMsgs"],["balance","0.949438"],["objective","0.023800"],'
    '["operations","2"],["projected_load","0.035000"],["servers_used","2"]],'
    '"event":"deploy","latency_s":0.001,"seq":1,"subject":"b"},'
    '{"action":"rebalanced","details":[["balance","1.000000"],["churn","1"],'
    '["drift","0.157563"],["gain","0.001200"],["objective","0.022600"],'
    '["objective_after","0.022600"],["objective_before","0.023800"]],'
    '"event":"tick","latency_s":0.001,"seq":2,"subject":"fleet"}],'
    '"network":{"format":"network","links":[{"a":"S1","b":"S2",'
    '"propagation_s":0.0,"speed_bps":100000000.0}],"name":"legacy",'
    '"servers":[{"name":"S1","power_hz":1000000000.0},{"name":"S2",'
    '"power_hz":2000000000.0}],"topology_kind":"bus","version":1},'
    '"pending":[],"snapshot":{"balance_index":1.0000000000000002,'
    '"execution_time":0.0452,"loads":{"S1":0.034999999999999996,"S2":0.035},'
    '"objective":0.022600000000000002,"tenants":2,'
    '"time_penalty":3.469446951953614e-18},"version":1}'
)


class TestLegacyCheckpoint:
    def _restore(self, tmp_path, text):
        """Restore *text*; check it replays its stored log and snapshot."""
        document = json.loads(text)
        path = tmp_path / "legacy.json"
        path.write_text(text)
        # restore replays the history and verifies it against the stored
        # log and snapshot: any drift in the decisions raises here
        restored, pending = restore_controller(path)
        assert pending == ()
        assert restored.config == FleetConfig(drift_threshold=0.0)
        stored = [record_from_dict(entry) for entry in document["log"]]
        assert restored.log.to_text() == "".join(
            record.to_line() + "\n" for record in stored
        )
        assert restored.log.records[-1].action == "rebalanced"
        assert snapshot_to_dict(restored.state.snapshot()) == (
            document["snapshot"]
        )
        return document, restored

    def test_use_batch_key_is_accepted_and_replays_identically(
        self, tmp_path
    ):
        document, _ = self._restore(tmp_path, LEGACY_CHECKPOINT)
        assert document["config"]["use_batch"] is False

    def test_parallel_workers_key_is_ignored_and_replays_identically(
        self, tmp_path
    ):
        # the pooled pricing it selected made the same decisions, so any
        # value restores onto the in-process path, byte for byte
        text = LEGACY_CHECKPOINT.replace(
            '"parallel_workers":1', '"parallel_workers":2'
        )
        document, restored = self._restore(tmp_path, text)
        assert document["config"]["parallel_workers"] == 2
        assert "parallel_workers" not in config_to_dict(restored.config)

    def test_rebalance_budget_and_min_gain_keys_are_ignored(self, tmp_path):
        # the plain rebalance loop made the same decisions as the
        # unbudgeted search at min gain 0, so the keys restore away
        document, restored = self._restore(tmp_path, LEGACY_CHECKPOINT)
        removed = ("rebalance_budget", "rebalance_min_gain")
        assert all(key in document["config"] for key in removed)
        encoded = config_to_dict(restored.config)
        assert not any(key in encoded for key in removed)


class TestPendingPriorities:
    """Regression: checkpoints must carry pending-job *priorities*.

    Restoring used to re-submit pending events at their kind's default
    priority, silently reordering any queue whose jobs had been boosted
    (operator overrides, failure preemption) -- the resumed run then
    replayed decisions in a different order than the interrupted one
    would have.
    """

    def _drift_service(self):
        """A fleet service mid-way through the drift scenario.

        The first chunk of events is drained; the rest sits queued with
        deliberately scrambled explicit priorities (so default-priority
        resubmission would provably reorder it).
        """
        scenario = build_scenario("drift", seed=0)
        controller = FleetController(
            scenario.network, config=scenario.config, clock=StepClock()
        )
        service = FleetService(controller)
        cut = len(scenario.events) // 2
        for event in scenario.events[:cut]:
            service.submit(event)
        service.drain()
        for index, event in enumerate(scenario.events[cut:]):
            priority = (index * 7) % 5 if index % 3 else None
            service.submit(event, priority)
        return service

    def _queued_pairs(self, service):
        return [(job.event, job.priority) for job in service.queue.queued()]

    def test_priorities_survive_the_codec(self, tmp_path):
        service = self._drift_service()
        pairs = self._queued_pairs(service)
        assert len({priority for _event, priority in pairs}) > 1
        path = write_checkpoint(
            service.controller, tmp_path / "mid.json", pending=pairs
        )
        checkpoint = load_checkpoint(path)
        assert len(checkpoint.pending) == len(pairs)
        assert checkpoint.pending_priorities == tuple(
            priority for _event, priority in pairs
        )

    def test_bare_events_load_with_default_priorities(self, tmp_path):
        controller = replay("steady", seed=2)
        path = write_checkpoint(
            controller, tmp_path / "bare.json", pending=[Tick(), Tick()]
        )
        checkpoint = load_checkpoint(path)
        assert len(checkpoint.pending) == 2
        assert checkpoint.pending_priorities == (None, None)
        restored = restore_service(checkpoint)
        defaults = [job.priority for job in restored.queue.queued()]
        assert len(defaults) == 2

    def test_restored_queue_replays_in_checkpointed_order(self, tmp_path):
        service = self._drift_service()
        pairs = self._queued_pairs(service)
        path = write_checkpoint(
            service.controller, tmp_path / "mid.json", pending=pairs
        )
        restored = restore_service(path)
        # events lack value equality (workflows compare by identity), so
        # compare through the codec
        encoded = [
            (event_to_dict(event), priority) for event, priority in pairs
        ]
        assert [
            (event_to_dict(event), priority)
            for event, priority in self._queued_pairs(restored)
        ] == encoded

    def test_resumed_decisions_are_byte_identical(self, tmp_path):
        service = self._drift_service()
        pairs = self._queued_pairs(service)
        path = write_checkpoint(
            service.controller, tmp_path / "mid.json", pending=pairs
        )
        restored = restore_service(path)
        service.drain()
        restored.drain()
        assert (
            restored.controller.log.to_text()
            == service.controller.log.to_text()
        )
        assert (
            restored.controller.state.snapshot()
            == service.controller.state.snapshot()
        )
