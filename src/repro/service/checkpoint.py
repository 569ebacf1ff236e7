"""Durable fleet checkpoints: codecs, dump, and verified restore.

A checkpoint freezes everything a deterministic controller run is a
function of -- the initial fleet network, the
:class:`~repro.service.controller.FleetConfig`, the clock kind, and the
append-only event history -- plus everything the run *produced*: the
decision log and the closing
:class:`~repro.service.state.FleetSnapshot`. Restoring replays the
history against the initial fleet under a fresh deterministic clock and
then **verifies** the replay: the regenerated decision log must match
the checkpointed one byte for byte (latency-stripped when the original
run used a wall clock) and the regenerated snapshot must equal the
checkpointed one float for float. A checkpoint that cannot reproduce
its own log fails loudly with :class:`~repro.exceptions.ValidationError`
instead of silently resuming from divergent state.

The format follows :mod:`repro.io.json_codec`: versioned, explicit,
sorted-key JSON (diffable, hand-editable), with every sub-object going
through the same constructors the API validates with. ``pending``
optionally stores not-yet-processed events so a crash-interrupted
scenario can checkpoint mid-trace and resume exactly where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.algorithms.runtime import SearchBudget
from repro.core.clock import StepClock
from repro.core.migration import MigrationCostModel
from repro.exceptions import ValidationError
from repro.io.json_codec import (
    CodecError,
    dump_document,
    load_document,
    network_from_dict,
    workflow_from_dict,
    workflow_to_dict,
)
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    FleetEvent,
    LinkDegrade,
    LinkFailure,
    RegionOutage,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.log import LogRecord
from repro.service.state import FleetSnapshot

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "event_to_dict",
    "event_from_dict",
    "config_to_dict",
    "config_from_dict",
    "budget_to_dict",
    "budget_from_dict",
    "migration_to_dict",
    "migration_from_dict",
    "record_to_dict",
    "record_from_dict",
    "snapshot_to_dict",
    "snapshot_from_dict",
    "Checkpoint",
    "checkpoint_to_dict",
    "write_checkpoint",
    "load_checkpoint",
    "restore_controller",
    "restore_service",
]

CHECKPOINT_FORMAT = "fleet-checkpoint"
CHECKPOINT_VERSION = 1


def _require(document: Mapping[str, Any], field: str, expected: str) -> Any:
    try:
        return document[field]
    except (KeyError, TypeError):
        raise ValidationError(
            f"{expected} document is missing required field {field!r}"
        ) from None


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
def event_to_dict(event: FleetEvent) -> dict[str, Any]:
    """Encode one fleet event as a JSON-compatible dict."""
    if isinstance(event, DeployRequest):
        return {
            "kind": event.kind,
            "tenant": event.tenant,
            "workflow": workflow_to_dict(event.workflow),
            "algorithm": event.algorithm,
        }
    if isinstance(event, UndeployRequest):
        return {"kind": event.kind, "tenant": event.tenant}
    if isinstance(event, ServerFailed):
        return {"kind": event.kind, "server": event.server}
    if isinstance(event, ServerJoined):
        return {
            "kind": event.kind,
            "server": event.server,
            "power_hz": event.power_hz,
            "link_speed_bps": event.link_speed_bps,
            "propagation_s": event.propagation_s,
        }
    if isinstance(event, WorkloadDrift):
        return {
            "kind": event.kind,
            "tenant": event.tenant,
            "workflow": workflow_to_dict(event.workflow),
        }
    if isinstance(event, CapacityDrift):
        return {
            "kind": event.kind,
            "server": event.server,
            "power_hz": event.power_hz,
        }
    if isinstance(event, LinkFailure):
        return {"kind": event.kind, "a": event.a, "b": event.b}
    if isinstance(event, LinkDegrade):
        return {
            "kind": event.kind,
            "a": event.a,
            "b": event.b,
            "speed_factor": event.speed_factor,
            "propagation_factor": event.propagation_factor,
        }
    if isinstance(event, RegionOutage):
        return {"kind": event.kind, "region": event.region}
    if isinstance(event, Tick):
        return {"kind": event.kind}
    raise ValidationError(
        f"cannot encode fleet event type {type(event).__name__!r}"
    )


def event_from_dict(document: Mapping[str, Any]) -> FleetEvent:
    """Decode one fleet event; raises :class:`ValidationError`."""
    kind = _require(document, "kind", "event")
    if kind == DeployRequest.kind:
        return DeployRequest(
            tenant=str(_require(document, "tenant", "deploy event")),
            workflow=workflow_from_dict(
                _require(document, "workflow", "deploy event")
            ),
            algorithm=(
                str(document["algorithm"])
                if document.get("algorithm") is not None
                else None
            ),
        )
    if kind == UndeployRequest.kind:
        return UndeployRequest(
            tenant=str(_require(document, "tenant", "undeploy event"))
        )
    if kind == ServerFailed.kind:
        return ServerFailed(
            server=str(_require(document, "server", "server-failed event"))
        )
    if kind == ServerJoined.kind:
        return ServerJoined(
            server=str(_require(document, "server", "server-joined event")),
            power_hz=float(
                _require(document, "power_hz", "server-joined event")
            ),
            link_speed_bps=float(
                _require(document, "link_speed_bps", "server-joined event")
            ),
            propagation_s=float(document.get("propagation_s", 0.0)),
        )
    if kind == WorkloadDrift.kind:
        return WorkloadDrift(
            tenant=str(_require(document, "tenant", "workload-drift event")),
            workflow=workflow_from_dict(
                _require(document, "workflow", "workload-drift event")
            ),
        )
    if kind == CapacityDrift.kind:
        return CapacityDrift(
            server=str(_require(document, "server", "capacity-drift event")),
            power_hz=float(
                _require(document, "power_hz", "capacity-drift event")
            ),
        )
    if kind == LinkFailure.kind:
        return LinkFailure(
            a=str(_require(document, "a", "link-failed event")),
            b=str(_require(document, "b", "link-failed event")),
        )
    if kind == LinkDegrade.kind:
        return LinkDegrade(
            a=str(_require(document, "a", "link-degraded event")),
            b=str(_require(document, "b", "link-degraded event")),
            speed_factor=float(
                _require(document, "speed_factor", "link-degraded event")
            ),
            propagation_factor=float(
                document.get("propagation_factor", 1.0)
            ),
        )
    if kind == RegionOutage.kind:
        return RegionOutage(
            region=str(_require(document, "region", "region-outage event"))
        )
    if kind == Tick.kind:
        return Tick()
    raise ValidationError(f"unknown fleet event kind {kind!r}")


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def budget_to_dict(budget: SearchBudget | None) -> dict[str, Any] | None:
    """Encode a search budget (``None`` passes through)."""
    if budget is None:
        return None
    return {
        "max_steps": budget.max_steps,
        "max_evals": budget.max_evals,
        "deadline_s": budget.deadline_s,
    }


def budget_from_dict(
    document: Mapping[str, Any] | None,
) -> SearchBudget | None:
    """Decode a search budget (``None`` passes through)."""
    if document is None:
        return None
    return SearchBudget(
        max_steps=document.get("max_steps"),
        max_evals=document.get("max_evals"),
        deadline_s=document.get("deadline_s"),
    )


def migration_to_dict(
    migration: MigrationCostModel | None,
) -> dict[str, Any] | None:
    """Encode a migration cost model (``None`` passes through)."""
    if migration is None:
        return None
    return {
        "state_bits_per_cycle": migration.state_bits_per_cycle,
        "state_bits_base": migration.state_bits_base,
        "downtime_s": migration.downtime_s,
    }


def migration_from_dict(
    document: Mapping[str, Any] | None,
) -> MigrationCostModel | None:
    """Decode a migration cost model (``None`` passes through)."""
    if document is None:
        return None
    return MigrationCostModel(
        state_bits_per_cycle=float(
            document.get("state_bits_per_cycle", 0.0)
        ),
        state_bits_base=float(document.get("state_bits_base", 0.0)),
        downtime_s=float(document.get("downtime_s", 0.0)),
    )


def config_to_dict(config: FleetConfig) -> dict[str, Any]:
    """Encode a :class:`FleetConfig` as a JSON-compatible dict."""
    return {
        "algorithm": config.algorithm,
        "admission_load_limit_s": config.admission_load_limit_s,
        "drift_threshold": config.drift_threshold,
        "max_moves_per_rebalance": config.max_moves_per_rebalance,
        "rebalance_budget": budget_to_dict(config.rebalance_budget),
        "execution_weight": config.execution_weight,
        "penalty_weight": config.penalty_weight,
        "penalty_mode": config.penalty_mode,
        "seed": config.seed,
        "migration": migration_to_dict(config.migration),
        "migration_weight": config.migration_weight,
        "rebalance_min_gain": config.rebalance_min_gain,
        "rebalance_cooldown_ticks": config.rebalance_cooldown_ticks,
    }


def config_from_dict(document: Mapping[str, Any]) -> FleetConfig:
    """Decode a :class:`FleetConfig` (validated by its constructor).

    The transition-aware fields decode with their defaults when absent,
    so version-1 checkpoints written before the migration model existed
    keep loading. Keys it does not read -- such as options removed
    since an older checkpoint was written -- are ignored.
    """
    return FleetConfig(
        algorithm=str(_require(document, "algorithm", "fleet config")),
        admission_load_limit_s=document.get("admission_load_limit_s"),
        drift_threshold=float(
            _require(document, "drift_threshold", "fleet config")
        ),
        max_moves_per_rebalance=int(
            _require(document, "max_moves_per_rebalance", "fleet config")
        ),
        rebalance_budget=budget_from_dict(document.get("rebalance_budget")),
        execution_weight=float(
            _require(document, "execution_weight", "fleet config")
        ),
        penalty_weight=float(
            _require(document, "penalty_weight", "fleet config")
        ),
        penalty_mode=str(_require(document, "penalty_mode", "fleet config")),
        seed=int(_require(document, "seed", "fleet config")),
        migration=migration_from_dict(document.get("migration")),
        migration_weight=float(document.get("migration_weight", 0.0)),
        rebalance_min_gain=float(document.get("rebalance_min_gain", 0.0)),
        rebalance_cooldown_ticks=int(
            document.get("rebalance_cooldown_ticks", 0)
        ),
    )


# ----------------------------------------------------------------------
# log records and snapshots
# ----------------------------------------------------------------------
def record_to_dict(record: LogRecord) -> dict[str, Any]:
    """Encode one decision-log record."""
    return {
        "seq": record.seq,
        "event": record.event,
        "subject": record.subject,
        "action": record.action,
        "latency_s": record.latency_s,
        "details": [[key, value] for key, value in record.details],
    }


def record_from_dict(document: Mapping[str, Any]) -> LogRecord:
    """Decode one decision-log record."""
    details = _require(document, "details", "log record")
    return LogRecord(
        seq=int(_require(document, "seq", "log record")),
        event=str(_require(document, "event", "log record")),
        subject=str(_require(document, "subject", "log record")),
        action=str(_require(document, "action", "log record")),
        latency_s=float(_require(document, "latency_s", "log record")),
        details=tuple((str(key), str(value)) for key, value in details),
    )


def snapshot_to_dict(snapshot: FleetSnapshot) -> dict[str, Any]:
    """Encode a fleet snapshot (floats round-trip exactly via JSON)."""
    return {
        "execution_time": snapshot.execution_time,
        "time_penalty": snapshot.time_penalty,
        "objective": snapshot.objective,
        "loads": dict(snapshot.loads),
        "balance_index": snapshot.balance_index,
        "tenants": snapshot.tenants,
    }


def snapshot_from_dict(document: Mapping[str, Any]) -> FleetSnapshot:
    """Decode a fleet snapshot."""
    loads = _require(document, "loads", "fleet snapshot")
    return FleetSnapshot(
        execution_time=float(
            _require(document, "execution_time", "fleet snapshot")
        ),
        time_penalty=float(
            _require(document, "time_penalty", "fleet snapshot")
        ),
        objective=float(_require(document, "objective", "fleet snapshot")),
        loads={str(key): float(value) for key, value in loads.items()},
        balance_index=float(
            _require(document, "balance_index", "fleet snapshot")
        ),
        tenants=int(_require(document, "tenants", "fleet snapshot")),
    )


def _clock_to_dict(clock) -> dict[str, Any]:
    if isinstance(clock, StepClock):
        return {"kind": "step", "step_s": clock.step_s}
    return {"kind": "wall"}


# ----------------------------------------------------------------------
# whole checkpoints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checkpoint:
    """A decoded checkpoint: everything a verified restore needs.

    ``deterministic`` is true when the original run used a
    :class:`~repro.core.clock.StepClock`; restore then demands a
    byte-identical log (latencies included). Wall-clock runs verify the
    decisions only.
    """

    config: FleetConfig
    network_doc: dict[str, Any]
    events: tuple[FleetEvent, ...]
    records: tuple[LogRecord, ...]
    snapshot_doc: dict[str, Any]
    pending: tuple[FleetEvent, ...]
    deterministic: bool
    step_s: float
    #: Queue priority of each pending event (aligned with
    #: :attr:`pending`); ``None`` means the event kind's default. Old
    #: checkpoints that stored bare events decode as all-``None``.
    pending_priorities: tuple[int | None, ...] = ()


def _pending_entry(item) -> dict[str, Any]:
    """Encode one pending entry: a bare event or ``(event, priority)``.

    A bare event (or a ``None`` priority) writes the historical plain
    event dict; an explicit priority nests the event under ``"event"``
    so a restored work queue re-seeds with byte-identical pop order
    even after reprioritizations boosted the queued jobs.
    """
    if isinstance(item, FleetEvent):
        return event_to_dict(item)
    event, priority = item
    if priority is None:
        return event_to_dict(event)
    return {"event": event_to_dict(event), "priority": int(priority)}


def checkpoint_to_dict(
    controller: FleetController,
    pending: Sequence[FleetEvent | tuple[FleetEvent, int | None]] = (),
) -> dict[str, Any]:
    """Encode a live controller (plus optional *pending* events).

    *pending* entries may be bare events or ``(event, priority)`` pairs
    -- the latter preserve a work queue's current priorities (see
    :func:`restore_service`).
    """
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config_to_dict(controller.config),
        "network": controller.initial_network_doc,
        "clock": _clock_to_dict(controller.clock),
        "events": [event_to_dict(event) for event in controller.history],
        "log": [record_to_dict(record) for record in controller.log],
        "snapshot": snapshot_to_dict(controller.state.snapshot()),
        "pending": [_pending_entry(item) for item in pending],
    }


def write_checkpoint(
    controller: FleetController,
    path: str | Path,
    pending: Sequence[FleetEvent | tuple[FleetEvent, int | None]] = (),
) -> Path:
    """Serialise *controller* to *path*; return the written path."""
    return dump_document(path, checkpoint_to_dict(controller, pending))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and decode a checkpoint; raises :class:`ValidationError`.

    File-level problems (missing file, malformed JSON, wrong format)
    and field-level problems both surface as
    :class:`~repro.exceptions.ValidationError` with the path in the
    message -- the CLI turns them into one-line errors.
    """
    try:
        document = load_document(path, CHECKPOINT_FORMAT)
    except CodecError as exc:
        raise ValidationError(str(exc)) from None
    version = document.get("version", CHECKPOINT_VERSION)
    if version != CHECKPOINT_VERSION:
        raise ValidationError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(this library writes version {CHECKPOINT_VERSION})"
        )
    try:
        clock_doc = document.get("clock") or {"kind": "step"}
        pending_events: list[FleetEvent] = []
        pending_priorities: list[int | None] = []
        for entry in document.get("pending", []):
            if isinstance(entry, Mapping) and "event" in entry:
                pending_events.append(event_from_dict(entry["event"]))
                priority = entry.get("priority")
                pending_priorities.append(
                    int(priority) if priority is not None else None
                )
            else:
                pending_events.append(event_from_dict(entry))
                pending_priorities.append(None)
        return Checkpoint(
            config=config_from_dict(
                _require(document, "config", "checkpoint")
            ),
            network_doc=_require(document, "network", "checkpoint"),
            events=tuple(
                event_from_dict(entry)
                for entry in _require(document, "events", "checkpoint")
            ),
            records=tuple(
                record_from_dict(entry)
                for entry in _require(document, "log", "checkpoint")
            ),
            snapshot_doc=dict(_require(document, "snapshot", "checkpoint")),
            pending=tuple(pending_events),
            deterministic=clock_doc.get("kind") == "step",
            step_s=_step_s(clock_doc.get("step_s", 0.001)),
            pending_priorities=tuple(pending_priorities),
        )
    except (CodecError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"{path}: malformed checkpoint ({exc})") from None


def _step_s(value: Any) -> float:
    """Decode ``clock.step_s``: a :class:`StepClock` step, or raise."""
    try:
        return StepClock(float(value)).step_s
    except (TypeError, ValueError) as exc:
        raise ValueError(f"clock.step_s: {exc}") from None


def _decision_line(record: LogRecord) -> str:
    """A record's canonical line with the latency column removed."""
    payload = " ".join(f"{k}={v}" for k, v in record.details)
    return (
        f"#{record.seq:04d} {record.event} {record.subject} {record.action}"
        + (f" {payload}" if payload else "")
    )


def _verify_replay(
    checkpoint: Checkpoint, controller: FleetController, source: str
) -> None:
    expected = checkpoint.records
    replayed = controller.log.records
    if checkpoint.deterministic:
        render = LogRecord.to_line
    else:
        render = _decision_line
    expected_lines = [render(record) for record in expected]
    replayed_lines = [render(record) for record in replayed]
    if expected_lines != replayed_lines:
        for index, (want, got) in enumerate(
            zip(expected_lines, replayed_lines)
        ):
            if want != got:
                raise ValidationError(
                    f"{source}: replay diverged at log record #{index}: "
                    f"checkpointed {want!r} but replayed {got!r}"
                )
        raise ValidationError(
            f"{source}: replay produced {len(replayed_lines)} log records, "
            f"checkpoint has {len(expected_lines)}"
        )
    replayed_snapshot = snapshot_to_dict(controller.state.snapshot())
    if replayed_snapshot != checkpoint.snapshot_doc:
        raise ValidationError(
            f"{source}: replayed fleet snapshot does not match the "
            f"checkpointed one (checkpointed {checkpoint.snapshot_doc!r}, "
            f"replayed {replayed_snapshot!r})"
        )


def restore_controller(
    source: str | Path | Checkpoint,
) -> tuple[FleetController, tuple[FleetEvent, ...]]:
    """Rebuild a controller from a checkpoint; return it plus pending.

    The event history replays against the initial fleet under a fresh
    :class:`~repro.core.clock.StepClock` and the result is verified
    against the checkpointed log and snapshot (see the module docs).
    The returned controller is live: feeding it the returned pending
    events continues the run exactly as the uninterrupted one would
    have.
    """
    if isinstance(source, Checkpoint):
        checkpoint, label = source, "checkpoint"
    else:
        checkpoint, label = load_checkpoint(source), str(source)
    try:
        network = network_from_dict(checkpoint.network_doc)
    except CodecError as exc:
        raise ValidationError(f"{label}: malformed checkpoint ({exc})") from None
    controller = FleetController(
        network,
        config=checkpoint.config,
        clock=StepClock(step_s=checkpoint.step_s),
    )
    for event in checkpoint.events:
        controller.handle(event)
    _verify_replay(checkpoint, controller, label)
    return controller, checkpoint.pending


def restore_service(source: str | Path | Checkpoint):
    """Rebuild a queue-fronted :class:`~repro.service.queue.FleetService`.

    Runs the verified :func:`restore_controller` replay, then re-seeds a
    fresh work queue with the checkpointed pending events *at their
    checkpointed priorities* (bypassing the submission-side
    reprioritization policies -- the recorded priorities already reflect
    every boost that had been applied). Draining the restored service
    therefore processes the remaining work in exactly the order the
    interrupted one would have.
    """
    from repro.service.queue import FleetService

    if isinstance(source, Checkpoint):
        checkpoint = source
    else:
        checkpoint = load_checkpoint(source)
    controller, _ = restore_controller(checkpoint)
    service = FleetService(controller)
    priorities = checkpoint.pending_priorities or (None,) * len(
        checkpoint.pending
    )
    for event, priority in zip(checkpoint.pending, priorities):
        service.queue.submit(event, priority)
    return service
