"""Durable fleet checkpoints: the document codec, dump, and verified restore.

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
sorted-key JSON (diffable, hand-editable). Its sub-documents -- events,
the config and its migration model, log records, the snapshot -- follow
their dataclasses: :func:`to_dict` and :func:`from_dict` read the field
layout from :func:`dataclasses.fields` and the type hints, with one
rule per field type, and decode through the same constructors the API
validates with. The REST surface (:mod:`repro.service.server`) speaks
the same documents. ``pending`` optionally stores not-yet-processed
events so a crash-interrupted scenario can checkpoint mid-trace and
resume exactly where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Mapping,
    NamedTuple,
    Sequence,
    get_args,
    get_type_hints,
)

from repro.core.clock import StepClock
from repro.core.migration import MigrationCostModel
from repro.core.workflow import Workflow
from repro.exceptions import ReproError, ValidationError
from repro.io.json_codec import (
    _check_format,
    _require,
    dump_document,
    load_document,
    network_from_dict,
    workflow_from_dict,
    workflow_to_dict,
)
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    EVENT_TYPES,
    DeployRequest,
    FleetEvent,
    LinkDegrade,
    ServerJoined,
)
from repro.service.log import LogRecord

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "to_dict",
    "from_dict",
    "event_to_dict",
    "event_from_dict",
    "Checkpoint",
    "checkpoint_to_dict",
    "write_checkpoint",
    "load_checkpoint",
    "restore_controller",
    "restore_service",
]

CHECKPOINT_FORMAT = "fleet-checkpoint"
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# the dataclass codec
# ----------------------------------------------------------------------
#: The only fields a document may omit (the constructor default then
#: applies): those the format has always read with a default, so
#: documents written before they existed still load. Every other field
#: is required, dataclass default or not.
_OPTIONAL = {
    DeployRequest: ("algorithm",),
    ServerJoined: ("propagation_s",),
    LinkDegrade: ("propagation_factor",),
    FleetConfig: (
        "admission_load_limit_s",
        "migration",
        "migration_weight",
        "rebalance_cooldown_ticks",
    ),
    MigrationCostModel: (
        "state_bits_per_cycle",
        "state_bits_base",
        "downtime_s",
    ),
}

#: ``(decode, encode)`` per leaf field type: *decode* turns a document
#: value into the field value; *encode* is the expression that writes
#: the field, ``{0}`` standing for the attribute read. ``X | None`` and
#: nested dataclasses are derived from these in :func:`_rule`.
_RULES: dict[Any, tuple[Callable[[Any], Any], str]] = {
    str: (str, "{0}"),
    int: (int, "{0}"),
    float: (float, "{0}"),
    Workflow: (workflow_from_dict, "workflow_to_dict({0})"),
    Mapping[str, float]: (
        lambda value: {str(key): float(x) for key, x in value.items()},
        "dict({0})",
    ),
    tuple[tuple[str, str], ...]: (
        lambda value: tuple((str(key), str(x)) for key, x in value),
        "[[key, x] for key, x in {0}]",
    ),
}

_EVENT_CLASSES = frozenset(EVENT_TYPES.values())

#: What a field decode may raise on a malformed value; each becomes a
#: :class:`ValidationError` naming the field.
_DECODE_ERRORS = (
    ReproError, TypeError, ValueError, AttributeError, OverflowError
)


class _Field(NamedTuple):
    name: str
    decode: Callable[[Any], Any]
    encode: str
    optional: bool


class _Plan(NamedTuple):
    label: str
    fields: tuple[_Field, ...]
    encode: Callable[[Any], dict[str, Any]]


def _rule(hint: Any) -> tuple[Callable[[Any], Any], str]:
    """The ``(decode, encode)`` pair of one field type hint."""
    if hint in _RULES:
        return _RULES[hint]
    arguments = get_args(hint)
    if len(arguments) == 2 and type(None) in arguments:
        (inner,) = (a for a in arguments if a is not type(None))
        decode, encode = _rule(inner)
        if encode != "{0}":
            encode = "None if {0} is None else " + encode
        return (lambda value: None if value is None else decode(value)), encode
    if is_dataclass(hint):
        return (lambda value: from_dict(hint, value)), "to_dict({0})"
    raise TypeError(f"no document rule for field type {hint!r}")


def _encoder(
    kind: str | None, table: tuple[_Field, ...]
) -> Callable[[Any], dict[str, Any]]:
    """The function writing a document from *table*, made once per class.

    Like :mod:`dataclasses` does for ``__init__``, it is generated
    source: one dict display, ``kind`` first, then each field's encode
    expression in declaration order -- the encoder one would write by
    hand, with no dispatch left for call time.
    """
    items = [] if kind is None else [f"'kind': {kind!r}"]
    items += [
        f"{field.name!r}: " + field.encode.format(f"value.{field.name}")
        for field in table
    ]
    source = "def encode(value):\n    return {" + ", ".join(items) + "}"
    namespace = {"to_dict": to_dict, "workflow_to_dict": workflow_to_dict}
    exec(source, namespace)
    return namespace["encode"]


def _plan(cls: type) -> _Plan:
    """The field table of dataclass *cls* (see :data:`_PLANS`)."""
    hints = get_type_hints(cls)
    optional = _OPTIONAL.get(cls, ())
    table = tuple(
        _Field(field.name, *_rule(hints[field.name]), field.name in optional)
        for field in fields(cls)
    )
    kind = cls.kind if issubclass(cls, FleetEvent) else None
    return _Plan(
        label=cls.__name__ if kind is None else f"{kind} event",
        fields=table,
        encode=_encoder(kind, table),
    )


class _Plans(dict):
    """Field tables by class, each built on first use."""

    def __missing__(self, cls: type) -> _Plan:
        plan = self[cls] = _plan(cls)
        return plan


_PLANS = _Plans()


def to_dict(value: Any) -> dict[str, Any]:
    """Encode a fleet dataclass (event, config, record, snapshot, ...).

    Events also carry their ``kind``. The result is JSON-compatible.
    """
    return _PLANS[type(value)].encode(value)


def from_dict(cls: type, document: Mapping[str, Any]) -> Any:
    """Decode a *cls* document written by :func:`to_dict`.

    Keys it does not read are ignored. A missing required field, a
    value of the wrong type or a non-object document raises
    :class:`ValidationError` naming the field; the constructor then
    validates as it does for API callers.
    """
    plan = _PLANS[cls]
    if not isinstance(document, Mapping):
        raise ValidationError(
            f"{plan.label} document must be an object, "
            f"got {type(document).__name__}"
        )
    values = {}
    for name, decode, _encode, optional in plan.fields:
        if name not in document:
            if optional:
                continue
            raise ValidationError(
                f"{plan.label} document is missing required field {name!r}"
            )
        try:
            values[name] = decode(document[name])
        except _DECODE_ERRORS as exc:
            raise ValidationError(
                f"{plan.label} field {name!r}: {exc}"
            ) from None
    return cls(**values)


def event_to_dict(event: FleetEvent) -> dict[str, Any]:
    """Encode one fleet event as a JSON-compatible dict."""
    cls = type(event)
    if cls not in _EVENT_CLASSES:
        raise ValidationError(
            f"cannot encode fleet event type {cls.__name__!r}"
        )
    return _PLANS[cls].encode(event)


def event_from_dict(document: Mapping[str, Any]) -> FleetEvent:
    """Decode one fleet event, its class chosen by ``kind``.

    Raises :class:`ValidationError` on an unknown kind or a malformed
    field.
    """
    try:
        kind = document["kind"]
    except (KeyError, TypeError):
        raise ValidationError(
            "event document is missing required field 'kind'"
        ) from None
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown fleet event kind {kind!r}")
    return from_dict(cls, document)


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
    encode_record = _PLANS[LogRecord].encode  # one lookup for the log
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": to_dict(controller.config),
        "network": controller.initial_network_doc,
        "clock": _clock_to_dict(controller.clock),
        "events": [event_to_dict(event) for event in controller.history],
        "log": [encode_record(record) for record in controller.log],
        "snapshot": to_dict(controller.state.snapshot()),
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
        document = load_document(path)
        _check_format(document, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    except ReproError as exc:
        raise ValidationError(str(exc)) from None
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
            config=from_dict(
                FleetConfig, _require(document, "config", "checkpoint")
            ),
            network_doc=_require(document, "network", "checkpoint"),
            events=tuple(
                event_from_dict(entry)
                for entry in _require(document, "events", "checkpoint")
            ),
            records=tuple(
                from_dict(LogRecord, entry)
                for entry in _require(document, "log", "checkpoint")
            ),
            snapshot_doc=dict(_require(document, "snapshot", "checkpoint")),
            pending=tuple(pending_events),
            deterministic=clock_doc.get("kind") == "step",
            step_s=_step_s(clock_doc.get("step_s", 0.001)),
            pending_priorities=tuple(pending_priorities),
        )
    except (ReproError, TypeError, ValueError, AttributeError) as exc:
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
    replayed_snapshot = to_dict(controller.state.snapshot())
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
    except ReproError as exc:
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
