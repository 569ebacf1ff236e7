"""Lossless JSON encoding of workflows, networks and deployments.

The format is versioned (``"format"`` and ``"version"`` fields) and
deliberately explicit -- every operation, message, server and link is a
small object with named fields in the library's SI units, so files are
diffable and hand-editable. Decoding validates through the normal
constructors, so a corrupted file fails with the same typed exceptions
the API raises.

A *problem instance* bundle (:func:`dump_instance` /
:func:`load_instance`) stores a workflow, a network and optionally a
deployment in one document -- the unit the CLI operates on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.core.mapping import Deployment
from repro.core.workflow import Message, NodeKind, Operation, Workflow
from repro.exceptions import ReproError
from repro.network.topology import Link, Server, ServerNetwork

__all__ = [
    "workflow_to_dict",
    "workflow_from_dict",
    "network_to_dict",
    "network_from_dict",
    "deployment_to_dict",
    "deployment_from_dict",
    "dump_instance",
    "load_instance",
    "dump_document",
    "load_document",
]

FORMAT_VERSION = 1


class CodecError(ReproError):
    """A document does not decode to a valid object."""


def _require(document: Mapping[str, Any], field: str, expected: str) -> Any:
    try:
        return document[field]
    except (KeyError, TypeError):
        raise CodecError(
            f"{expected} document is missing required field {field!r}"
        ) from None


def _entries(document: Mapping[str, Any], field: str, expected: str) -> list:
    """Read list *field* (operations, messages, servers, links)."""
    value = _require(document, field, expected)
    if not isinstance(value, list):
        raise CodecError(f"{expected} field {field!r} must be a list")
    return value


def _number(
    document: Mapping[str, Any],
    field: str,
    expected: str,
    default: float | None = None,
) -> float:
    """Read numeric *field*; *default* when given and it is absent."""
    if default is not None and field not in document:
        return default
    value = _require(document, field, expected)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CodecError(
            f"{expected} field {field!r} must be a number, got {value!r}"
        ) from None


def _check_format(
    document: Mapping[str, Any], expected: str, written: int = FORMAT_VERSION
) -> None:
    """Check a document's ``format``, and that its ``version`` is
    *written*, the version this library writes for that format."""
    actual = _require(document, "format", expected)
    if actual != expected:
        raise CodecError(
            f"expected a {expected!r} document, got format {actual!r}"
        )
    version = document.get("version", written)
    if version != written:
        raise CodecError(
            f"unsupported {expected} format version {version!r} "
            f"(this library writes version {written})"
        )


# ----------------------------------------------------------------------
# workflow
# ----------------------------------------------------------------------
def workflow_to_dict(workflow: Workflow) -> dict[str, Any]:
    """Encode *workflow* as a JSON-compatible dict."""
    return {
        "format": "workflow",
        "version": FORMAT_VERSION,
        "name": workflow.name,
        "operations": [
            {
                "name": op.name,
                "cycles": op.cycles,
                "kind": op.kind.value,
            }
            for op in workflow.operations
        ],
        "messages": [
            {
                "source": message.source,
                "target": message.target,
                "size_bits": message.size_bits,
                "probability": message.probability,
            }
            for message in workflow.messages
        ],
    }


def workflow_from_dict(document: Mapping[str, Any]) -> Workflow:
    """Decode a workflow; raises :class:`CodecError` on malformed input."""
    _check_format(document, "workflow")
    workflow = Workflow(str(_require(document, "name", "workflow")))
    for entry in _entries(document, "operations", "workflow"):
        name = str(_require(entry, "name", "operation"))
        kind_value = entry.get("kind", NodeKind.OPERATIONAL.value)
        try:
            kind = NodeKind(kind_value)
        except ValueError:
            raise CodecError(
                f"unknown operation kind {kind_value!r}"
            ) from None
        workflow.add_operation(
            Operation(name, _number(entry, "cycles", "operation"), kind)
        )
    for entry in _entries(document, "messages", "workflow"):
        workflow.add_transition(
            Message(
                str(_require(entry, "source", "message")),
                str(_require(entry, "target", "message")),
                _number(entry, "size_bits", "message"),
                _number(entry, "probability", "message", default=1.0),
            )
        )
    return workflow


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------
def network_to_dict(network: ServerNetwork) -> dict[str, Any]:
    """Encode *network* as a JSON-compatible dict."""
    return {
        "format": "network",
        "version": FORMAT_VERSION,
        "name": network.name,
        "topology_kind": network.topology_kind,
        "servers": [
            {"name": server.name, "power_hz": server.power_hz}
            for server in network.servers
        ],
        "links": [
            {
                "a": link.a,
                "b": link.b,
                "speed_bps": link.speed_bps,
                "propagation_s": link.propagation_s,
            }
            for link in network.links
        ],
    }


def network_from_dict(document: Mapping[str, Any]) -> ServerNetwork:
    """Decode a server network; raises :class:`CodecError` on bad input."""
    _check_format(document, "network")
    network = ServerNetwork(
        str(_require(document, "name", "network")),
        topology_kind=str(document.get("topology_kind", "custom")),
    )
    for entry in _entries(document, "servers", "network"):
        network.add_server(
            Server(
                str(_require(entry, "name", "server")),
                _number(entry, "power_hz", "server"),
            )
        )
    for entry in _entries(document, "links", "network"):
        network.add_link(
            Link(
                str(_require(entry, "a", "link")),
                str(_require(entry, "b", "link")),
                _number(entry, "speed_bps", "link"),
                _number(entry, "propagation_s", "link", default=0.0),
            )
        )
    return network


# ----------------------------------------------------------------------
# deployment
# ----------------------------------------------------------------------
def deployment_to_dict(deployment: Deployment) -> dict[str, Any]:
    """Encode *deployment* as a JSON-compatible dict."""
    return {
        "format": "deployment",
        "version": FORMAT_VERSION,
        "assignments": deployment.as_dict(),
    }


def deployment_from_dict(document: Mapping[str, Any]) -> Deployment:
    """Decode a deployment; raises :class:`CodecError` on bad input."""
    _check_format(document, "deployment")
    assignments = _require(document, "assignments", "deployment")
    if not isinstance(assignments, Mapping):
        raise CodecError("deployment assignments must be an object")
    return Deployment({str(k): str(v) for k, v in assignments.items()})


# ----------------------------------------------------------------------
# on-disk documents
# ----------------------------------------------------------------------
def dump_document(path: str | Path, document: Mapping[str, Any]) -> Path:
    """Write *document* to *path* in the library's canonical JSON form.

    Canonical means sorted keys, two-space indent and a trailing
    newline -- every persisted artifact (instance bundles, fleet
    checkpoints) diffs cleanly and byte-identically regardless of the
    writer's dict insertion order.
    """
    target = Path(path)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    return target


def load_document(
    path: str | Path, expected: str | None = None
) -> dict[str, Any]:
    """Read a JSON document; optionally check its ``format`` field.

    Missing files and malformed JSON both raise :class:`CodecError`
    (with the path in the message), so callers never see a raw
    ``OSError``/``JSONDecodeError`` traceback for a bad file argument.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CodecError(f"{path}: cannot read ({exc})") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise CodecError(f"{path}: expected a JSON object at top level")
    if expected is not None:
        _check_format(document, expected)
    return document


# ----------------------------------------------------------------------
# problem-instance bundles
# ----------------------------------------------------------------------
def dump_instance(
    path: str | Path,
    workflow: Workflow,
    network: ServerNetwork,
    deployment: Deployment | None = None,
) -> None:
    """Write a workflow/network(/deployment) bundle to *path* as JSON."""
    document: dict[str, Any] = {
        "format": "instance",
        "version": FORMAT_VERSION,
        "workflow": workflow_to_dict(workflow),
        "network": network_to_dict(network),
    }
    if deployment is not None:
        document["deployment"] = deployment_to_dict(deployment)
    dump_document(path, document)


def load_instance(
    path: str | Path,
) -> tuple[Workflow, ServerNetwork, Deployment | None]:
    """Read a bundle written by :func:`dump_instance`."""
    document = load_document(path, "instance")
    workflow = workflow_from_dict(_require(document, "workflow", "instance"))
    network = network_from_dict(_require(document, "network", "instance"))
    deployment = None
    if "deployment" in document:
        deployment = deployment_from_dict(document["deployment"])
    return workflow, network, deployment
