"""Thin stdlib-only REST façade over a :class:`FleetService`.

Split eNMS-style into an *app* and a *transport*:

:class:`FleetApp`
    The whole HTTP surface as one pure method --
    :meth:`FleetApp.dispatch` maps ``(method, path, body)`` to
    ``(status, payload)`` with no sockets involved, so every route is
    unit-testable as a plain function call. Routes:

    ========  ==================  =========================================
    method    path                effect
    ========  ==================  =========================================
    GET       ``/health``         liveness plus queue/fleet counters
    GET       ``/snapshot``       current :class:`FleetSnapshot` document
    GET       ``/metrics``        :class:`FleetMetrics` document
    GET       ``/jobs``           every job, in submission order
    GET       ``/jobs/<id>``      one job
    POST      ``/jobs``           submit ``{"event": ..., "priority":?}``
    POST      ``/process``        drain ``{"max_jobs":?}`` queued jobs
    POST      ``/checkpoint``     write ``{"path": ...}`` (queued events
                                  ride along as the checkpoint's pending)
    ========  ==================  =========================================

:func:`make_server`
    Binds an app to a :class:`http.server.ThreadingHTTPServer` (port 0
    picks a free port). The handler only parses the request line and a
    JSON body, then defers to :meth:`FleetApp.dispatch`; the service's
    internal lock serialises the threaded requests.

No third-party dependencies -- ``http.server`` is deliberately enough
for a fleet-control plane that sees tens of requests per rebalance
interval, and it keeps the façade importable everywhere the library is.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.exceptions import ReproError, ServiceError, ValidationError
from repro.service.checkpoint import event_from_dict, to_dict, write_checkpoint
from repro.service.queue import FleetService, Job

__all__ = ["FleetApp", "job_to_dict", "make_server"]


def job_to_dict(job: Job) -> dict[str, Any]:
    """Encode one queue job for the REST surface."""
    return {
        "id": job.id,
        "kind": job.kind,
        "subject": job.subject,
        "priority": job.priority,
        "seq": job.seq,
        "state": job.state,
        "record": (
            to_dict(job.record) if job.record is not None else None
        ),
        "error": job.error,
    }


def _optional_int(body: dict[str, Any], field: str) -> int | None:
    """Read integer *field* of a request body (absent or null: ``None``)."""
    value = body.get(field)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"field {field!r} must be an integer, got {value!r}"
        ) from None


class FleetApp:
    """The REST surface of one :class:`FleetService`, transport-free."""

    def __init__(self, service: FleetService):
        self.service = service

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; return ``(status, payload)``.

        Library errors (:class:`~repro.exceptions.ReproError` and
        subclasses) become ``400`` responses with a one-line ``error``
        field; unknown routes become ``404``. Nothing raises out of
        here short of a genuine bug.
        """
        method = method.upper()
        parts = [part for part in path.split("/") if part]
        try:
            if method == "GET":
                return self._get(parts)
            if method == "POST":
                return self._post(parts, body or {})
        except ReproError as exc:
            return 400, {"error": str(exc)}
        return 404, {"error": f"no route for {method} {path}"}

    def _get(self, parts: list[str]) -> tuple[int, dict[str, Any]]:
        service = self.service
        if parts == ["health"]:
            controller = service.controller
            return 200, {
                "status": "ok",
                "tenants": len(controller.state.tenants),
                "servers": len(controller.state.network.server_names),
                "pending": service.queue.pending,
                "jobs": len(service.queue),
                "events": len(controller.history),
            }
        if parts == ["snapshot"]:
            return 200, to_dict(service.controller.state.snapshot())
        if parts == ["metrics"]:
            return 200, asdict(service.controller.metrics())
        if parts == ["jobs"]:
            return 200, {
                "jobs": [job_to_dict(job) for job in service.queue.jobs],
                "pending": service.queue.pending,
            }
        if len(parts) == 2 and parts[0] == "jobs":
            try:
                job_id = int(parts[1])
            except ValueError:
                return 404, {"error": f"job id {parts[1]!r} is not a number"}
            try:
                job = service.queue.job(job_id)
            except ServiceError as exc:
                return 404, {"error": str(exc)}
            return 200, job_to_dict(job)
        return 404, {"error": f"no route for GET /{'/'.join(parts)}"}

    def _post(
        self, parts: list[str], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        service = self.service
        if parts == ["jobs"]:
            event_doc = body.get("event")
            if not isinstance(event_doc, dict):
                return 400, {
                    "error": "POST /jobs needs an object 'event' field"
                }
            event = event_from_dict(event_doc)
            priority = _optional_int(body, "priority")
            return 201, job_to_dict(service.submit(event, priority))
        if parts == ["process"]:
            processed = service.drain(_optional_int(body, "max_jobs"))
            return 200, {
                "processed": [job_to_dict(job) for job in processed],
                "pending": service.queue.pending,
            }
        if parts == ["checkpoint"]:
            path = body.get("path")
            if not path:
                return 400, {
                    "error": "POST /checkpoint needs a 'path' field"
                }
            pending = [
                (job.event, job.priority) for job in service.queue.queued()
            ]
            written = write_checkpoint(
                service.controller, path, pending=pending
            )
            return 200, {
                "path": str(written),
                "events": len(service.controller.history),
                "pending": len(pending),
            }
        return 404, {"error": f"no route for POST /{'/'.join(parts)}"}


class _FleetRequestHandler(BaseHTTPRequestHandler):
    """Transport shim: request line + JSON body in, JSON out."""

    app: FleetApp  # attached by make_server on the subclass

    # quiet by default -- the service has its own decision log
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> dict[str, Any] | None:
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return body if isinstance(body, dict) else None

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._respond(*self.app.dispatch("GET", self.path))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        body = self._read_body()
        if body is None:
            self._respond(
                400, {"error": "request body must be a JSON object"}
            )
            return
        self._respond(*self.app.dispatch("POST", self.path, body))


def make_server(
    app: FleetApp, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind *app* to a threading HTTP server (port 0 = pick a free one).

    The caller owns the lifecycle: ``server.serve_forever()`` to run,
    ``server.shutdown()`` + ``server.server_close()`` to stop. The bound
    port is ``server.server_address[1]``.
    """
    handler = type(
        "FleetRequestHandler", (_FleetRequestHandler,), {"app": app}
    )
    return ThreadingHTTPServer((host, port), handler)
