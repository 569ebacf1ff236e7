"""The REST façade: pure dispatch unit tests plus one real HTTP smoke."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.core.clock import StepClock
from repro.service.checkpoint import event_to_dict, load_checkpoint
from repro.service.controller import FleetController
from repro.service.events import DeployRequest, ServerFailed, Tick
from repro.service.queue import FleetService
from repro.service.server import FleetApp, job_to_dict, make_server

from .conftest import make_line


@pytest.fixture
def app(fleet_network):
    controller = FleetController(fleet_network, clock=StepClock())
    return FleetApp(FleetService(controller))


def _deploy_doc(tenant: str) -> dict:
    return event_to_dict(
        DeployRequest(tenant, make_line(tenant, [10e6, 20e6]))
    )


class TestDispatchRoutes:
    def test_health(self, app):
        status, payload = app.dispatch("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["servers"] == 4
        assert payload["pending"] == 0

    def test_snapshot(self, app):
        status, payload = app.dispatch("GET", "/snapshot")
        assert status == 200
        assert payload["tenants"] == 0
        assert set(payload["loads"]) == {"S1", "S2", "S3", "S4"}

    def test_metrics(self, app):
        status, payload = app.dispatch("GET", "/metrics")
        assert status == 200
        assert payload["events"] == 0

    def test_submit_then_process(self, app):
        status, job = app.dispatch(
            "POST", "/jobs", {"event": _deploy_doc("alpha")}
        )
        assert status == 201
        assert job["state"] == "queued" and job["subject"] == "alpha"
        status, result = app.dispatch("POST", "/process")
        assert status == 200
        assert [j["state"] for j in result["processed"]] == ["done"]
        assert result["pending"] == 0
        status, payload = app.dispatch("GET", "/snapshot")
        assert payload["tenants"] == 1

    def test_submit_with_priority(self, app):
        _, low = app.dispatch(
            "POST", "/jobs", {"event": _deploy_doc("a"), "priority": 90}
        )
        _, high = app.dispatch(
            "POST", "/jobs", {"event": _deploy_doc("b"), "priority": 5}
        )
        _, result = app.dispatch("POST", "/process", {"max_jobs": 1})
        assert [j["id"] for j in result["processed"]] == [high["id"]]
        assert result["pending"] == 1
        del low

    def test_jobs_listing_and_detail(self, app):
        app.dispatch("POST", "/jobs", {"event": _deploy_doc("alpha")})
        status, listing = app.dispatch("GET", "/jobs")
        assert status == 200 and len(listing["jobs"]) == 1
        job_id = listing["jobs"][0]["id"]
        status, job = app.dispatch("GET", f"/jobs/{job_id}")
        assert status == 200 and job["id"] == job_id

    def test_unknown_job_is_404(self, app):
        assert app.dispatch("GET", "/jobs/99")[0] == 404
        assert app.dispatch("GET", "/jobs/abc")[0] == 404

    def test_unknown_route_is_404(self, app):
        assert app.dispatch("GET", "/nope")[0] == 404
        assert app.dispatch("POST", "/nope")[0] == 404
        assert app.dispatch("DELETE", "/jobs")[0] == 404

    def test_bad_event_document_is_400(self, app):
        status, payload = app.dispatch("POST", "/jobs", {})
        assert status == 400 and "event" in payload["error"]
        status, payload = app.dispatch(
            "POST", "/jobs", {"event": {"kind": "teleport"}}
        )
        assert status == 400

    @pytest.mark.parametrize(
        ("path", "body", "field"),
        [
            (
                "/jobs",
                {"event": {"kind": "tick"}, "priority": "abc"},
                "priority",
            ),
            (
                "/jobs",
                {"event": {"kind": "server-joined", "server": "S9",
                           "power_hz": "abc", "link_speed_bps": 1e8}},
                "power_hz",
            ),
            (
                "/jobs",
                {"event": {"kind": "capacity-drift", "server": "S1",
                           "power_hz": None}},
                "power_hz",
            ),
            ("/process", {"max_jobs": "x"}, "max_jobs"),
        ],
    )
    def test_malformed_values_are_one_line_400s(self, app, path, body, field):
        status, payload = app.dispatch("POST", path, body)
        assert status == 400
        assert field in payload["error"]
        assert "\n" not in payload["error"]
        assert app.service.queue.pending == 0

    def test_checkpoint_includes_queued_jobs_as_pending(self, app, tmp_path):
        app.dispatch("POST", "/jobs", {"event": _deploy_doc("alpha")})
        app.dispatch("POST", "/process")
        app.dispatch("POST", "/jobs", {"event": event_to_dict(Tick())})
        path = tmp_path / "fleet.json"
        status, payload = app.dispatch(
            "POST", "/checkpoint", {"path": str(path)}
        )
        assert status == 200 and payload["pending"] == 1
        checkpoint = load_checkpoint(path)
        assert [event.kind for event in checkpoint.pending] == ["tick"]

    def test_checkpoint_without_path_is_400(self, app):
        assert app.dispatch("POST", "/checkpoint", {})[0] == 400

    def test_payloads_are_json_serializable(self, app):
        app.dispatch("POST", "/jobs", {"event": _deploy_doc("alpha")})
        app.dispatch("POST", "/jobs", {"event": event_to_dict(
            ServerFailed("S1")
        )})
        app.dispatch("POST", "/process")
        for method, path in [
            ("GET", "/health"),
            ("GET", "/snapshot"),
            ("GET", "/metrics"),
            ("GET", "/jobs"),
            ("GET", "/jobs/0"),
        ]:
            _, payload = app.dispatch(method, path)
            json.dumps(payload)  # must not raise


class TestJobToDict:
    def test_done_job_carries_its_record(self, app):
        app.dispatch("POST", "/jobs", {"event": _deploy_doc("alpha")})
        app.dispatch("POST", "/process")
        job = app.service.queue.job(0)
        document = job_to_dict(job)
        assert document["state"] == "done"
        assert document["record"]["event"] == "deploy"
        assert document["error"] == ""


class TestHttpSmoke:
    """One end-to-end pass over real sockets on an OS-assigned port."""

    def test_full_lifecycle_over_http(self, app):
        server = make_server(app, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{port}"
        try:
            def get(path):
                with urllib.request.urlopen(base + path, timeout=5) as res:
                    return res.status, json.loads(res.read())

            def post(path, body):
                request = urllib.request.Request(
                    base + path,
                    data=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=5) as res:
                    return res.status, json.loads(res.read())

            status, health = get("/health")
            assert status == 200 and health["status"] == "ok"
            status, job = post("/jobs", {"event": _deploy_doc("alpha")})
            assert status == 201 and job["state"] == "queued"
            status, result = post("/process", {})
            assert status == 200
            assert [j["state"] for j in result["processed"]] == ["done"]
            status, snapshot = get("/snapshot")
            assert snapshot["tenants"] == 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get("/nope")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_malformed_body_is_400(self, app):
        server = make_server(app, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/jobs",
                data=b"{not json",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
