"""The priority work queue: stable order, reprioritization, policies."""

from __future__ import annotations

import pytest

from repro.core.clock import StepClock
from repro.exceptions import ServiceError
from repro.service.controller import FleetController
from repro.service.events import (
    DeployRequest,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
)
from repro.service.queue import (
    DEFAULT_PRIORITIES,
    DONE,
    DRIFT_PRIORITY,
    FAILED,
    PREEMPT_PRIORITY,
    QUEUED,
    RUNNING,
    FleetService,
    WorkQueue,
    event_subject,
)

from .conftest import make_line


def _deploy(tenant: str) -> DeployRequest:
    return DeployRequest(tenant, make_line(tenant, [10e6, 20e6]))


class TestEventSubject:
    def test_tenant_events(self):
        assert event_subject(_deploy("alpha")) == "alpha"
        assert event_subject(UndeployRequest("beta")) == "beta"

    def test_server_events(self):
        assert event_subject(ServerFailed("S2")) == "S2"
        assert event_subject(ServerJoined("S9", 1e9, 1e8)) == "S9"

    def test_tick_is_fleet(self):
        assert event_subject(Tick()) == "fleet"


class TestWorkQueueOrdering:
    def test_pops_by_priority_then_submission_order(self):
        queue = WorkQueue()
        queue.submit(_deploy("a"), priority=50)
        queue.submit(_deploy("b"), priority=10)
        queue.submit(_deploy("c"), priority=50)
        order = [queue.pop().subject for _ in range(3)]
        assert order == ["b", "a", "c"]

    def test_equal_priorities_pop_in_submission_order(self):
        queue = WorkQueue()
        for name in "abcdef":
            queue.submit(_deploy(name), priority=7)
        assert [queue.pop().subject for _ in range(6)] == list("abcdef")

    def test_default_priorities_follow_event_kind(self):
        queue = WorkQueue()
        tick = queue.submit(Tick())
        failure = queue.submit(ServerFailed("S1"))
        deploy = queue.submit(_deploy("a"))
        assert failure.priority == DEFAULT_PRIORITIES[ServerFailed.kind]
        assert tick.priority == DEFAULT_PRIORITIES[Tick.kind]
        assert deploy.priority == DEFAULT_PRIORITIES[DeployRequest.kind]
        # failure outranks deploy outranks tick
        assert [queue.pop().kind for _ in range(3)] == [
            "server-failed",
            "deploy",
            "tick",
        ]

    def test_pop_empty_returns_none(self):
        assert WorkQueue().pop() is None

    def test_non_event_submission_rejected(self):
        with pytest.raises(ServiceError):
            WorkQueue().submit("not an event")  # type: ignore[arg-type]

    def test_unknown_job_id_raises(self):
        with pytest.raises(ServiceError):
            WorkQueue().job(42)


class TestWorkQueueLifecycle:
    def test_states_progress_queued_running_done(self):
        queue = WorkQueue()
        job = queue.submit(_deploy("a"))
        assert job.state == QUEUED
        popped = queue.pop()
        assert popped is job and job.state == RUNNING
        queue.complete(job, record=None)
        assert job.state == DONE

    def test_fail_records_error(self):
        queue = WorkQueue()
        job = queue.submit(_deploy("a"))
        queue.pop()
        queue.fail(job, "boom")
        assert job.state == FAILED and job.error == "boom"

    def test_complete_requires_running(self):
        queue = WorkQueue()
        job = queue.submit(_deploy("a"))
        with pytest.raises(ServiceError):
            queue.complete(job, record=None)

    def test_pending_counts_only_queued(self):
        queue = WorkQueue()
        queue.submit(_deploy("a"))
        queue.submit(_deploy("b"))
        assert queue.pending == 2
        queue.complete(queue.pop(), record=None)
        assert queue.pending == 1


class TestUpdatePriorities:
    def test_reorders_queued_jobs(self):
        queue = WorkQueue()
        queue.submit(_deploy("a"), priority=50)
        late = queue.submit(_deploy("b"), priority=50)
        changed = queue.update_priorities(
            lambda job: 1 if job.subject == "b" else None
        )
        assert changed == (late,)
        assert [queue.pop().subject for _ in range(2)] == ["b", "a"]

    def test_never_touches_running_or_finished_jobs(self):
        queue = WorkQueue()
        queue.submit(_deploy("a"), priority=50)
        queue.submit(_deploy("b"), priority=50)
        running = queue.pop()  # "a" is now in flight
        offered = []
        queue.update_priorities(lambda job: offered.append(job.subject) or 1)
        assert offered == ["b"]
        assert running.priority == 50  # in-flight work is immovable

    def test_moved_jobs_keep_submission_order_on_ties(self):
        """Reprioritized jobs keep their original seq as the tie-break.

        c and a both end up at priority 5; a was submitted first, so a
        still pops before c -- the stable-order determinism contract
        survives reprioritization.
        """
        queue = WorkQueue()
        queue.submit(_deploy("a"), priority=30)
        queue.submit(_deploy("b"), priority=10)
        queue.submit(_deploy("c"), priority=40)
        queue.update_priorities(
            lambda job: 5 if job.subject in ("a", "c") else None
        )
        assert [queue.pop().subject for _ in range(3)] == ["a", "c", "b"]

    def test_stale_heap_entries_are_skipped(self):
        queue = WorkQueue()
        job = queue.submit(_deploy("a"), priority=50)
        queue.submit(_deploy("b"), priority=60)
        queue.update_priorities(
            lambda j: 70 if j.subject == "a" else None
        )
        # "a" was demoted below "b"; its stale priority-50 entry must
        # not resurface it first.
        assert queue.pop().subject == "b"
        assert queue.pop() is job

    def test_unchanged_priority_not_reported(self):
        queue = WorkQueue()
        queue.submit(_deploy("a"), priority=50)
        assert queue.update_priorities(lambda job: 50) == ()

    def test_drain_order_is_replayable(self):
        """Same submissions + same reprioritization = same drain order.

        b keeps its submission seq when boosted to priority 3, so it
        pops *before* c (submitted later at priority 3 from the start).
        """

        def run() -> list[str]:
            queue = WorkQueue()
            for name, priority in [("a", 9), ("b", 9), ("c", 3), ("d", 9)]:
                queue.submit(_deploy(name), priority=priority)
            queue.update_priorities(
                lambda job: 3 if job.subject in ("b", "d") else None
            )
            return [queue.pop().subject for _ in range(4)]

        assert run() == run() == ["b", "c", "d", "a"]


@pytest.fixture
def service(fleet_network):
    controller = FleetController(fleet_network, clock=StepClock())
    return FleetService(controller)


class TestFleetService:
    def test_drain_processes_in_priority_order(self, service):
        service.submit(_deploy("alpha"))
        service.submit(Tick())
        service.submit(_deploy("beta"))
        processed = service.drain()
        assert [job.subject for job in processed] == [
            "alpha",
            "beta",
            "fleet",
        ]
        assert all(job.state == DONE for job in processed)
        assert all(
            job.record is not None and job.record.event == job.kind
            for job in processed
        )

    def test_controller_error_fails_job_without_poisoning_queue(
        self, service
    ):
        # a join with a non-positive power rating raises NetworkError
        service.submit(ServerJoined("S9", -1e9, 1e8))
        service.submit(_deploy("alpha"))
        failed, deployed = service.drain()
        assert failed.state == FAILED and "power" in failed.error
        assert failed.record is None
        assert deployed.state == DONE

    def test_server_failure_preempts_affected_tenants(self, service):
        service.submit(_deploy("alpha"))
        service.drain()
        deployment = service.controller.state.tenant("alpha").deployment
        hosting = sorted(deployment.used_servers())[0]
        # queue routine work for the affected and an unaffected tenant
        affected = service.submit(UndeployRequest("alpha"))
        bystander = service.submit(_deploy("beta"))
        assert affected.priority == DEFAULT_PRIORITIES["undeploy"]
        service.submit(ServerFailed(hosting))
        assert affected.priority == PREEMPT_PRIORITY
        assert bystander.priority == DEFAULT_PRIORITIES["deploy"]
        # the failover itself still runs first, then the preempted job
        order = [job.kind for job in service.drain()]
        assert order[:2] == ["server-failed", "undeploy"]

    def test_failure_on_empty_server_preempts_nothing(self, service):
        service.submit(_deploy("alpha"))
        job = service.submit(UndeployRequest("alpha"))
        before = job.priority
        service.submit(ServerFailed("S4"))  # nobody hosted there yet
        if job.priority != before:
            # only legal if alpha actually had operations on S4
            deployment = service.controller.state.tenant("alpha").deployment
            assert deployment.operations_on("S4")

    def test_rebalance_raises_queued_drift_checks(self, fleet_network):
        controller = FleetController(fleet_network, clock=StepClock())
        service = FleetService(controller)
        # build enough imbalance that a tick rebalances: heavy tenants
        for index in range(4):
            service.submit(
                DeployRequest(
                    f"t{index}", make_line(f"t{index}", [80e6, 80e6])
                )
            )
        first_tick = service.submit(Tick())
        later_tick = service.submit(Tick())
        while True:
            job = service.process_next()
            assert job is not None, "queue drained without a rebalance"
            if job.event.kind == "tick" and job.record is not None:
                if job.record.action == "rebalanced":
                    break
            if service.queue.pending == 0:
                pytest.skip("scenario produced no rebalance")
        del first_tick
        assert later_tick.priority == DRIFT_PRIORITY
