"""Priority work queue for fleet jobs, with deterministic reprioritization.

The controller of :mod:`repro.service.controller` is synchronous: an
event handed to :meth:`~repro.service.controller.FleetController.handle`
is decided on the spot. A durable service needs a layer in front of it
-- clients *submit* work, the service admits it into a priority queue,
and a worker loop drains the queue one job at a time. That indirection
is what makes reprioritization possible: while a job is still queued,
changed fleet conditions may move it forward or backward, exactly the
EQSQL pattern of OSPREY (queue tasks with priorities, then
``update_priorities`` on the still-queued ones as the model retrains).

Two pieces:

:class:`WorkQueue`
    A stable-ordered binary heap of :class:`Job` entries. Jobs pop in
    ``(priority, submission order)`` order -- *lower* priority numbers
    pop first, and equal priorities pop strictly in submission order
    (the determinism contract: a replayed submission sequence drains
    identically). :meth:`WorkQueue.update_priorities` re-keys
    queued-but-unstarted jobs only; running and finished jobs are never
    touched.
:class:`FleetService`
    Binds a :class:`WorkQueue` to a
    :class:`~repro.service.controller.FleetController` and implements
    the built-in reprioritization policies:

    * a :class:`~repro.service.events.ServerFailed` submission preempts
      -- every queued job belonging to a tenant hosted on the failed
      server is boosted to :data:`PREEMPT_PRIORITY`, so recovery-affected
      work runs right after the failover itself;
    * a drift-triggered rebalance (a processed tick whose action is
      ``rebalanced``) raises the priority of the queued drift checks to
      :data:`DRIFT_PRIORITY` -- a drifting fleet gets re-checked before
      new arrivals pile more load on it.

    Both policies are pure functions of the queue and the fleet state,
    so a replayed job trace reorders identically.

Everything is in-process and synchronous; the REST façade of
:mod:`repro.service.server` serialises access with a lock, and the
checkpoint layer persists the controller underneath the queue.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.exceptions import ReproError, ServiceError
from repro.service.controller import FleetController
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    FleetEvent,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.log import LogRecord

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "DEFAULT_PRIORITIES",
    "PREEMPT_PRIORITY",
    "DRIFT_PRIORITY",
    "Job",
    "WorkQueue",
    "FleetService",
    "event_subject",
]

#: Job lifecycle states. A job moves ``QUEUED -> RUNNING -> DONE`` (or
#: ``FAILED`` when the controller raises); reprioritization only ever
#: applies to ``QUEUED``.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Default admission priority per event kind (lower pops first).
#: Failovers outrank everything; capacity changes (drift and joins)
#: beat tenant churn -- stale capacity beliefs poison every placement
#: decision behind them; workload drift lands between departures and
#: arrivals; drift checks run after the queue of arrivals drains.
DEFAULT_PRIORITIES: Mapping[str, int] = {
    ServerFailed.kind: 0,
    ServerJoined.kind: 20,
    CapacityDrift.kind: 25,
    UndeployRequest.kind: 40,
    WorkloadDrift.kind: 50,
    DeployRequest.kind: 60,
    Tick.kind: 80,
}

#: Priority queued jobs of failure-affected tenants are boosted to: just
#: after the failover job itself, ahead of every routine job.
PREEMPT_PRIORITY = 1

#: Priority queued drift checks (ticks) are raised to once a processed
#: tick actually rebalanced -- a drifting fleet re-checks before new
#: arrivals land.
DRIFT_PRIORITY = 30


def event_subject(event: FleetEvent) -> str:
    """The tenant or server an event concerns (``fleet`` for ticks)."""
    for attribute in ("tenant", "server"):
        value = getattr(event, attribute, None)
        if value is not None:
            return str(value)
    return "fleet"


@dataclass
class Job:
    """One queued unit of fleet work.

    Attributes
    ----------
    id:
        Stable identifier, assigned at submission (0-based).
    event:
        The :class:`~repro.service.events.FleetEvent` to hand to the
        controller when the job runs.
    priority:
        Current priority; lower pops first. Mutated only by
        :meth:`WorkQueue.update_priorities` while the job is queued.
    seq:
        Submission counter -- the tie-break that keeps equal priorities
        in submission order, *preserved* across reprioritizations.
    state:
        One of :data:`QUEUED`, :data:`RUNNING`, :data:`DONE`,
        :data:`FAILED`.
    record:
        The controller's :class:`~repro.service.log.LogRecord` once the
        job is done.
    error:
        The one-line failure message when the controller raised.
    """

    id: int
    event: FleetEvent
    priority: int
    seq: int
    state: str = QUEUED
    record: LogRecord | None = None
    error: str = ""

    @property
    def kind(self) -> str:
        """The event kind (``deploy``, ``tick``, ...)."""
        return self.event.kind

    @property
    def subject(self) -> str:
        """The tenant/server the job concerns (``fleet`` for ticks)."""
        return event_subject(self.event)


class WorkQueue:
    """A stable-ordered priority queue of :class:`Job` entries.

    Implemented as a binary heap keyed ``(priority, seq)`` with lazy
    invalidation: :meth:`update_priorities` pushes a fresh heap entry
    under the job's *original* submission sequence and the stale entry
    is discarded when it surfaces (its recorded priority no longer
    matches the job's). Equal priorities therefore pop in submission
    order before *and* after any number of reprioritizations -- the
    stable-order determinism contract.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int]] = []
        self._jobs: dict[int, Job] = {}
        self._submitted = 0

    # ------------------------------------------------------------------
    # submission and queries
    # ------------------------------------------------------------------
    def submit(self, event: FleetEvent, priority: int | None = None) -> Job:
        """Queue *event*; return its :class:`Job`.

        *priority* defaults to the event kind's entry in
        :data:`DEFAULT_PRIORITIES`.
        """
        if not isinstance(event, FleetEvent):
            raise ServiceError(
                f"can only queue FleetEvent instances, got "
                f"{type(event).__name__!r}"
            )
        if priority is None:
            priority = DEFAULT_PRIORITIES.get(event.kind, 100)
        job = Job(
            id=self._submitted,
            event=event,
            priority=int(priority),
            seq=self._submitted,
        )
        self._submitted += 1
        self._jobs[job.id] = job
        heapq.heappush(self._heap, (job.priority, job.seq, job.id))
        return job

    def job(self, job_id: int) -> Job:
        """The job with *job_id* or raise."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"no job #{job_id} in the queue") from None

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    @property
    def jobs(self) -> tuple[Job, ...]:
        """Every job ever submitted, in submission order."""
        return tuple(self._jobs.values())

    def queued(self) -> tuple[Job, ...]:
        """Still-queued jobs in the order they would pop."""
        return tuple(
            sorted(
                (job for job in self._jobs.values() if job.state == QUEUED),
                key=lambda job: (job.priority, job.seq),
            )
        )

    @property
    def pending(self) -> int:
        """Number of jobs still waiting to run."""
        return sum(1 for job in self._jobs.values() if job.state == QUEUED)

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def pop(self) -> Job | None:
        """Claim the next queued job (``None`` when the queue is empty).

        The popped job transitions to :data:`RUNNING`; finish it with
        :meth:`complete` or :meth:`fail`.
        """
        while self._heap:
            priority, seq, job_id = heapq.heappop(self._heap)
            job = self._jobs[job_id]
            if job.state != QUEUED or job.priority != priority:
                continue  # stale entry left behind by a reprioritization
            job.state = RUNNING
            return job
        return None

    def complete(self, job: Job, record: LogRecord) -> Job:
        """Mark a running *job* done, attaching the decision *record*."""
        self._require_running(job, "complete")
        job.state = DONE
        job.record = record
        return job

    def fail(self, job: Job, error: str) -> Job:
        """Mark a running *job* failed with a one-line *error*."""
        self._require_running(job, "fail")
        job.state = FAILED
        job.error = error
        return job

    def _require_running(self, job: Job, verb: str) -> None:
        if job.state != RUNNING:
            raise ServiceError(
                f"cannot {verb} job #{job.id}: it is {job.state}, "
                f"not {RUNNING}"
            )

    # ------------------------------------------------------------------
    # reprioritization
    # ------------------------------------------------------------------
    def update_priorities(
        self, reprioritize: Callable[[Job], int | None]
    ) -> tuple[Job, ...]:
        """Re-key still-queued jobs; return the jobs that moved.

        *reprioritize* sees every :data:`QUEUED` job in submission order
        and returns its new priority, or ``None`` to leave it alone.
        Running and finished jobs are never offered -- in-flight work is
        immovable by design. A moved job keeps its original submission
        sequence, so jobs that end up sharing a priority still pop in
        submission order.
        """
        changed: list[Job] = []
        for job in self._jobs.values():
            if job.state != QUEUED:
                continue
            updated = reprioritize(job)
            if updated is None or int(updated) == job.priority:
                continue
            job.priority = int(updated)
            heapq.heappush(self._heap, (job.priority, job.seq, job.id))
            changed.append(job)
        return tuple(changed)


class FleetService:
    """A queue-driven façade over one :class:`FleetController`.

    Parameters
    ----------
    controller:
        The controller that actually decides; the service owns its
        lifecycle from here on.

    Access is serialised by an internal lock, so one service instance
    can back the threaded REST façade directly.
    """

    def __init__(self, controller: FleetController):
        self.controller = controller
        self.queue = WorkQueue()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # submission side
    # ------------------------------------------------------------------
    def submit(self, event: FleetEvent, priority: int | None = None) -> Job:
        """Queue *event*; apply the failure-preemption policy.

        Submitting a :class:`~repro.service.events.ServerFailed` boosts
        every queued job of a tenant currently hosting operations on the
        failed server to :data:`PREEMPT_PRIORITY` -- those tenants' work
        must not run against a stale placement before the failover does.
        """
        with self._lock:
            job = self.queue.submit(event, priority)
            if isinstance(event, ServerFailed):
                self._preempt_for_failure(event.server)
            return job

    def _preempt_for_failure(self, server: str) -> tuple[Job, ...]:
        state = self.controller.state
        if server not in state.network:
            return ()
        affected = {
            tenant
            for tenant in state.tenants
            if state.tenant(tenant).deployment.operations_on(server)
        }
        if not affected:
            return ()

        def boost(job: Job) -> int | None:
            if job.subject in affected and job.priority > PREEMPT_PRIORITY:
                return PREEMPT_PRIORITY
            return None

        return self.queue.update_priorities(boost)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def process_next(self) -> Job | None:
        """Pop and run one job (``None`` when the queue is drained).

        A controller error fails the job (one-line message captured)
        without poisoning the queue. After a tick that actually
        rebalanced, queued drift checks are raised to
        :data:`DRIFT_PRIORITY` -- the drift-raises-rebalance-priority
        policy.
        """
        with self._lock:
            job = self.queue.pop()
            if job is None:
                return None
            try:
                record = self.controller.handle(job.event)
            except ReproError as exc:
                self.queue.fail(job, str(exc))
                return job
            self.queue.complete(job, record)
            self._react(record)
            return job

    def _react(self, record: LogRecord) -> None:
        if record.event == Tick.kind and record.action == "rebalanced":
            def raise_ticks(job: Job) -> int | None:
                if job.kind == Tick.kind and job.priority > DRIFT_PRIORITY:
                    return DRIFT_PRIORITY
                return None

            self.queue.update_priorities(raise_ticks)

    def drain(self, max_jobs: int | None = None) -> tuple[Job, ...]:
        """Process queued jobs until empty (or *max_jobs*); return them."""
        processed: list[Job] = []
        while max_jobs is None or len(processed) < max_jobs:
            job = self.process_next()
            if job is None:
                break
            processed.append(job)
        return tuple(processed)
