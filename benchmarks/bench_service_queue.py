"""Benchmark: the durable fleet-service tier.

Three measurements, recorded in ``output/BENCH_service.json``:

* **Queue throughput** -- submit + drain jobs/second through a
  :class:`~repro.service.queue.FleetService` processing a seeded
  scenario's event trace, including the built-in reprioritization
  policies (failure preemption, drift boosts).
* **Reprioritization cost** -- ``update_priorities`` sweeps/second over
  a large queued backlog (the stable-heap lazy-invalidation path).
* **Checkpoint/restore latency** -- wall-clock to write a checkpoint of
  a fully-replayed scenario and to restore it (restore includes the
  verification replay, so it is the honest recovery-time number).

Set ``BENCH_SMOKE=1`` for the CI smoke run: the small ``steady``
scenario and a reduced backlog -- every path still executes, no floors
asserted.
"""

import os
import time

from repro.core.clock import StepClock
from repro.service.checkpoint import restore_controller, write_checkpoint
from repro.service.controller import FleetController
from repro.service.events import DeployRequest, ServerFailed
from repro.service.queue import FleetService, WorkQueue
from repro.service.scenarios import build_scenario
from repro.workloads.generator import line_workflow

from _common import emit, host, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

SCENARIO = "steady" if SMOKE else "surge"
SEED = 7
BACKLOG = 200 if SMOKE else 5_000
SWEEPS = 10 if SMOKE else 100

#: Queue-mechanics floor (jobs/second through submit+pop on a large
#: backlog, controller excluded) -- env-tunable, generous for CI boxes.
QUEUE_FLOOR = perf_floor("SERVICE_QUEUE", 50_000.0)

_RESULTS: dict = {
    "host": host(),
    "smoke": SMOKE,
    "scenario": SCENARIO,
    "seed": SEED,
    "backlog": BACKLOG,
    "queue_floor_jobs_per_s": QUEUE_FLOOR,
}


def _flush_results() -> None:
    write_json("BENCH_service", _RESULTS)


def _service_for_scenario():
    scenario = build_scenario(SCENARIO, seed=SEED)
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    service = FleetService(controller)
    for event in scenario.events:
        service.submit(event)
    return service


def bench_service_drain_throughput(benchmark):
    """End-to-end jobs/second: queue + controller on a full scenario."""

    def drain():
        service = _service_for_scenario()
        return service.drain()

    processed = benchmark(drain)
    start = time.perf_counter()
    processed = _service_for_scenario().drain()
    elapsed = time.perf_counter() - start
    jobs_per_s = len(processed) / elapsed if elapsed > 0 else float("inf")
    assert all(job.state == "done" for job in processed)
    _RESULTS["drain_jobs"] = len(processed)
    _RESULTS["drain_jobs_per_s"] = jobs_per_s
    _flush_results()
    emit(
        "service_drain_throughput",
        f"scenario {SCENARIO!r} (seed {SEED})"
        + (" (smoke)" if SMOKE else ""),
        f"jobs drained:     {len(processed):10d}",
        f"jobs/second:      {jobs_per_s:10.1f}",
    )


def bench_queue_mechanics(benchmark):
    """Pure queue throughput: submit + reprioritize + pop, no controller."""
    workflow = line_workflow(3, seed=1)

    def churn() -> int:
        queue = WorkQueue()
        for index in range(BACKLOG):
            queue.submit(
                DeployRequest(f"tenant-{index:05d}", workflow),
                priority=index % 7,
            )
        queue.update_priorities(
            lambda job: 1 if job.seq % 3 == 0 else None
        )
        drained = 0
        while queue.pop() is not None:
            drained += 1
        return drained

    drained = benchmark(churn)

    start = time.perf_counter()
    drained = churn()
    elapsed = time.perf_counter() - start
    jobs_per_s = drained / elapsed if elapsed > 0 else float("inf")
    assert drained == BACKLOG
    _RESULTS["queue_jobs_per_s"] = jobs_per_s
    _flush_results()
    emit(
        "service_queue_mechanics",
        f"backlog {BACKLOG} jobs, 1/3 reprioritized"
        + (" (smoke)" if SMOKE else ""),
        f"jobs/second:      {jobs_per_s:10.1f} (floor {QUEUE_FLOOR:.0f})",
    )
    if not SMOKE:
        assert jobs_per_s >= QUEUE_FLOOR


def bench_reprioritization_sweeps(benchmark):
    """update_priorities sweeps/second over a standing queued backlog."""
    workflow = line_workflow(3, seed=1)
    queue = WorkQueue()
    for index in range(BACKLOG):
        queue.submit(
            DeployRequest(f"tenant-{index:05d}", workflow),
            priority=50,
        )
    flips = {"on": False}

    def sweep():
        flips["on"] = not flips["on"]
        target = 10 if flips["on"] else 50
        return queue.update_priorities(lambda job: target)

    changed = benchmark(sweep)
    start = time.perf_counter()
    for _ in range(SWEEPS):
        changed = sweep()
    elapsed = time.perf_counter() - start
    sweeps_per_s = SWEEPS / elapsed if elapsed > 0 else float("inf")
    assert len(changed) == BACKLOG
    _RESULTS["reprioritize_sweeps_per_s"] = sweeps_per_s
    _flush_results()
    emit(
        "service_reprioritization",
        f"{SWEEPS} sweeps over {BACKLOG} queued jobs",
        f"sweeps/second:    {sweeps_per_s:10.2f}",
    )


def bench_checkpoint_restore_latency(benchmark, tmp_path_factory):
    """Checkpoint write and verified-restore wall clock."""
    scenario = build_scenario(SCENARIO, seed=SEED)
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    for event in scenario.events:
        controller.handle(event)
    # keep one failure pending so the pending codec is exercised
    pending = (ServerFailed("S1"),)
    directory = tmp_path_factory.mktemp("service-bench")
    path = directory / "fleet-checkpoint.json"

    start = time.perf_counter()
    write_checkpoint(controller, path, pending=pending)
    write_s = time.perf_counter() - start

    def restore():
        return restore_controller(path)

    restored, restored_pending = benchmark(restore)
    start = time.perf_counter()
    restored, restored_pending = restore()
    restore_s = time.perf_counter() - start
    assert restored.log.to_text() == controller.log.to_text()
    assert len(restored_pending) == 1
    _RESULTS["checkpoint_events"] = len(controller.history)
    _RESULTS["checkpoint_bytes"] = path.stat().st_size
    _RESULTS["checkpoint_write_s"] = write_s
    _RESULTS["checkpoint_restore_s"] = restore_s
    _flush_results()
    emit(
        "service_checkpoint_latency",
        f"scenario {SCENARIO!r}: {len(controller.history)} events, "
        f"{path.stat().st_size:,} bytes on disk",
        f"checkpoint write:          {write_s * 1e3:10.2f} ms",
        f"verified restore (replay): {restore_s * 1e3:10.2f} ms",
    )
