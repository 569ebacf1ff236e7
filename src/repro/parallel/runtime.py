"""The multiprocess fan-out runtime: pools, racing, merging.

:class:`ParallelRuntime` owns the mechanics of a fan-out -- a lazily
created ``ProcessPoolExecutor`` (or a purely sequential *inline* mode
for workers-in-this-process execution, deterministic tests and clock
injection), ordered task fan-out, and result merging.

:func:`race` runs on top of it (see DESIGN §11): independent full
searches -- parallel seeded restarts of one algorithm, or a portfolio
of different algorithms -- each under a deterministic
:func:`~repro.parallel.budget.slice_budget` share and the race's one
deadline. Racers share nothing else while they run, so the pool and
the inline mode give the same result. The global best wins; ties break
on the lowest worker index.

It returns a :class:`ParallelOutcome`: the winning deployment, its
objective, a merged serial-shaped
:class:`~repro.algorithms.runtime.SearchReport` (summed accounting, a
merged anytime curve, one stop reason), and the per-worker
:class:`ParallelReport`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.runtime import (
    STOP_DEADLINE,
    STOP_EXHAUSTED,
    STOP_MAX_EVALS,
    STOP_MAX_STEPS,
    SearchBudget,
    SearchReport,
)
from repro.core.clock import MONOTONIC, Clock
from repro.core.mapping import Deployment
from repro.exceptions import AlgorithmError
from repro.parallel.budget import slice_budget
from repro.parallel.specs import AlgorithmSpec
from repro.parallel.worker import (
    InstancePayload,
    SearchResult,
    SearchTask,
    run_search_task,
)

__all__ = [
    "ParallelRuntime",
    "WorkerRun",
    "ParallelReport",
    "ParallelOutcome",
    "race",
    "merge_curves",
]


# ----------------------------------------------------------------------
# outcome containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerRun:
    """One worker's contribution, coordinator side."""

    index: int
    label: str
    deployment: Deployment
    value: float
    report: SearchReport | None


@dataclass(frozen=True)
class ParallelReport:
    """Structured account of one parallel run.

    ``runs`` holds one entry per racer, in deterministic line-up order
    -- never in completion order. ``winner`` indexes into it.
    """

    plan: str
    workers: int
    winner: int
    runs: tuple[WorkerRun, ...]
    evaluations: int

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        best = self.runs[self.winner]
        return (
            f"plan {self.plan}, {self.workers} workers, "
            f"{len(self.runs)} runs, {self.evaluations} evaluations, "
            f"winner: {best.label}"
        )


@dataclass(frozen=True)
class ParallelOutcome:
    """What every parallel entry point returns (see module docs)."""

    best: Deployment
    best_value: float
    report: SearchReport | None
    parallel: ParallelReport


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def merge_curves(
    curves: Sequence[tuple[tuple[int, Any], ...]],
) -> tuple[tuple[int, Any], ...]:
    """Merge per-worker anytime curves into one best-so-far curve.

    Worker-local steps are the only cross-process ordering that is
    *reproducible* (wall-clock interleavings are not), so entries merge
    sorted by ``(step, worker_index)`` and the result keeps strict
    improvements only. Read it as "the best value any worker had
    reached by its k-th step".
    """
    tagged = [
        (step, worker, value)
        for worker, curve in enumerate(curves)
        for step, value in curve
    ]
    tagged.sort(key=lambda entry: (entry[0], entry[1]))
    merged: list[tuple[int, Any]] = []
    best = None
    for step, _, value in tagged:
        if best is None or value < best:
            best = value
            merged.append((step, value))
    return tuple(merged)


def _merge_stop_reason(runs: Sequence[WorkerRun]) -> str:
    """One stop reason for the merged report: the first of deadline,
    max-evals and max-steps that any racer reports, else exhausted."""
    reasons = {run.report.stop_reason for run in runs if run.report is not None}
    for candidate in (STOP_DEADLINE, STOP_MAX_EVALS, STOP_MAX_STEPS):
        if candidate in reasons:
            return candidate
    return STOP_EXHAUSTED


def _merged_outcome(
    plan_label: str,
    workers: int,
    runs: Sequence[WorkerRun],
    elapsed_s: float,
) -> ParallelOutcome:
    """Reduce worker runs to the global best + merged report.

    A racer without a report (a constructive algorithm) counts as one
    evaluation, as in the serial outcome.
    """
    winner = min(range(len(runs)), key=lambda i: (runs[i].value, i))
    reports = [run.report for run in runs if run.report is not None]
    merged = SearchReport(
        steps=sum(r.steps for r in reports),
        evaluations=sum(r.evaluations for r in reports)
        + len(runs)
        - len(reports),
        accepted=sum(r.accepted for r in reports),
        rejected=sum(r.rejected for r in reports),
        best_value=runs[winner].value,
        curve=merge_curves([r.curve for r in reports]),
        stop_reason=_merge_stop_reason(runs),
        elapsed_s=elapsed_s,
    )
    return ParallelOutcome(
        best=runs[winner].deployment,
        best_value=runs[winner].value,
        report=merged,
        parallel=ParallelReport(
            plan=plan_label,
            workers=workers,
            winner=winner,
            runs=tuple(runs),
            evaluations=merged.evaluations,
        ),
    )




# ----------------------------------------------------------------------
# the runtime
# ----------------------------------------------------------------------
class ParallelRuntime:
    """Owns the worker pool and drives ordered task fan-out.

    Parameters
    ----------
    workers:
        Logical worker count: pool size, and the number of racers a
        seeded-restart run uses. Must be >= 1.
    inline:
        When true, no processes are created: tasks run sequentially in
        the parent, in task order. Semantically the same race
        (identical seeds, slices and merge), which makes it the vehicle
        for deterministic tests, injected clocks, and environments
        where multiprocessing is unavailable.
    clock:
        The clock of the shared deadline and of elapsed accounting,
        read by the parent and, inline, by the racers. Pool racers read
        the monotonic clock, which every process of the machine shares,
        so a pool rejects any other clock with
        :class:`~repro.exceptions.AlgorithmError`.

    Use as a context manager, or call :meth:`close`; a runtime may
    serve several races before it is closed.
    """

    def __init__(
        self,
        workers: int,
        inline: bool = False,
        clock: Clock | None = None,
    ):
        SearchBudget.validate_count("workers", workers)
        self.workers = workers
        self.inline = inline or workers == 1
        if clock not in (None, MONOTONIC) and not self.inline:
            raise AlgorithmError(
                "an injected clock needs inline=True: pool racers read "
                "the monotonic clock"
            )
        self.clock = clock if clock is not None else MONOTONIC
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # -- fan-out -------------------------------------------------------
    def execute(self, tasks: Sequence[SearchTask]) -> list[SearchResult]:
        """Run every task; results in task order.

        Process mode maps :func:`~repro.parallel.worker.run_search_task`
        over the tasks through the pool; inline mode runs them one
        after another on this runtime's clock.
        """
        if self.inline:
            return [run_search_task(task, self.clock) for task in tasks]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return list(self._pool.map(run_search_task, tasks))


# ----------------------------------------------------------------------
# racing
# ----------------------------------------------------------------------
def race(
    runtime: ParallelRuntime,
    payload: InstancePayload,
    racers: Sequence[tuple[str, "AlgorithmSpec | DeploymentAlgorithm", Any]],
    budget: SearchBudget | None = None,
    plan_label: str = "restarts",
) -> ParallelOutcome:
    """Fan independent full searches out and keep the global best.

    ``racers`` is a deterministic sequence of ``(label, algorithm,
    seed)`` -- the portfolio or restart line-up with pre-spawned
    per-worker seeds. Each racer receives its
    :func:`~repro.parallel.budget.slice_budget` share; the deadline is
    stamped once, here, and shared by every racer.
    """
    start = runtime.clock()
    deadline_at = (
        start + budget.deadline_s
        if budget is not None and budget.deadline_s is not None
        else None
    )
    tasks = [
        SearchTask(
            index=index,
            label=label,
            payload=payload,
            algorithm=algorithm,
            seed=seed,
            budget=slice_budget(budget, len(racers), index),
            deadline_at=deadline_at,
        )
        for index, (label, algorithm, seed) in enumerate(racers)
    ]
    runs = [
        WorkerRun(
            index=result.index,
            label=result.label,
            deployment=Deployment(result.mapping),
            value=result.value,
            report=result.report,
        )
        for result in runtime.execute(tasks)
    ]
    return _merged_outcome(
        plan_label, runtime.workers, runs, runtime.clock() - start
    )
