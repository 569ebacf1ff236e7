"""The multiprocess fan-out runtime: pools, racing, merging.

:class:`ParallelRuntime` owns the mechanics of a fan-out -- a lazily
created ``ProcessPoolExecutor`` plus ``multiprocessing.Manager`` (or a
purely sequential *inline* mode for workers-in-this-process execution,
deterministic tests and clock injection), ordered task fan-out with a
parent-side watchdog loop that propagates external cancellation and
the global deadline into the shared
:class:`~repro.parallel.budget.BudgetLedger`, and result merging.

:func:`race` runs on top of it (see DESIGN §11): independent full
searches -- parallel seeded restarts of one algorithm, or a portfolio
of different algorithms -- each under a deterministic
:func:`~repro.parallel.budget.slice_budget` share. The global best
wins; ties break on the lowest worker index.

It returns a :class:`ParallelOutcome`: the winning deployment, its
objective, a merged serial-shaped
:class:`~repro.algorithms.runtime.SearchReport` (summed accounting, a
merged anytime curve, one stop reason), and the per-worker
:class:`ParallelReport`.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.runtime import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_EXHAUSTED,
    STOP_MAX_EVALS,
    STOP_MAX_STEPS,
    CancelToken,
    SearchBudget,
    SearchReport,
)
from repro.core.clock import MONOTONIC, Clock
from repro.core.mapping import Deployment
from repro.parallel.budget import (
    STOP_TARGET,
    BudgetLedger,
    InlineLedger,
    SharedLedger,
    slice_budget,
)
from repro.parallel.specs import AlgorithmSpec
from repro.parallel.worker import InstancePayload, SearchTask, run_search_task

__all__ = [
    "ParallelRuntime",
    "WorkerRun",
    "ParallelReport",
    "ParallelOutcome",
    "race",
    "merge_curves",
]

#: Watchdog period (seconds) of the parent's wait loop in process mode.
_POLL_S = 0.05


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


def _merge_stop_reason(
    ledger: BudgetLedger,
    runs: Sequence[WorkerRun],
    budget: SearchBudget | None,
) -> str:
    """One stop reason for the merged report (deterministic for
    deterministic runs: priority order, then worker order)."""
    if ledger.stop_reason in (STOP_CANCELLED, STOP_TARGET, STOP_DEADLINE):
        return ledger.stop_reason
    reasons = [
        run.report.stop_reason for run in runs if run.report is not None
    ]
    for candidate in (STOP_DEADLINE, STOP_MAX_EVALS, STOP_MAX_STEPS):
        if candidate in reasons:
            return candidate
    for reason in reasons:
        if reason != STOP_EXHAUSTED:
            return reason
    return STOP_EXHAUSTED


def _merged_outcome(
    plan_label: str,
    workers: int,
    runs: Sequence[WorkerRun],
    ledger: BudgetLedger,
    budget: SearchBudget | None,
    elapsed_s: float,
) -> ParallelOutcome:
    """Reduce worker runs to the global best + merged report."""
    winner = min(range(len(runs)), key=lambda i: (runs[i].value, i))
    reports = [run.report for run in runs if run.report is not None]
    merged = SearchReport(
        steps=sum(r.steps for r in reports),
        evaluations=max(
            ledger.evaluations, sum(r.evaluations for r in reports)
        ),
        accepted=sum(r.accepted for r in reports),
        rejected=sum(r.rejected for r in reports),
        best_value=runs[winner].value,
        curve=merge_curves([r.curve for r in reports]),
        stop_reason=_merge_stop_reason(ledger, runs, budget),
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
        the parent, in task order, against an
        :class:`~repro.parallel.budget.InlineLedger`. Semantically the
        same race (identical seeds, slices and merge), which makes it
        the vehicle for deterministic tests, injected clocks, and
        environments where multiprocessing is unavailable.
    clock:
        Parent-side clock for the global deadline watchdog and elapsed
        accounting; in inline mode it is also handed to each task's
        local :class:`~repro.algorithms.runtime.SearchRuntime`.

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
        self.clock = clock if clock is not None else MONOTONIC
        self._pool: ProcessPoolExecutor | None = None
        self._manager = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool and manager down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def make_ledger(self, max_evals: int | None = None) -> BudgetLedger:
        """A fresh ledger of the right kind for this runtime."""
        if self.inline:
            return InlineLedger(max_evals)
        if self._manager is None:
            import multiprocessing

            self._manager = multiprocessing.Manager()
        return SharedLedger(self._manager, max_evals)

    # -- fan-out -------------------------------------------------------
    def execute(
        self,
        fn: Callable,
        tasks: Sequence[Any],
        ledger: BudgetLedger,
        deadline_at: float | None = None,
        cancel: CancelToken | None = None,
    ) -> list[Any]:
        """Run ``fn(task, ledger)`` for every task; results in task order.

        Process mode submits everything and babysits the futures: every
        ``_POLL_S`` seconds the parent folds an external cancellation or
        the global deadline into the ledger, which workers observe at
        their next flush boundary. Inline mode runs tasks sequentially,
        re-checking the same conditions between tasks and shrinking
        each task's deadline share to the time actually remaining.
        """
        if self.inline:
            return self._execute_inline(fn, tasks, ledger, deadline_at, cancel)
        pool = self._ensure_pool()
        futures = [pool.submit(fn, task, ledger) for task in tasks]
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=_POLL_S, return_when=FIRST_COMPLETED
            )
            self._watchdog(ledger, deadline_at, cancel)
        return [future.result() for future in futures]

    def _watchdog(
        self,
        ledger: BudgetLedger,
        deadline_at: float | None,
        cancel: CancelToken | None,
    ) -> None:
        if cancel is not None and cancel.cancelled:
            ledger.request_stop(STOP_CANCELLED)
        if deadline_at is not None and self.clock() >= deadline_at:
            ledger.request_stop(STOP_DEADLINE)

    def _execute_inline(
        self, fn, tasks, ledger, deadline_at, cancel
    ) -> list[Any]:
        results = []
        for task in tasks:
            self._watchdog(ledger, deadline_at, cancel)
            budget = task.budget
            if (
                budget is not None
                and budget.deadline_s is not None
                and deadline_at is not None
            ):
                # sequential execution: this task's share of the shared
                # deadline is whatever wall clock is actually left
                remaining = deadline_at - self.clock()
                if remaining <= 0:
                    ledger.request_stop(STOP_DEADLINE)
                    remaining = None
                task = dataclasses.replace(
                    task,
                    budget=dataclasses.replace(
                        budget, deadline_s=remaining
                    ),
                )
            results.append(fn(task, ledger, self.clock))
        return results


# ----------------------------------------------------------------------
# racing
# ----------------------------------------------------------------------
def race(
    runtime: ParallelRuntime,
    payload: InstancePayload,
    racers: Sequence[tuple[str, "AlgorithmSpec | DeploymentAlgorithm", Any]],
    budget: SearchBudget | None = None,
    target_value: float | None = None,
    cancel: CancelToken | None = None,
    plan_label: str = "restarts",
) -> ParallelOutcome:
    """Fan independent full searches out and keep the global best.

    ``racers`` is a deterministic sequence of ``(label, algorithm,
    seed)`` -- the portfolio or restart line-up with pre-spawned
    per-worker seeds. Each racer receives its
    :func:`~repro.parallel.budget.slice_budget` share.
    """
    start = runtime.clock()
    ledger = runtime.make_ledger(budget.max_evals if budget else None)
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
            target_value=target_value,
        )
        for index, (label, algorithm, seed) in enumerate(racers)
    ]
    results = runtime.execute(
        run_search_task, tasks, ledger, deadline_at, cancel
    )
    runs = [
        WorkerRun(
            index=result.index,
            label=result.label,
            deployment=Deployment(result.mapping),
            value=result.value,
            report=result.report,
        )
        for result in results
    ]
    return _merged_outcome(
        plan_label,
        runtime.workers,
        runs,
        ledger,
        budget,
        runtime.clock() - start,
    )
