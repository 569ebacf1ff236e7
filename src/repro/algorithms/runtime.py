"""The budgeted, anytime search runtime shared by every algorithm.

The paper's deployment algorithms (section 4) and our extensions are
all *iterative* searches, yet each used to hand-roll its own loop:
private ``max_iterations`` counters, private best-so-far tracking and
no wall-clock deadlines. This module is the one loop they all run on
now:

:class:`SearchBudget`
    How much work a search may spend: a step cap, an evaluation cap
    and/or a wall-clock deadline. The default budget is unlimited, in
    which case every search runs to its natural exhaustion and seeded
    results are byte-identical to the pre-runtime implementations.
:class:`SearchStep`
    What a search yields per step: the value of the candidate the step
    produced, a zero-argument snapshot supplier for it (called only
    when the value improves -- snapshots are usually copies and the
    runtime avoids paying for them on non-improving steps), and the
    step's accounting (evaluations spent, moves accepted/rejected).
:class:`SearchRuntime`
    Drives any iterator of :class:`SearchStep` under a budget: tracks
    the incumbent (best-so-far), records the best-value curve, checks
    the deadline and caps between steps, and closes the generator on
    early exit so ``finally`` blocks run. Returns a
    :class:`SearchOutcome` bundling the incumbent with a structured
    :class:`SearchReport`.

The *anytime contract*: a search yields its starting state as its first
step, so whatever fires first -- deadline, eval cap, step cap -- the
runtime always holds a valid complete incumbent to return. Values
only need to be orderable with ``<`` (scalars normally; the
constraint-aware search yields lexicographic tuples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.clock import MONOTONIC, Clock
from repro.exceptions import AlgorithmError

__all__ = [
    "SearchBudget",
    "SearchStep",
    "SearchReport",
    "SearchOutcome",
    "SearchRuntime",
    "STOP_EXHAUSTED",
    "STOP_DEADLINE",
    "STOP_MAX_EVALS",
    "STOP_MAX_STEPS",
]

#: The search's step generator finished on its own.
STOP_EXHAUSTED = "exhausted"
#: The wall-clock deadline fired.
STOP_DEADLINE = "deadline"
#: The evaluation cap was reached.
STOP_MAX_EVALS = "max-evals"
#: The step cap was reached.
STOP_MAX_STEPS = "max-steps"


@dataclass(frozen=True)
class SearchBudget:
    """How much work a search may spend before it must stop.

    All limits are optional and combine with *or* semantics: the search
    stops at whichever fires first. The default instance is unlimited
    -- under it, every search runs to natural exhaustion and behaves
    exactly like the pre-runtime hand-rolled loops.

    Attributes
    ----------
    max_steps:
        Cap on runtime steps (a step is one yield of the search
        generator: a hill-climbing round, an annealing proposal, a GA
        generation, a branch-and-bound node, one random sample).
    max_evals:
        Cap on objective evaluations, as accounted by the steps
        themselves (:attr:`SearchStep.evals`). The natural knob when
        evaluation cost dominates, because steps of different
        algorithms do wildly different amounts of work.
    deadline_s:
        Wall-clock budget in seconds, measured on the runtime's clock
        from the moment :meth:`SearchRuntime.run` starts.
    """

    max_steps: int | None = None
    max_evals: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_steps is not None:
            self.validate_count("max_steps", self.max_steps)
        if self.max_evals is not None:
            self.validate_count("max_evals", self.max_evals)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise AlgorithmError("deadline_s must be > 0")

    @staticmethod
    def validate_count(name: str, value: int, minimum: int = 1) -> int:
        """Validate an iteration/step-count knob; returns *value*.

        The single home of the ``"<knob> must be >= <minimum>"``
        contract every algorithm used to restate privately
        (``max_iterations`` in the hill climber and the constrained
        search, ``generations`` in the GA, ``steps`` in the annealer,
        ``samples`` in the sampler, ...).
        """
        if value < minimum:
            raise AlgorithmError(f"{name} must be >= {minimum}")
        return value


#: The unlimited budget used when callers pass ``None``.
UNLIMITED = SearchBudget()


@dataclass(slots=True)
class SearchStep:
    """One yielded step of a search generator.

    Attributes
    ----------
    value:
        The value of the candidate this step produced (lower is
        better; any ``<``-orderable type works).
    snapshot:
        Zero-argument supplier of a self-contained copy of that
        candidate. Called by the runtime only when *value* strictly
        improves on the incumbent.
    evals:
        Objective evaluations this step spent (budget accounting).
    accepted, rejected:
        Moves accepted/rejected this step (report accounting only).
    """

    value: Any
    snapshot: Callable[[], Any]
    evals: int = 1
    accepted: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class SearchReport:
    """Structured account of one runtime-driven search.

    Attributes
    ----------
    steps, evaluations, accepted, rejected:
        Totals over the run (see :class:`SearchStep` for units).
    best_value:
        The incumbent's value.
    curve:
        The anytime best-so-far curve: ``(step, value)`` stamped at
        every strict improvement, first entry at step 1 (the starting
        state). Values are monotonically non-increasing.
    stop_reason:
        One of the ``STOP_*`` constants.
    elapsed_s:
        Wall-clock (or injected-clock) duration of the run.
    """

    steps: int
    evaluations: int
    accepted: int
    rejected: int
    best_value: Any
    curve: tuple[tuple[int, Any], ...]
    stop_reason: str
    elapsed_s: float

    @property
    def exhausted(self) -> bool:
        """True when the search finished on its own (budget not binding)."""
        return self.stop_reason == STOP_EXHAUSTED

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        return (
            f"{self.steps} steps, {self.evaluations} evaluations, "
            f"{self.accepted} accepted / {self.rejected} rejected, "
            f"stopped: {self.stop_reason}"
        )


@dataclass(frozen=True)
class SearchOutcome:
    """What :meth:`SearchRuntime.run` returns.

    Attributes
    ----------
    best:
        The incumbent -- the snapshot taken at the last strict
        improvement. Always a valid, complete solution (searches yield
        their starting state first).
    best_value:
        Its value.
    report:
        The structured :class:`SearchReport`.
    """

    best: Any
    best_value: Any
    report: SearchReport


class SearchRuntime:
    """Drive a step-generator search under a budget.

    Parameters
    ----------
    budget:
        The :class:`SearchBudget`; ``None`` means unlimited.
    clock:
        Zero-argument seconds callable; defaults to the monotonic wall
        clock. Inject a :class:`~repro.core.clock.StepClock` for
        deterministic deadline tests. The clock is only polled per
        step when a deadline is set (plus once at start and end for
        the report), so unbudgeted runs pay no timing overhead.
    """

    def __init__(
        self,
        budget: SearchBudget | None = None,
        clock: Clock | None = None,
    ):
        self.budget = budget if budget is not None else UNLIMITED
        self.clock = clock if clock is not None else MONOTONIC

    def run(self, search: Iterator[SearchStep]) -> SearchOutcome:
        """Consume *search* until exhaustion or the first binding limit.

        The incumbent is updated *before* any limit is checked, so a
        budget firing on step k still returns the best of the first k
        steps. On early exit the generator is closed (its ``finally``
        blocks run). Raises :class:`~repro.exceptions.AlgorithmError`
        if the search yields no step at all -- there would be nothing
        valid to return.
        """
        budget = self.budget
        clock = self.clock
        max_steps = budget.max_steps
        max_evals = budget.max_evals
        start = clock()
        deadline = (
            start + budget.deadline_s
            if budget.deadline_s is not None
            else None
        )
        has_best = False
        best: Any = None
        best_value: Any = None
        curve: list[tuple[int, Any]] = []
        steps = evaluations = accepted = rejected = 0
        stop_reason = STOP_EXHAUSTED
        try:
            for step in search:
                steps += 1
                evaluations += step.evals
                accepted += step.accepted
                rejected += step.rejected
                if not has_best or step.value < best_value:
                    best_value = step.value
                    best = step.snapshot()
                    has_best = True
                    curve.append((steps, best_value))
                if max_evals is not None and evaluations >= max_evals:
                    stop_reason = STOP_MAX_EVALS
                    break
                if max_steps is not None and steps >= max_steps:
                    stop_reason = STOP_MAX_STEPS
                    break
                if deadline is not None and clock() >= deadline:
                    stop_reason = STOP_DEADLINE
                    break
        finally:
            close = getattr(search, "close", None)
            if close is not None:
                close()
        if not has_best:
            raise AlgorithmError(
                "search yielded no steps: a search must yield its starting "
                "state before doing any work"
            )
        report = SearchReport(
            steps=steps,
            evaluations=evaluations,
            accepted=accepted,
            rejected=rejected,
            best_value=best_value,
            curve=tuple(curve),
            stop_reason=stop_reason,
            elapsed_s=clock() - start,
        )
        return SearchOutcome(best=best, best_value=best_value, report=report)
