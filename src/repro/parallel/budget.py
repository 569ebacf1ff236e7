"""Each racer's share of a parallel run's search budget.

The serial runtime enforces a :class:`~repro.algorithms.runtime.
SearchBudget` inside a single process. A parallel run splits the
caller's budget once, up front: :func:`slice_budget` gives racer *i*
of *n* ``max_evals // n`` evaluations (the remainder goes to the lowest
indices), and likewise for ``max_steps``; the deadline is shared, not
divided. Because the slices are a pure function of ``(budget, workers,
index)``, each racer is exactly a solo search under its slice -- no
racer's share depends on scheduling, and no racer cuts another short.
The merged evaluation count is therefore the sum of the racers' own
counts; a racer stops at the first step that reaches its slice, so the
sum may exceed ``max_evals`` by at most one step's evaluations per
racer.
"""

from __future__ import annotations

from repro.algorithms.runtime import SearchBudget

__all__ = ["slice_budget"]


def slice_budget(
    budget: SearchBudget | None, workers: int, index: int
) -> SearchBudget | None:
    """Worker *index*'s deterministic share of a global *budget*.

    Countable limits are divided evenly with the remainder assigned to
    the lowest worker indices; the wall-clock deadline is shared, not
    divided (all workers race the same clock). Workers beyond a tiny
    ``max_evals``/``max_steps`` (fewer units than workers) receive the
    floor of one unit -- the anytime contract needs at least the first
    step -- so a degenerate budget can overshoot by at most one unit
    per surplus worker.
    """
    if budget is None:
        return None
    SearchBudget.validate_count("workers", workers)
    if not 0 <= index < workers:
        raise ValueError(f"worker index {index} outside range({workers})")

    def share(total: int | None) -> int | None:
        if total is None:
            return None
        base, remainder = divmod(total, workers)
        return max(1, base + (1 if index < remainder else 0))

    return SearchBudget(
        max_steps=share(budget.max_steps),
        max_evals=share(budget.max_evals),
        deadline_s=budget.deadline_s,
    )
