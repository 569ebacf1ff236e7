"""Unit tests for the budgeted, anytime search runtime."""

import pytest

from repro.algorithms.runtime import (
    STOP_DEADLINE,
    STOP_EXHAUSTED,
    STOP_MAX_EVALS,
    STOP_MAX_STEPS,
    SearchBudget,
    SearchRuntime,
    SearchStep,
)
from repro.core.clock import MONOTONIC, StepClock
from repro.exceptions import AlgorithmError


def descending(values, evals=1):
    """A search yielding *values* in order (snapshot = the value itself)."""
    for value in values:
        yield SearchStep(value, lambda v=value: v, evals=evals)


class TestSearchBudget:
    def test_default_is_unlimited(self):
        budget = SearchBudget()
        assert budget.max_steps is None
        assert budget.max_evals is None
        assert budget.deadline_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": 0},
            {"max_steps": -1},
            {"max_evals": 0},
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
        ],
    )
    def test_bad_limits_rejected(self, kwargs):
        with pytest.raises(AlgorithmError):
            SearchBudget(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_steps": 1}, {"max_evals": 5}, {"deadline_s": 0.5}],
    )
    def test_any_limit_makes_it_bounded(self, kwargs):
        # each limit alone stops a search that would never end
        def endless():
            value = 0.0
            while True:
                value -= 1.0
                yield SearchStep(value, lambda v=value: v)

        runtime = SearchRuntime(
            budget=SearchBudget(**kwargs), clock=StepClock(step_s=0.001)
        )
        report = runtime.run(endless()).report
        assert report.stop_reason != STOP_EXHAUSTED
        assert report.steps <= 501

    def test_validate_count_returns_value(self):
        assert SearchBudget.validate_count("steps", 3) == 3

    def test_validate_count_message_is_uniform(self):
        with pytest.raises(AlgorithmError, match="max_iterations must be >= 1"):
            SearchBudget.validate_count("max_iterations", 0)
        with pytest.raises(
            AlgorithmError, match="population_size must be >= 2"
        ):
            SearchBudget.validate_count("population_size", 1, minimum=2)


class TestRuntimeBasics:
    def test_exhausted_run_tracks_incumbent(self):
        outcome = SearchRuntime().run(descending([5.0, 3.0, 4.0, 1.0]))
        assert outcome.best_value == 1.0
        assert outcome.best == 1.0
        report = outcome.report
        assert report.stop_reason == STOP_EXHAUSTED
        assert report.exhausted
        assert report.steps == 4
        assert report.evaluations == 4
        assert report.curve == ((1, 5.0), (2, 3.0), (4, 1.0))

    def test_snapshot_called_only_on_strict_improvement(self):
        calls = []

        def search():
            for value in [2.0, 2.0, 1.0, 1.5]:
                yield SearchStep(
                    value, lambda v=value: calls.append(v) or v
                )

        SearchRuntime().run(search())
        assert calls == [2.0, 1.0]

    def test_first_achiever_wins_ties(self):
        # two steps with equal values: the incumbent is the first one
        first, second = object(), object()
        outcome = SearchRuntime().run(
            iter(
                [
                    SearchStep(1.0, lambda: first),
                    SearchStep(1.0, lambda: second),
                ]
            )
        )
        assert outcome.best is first

    def test_empty_search_raises(self):
        with pytest.raises(AlgorithmError, match="no steps"):
            SearchRuntime().run(iter(()))

    def test_accepted_rejected_accounting(self):
        steps = [
            SearchStep(2.0, lambda: 2.0, evals=3, accepted=1, rejected=2),
            SearchStep(1.0, lambda: 1.0, evals=4, accepted=1, rejected=3),
        ]
        report = SearchRuntime().run(iter(steps)).report
        assert report.evaluations == 7
        assert report.accepted == 2
        assert report.rejected == 5

    def test_describe_mentions_stop_reason(self):
        report = SearchRuntime().run(descending([1.0])).report
        assert "exhausted" in report.describe()

    def test_lexicographic_values_supported(self):
        outcome = SearchRuntime().run(
            descending([(1, 5.0), (1, 2.0), (0, 9.0)])
        )
        assert outcome.best_value == (0, 9.0)


class TestRuntimeLimits:
    def test_max_steps_stops_with_best_so_far(self):
        runtime = SearchRuntime(budget=SearchBudget(max_steps=2))
        outcome = runtime.run(descending([5.0, 3.0, 1.0]))
        assert outcome.report.stop_reason == STOP_MAX_STEPS
        assert outcome.report.steps == 2
        assert outcome.best_value == 3.0

    def test_max_evals_counts_step_evals(self):
        runtime = SearchRuntime(budget=SearchBudget(max_evals=5))
        outcome = runtime.run(descending([5.0, 3.0, 1.0], evals=3))
        # the second step crosses the cap (6 >= 5)
        assert outcome.report.stop_reason == STOP_MAX_EVALS
        assert outcome.report.steps == 2
        assert outcome.best_value == 3.0

    def test_deadline_with_step_clock_is_deterministic(self):
        # the start reading is 0.001; each step polls the clock once, so
        # step N sees 0.001 + N ms and the 3.5 ms deadline fires at the
        # fourth step's check (reading 0.005 >= 0.0045)
        runtime = SearchRuntime(
            budget=SearchBudget(deadline_s=0.0035),
            clock=StepClock(step_s=0.001),
        )
        outcome = runtime.run(descending([5.0, 4.0, 3.0, 2.0, 1.0]))
        assert outcome.report.stop_reason == STOP_DEADLINE
        assert outcome.report.steps == 4
        assert outcome.best_value == 2.0

    def test_incumbent_updated_before_limit_check(self):
        runtime = SearchRuntime(budget=SearchBudget(max_steps=1))
        outcome = runtime.run(descending([7.0]))
        assert outcome.best_value == 7.0

    def test_generator_closed_on_early_stop(self):
        closed = []

        def search():
            try:
                while True:
                    yield SearchStep(1.0, lambda: 1.0)
            finally:
                closed.append(True)

        SearchRuntime(budget=SearchBudget(max_steps=3)).run(search())
        assert closed == [True]


class TestClocks:
    def test_step_clock_advances_fixed_steps(self):
        clock = StepClock(step_s=0.5)
        assert clock() == 0.5
        assert clock() == 1.0

    def test_step_clock_start_offset(self):
        clock = StepClock(step_s=1.0, start_s=10.0)
        assert clock() == 11.0

    @pytest.mark.parametrize("step_s", [-1.0, 0.0, float("nan"), float("inf")])
    def test_step_clock_rejects_a_step_that_does_not_advance(self, step_s):
        with pytest.raises(ValueError, match="step_s"):
            StepClock(step_s=step_s)

    def test_monotonic_is_nondecreasing(self):
        assert MONOTONIC() <= MONOTONIC()
