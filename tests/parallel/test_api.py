"""End-to-end contracts of ``deploy_parallel`` / ``race_portfolio``.

Everything except the process-pool parity checks runs in *inline* mode:
the same task protocol and shared-ledger accounting, executed
sequentially in this process -- deterministic, fast, and exactly what
the pool executes (the parity test pins that equivalence).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.algorithms.runtime import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_MAX_EVALS,
    CancelToken,
    SearchBudget,
)
from repro.core.clock import StepClock
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.exceptions import AlgorithmError
from repro.parallel import (
    STOP_TARGET,
    AlgorithmSpec,
    deploy_parallel,
    race_portfolio,
)
from repro.parallel.budget import DEFAULT_FLUSH_EVERY


@pytest.fixture
def model(line5, bus5):
    return CostModel(line5, bus5)


def _strip(report):
    """Reports minus wall-clock time (the only non-deterministic field)."""
    return (
        None
        if report is None
        else dataclasses.replace(report, elapsed_s=0.0)
    )


SPECS = (
    "HillClimbing@HeavyOps-LargeMsgs",
    "SimulatedAnnealing",
    "Genetic",
    "HeavyOps-LargeMsgs",  # constructive: deploy_with_report returns None
)


class TestWorkersOneIdentity:
    @pytest.mark.parametrize("text", SPECS)
    def test_byte_identical_to_serial_call(self, line5, bus5, model, text):
        spec = AlgorithmSpec.parse(text)
        outcome = deploy_parallel(
            spec, line5, bus5, cost_model=model, workers=1, seed=5
        )
        deployment, report = spec.build().deploy_with_report(
            line5, bus5, cost_model=model, rng=coerce_rng(5)
        )
        assert outcome.best.as_dict() == deployment.as_dict()
        assert _strip(outcome.report) == _strip(report)
        assert outcome.parallel.plan == "serial"
        assert outcome.parallel.workers == 1

    def test_accepts_live_rng_like_the_serial_api(self, line5, bus5, model):
        outcome = deploy_parallel(
            "HillClimbing",
            line5,
            bus5,
            cost_model=model,
            workers=1,
            seed=random.Random(5),
        )
        deployment = AlgorithmSpec.parse("HillClimbing").build().deploy(
            line5, bus5, cost_model=model, rng=random.Random(5)
        )
        assert outcome.best.as_dict() == deployment.as_dict()


class TestReproducibility:
    def test_sharded_run_is_a_pure_function_of_seed(
        self, line5, bus5, model
    ):
        def run():
            return deploy_parallel(
                "SimulatedAnnealing",
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=9,
                budget=SearchBudget(max_evals=400),
                inline=True,
            )

        first, second = run(), run()
        assert first.best.as_dict() == second.best.as_dict()
        assert first.best_value == second.best_value
        assert _strip(first.report) == _strip(second.report)
        assert [r.label for r in first.parallel.runs] == [
            r.label for r in second.parallel.runs
        ]

    def test_live_rng_rejected_for_sharded_runs(self, line5, bus5, model):
        with pytest.raises(AlgorithmError):
            deploy_parallel(
                "SimulatedAnnealing",
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=random.Random(5),
                inline=True,
            )


class TestBudgetEnforcement:
    def test_eval_cap_never_overshoots_by_more_than_a_batch_per_worker(
        self, line5, bus5, model
    ):
        workers, max_evals = 2, 300
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=workers,
            seed=1,
            budget=SearchBudget(max_evals=max_evals),
            inline=True,
        )
        assert outcome.report.stop_reason == STOP_MAX_EVALS
        assert (
            outcome.report.evaluations
            <= max_evals + workers * DEFAULT_FLUSH_EVERY
        )

    def test_deadline_stops_workers_on_injected_clock(
        self, line5, bus5, model
    ):
        # every clock reading advances 10ms; a 50ms deadline fires after
        # a handful of steps regardless of machine speed
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=1,
            budget=SearchBudget(deadline_s=0.05),
            inline=True,
            clock=StepClock(step_s=0.01),
        )
        assert outcome.report.stop_reason == STOP_DEADLINE
        assert outcome.best is not None
        assert outcome.best_value > 0

    def test_precancelled_token_still_yields_a_deployment(
        self, line5, bus5, model
    ):
        cancel = CancelToken()
        cancel.cancel()
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=1,
            cancel=cancel,
            inline=True,
        )
        assert outcome.report.stop_reason == STOP_CANCELLED
        assert outcome.best is not None

    def test_target_value_stops_the_race(self, line5, bus5, model):
        # a target above any feasible objective is reached immediately
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=1,
            target_value=1e9,
            budget=SearchBudget(max_steps=10_000),
            inline=True,
        )
        assert outcome.report.stop_reason == STOP_TARGET


class TestPortfolio:
    def test_default_portfolio_race(self, line5, bus5, model):
        outcome = race_portfolio(
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=4,
            budget=SearchBudget(max_evals=600),
            inline=True,
        )
        labels = [run.label for run in outcome.parallel.runs]
        assert len(labels) == len(set(labels))
        winner = outcome.parallel.runs[outcome.parallel.winner]
        assert winner.value == outcome.best_value
        assert outcome.best_value == min(r.value for r in outcome.parallel.runs)

    def test_explicit_portfolio_and_worker_padding(self, line5, bus5, model):
        # more workers than entries: the line-up wraps around with
        # distinct #index suffixes and per-racer seeds
        outcome = race_portfolio(
            line5,
            bus5,
            portfolio=["HillClimbing", "SimulatedAnnealing"],
            cost_model=model,
            workers=4,
            seed=4,
            budget=SearchBudget(max_evals=400),
            inline=True,
        )
        labels = [run.label for run in outcome.parallel.runs]
        assert len(labels) == 4
        assert len(set(labels)) == 4

    def test_portfolio_race_is_reproducible(self, line5, bus5, model):
        def run():
            return race_portfolio(
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=4,
                budget=SearchBudget(max_evals=400),
                inline=True,
            )

        first, second = run(), run()
        assert first.best.as_dict() == second.best.as_dict()
        assert (
            first.parallel.runs[first.parallel.winner].label
            == second.parallel.runs[second.parallel.winner].label
        )


class TestProcessPoolParity:
    @pytest.mark.parametrize(
        "spec",
        [
            "SimulatedAnnealing",
            # Genetic under workers=2 takes the seeded-restarts path too
            AlgorithmSpec.of("Genetic", generations=6, population_size=8),
        ],
        ids=["annealing", "genetic"],
    )
    def test_pool_matches_inline_execution(self, line5, bus5, model, spec):
        """Real worker processes produce the inline-mode result."""

        def run(inline):
            return deploy_parallel(
                spec,
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=2,
                budget=SearchBudget(max_evals=300),
                inline=inline,
            )

        inline_outcome = run(True)
        pool_outcome = run(False)
        assert pool_outcome.parallel.plan == "restarts"
        assert pool_outcome.best.as_dict() == inline_outcome.best.as_dict()
        assert pool_outcome.best_value == inline_outcome.best_value
        assert _strip(pool_outcome.report) == _strip(inline_outcome.report)


class TestRemovedOptions:
    def test_removed_plan_runtime_and_ga_hooks_are_rejected(
        self, line5, bus5, model
    ):
        """The shard-plan and runtime-reuse keywords and the GA's
        island-only hooks are gone, not silently ignored."""
        from repro.algorithms.genetic import GeneticAlgorithm
        from repro.parallel import ParallelRuntime

        with pytest.raises(TypeError):
            deploy_parallel(
                "Genetic", line5, bus5, workers=2, plan="islands", inline=True
            )
        with ParallelRuntime(2, inline=True) as runtime:
            with pytest.raises(TypeError):
                deploy_parallel(
                    "Genetic", line5, bus5, workers=2, runtime=runtime
                )
        with pytest.raises(TypeError):
            GeneticAlgorithm(initial_population=[])
        with pytest.raises(AlgorithmError):
            AlgorithmSpec.of("Genetic", population_sink=print)
