"""End-to-end contracts of ``deploy_parallel`` / ``race_portfolio``.

Everything except the process-pool parity checks runs in *inline* mode:
the same tasks, executed sequentially in this process -- deterministic,
fast, and exactly what the pool executes (the parity tests pin that
equivalence).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.algorithms.local_search import HillClimbing
from repro.algorithms.runtime import (
    STOP_DEADLINE,
    STOP_MAX_EVALS,
    SearchBudget,
)
from repro.core.clock import StepClock
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.exceptions import AlgorithmError
from repro.parallel import (
    AlgorithmSpec,
    deploy_parallel,
    race_portfolio,
    slice_budget,
    spawn_seed,
)
from repro.workloads.generator import line_workflow, random_bus_network


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


def _solo_reports(spec, workflow, network, model, budget, workers, seed):
    """Each restart run alone: its slice of *budget*, its spawned seed."""
    algorithm = AlgorithmSpec.parse(spec).build()
    return [
        algorithm.deploy_with_report(
            workflow,
            network,
            cost_model=model,
            rng=coerce_rng(spawn_seed(seed, "worker", index)),
            budget=slice_budget(budget, workers, index),
        )[1]
        for index in range(workers)
    ]


class TestBudgetEnforcement:
    def test_eval_capped_race_spends_what_the_solo_runs_spend(
        self, line5, bus5, model
    ):
        workers, budget = 2, SearchBudget(max_evals=300)
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=workers,
            seed=1,
            budget=budget,
            inline=True,
        )
        solo = _solo_reports(
            "SimulatedAnnealing", line5, bus5, model, budget, workers, 1
        )
        assert outcome.report.stop_reason == STOP_MAX_EVALS
        assert outcome.report.evaluations == sum(r.evaluations for r in solo)

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

    def test_racer_starting_after_the_deadline_returns_its_start(
        self, line5, bus5, model
    ):
        # three racers on two workers run one after another inline; the
        # first spends the whole 50 ms deadline on the 10 ms step clock,
        # so the later ones start late and stop after their first step
        portfolio = ["SimulatedAnnealing", "HillClimbing", "Genetic"]
        outcome = race_portfolio(
            line5,
            bus5,
            portfolio=portfolio,
            cost_model=model,
            workers=2,
            seed=4,
            budget=SearchBudget(deadline_s=0.05),
            inline=True,
            clock=StepClock(step_s=0.01),
        )
        first, *late = outcome.parallel.runs
        assert first.report.steps > 1
        assert outcome.report.stop_reason == STOP_DEADLINE
        for run in late:
            algorithm = AlgorithmSpec.parse(portfolio[run.index]).build()
            start = algorithm.deploy(
                line5,
                bus5,
                cost_model=model,
                rng=coerce_rng(spawn_seed(4, "racer", run.index)),
                budget=SearchBudget(max_steps=1),
            )
            assert run.report.stop_reason == STOP_DEADLINE
            assert run.report.steps == 1
            assert run.deployment.as_dict() == start.as_dict()


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

    def test_eval_capped_restarts_are_their_solo_runs(self):
        """A racer whose last climb round overshoots its slice must not
        cut the other racer short: each racer is its solo run, in the
        pool as inline."""
        workflow = line_workflow(40, seed=3)
        network = random_bus_network(10, seed=4)
        model = CostModel(workflow, network)
        budget = SearchBudget(max_evals=3000)

        def run(inline):
            return deploy_parallel(
                "HillClimbing",
                workflow,
                network,
                cost_model=model,
                workers=2,
                seed=7,
                budget=budget,
                inline=inline,
            )

        inline_outcome = run(True)
        pool_outcome = run(False)
        solo = _solo_reports(
            "HillClimbing", workflow, network, model, budget, 2, 7
        )
        for outcome in (inline_outcome, pool_outcome):
            assert outcome.best.as_dict() == inline_outcome.best.as_dict()
            assert _strip(outcome.report) == _strip(inline_outcome.report)
            assert [_strip(r.report) for r in outcome.parallel.runs] == [
                _strip(report) for report in solo
            ]
        assert [r.evaluations for r in solo] == [1801, 1801]
        assert inline_outcome.best_value == pytest.approx(0.241730, abs=5e-7)


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

    def test_removed_target_and_cancel_hooks_are_rejected(
        self, line5, bus5, model
    ):
        """The race's target and cancel stops and the search runtime's
        cancel token and progress callback are gone, not ignored."""
        from repro.algorithms.runtime import SearchRuntime
        from repro.algorithms.sampling import SolutionSampler

        for keyword in ("target_value", "cancel"):
            with pytest.raises(TypeError):
                deploy_parallel(
                    "HillClimbing", line5, bus5, workers=2, inline=True,
                    **{keyword: None},
                )
            with pytest.raises(TypeError):
                race_portfolio(
                    line5, bus5, workers=2, inline=True, **{keyword: None}
                )
        algorithm = HillClimbing()
        for keyword in ("cancel", "on_progress"):
            with pytest.raises(TypeError):
                algorithm.deploy(line5, bus5, **{keyword: None})
            with pytest.raises(TypeError):
                algorithm.deploy_with_report(line5, bus5, **{keyword: None})
            with pytest.raises(TypeError):
                SearchRuntime(**{keyword: None})
            with pytest.raises(TypeError):
                SolutionSampler(samples=4).run(
                    line5, bus5, model, random.Random(0), **{keyword: None}
                )
