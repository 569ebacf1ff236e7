"""Unit tests for the experiment configuration and runner."""

import dataclasses

import pytest

from repro.algorithms.fair_load import FairLoad
from repro.exceptions import ExperimentError
from repro.experiments.runner import (
    DEFAULT_ALGORITHMS,
    RANDOM_BASELINE,
    ExperimentConfig,
    ExperimentRunner,
)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(workflow_kind="spiral")
        with pytest.raises(ExperimentError):
            ExperimentConfig(network_kind="torus")
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_operations=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(repetitions=0)

    def test_instances_are_deterministic(self):
        config = ExperimentConfig(repetitions=2, seed=5)
        w1, n1 = config.instance(0)
        w2, n2 = config.instance(0)
        assert [op.cycles for op in w1] == [op.cycles for op in w2]
        assert [s.power_hz for s in n1] == [s.power_hz for s in n2]

    def test_instances_vary_by_index(self):
        config = ExperimentConfig(num_operations=30, seed=5)
        w0, _ = config.instance(0)
        w1, _ = config.instance(1)
        assert [op.cycles for op in w0] != [op.cycles for op in w1]

    def test_bus_speed_pinning(self):
        config = ExperimentConfig(bus_speed_bps=1e6, seed=1)
        for index in range(3):
            _, network = config.instance(index)
            assert network.uniform_speed_bps == 1e6

    def test_workflow_kinds(self):
        for kind in ("line", "bushy", "lengthy", "hybrid"):
            config = ExperimentConfig(workflow_kind=kind, num_operations=15)
            workflow, _ = config.instance(0)
            assert len(workflow) == 15
            assert workflow.is_line() == (kind == "line")

    def test_network_kinds(self):
        line_config = ExperimentConfig(network_kind="line")
        _, network = line_config.instance(0)
        assert network.is_line()

    def test_describe_and_k(self):
        config = ExperimentConfig(
            num_operations=19, num_servers=5, bus_speed_bps=1e6
        )
        # K = M / N is shown as its two terms
        assert "M=19 N=5 1Mbps" in config.describe()
        labelled = dataclasses.replace(config, label="custom")
        assert labelled.describe() == "custom"


class TestExperimentRunner:
    def test_rejects_empty_suite(self):
        with pytest.raises(ExperimentError):
            ExperimentRunner([])

    def test_accepts_names_and_instances(self):
        runner = ExperimentRunner(["FairLoad", FairLoad()])
        assert runner.algorithm_names == ("FairLoad", "FairLoad")

    def test_run_produces_records_for_all(self):
        runner = ExperimentRunner(DEFAULT_ALGORITHMS)
        config = ExperimentConfig(
            num_operations=8, num_servers=3, repetitions=2, seed=1
        )
        result = runner.run(config)
        assert len(result.records) == len(DEFAULT_ALGORITHMS) * 2
        assert set(result.algorithms()) == set(DEFAULT_ALGORITHMS)
        for record in result.records:
            assert record.cost.execution_time > 0
            assert record.cost.time_penalty >= 0

    def test_random_baseline_appends_records(self):
        runner = ExperimentRunner(
            ["FairLoad"], random_baseline_samples=64
        )
        config = ExperimentConfig(
            num_operations=6, num_servers=3, repetitions=2, seed=3
        )
        result = runner.run(config)
        baseline = [
            r for r in result.records if r.algorithm == RANDOM_BASELINE
        ]
        assert len(baseline) == 2
        for record in baseline:
            assert record.deployment is not None
            assert record.cost.execution_time > 0
        # the baseline is seeded off (seed, repetition): reruns agree
        again = runner.run(config)
        assert [
            r.cost.objective
            for r in again.records
            if r.algorithm == RANDOM_BASELINE
        ] == [r.cost.objective for r in baseline]

    def test_random_baseline_samples_validated(self):
        with pytest.raises(ExperimentError):
            ExperimentRunner(["FairLoad"], random_baseline_samples=-1)

    def test_results_reproducible(self):
        runner = ExperimentRunner(["FairLoad", "HeavyOps-LargeMsgs"])
        config = ExperimentConfig(
            num_operations=8, num_servers=3, repetitions=2, seed=2
        )
        r1 = runner.run(config)
        r2 = runner.run(config)
        assert [rec.cost.execution_time for rec in r1.records] == [
            rec.cost.execution_time for rec in r2.records
        ]

    def test_scatter_points_shape(self):
        runner = ExperimentRunner(["FairLoad"])
        config = ExperimentConfig(
            num_operations=6, num_servers=2, repetitions=3, seed=3
        )
        points = runner.run(config).scatter_points()
        assert list(points) == ["FairLoad"]
        assert len(points["FairLoad"]) == 3

    def test_means_and_winners(self):
        runner = ExperimentRunner(["FairLoad", "HeavyOps-LargeMsgs"])
        config = ExperimentConfig(
            num_operations=10,
            num_servers=3,
            repetitions=3,
            seed=4,
            bus_speed_bps=1e6,
        )
        result = runner.run(config)
        for name in result.algorithms():
            assert result.mean_execution_time(name) > 0
            assert result.mean_objective(name) > 0
        assert result.winner_by_execution() in result.algorithms()
        assert result.winner_by_penalty() in result.algorithms()
        with pytest.raises(ExperimentError):
            result.mean_execution_time("nope")

    def test_summary_table(self):
        runner = ExperimentRunner(["FairLoad"])
        config = ExperimentConfig(
            num_operations=6, num_servers=2, repetitions=2, seed=5
        )
        table = runner.run(config).summary_table()
        assert len(table) == 1
        assert "FairLoad" in table.render()

    def test_sweep_table(self):
        runner = ExperimentRunner(["FairLoad"])
        configs = [
            ExperimentConfig(
                num_operations=6,
                num_servers=2,
                repetitions=1,
                seed=6,
                bus_speed_bps=speed,
                label=f"{speed:g}",
            )
            for speed in (1e6, 100e6)
        ]
        table = runner.sweep_table(configs, metric="execution")
        assert len(table) == 2
        with pytest.raises(ExperimentError):
            runner.sweep_table(configs, metric="beauty")
