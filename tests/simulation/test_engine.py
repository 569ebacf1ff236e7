"""Unit tests for the discrete-event simulation engine.

The key invariant: with unbounded server concurrency the simulator must
agree with the analytic cost model wherever the model is exact (line
workflows, AND/OR regions; XOR in expectation).
"""

import pytest

from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.exceptions import SimulationError
from repro.simulation.engine import SimulationEngine

MS = 1e-3


class TestGuards:
    def test_incomplete_deployment_rejected(self, line3, bus3):
        from repro.exceptions import IncompleteMappingError

        with pytest.raises(IncompleteMappingError):
            SimulationEngine(line3, bus3, Deployment({"A": "S1"}))

    def test_bad_concurrency_rejected(self, line3, bus3):
        deployment = Deployment.all_on_one(line3, "S1")
        with pytest.raises(SimulationError):
            SimulationEngine(line3, bus3, deployment, server_concurrency=0)

    def test_cyclic_workflow_rejected(self, line3, bus3):
        deployment = Deployment.all_on_one(line3, "S1")
        line3.connect("C", "A", 1)
        with pytest.raises(SimulationError):
            SimulationEngine(line3, bus3, deployment)

    def test_run_many_validates_runs(self, line3, bus3):
        engine = SimulationEngine(line3, bus3, Deployment.all_on_one(line3, "S1"))
        with pytest.raises(SimulationError):
            engine.run_many(0)


class TestLineAgreement:
    def test_matches_analytic_all_on_one(self, line3, bus3):
        deployment = Deployment.all_on_one(line3, "S1")
        engine = SimulationEngine(line3, bus3, deployment)
        result = engine.run()
        analytic = CostModel(line3, bus3).execution_time(deployment)
        assert result.makespan == pytest.approx(analytic)

    def test_matches_analytic_spread(self, line3, bus3):
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S3"})
        engine = SimulationEngine(line3, bus3, deployment)
        analytic = CostModel(line3, bus3).execution_time(deployment)
        assert engine.run().makespan == pytest.approx(analytic)

    def test_busy_time_matches_loads(self, line3, bus3):
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S3"})
        engine = SimulationEngine(line3, bus3, deployment)
        result = engine.run()
        loads = CostModel(line3, bus3).loads(deployment)
        for server, load in loads.items():
            assert result.busy_time[server] == pytest.approx(load)

    def test_bits_sent_counts_cross_server_only(self, line3, bus3):
        colocated = SimulationEngine(
            line3, bus3, Deployment.all_on_one(line3, "S1")
        ).run()
        assert colocated.bits_sent == 0 and colocated.messages_sent == 0
        spread = SimulationEngine(
            line3, bus3, Deployment({"A": "S1", "B": "S2", "C": "S3"})
        ).run()
        assert spread.bits_sent == 8_000 + 16_000
        assert spread.messages_sent == 2


class TestDecisionSemantics:
    def test_and_join_waits_for_both(self, and_diamond, bus3):
        deployment = Deployment.all_on_one(and_diamond, "S1")
        engine = SimulationEngine(and_diamond, bus3, deployment)
        result = engine.run()
        assert result.makespan == pytest.approx(62 * MS)
        assert result.executed_operations == set(
            and_diamond.operation_names
        )

    def test_or_join_fires_on_first_arrival(self, or_diamond, bus3):
        deployment = Deployment.all_on_one(or_diamond, "S1")
        engine = SimulationEngine(or_diamond, bus3, deployment)
        result = engine.run()
        assert result.makespan == pytest.approx(27 * MS)
        # the slow branch still executed (and consumed busy time)
        assert "slow" in result.executed_operations

    def test_xor_executes_exactly_one_branch(self, xor_diamond, bus3):
        deployment = Deployment.all_on_one(xor_diamond, "S1")
        engine = SimulationEngine(xor_diamond, bus3, deployment)
        for seed in range(10):
            result = engine.run(rng=seed)
            executed = result.executed_operations
            assert ("left" in executed) != ("right" in executed)

    def test_xor_expectation_approaches_analytic(self, xor_diamond, bus3):
        deployment = Deployment.all_on_one(xor_diamond, "S1")
        engine = SimulationEngine(xor_diamond, bus3, deployment)
        analytic = CostModel(xor_diamond, bus3).execution_time(deployment)
        estimate = engine.expected_makespan(runs=2_000, rng=7)
        assert estimate == pytest.approx(analytic, rel=0.05)

    def test_xor_branch_frequencies(self, xor_diamond, bus3):
        deployment = Deployment.all_on_one(xor_diamond, "S1")
        engine = SimulationEngine(xor_diamond, bus3, deployment)
        results = engine.run_many(2_000, rng=3)
        lefts = sum(1 for r in results if "left" in r.executed_operations)
        assert lefts / len(results) == pytest.approx(0.7, abs=0.05)


class TestContention:
    def test_single_core_serialises_parallel_branches(self, and_diamond, bus3):
        deployment = Deployment.all_on_one(and_diamond, "S1")
        unbounded = SimulationEngine(and_diamond, bus3, deployment).run()
        single = SimulationEngine(
            and_diamond, bus3, deployment, server_concurrency=1
        ).run()
        # left (20ms) and right (40ms) overlap when unbounded, serialise
        # when the server has one core
        assert single.makespan == pytest.approx(
            unbounded.makespan + 20 * MS
        )
        assert single.total_queueing_delay() > 0
        assert unbounded.total_queueing_delay() == 0

    def test_contention_never_speeds_things_up(self, and_diamond, bus5):
        deployment = Deployment.round_robin(and_diamond, bus5)
        unbounded = SimulationEngine(and_diamond, bus5, deployment).run()
        single = SimulationEngine(
            and_diamond, bus5, deployment, server_concurrency=1
        ).run()
        assert single.makespan >= unbounded.makespan - 1e-15


class TestTraceRecords:
    def test_records_are_consistent(self, line3, bus3):
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S3"})
        result = SimulationEngine(line3, bus3, deployment).run()
        assert [r.operation for r in result.records] == ["A", "B", "C"]
        for record in result.records:
            assert record.ready_time <= record.start_time < record.finish_time
        servers = {record.operation: record.server for record in result.records}
        assert servers["B"] == "S2"
        assert "ghost" not in servers

    def test_determinism_per_seed(self, xor_diamond, bus3):
        deployment = Deployment.round_robin(xor_diamond, bus3)
        engine = SimulationEngine(xor_diamond, bus3, deployment)
        r1 = engine.run(rng=42)
        r2 = engine.run(rng=42)
        assert r1.makespan == r2.makespan
        assert r1.executed_operations == r2.executed_operations
