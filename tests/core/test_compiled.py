"""Unit tests for the compiled problem IR (:mod:`repro.core.compiled`).

The parity property suite (``tests/properties/test_property_compiled``)
pins the numeric behaviour against a pre-refactor oracle; these tests
cover the artifact's structure -- index maps, tables, lazy caches --
and the sharing contract: the cost model, the move evaluators, the
simulation engine and the fleet must all consume the *same*
``CompiledInstance`` object.
"""

import gc
import math
import random
import weakref

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.graph_adapters import WeightedGraph
from repro.core.builder import WorkflowBuilder
from repro.core.compiled import (
    JOIN_MAX,
    JOIN_MIN,
    JOIN_XOR,
    PENALTY_MODES,
    CompiledInstance,
    ordered_sum,
    penalty_statistic,
)
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.migration import TransitionObjective
from repro.core.probability import execution_probabilities
from repro.core.workflow import Message, NodeKind, Operation, Workflow
from repro.exceptions import DeploymentError, UnknownServerError, WorkflowError
from repro.network.topology import Link, bus_network
from repro.service.state import FleetState, jain_index
from repro.simulation.engine import SimulationEngine
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import route_coefficients


def xor_workflow():
    """start -> XOR(a: 0.75 | b: 0.25) -> join -> end."""
    builder = WorkflowBuilder("compiled-xor", default_message_bits=8e6)
    builder.task("start", 4e9)
    builder.split(NodeKind.XOR_SPLIT, "split", 1e9)
    builder.branch(probability=0.75)
    builder.task("a", 2e9)
    builder.branch(probability=0.25)
    builder.task("b", 6e9)
    builder.join("join", 1e9)
    builder.task("end", 3e9, message_bits=4e6)
    return builder.build()


def make_chain(name, cycles):
    """A line workflow ``O1 -> ... -> O<n>`` with the given cycles."""
    workflow = Workflow(name)
    for index, value in enumerate(cycles, start=1):
        workflow.add_operation(Operation(f"O{index}", value))
        if index > 1:
            workflow.add_transition(
                Message(f"O{index - 1}", f"O{index}", size_bits=1e4)
            )
    return workflow


@pytest.fixture
def instance():
    workflow = xor_workflow()
    network = bus_network((2e9, 3e9, 4e9), speed_bps=1e8)
    return workflow, network, CompiledInstance(workflow, network)


class TestCompilation:
    def test_index_maps_cover_the_instance(self, instance):
        workflow, network, compiled = instance
        assert compiled.op_names == workflow.operation_names
        assert compiled.server_names == network.server_names
        assert [compiled.op_index[n] for n in compiled.op_names] == list(
            range(compiled.num_ops)
        )
        assert tuple(
            compiled.op_names[i] for i in compiled.order
        ) == workflow.topological_order()
        assert {compiled.op_names[i] for i in compiled.exits} == set(
            workflow.exits
        )

    def test_tproc_table_is_cycles_over_power(self, instance):
        workflow, network, compiled = instance
        for i, name in enumerate(compiled.op_names):
            cycles = workflow.operation(name).cycles
            for j, server in enumerate(compiled.server_names):
                expected = cycles / network.server(server).power_hz
                assert compiled.tproc[i][j] == expected

    def test_probability_weighted_arrays(self, instance):
        workflow, _, compiled = instance
        a = compiled.op_index["a"]
        b = compiled.op_index["b"]
        assert compiled.node_prob[a] == pytest.approx(0.75)
        assert compiled.node_prob[b] == pytest.approx(0.25)
        assert compiled.wcycles[a] == compiled.cycles[a] * 0.75
        assert compiled.use_probabilities

    def test_join_codes(self, instance):
        _, _, compiled = instance
        join = compiled.op_index["join"]
        start = compiled.op_index["start"]
        assert compiled.join_code[join] == JOIN_XOR
        assert compiled.join_code[start] == JOIN_MAX
        assert JOIN_MIN not in compiled.join_code  # no OR join here

    def test_ideal_cycles_are_capacity_proportional(self, instance):
        _, network, compiled = instance
        total = compiled.total_weighted_cycles
        for j, server in enumerate(compiled.server_names):
            expected = (
                total
                * network.server(server).power_hz
                / network.total_power_hz
            )
            assert compiled.ideal_cycles[j] == expected

    def test_route_table_fills_lazily_with_affine_coefficients(
        self, instance
    ):
        _, _, compiled = instance
        assert compiled.routes[0][0] == (0.0, 0.0)  # co-located prefill
        assert compiled.routes[0][1] is None  # unresolved until queried
        size = 8e6
        delay = compiled.delay(0, 1, size)
        coeff = compiled.routes[0][1]
        assert coeff is not None and len(coeff) == 2
        assert delay == coeff[0] + size * coeff[1]
        assert delay == compiled.router.transmission_time("S1", "S2", size)
        assert compiled.delay(0, 0, size) == 0.0

    def test_dirty_order_is_descendants_in_topo_order(self, instance):
        workflow, _, compiled = instance
        start = compiled.op_index["start"]
        region = compiled.dirty_order(start)
        assert region[0] == start
        assert len(region) == compiled.num_ops  # start reaches everything
        positions = {op: i for i, op in enumerate(compiled.order)}
        assert list(region) == sorted(region, key=positions.__getitem__)
        end = compiled.op_index["end"]
        assert compiled.dirty_order(end) == (end,)
        assert compiled.dirty_order(start) is region  # memoised

    def test_server_index_of_rejects_unknown_servers(self, instance):
        _, _, compiled = instance
        assert compiled.server_index_of("S2") == 1
        with pytest.raises(UnknownServerError):
            compiled.server_index_of("nope")

    def test_validation_matches_cost_model_errors(self):
        workflow = xor_workflow()
        network = bus_network((1e9, 2e9), speed_bps=1e8)
        with pytest.raises(DeploymentError, match="penalty mode"):
            CompiledInstance(workflow, network, penalty_mode="bogus")
        with pytest.raises(DeploymentError, match="weights"):
            CompiledInstance(workflow, network, execution_weight=-1.0)
        cyclic = Workflow("cycle")
        cyclic.add_operation(Operation("A", cycles=1e9))
        cyclic.add_operation(Operation("B", cycles=1e9))
        cyclic.add_transition(Message("A", "B", size_bits=1.0))
        cyclic.add_transition(Message("B", "A", size_bits=1.0))
        with pytest.raises(DeploymentError, match="contains a cycle"):
            CompiledInstance(cyclic, network)

    def test_penalty_statistic_modes(self):
        values = [1.0, 3.0]
        assert penalty_statistic(values, "mad") == 1.0
        assert penalty_statistic(values, "sum_abs") == 2.0
        assert penalty_statistic(values, "max") == 1.0
        assert penalty_statistic(values, "std") == 1.0
        assert penalty_statistic([], "mad") == 0.0
        assert set(PENALTY_MODES) == {"mad", "sum_abs", "max", "std"}


class TestSharing:
    """One artifact per instance: nobody rebuilds Tproc/route tables."""

    def test_cost_model_builds_and_exposes_the_artifact(self, instance):
        workflow, network, _ = instance
        model = CostModel(workflow, network)
        assert isinstance(model.compiled, CompiledInstance)
        assert model.router is model.compiled.router

    def test_from_compiled_shares_instead_of_recompiling(self, instance):
        _, _, compiled = instance
        model = CostModel.from_compiled(compiled)
        assert model.compiled is compiled
        assert model.workflow is compiled.workflow
        assert model.network is compiled.network
        assert model.execution_weight == compiled.execution_weight
        assert model.penalty_mode == compiled.penalty_mode

    def test_evaluators_borrow_the_cost_models_artifact(self, instance):
        workflow, network, _ = instance
        model = CostModel(workflow, network)
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        evaluator = MoveEvaluator(model, deployment)
        assert evaluator.compiled is model.compiled
        assert model.compiled.batch_evaluator().compiled is model.compiled

    def test_simulation_engine_accepts_a_shared_artifact(self, instance):
        workflow, network, compiled = instance
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        engine = SimulationEngine(
            workflow, network, deployment, compiled=compiled
        )
        assert engine.compiled is compiled
        assert engine.router is compiled.router
        result = engine.run(rng=0)
        assert result.makespan > 0

    def test_simulation_engine_compiles_when_not_given_one(self, instance):
        workflow, network, _ = instance
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        engine = SimulationEngine(workflow, network, deployment)
        assert isinstance(engine.compiled, CompiledInstance)

    def test_simulation_engine_rejects_foreign_artifacts(self, instance):
        workflow, network, _ = instance
        other_workflow = line_workflow(4, seed=1)
        other = CompiledInstance(other_workflow, network)
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="does not match"):
            SimulationEngine(
                workflow, network, deployment, compiled=other
            )

    def test_fleet_cost_models_carry_one_artifact_per_tenant(self):
        network = random_bus_network(4, seed=3)
        state = FleetState(network)
        workflow = random_graph_workflow(
            8, GraphStructure.HYBRID, seed=5
        )
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        state.add_tenant("t1", workflow, deployment)
        model = state.cost_model("t1")
        # the cached model is returned again, with the same artifact
        assert state.cost_model("t1") is model
        evaluator = MoveEvaluator(model, deployment)
        assert evaluator.compiled is model.compiled
        assert model.router is state.router

    def test_deterministic_equivalence_between_shared_consumers(
        self, instance
    ):
        workflow, network, compiled = instance
        model = CostModel.from_compiled(compiled)
        deployment = Deployment.random(
            workflow, network, random.Random(2)
        )
        evaluator = MoveEvaluator(model, deployment)
        servers = compiled.server_vector(deployment)
        breakdown = model.evaluate(deployment)
        assert evaluator.objective == breakdown.objective
        assert compiled.components(servers)[2] == breakdown.objective


class TestLeftToRightSums:
    """Reductions the batch kernel mirrors never use builtin ``sum()``.

    From Python 3.12 ``sum()`` of floats is compensated, which would
    make the scalar paths disagree with the kernel's left-to-right
    vector accumulation. Every input here is chosen so compensated and
    left-to-right summation differ (``math.fsum`` proves it).
    """

    @staticmethod
    def fold(values):
        total = 0.0
        for value in values:
            total = total + value
        return total

    def test_ordered_sum_is_a_left_fold(self):
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        assert ordered_sum(values) == 0.0
        assert ordered_sum(iter(values)) == 0.0
        assert ordered_sum([]) == 0.0

    @pytest.mark.parametrize("mode", PENALTY_MODES)
    def test_penalty_statistic_matches_the_kernel(self, mode):
        from repro.core.batch import penalty_rows

        values = [1e16, 1.0, 1.0]
        assert math.fsum(values) != self.fold(values)
        mean = self.fold(values) / 3
        deviations = [abs(v - mean) for v in values]
        expected = {
            "mad": self.fold(deviations) / 3,
            "sum_abs": self.fold(deviations),
            "max": max(deviations),
            "std": math.sqrt(self.fold(d * d for d in deviations) / 3),
        }[mode]
        assert penalty_statistic(values, mode) == expected
        assert penalty_rows(np.array([values]), mode)[0] == expected

    def test_totals_feeding_fleet_decisions_are_left_folds(self):
        # 1e16 + 1 + 1 folds to 1e16 left to right, 1e16 + 2 compensated
        parts = [1e16, 1.0, 1.0]
        assert math.fsum(parts) != self.fold(parts)
        network = bus_network(parts, speed_bps=1e8)
        assert network.total_power_hz == self.fold(parts)
        workflow = make_chain("skew", parts)
        compiled = CompiledInstance(workflow, network)
        assert compiled.total_weighted_cycles == self.fold(parts)
        state = FleetState(network)
        for index, cycles in enumerate(parts):
            tenant = make_chain(f"t{index}", [cycles])
            state.add_tenant(
                f"t{index}", tenant, Deployment({"O1": "S1"})
            )
        assert state.total_weighted_cycles() == self.fold(parts)
        # the loads' sum skews at 1e16, the sum of their squares at 1e8
        for values in (parts, [1e8, 1.0, 1.0]):
            squares = [v * v for v in values]
            assert any(
                math.fsum(terms) != self.fold(terms)
                for terms in (values, squares)
            )
            total = self.fold(values)
            assert jain_index(dict(zip("abc", values))) == (
                total * total / (3 * self.fold(squares))
            )

    def test_xor_weight_total_is_a_left_fold(self):
        # XOR branch weights 0.7 + 0.2 + 0.1 fold to 0.9999999999999999
        weights = [0.7, 0.2, 0.1]
        assert math.fsum(weights) != self.fold(weights)
        builder = WorkflowBuilder("xor-weights", default_message_bits=8e6)
        builder.task("start", 1e9)
        builder.split(NodeKind.XOR_SPLIT, "split", 1e9)
        for name, probability in zip("abc", weights):
            builder.branch(probability=probability)
            builder.task(name, 1e9)
        builder.join("join", 1e9)
        compiled = CompiledInstance(
            builder.build(), bus_network((1e9, 2e9), speed_bps=1e8)
        )
        join = compiled.op_index["join"]
        assert list(compiled.xor_weights[join]) == weights
        assert compiled.xor_weight_total[join] == self.fold(weights)

    def test_xor_join_probability_is_a_left_fold(self):
        # ten 0.1 branches fold to 0.9999999999999999, compensate to 1.0
        weights = [0.1] * 10
        assert math.fsum(weights) != self.fold(weights)
        builder = WorkflowBuilder("xor-tenths", default_message_bits=8e6)
        builder.task("start", 1e9)
        builder.split(NodeKind.XOR_SPLIT, "split", 1e9)
        for index, probability in enumerate(weights):
            builder.branch(probability=probability)
            builder.task(f"b{index}", 1e9)
        builder.join("join", 1e9)
        workflow = builder.build()
        assert execution_probabilities(workflow)["join"] == self.fold(weights)
        compiled = CompiledInstance(
            workflow, bus_network((1e9, 2e9), speed_bps=1e8)
        )
        join = compiled.op_index["join"]
        assert compiled.node_prob[join] == self.fold(weights)
        assert compiled.wcycles[join] == 1e9 * self.fold(weights)

    @pytest.mark.parametrize("use_probabilities", [None, True])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_heuristic_budgets_are_left_folds(self, use_probabilities, weighted):
        parts = [1e16, 1.0, 1.0]
        assert math.fsum(parts) != self.fold(parts)
        compiled = CompiledInstance(
            make_chain("skew", parts),
            bus_network((1e9, 3e9), speed_bps=1e8),
            use_probabilities=use_probabilities,
        )
        graph = WeightedGraph(compiled, weighted)
        total = self.fold(parts)
        assert graph.ideal_cycles == (total * 1e9 / 4e9, total * 3e9 / 4e9)

    @staticmethod
    def skewed_xor_instance():
        """A 3-way XOR join whose weighted arrivals are 1e16, 1, 1."""
        builder = WorkflowBuilder("xor-skew", default_message_bits=8e6)
        builder.task("start", 1e9)
        builder.split(NodeKind.XOR_SPLIT, "split", 1e9)
        for name, cycles in (("big", 3e25), ("b", 1e9), ("c", 1e9)):
            builder.branch(probability=1 / 3)
            builder.task(name, cycles)
        builder.join("join", 1e9)
        network = bus_network((1e9, 2e9), speed_bps=1e8)
        return CompiledInstance(builder.build(), network)

    def test_xor_join_sums_left_to_right_on_every_path(self):
        compiled = self.skewed_xor_instance()
        on_first = [0] * compiled.num_ops
        finish = compiled.forward_pass(on_first)
        join = compiled.op_index["join"]
        terms = [
            weight * finish[src]
            for (src, _size, _w), weight in zip(
                compiled.incoming[join], compiled.xor_weights[join]
            )
        ]
        assert terms == [1e16, 1.0, 1.0]
        assert math.fsum(terms) != self.fold(terms)
        expected = (
            self.fold(terms) / compiled.xor_weight_total[join]
            + compiled.tproc[join][0]
        )
        assert finish[join] == expected
        execution = compiled.execution_from(finish)
        kernel = compiled.batch_evaluator().execution([on_first])
        assert kernel[0] == execution
        # the move evaluator's dirty-region pass re-sums the join when
        # "c" moves back onto the first server
        mapping = {name: "S1" for name in compiled.op_names}
        mapping["c"] = "S2"
        evaluator = MoveEvaluator(
            CostModel.from_compiled(compiled), Deployment(mapping)
        )
        assert evaluator.propose("c", "S1").execution_time == execution


class TestOneSort:
    """A compile sorts its workflow once and checks for cycles through it."""

    def test_compile_sorts_an_xor_workflow_once(self, monkeypatch):
        sorts = []
        dag_checks = []
        real_sort = nx.topological_sort
        real_is_dag = Workflow.is_dag

        def counting_sort(graph):
            sorts.append(graph)
            return real_sort(graph)

        def counting_is_dag(workflow):
            dag_checks.append(workflow)
            return real_is_dag(workflow)

        monkeypatch.setattr(nx, "topological_sort", counting_sort)
        monkeypatch.setattr(Workflow, "is_dag", counting_is_dag)
        compiled = CompiledInstance(
            xor_workflow(), bus_network((1e9, 2e9), speed_bps=1e8)
        )
        assert compiled.use_probabilities
        assert (len(sorts), len(dag_checks)) == (1, 0)

    def test_cycle_errors_keep_their_types_and_messages(self):
        workflow = make_chain("loop", [1e9, 1e9, 1e9])
        workflow.add_transition(Message("O3", "O1", size_bits=1e4))
        with pytest.raises(
            DeploymentError,
            match=r"^workflow 'loop' contains a cycle; the cost model "
            r"requires a DAG$",
        ):
            CompiledInstance(workflow, bus_network((1e9,), speed_bps=1e8))
        with pytest.raises(WorkflowError, match=r"^workflow 'loop' contains a cycle$"):
            workflow.topological_order()
        assert not issubclass(DeploymentError, WorkflowError)


#: Every array a compiled instance exposes (tuples, lists and dicts
#: compare by value).
COMPILED_FIELDS = (
    "op_names",
    "op_index",
    "num_ops",
    "order",
    "exits",
    "node_prob",
    "cycles",
    "wcycles",
    "total_weighted_cycles",
    "kinds",
    "join_code",
    "incoming",
    "outgoing",
    "messages",
    "xor_weights",
    "xor_weight_total",
    "use_probabilities",
    "server_names",
    "server_index",
    "num_servers",
    "power",
    "total_power_hz",
    "tproc",
    "ideal_cycles",
    "objective",
    "baseline_servers",
    "migration_table",
)


class TestTwoHalves:
    """A workflow half compiled once, a route half shared per router."""

    def test_rebind_equals_a_fresh_compile(self, instance):
        workflow, network, compiled = instance
        compiled.batch_evaluator()
        moved = bus_network((5e9, 1e9), speed_bps=4e7)
        rebound = compiled.rebind(moved)
        fresh = CompiledInstance(workflow, moved)
        assert rebound.compiled_workflow is compiled.compiled_workflow
        assert rebound.network is moved
        for name in COMPILED_FIELDS:
            assert getattr(rebound, name) == getattr(fresh, name), name
        servers = range(rebound.num_servers)
        for i in servers:
            for j in servers:
                assert route_coefficients(rebound, i, j) == route_coefficients(
                    fresh, i, j
                )
        rows = random_rows(rebound, 16, seed=4)
        got = rebound.batch_evaluator().evaluate(rows)
        want = fresh.batch_evaluator().evaluate(rows)
        assert np.array_equal(got.objective, want.objective)
        assert compiled.dirty_order(0) is rebound.dirty_order(0)

    def test_rebind_recompiles_for_another_probability_setting(
        self, instance
    ):
        workflow, network, _ = instance
        plain = CompiledInstance(workflow, network, use_probabilities=False)
        rebound = plain.rebind(network, objective=TransitionObjective())
        fresh = CompiledInstance(workflow, network)
        assert rebound.compiled_workflow is not plain.compiled_workflow
        assert rebound.use_probabilities and not plain.use_probabilities
        for name in COMPILED_FIELDS:
            assert getattr(rebound, name) == getattr(fresh, name), name

    def test_rebind_validates_the_objective(self, instance):
        _, network, compiled = instance
        with pytest.raises(DeploymentError, match="penalty mode"):
            compiled.rebind(
                network, objective=TransitionObjective(penalty_mode="bogus")
            )

    def test_instances_on_one_router_share_the_route_half(self, instance):
        workflow, network, compiled = instance
        other = CompiledInstance(
            line_workflow(4, seed=1), network, router=compiled.router
        )
        assert other.router is compiled.router
        assert other.routes is compiled.routes
        assert compiled.routes is compiled.router.route_table()
        # a pair resolved through one instance is resolved for both
        other.delay(0, 2, 1e6)
        assert compiled.routes[0][2] is not None
        assert (
            other.batch_evaluator().routes
            is compiled.batch_evaluator().routes
        )

    def test_router_over_other_servers_is_rejected(self, instance):
        workflow, network, compiled = instance
        smaller = bus_network((2e9, 3e9), speed_bps=1e8)
        with pytest.raises(DeploymentError, match="does not have the servers"):
            CompiledInstance(workflow, smaller, router=compiled.router)
        with pytest.raises(DeploymentError, match="does not have the servers"):
            compiled.rebind(smaller, router=compiled.router)

    def test_route_half_is_freed_without_the_cycle_collector(self):
        from repro.core.batch import DenseRoutes

        network = bus_network((1e9, 2e9, 3e9), speed_bps=1e8)
        compiled = CompiledInstance(line_workflow(4, seed=1), network)
        compiled.delay(0, 1, 1e6)
        dense = weakref.ref(DenseRoutes.of(compiled.router))
        router = weakref.ref(compiled.router)
        gc.disable()
        try:
            del compiled
            # freed by reference counting
            assert router() is None and dense() is None
        finally:
            gc.enable()

    def test_link_change_refreshes_every_instance_on_the_router(self):
        network = bus_network((1e9, 2e9, 3e9), speed_bps=1e8)
        first = CompiledInstance(line_workflow(4, seed=2), network)
        second = CompiledInstance(
            line_workflow(5, seed=3), network, router=first.router
        )
        for compiled in (first, second):
            compiled.batch_evaluator()
        network.replace_link(Link("S1", "S2", 1e6))
        first.invalidate_routes()
        fresh = CompiledInstance(second.workflow, network)
        rows = random_rows(second, 16, seed=5)
        got = second.batch_evaluator().evaluate(rows)
        want = fresh.batch_evaluator().evaluate(rows)
        assert np.array_equal(got.objective, want.objective)
        assert second.delay(0, 1, 1e6) == fresh.delay(0, 1, 1e6)


def random_rows(compiled, count, seed):
    rng = random.Random(seed)
    return [
        [rng.randrange(compiled.num_servers) for _ in compiled.op_names]
        for _ in range(count)
    ]
