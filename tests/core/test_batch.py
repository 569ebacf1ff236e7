"""Unit tests for the batch evaluation kernel (:mod:`repro.core.batch`).

The parity property suite (``tests/properties/test_property_batch``)
pins the kernel's numerics against the scalar compiled path over random
instances; these tests cover the API surface and the degenerate batch
shapes the issue calls out -- ``K=0``, ``K=1``, duplicate rows, the
all-ops-on-one-server antagonism row -- plus the lazy kernel import and
the shared-artifact memoisation.
"""

import random

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator, penalty_rows
from repro.core.compiled import CompiledInstance, penalty_statistic
from repro.core.workflow import Operation, Workflow
from repro.exceptions import DeploymentError
from repro.network.topology import Link, bus_network
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)


@pytest.fixture(scope="module")
def compiled():
    workflow = random_graph_workflow(12, GraphStructure.HYBRID, seed=17)
    network = random_bus_network(5, seed=18)
    return CompiledInstance(workflow, network)


@pytest.fixture(scope="module")
def evaluator(compiled):
    return compiled.batch_evaluator()


def random_batch(compiled, count, seed=0):
    rng = random.Random(seed)
    return [
        [rng.randrange(compiled.num_servers) for _ in range(compiled.num_ops)]
        for _ in range(count)
    ]


class TestDegenerateBatches:
    def test_empty_batch_returns_empty_arrays(self, evaluator):
        scores = evaluator.evaluate([])
        assert len(scores) == 0
        assert scores.execution.shape == (0,)
        assert scores.penalty.shape == (0,)
        assert scores.objective.shape == (0,)

    def test_single_row_matches_scalar_exactly(self, compiled, evaluator):
        (row,) = random_batch(compiled, 1, seed=3)
        scores = evaluator.evaluate([row])
        execution, penalty, objective = compiled.components(row)
        assert scores.execution[0] == execution
        assert scores.penalty[0] == penalty
        assert scores.objective[0] == objective

    def test_duplicate_rows_score_identically(self, compiled, evaluator):
        (row,) = random_batch(compiled, 1, seed=5)
        scores = evaluator.evaluate([row] * 8)
        for array in (scores.execution, scores.penalty, scores.objective):
            assert all(value == array[0] for value in array)

    def test_all_ops_on_one_server_matches_antagonism_example(
        self, compiled, evaluator
    ):
        # DESIGN's antagonism statement: all-on-one-server minimises
        # communication but destroys fairness. The row's penalty must
        # equal the scalar statistic of its (maximally skewed) loads...
        row = [0] * compiled.num_ops
        scores = evaluator.evaluate([row])
        assert scores.penalty[0] == compiled.penalty(
            compiled.load_values(row)
        )
        # ...and its communication is genuinely minimal: the execution
        # time is pure processing, every message priced at zero delay
        assert scores.execution[0] == compiled.execution_from(
            compiled.forward_pass(row)
        )
        assert compiled.communication_time(row) == 0.0
        # while fairness is worse than any mapping that spreads at all
        spread = [i % compiled.num_servers for i in range(compiled.num_ops)]
        assert scores.penalty[0] > evaluator.evaluate([spread]).penalty[0]


class TestExecutionOnly:
    def test_matches_evaluate_bit_for_bit(self, evaluator, compiled):
        batch = random_batch(compiled, 40, seed=5)
        executions = evaluator.execution(batch)
        expected = evaluator.evaluate(batch).execution
        assert [value.hex() for value in executions] == [
            value.hex() for value in expected
        ]

    def test_empty_batch(self, evaluator):
        assert evaluator.execution([]).shape == (0,)

    def test_validates_like_evaluate(self, compiled, evaluator):
        with pytest.raises(DeploymentError):
            evaluator.execution([[0] * (compiled.num_ops + 1)])

    @pytest.mark.parametrize("mode", ["mad", "sum_abs", "max", "std"])
    def test_penalty_rows_match_the_scalar_statistic(self, mode):
        rng = random.Random(mode)
        loads = np.array(
            [[rng.expovariate(1.0) for _ in range(7)] for _ in range(25)]
        )
        rows = penalty_rows(loads, mode)
        for row, value in zip(loads, rows):
            assert value == penalty_statistic(row.tolist(), mode)


class TestBatchValidation:
    def test_wrong_width_rejected(self, compiled, evaluator):
        with pytest.raises(DeploymentError, match="batch must be"):
            evaluator.evaluate([[0] * (compiled.num_ops + 1)])

    def test_out_of_range_indices_rejected(self, evaluator):
        bad = [[0] * evaluator.num_ops]
        bad[0][0] = evaluator.num_servers
        with pytest.raises(DeploymentError, match="outside"):
            evaluator.evaluate(bad)
        bad[0][0] = -1
        with pytest.raises(DeploymentError, match="outside"):
            evaluator.evaluate(bad)

    def test_index_batch_translates_names(self, compiled, evaluator):
        genome = tuple(
            compiled.server_names[i % compiled.num_servers]
            for i in range(compiled.num_ops)
        )
        indexed = evaluator.index_batch([genome])
        assert indexed.shape == (1, compiled.num_ops)
        assert [compiled.server_names[j] for j in indexed[0]] == list(genome)

    def test_index_batch_rejects_unknown_server(self, compiled, evaluator):
        genome = ("nope",) * compiled.num_ops
        with pytest.raises(DeploymentError, match="unknown server"):
            evaluator.index_batch([genome])

    def test_index_batch_empty_is_a_valid_k0_batch(self, evaluator):
        indexed = evaluator.index_batch([])
        assert indexed.shape == (0, evaluator.num_ops)
        assert len(evaluator.evaluate(indexed)) == 0


class TestNeighborhood:
    def test_grid_shape_and_row_encoding(self, compiled, evaluator):
        base = random_batch(compiled, 1, seed=7)[0]
        grid = evaluator.neighborhood(base)
        num_servers = compiled.num_servers
        assert grid.shape == (
            compiled.num_ops * num_servers,
            compiled.num_ops,
        )
        for op in range(compiled.num_ops):
            for server in range(num_servers):
                row = grid[op * num_servers + server]
                assert row[op] == server
                others = [x for i, x in enumerate(row) if i != op]
                expected = [x for i, x in enumerate(base) if i != op]
                assert others == expected

    def test_no_op_rows_score_the_incumbent(self, compiled, evaluator):
        base = random_batch(compiled, 1, seed=9)[0]
        scores = evaluator.evaluate(evaluator.neighborhood(base))
        incumbent = evaluator.evaluate([base]).objective[0]
        for op in range(compiled.num_ops):
            row = op * compiled.num_servers + base[op]
            assert scores.objective[row] == incumbent

    def test_wrong_length_vector_rejected(self, evaluator):
        with pytest.raises(DeploymentError, match="length"):
            evaluator.neighborhood([0] * (evaluator.num_ops + 1))


class TestSharing:
    def test_batch_evaluator_is_memoised(self, compiled):
        assert compiled.batch_evaluator() is compiled.batch_evaluator()

    def test_delay_matrices_shared_per_size(self):
        workflow = random_graph_workflow(8, GraphStructure.BUSHY, seed=2)
        network = bus_network((2e9, 3e9), speed_bps=1e8)
        evaluator = CompiledInstance(workflow, network).batch_evaluator()
        sizes = {m.size_bits for m in workflow.messages}
        evaluator.evaluate(random_batch(evaluator.compiled, 2))
        assert set(evaluator.routes.matrices) == sizes
        # a second instance on the same router borrows the same matrices
        other = CompiledInstance(
            line_workflow(4, seed=3), network, router=evaluator.compiled.router
        ).batch_evaluator()
        assert other.routes is evaluator.routes
        shared = [id(matrix) for matrix in other.routes.matrices.values()]
        for edges in other._incoming:
            assert all(id(matrix) in shared for _src, matrix in edges)


class TestImportGuard:
    def test_core_package_imports_without_batch(self):
        # the lazy PEP 562 re-export must not import repro.core.batch
        # (and so numpy) as a side effect of importing repro.core
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.core\n"
            "import repro.algorithms\n"
            "import repro.service.controller\n"
            "assert 'repro.core.batch' not in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True
        )


class TestEvaluatorConstruction:
    def test_repr_mentions_dimensions(self, evaluator):
        text = repr(evaluator)
        assert str(evaluator.num_ops) in text
        assert str(evaluator.num_servers) in text

    def test_direct_construction_equals_shared(self, compiled):
        direct = BatchEvaluator(compiled)
        shared = compiled.batch_evaluator()
        batch = random_batch(compiled, 6, seed=13)
        assert list(direct.evaluate(batch).objective) == list(
            shared.evaluate(batch).objective
        )


class TestScopedRefreshSizedPairs:
    def test_scoped_refresh_reprices_third_pareto_path(self, pareto_triple):
        # regression: the (A, B) message's per-size optimum rides the z
        # route, which is on neither classification path -- after a
        # scoped invalidation of an A-z worsening the dense delay
        # matrices must re-derive that entry, not restore the stale one
        workflow = Workflow("pair")
        workflow.add_operations(
            [Operation("op1", 1e9), Operation("op2", 1e9)]
        )
        workflow.connect("op1", "op2", 5e6)
        compiled = CompiledInstance(workflow, pareto_triple)
        evaluator = compiled.batch_evaluator()
        row = [0, 4]  # op1 on A, op2 on B
        before = evaluator.evaluate([row]).execution[0]
        pareto_triple.replace_link(Link("A", "z", 1e3, 50.0))
        compiled.invalidate_routes()
        fresh = CompiledInstance(workflow, pareto_triple)
        fresh_scores = fresh.batch_evaluator().evaluate([row])
        scores = evaluator.evaluate([row])
        # byte-identical to a from-scratch compile on the changed net
        assert scores.execution[0] == fresh_scores.execution[0]
        assert scores.objective[0] == fresh_scores.objective[0]
        assert scores.execution[0] > before  # the z detour is gone

    def test_size_dropped_by_retain_reprices_like_a_fresh_compile(
        self, pareto_triple
    ):
        # retain drops the 5e6 per-size path and delay matrix, so the
        # A-z worsening has nothing of that size to refresh; pricing
        # the size again afterwards must read the post-event routes
        workflow = Workflow("pair")
        workflow.add_operations(
            [Operation("op1", 1e9), Operation("op2", 1e9)]
        )
        workflow.connect("op1", "op2", 5e6)
        compiled = CompiledInstance(workflow, pareto_triple)
        row = [0, 4]  # op1 on A, op2 on B
        before = compiled.batch_evaluator().evaluate([row]).execution[0]
        router = compiled.router
        router.retain(set())
        assert router._sized == {} and router.dense.matrices == {}
        pareto_triple.replace_link(Link("A", "z", 1e3, 50.0))
        compiled.invalidate_routes()
        assert router.last_invalidation["sized_pairs_dropped"] == 0
        fresh = CompiledInstance(workflow, pareto_triple)
        want = fresh.batch_evaluator().evaluate([row]).execution[0]
        assert BatchEvaluator(compiled).evaluate([row]).execution[0] == want
        assert compiled.delay(0, 4, 5e6) == fresh.delay(0, 4, 5e6)
        assert want > before  # the z detour is gone
