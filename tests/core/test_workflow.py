"""Unit tests for the workflow model (operations, messages, digraph)."""

import pytest

from repro.core.workflow import Message, NodeKind, Operation, Workflow
from repro.exceptions import (
    DuplicateOperationError,
    DuplicateTransitionError,
    UnknownOperationError,
    WorkflowError,
)


class TestNodeKind:
    def test_operational_is_not_decision(self):
        assert not NodeKind.OPERATIONAL.is_decision

    @pytest.mark.parametrize(
        "kind",
        [
            NodeKind.AND_SPLIT,
            NodeKind.AND_JOIN,
            NodeKind.OR_SPLIT,
            NodeKind.OR_JOIN,
            NodeKind.XOR_SPLIT,
            NodeKind.XOR_JOIN,
        ],
    )
    def test_decision_kinds(self, kind):
        assert kind.is_decision

    @pytest.mark.parametrize(
        "split,join",
        [
            (NodeKind.AND_SPLIT, NodeKind.AND_JOIN),
            (NodeKind.OR_SPLIT, NodeKind.OR_JOIN),
            (NodeKind.XOR_SPLIT, NodeKind.XOR_JOIN),
        ],
    )
    def test_complement_pairs(self, split, join):
        assert split.complement is join
        assert join.complement is split
        assert split.is_split and not split.is_join
        assert join.is_join and not join.is_split

    def test_operational_has_no_complement(self):
        with pytest.raises(ValueError):
            NodeKind.OPERATIONAL.complement


class TestOperation:
    def test_defaults_to_operational(self):
        op = Operation("A", 1e6)
        assert op.kind is NodeKind.OPERATIONAL
        assert not op.is_decision

    def test_rejects_empty_name(self):
        with pytest.raises(WorkflowError):
            Operation("", 1e6)

    @pytest.mark.parametrize("cycles", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_cycles(self, cycles):
        with pytest.raises(WorkflowError):
            Operation("A", cycles)

    def test_zero_cycles_allowed(self):
        assert Operation("A", 0.0).cycles == 0.0

    def test_with_cycles_returns_new_object(self):
        op = Operation("A", 1e6)
        scaled = op.with_cycles(2e6)
        assert scaled.cycles == 2e6
        assert op.cycles == 1e6
        assert scaled.name == "A"


class TestMessage:
    def test_rejects_self_transition(self):
        with pytest.raises(WorkflowError):
            Message("A", "A", 100)

    @pytest.mark.parametrize("size", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_size(self, size):
        with pytest.raises(WorkflowError):
            Message("A", "B", size)

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(WorkflowError):
            Message("A", "B", 100, probability=p)

    def test_pair(self):
        assert Message("A", "B", 100).pair == ("A", "B")


class TestWorkflowConstruction:
    def test_duplicate_operation_rejected(self, line3):
        with pytest.raises(DuplicateOperationError):
            line3.add_operation(Operation("A", 1e6))

    def test_duplicate_transition_rejected(self, line3):
        with pytest.raises(DuplicateTransitionError):
            line3.connect("A", "B", 999)

    def test_reverse_transition_is_distinct(self, line3):
        # the one-message rule is per ordered pair
        line3.connect("B", "A", 999)
        assert line3.message("B", "A").size_bits == 999
        assert line3.message("A", "B").size_bits != 999

    def test_transition_requires_known_endpoints(self, line3):
        with pytest.raises(UnknownOperationError):
            line3.connect("A", "Z", 100)
        with pytest.raises(UnknownOperationError):
            line3.connect("Z", "A", 100)

    def test_replace_message(self, line3):
        line3.replace_message(Message("A", "B", 123))
        assert line3.message("A", "B").size_bits == 123

    def test_replace_unknown_message_rejected(self, line3):
        with pytest.raises(UnknownOperationError):
            line3.replace_message(Message("A", "C", 123))


class TestWorkflowQueries:
    def test_len_contains_iter(self, line3):
        assert len(line3) == 3
        assert "A" in line3 and "Z" not in line3
        assert [op.name for op in line3] == ["A", "B", "C"]

    def test_operation_lookup_error(self, line3):
        with pytest.raises(UnknownOperationError):
            line3.operation("Z")

    def test_message_lookup(self, line3):
        assert line3.message("A", "B").size_bits == 8_000
        with pytest.raises(UnknownOperationError):
            line3.message("A", "C")

    def test_neighbors(self, line3):
        assert line3.predecessors("B") == ("A",)
        assert line3.successors("B") == ("C",)
        assert line3.predecessors("A") == ()
        assert line3.successors("C") == ()

    def test_incoming_outgoing(self, line3):
        assert [m.pair for m in line3.incoming("B")] == [("A", "B")]
        assert [m.pair for m in line3.outgoing("B")] == [("B", "C")]

    def test_entries_exits(self, line3):
        assert line3.entries == ("A",)
        assert line3.exits == ("C",)

    def test_total_cycles(self, line3):
        assert line3.total_cycles == 60e6

    def test_is_dag(self, line3):
        assert line3.is_dag()
        line3.connect("C", "A", 1)
        assert not line3.is_dag()


class TestLineDetection:
    def test_line_is_line(self, line3):
        assert line3.is_line()
        assert line3.line_order() == ("A", "B", "C")

    def test_single_operation_is_line(self):
        workflow = Workflow("one")
        workflow.add_operation(Operation("A", 1e6))
        assert workflow.is_line()
        assert workflow.line_order() == ("A",)

    def test_empty_is_not_line(self):
        assert not Workflow("empty").is_line()

    def test_branching_is_not_line(self, line3):
        line3.add_operation(Operation("D", 1e6))
        line3.connect("A", "D", 1)
        assert not line3.is_line()
        with pytest.raises(WorkflowError):
            line3.line_order()

    def test_disconnected_is_not_line(self):
        workflow = Workflow("disc")
        workflow.add_operations([Operation("A", 1e6), Operation("B", 1e6)])
        assert not workflow.is_line()

    def test_xor_diamond_is_not_line(self, xor_diamond):
        assert not xor_diamond.is_line()


class TestTopologicalOrder:
    def test_line_topological_order(self, line3):
        assert line3.topological_order() == ("A", "B", "C")

    def test_cycle_raises(self, line3):
        line3.connect("C", "A", 1)
        with pytest.raises(WorkflowError):
            line3.topological_order()

    def test_diamond_order_respects_edges(self, xor_diamond):
        order = xor_diamond.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for message in xor_diamond.messages:
            assert position[message.source] < position[message.target]


class TestXorValidation:
    def test_valid_diamond_passes(self, xor_diamond):
        xor_diamond.validate_xor_probabilities()

    def test_bad_xor_sum_rejected(self):
        workflow = Workflow("bad")
        workflow.add_operations(
            [
                Operation("x", 1e6, NodeKind.XOR_SPLIT),
                Operation("a", 1e6),
                Operation("b", 1e6),
            ]
        )
        workflow.connect("x", "a", 1, probability=0.5)
        workflow.connect("x", "b", 1, probability=0.2)
        with pytest.raises(WorkflowError):
            workflow.validate_xor_probabilities()

    def test_non_xor_edge_probability_rejected(self):
        workflow = Workflow("bad2")
        workflow.add_operations([Operation("a", 1e6), Operation("b", 1e6)])
        workflow.connect("a", "b", 1, probability=0.5)
        with pytest.raises(WorkflowError):
            workflow.validate_xor_probabilities()


class TestDerivedWorkflows:
    def test_copy_is_independent(self, line3):
        clone = line3.copy("clone")
        clone.add_operation(Operation("D", 1e6))
        assert "D" in clone and "D" not in line3
        assert clone.name == "clone"

    def test_scaled_cycles_and_messages(self, line3):
        scaled = line3.scaled(cycle_factor=2.0, message_factor=0.5)
        assert scaled.operation("A").cycles == 20e6
        assert scaled.message("A", "B").size_bits == 4_000
        # original untouched
        assert line3.operation("A").cycles == 10e6

    def test_decision_fraction(self, xor_diamond):
        # 2 decision nodes (choice, merge) out of 6
        assert xor_diamond.decision_fraction() == pytest.approx(2 / 6)

    def test_summary_keys(self, line3):
        summary = line3.summary()
        assert summary["operations"] == 3
        assert summary["messages"] == 2
        assert summary["is_line"] is True
