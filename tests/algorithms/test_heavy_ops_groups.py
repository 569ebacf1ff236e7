"""Unit tests for HOLM's internal group bookkeeping (`_Groups`).

Groups hold operation indices: ``O1`` is index 0, ``O2`` index 1, ...
A group's id is the index of the operation it started from. The tests
drive the methods :class:`HeavyOpsLargeMsgs` calls; :meth:`remove_group`
returning the members is how they read a group's membership.
"""

import pytest

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.graph_adapters import WeightedGraph
from repro.algorithms.heavy_ops import _Groups
from repro.core.mapping import Deployment

O1, O2, O3, O4 = range(4)


def make_groups(cycles=(10e6, 20e6, 30e6, 40e6)):
    return _Groups(tuple(cycles))


def test_initial_singletons():
    groups = make_groups()
    assert not any(
        groups.same_group(a, b) for a in range(4) for b in range(4) if a != b
    )
    for op in (O1, O2, O3, O4):
        assert groups.remove_group(op) == {op}
    assert groups.heaviest() is None


def test_heaviest_tracks_cycles():
    groups = make_groups()
    heaviest = groups.heaviest()
    assert heaviest == O4
    assert groups.cycles(heaviest) == pytest.approx(40e6)


def test_merge_accumulates_cycles_and_members():
    groups = make_groups()
    merged = groups.merge(O1, O2)
    assert groups.cycles(merged) == pytest.approx(30e6)
    assert groups.same_group(O1, O2)
    assert groups.remove_group(merged) == {O1, O2}


def test_merge_same_group_is_noop():
    groups = make_groups()
    first = groups.merge(O1, O2)
    second = groups.merge(O2, O1)
    assert first == second
    assert groups.cycles(first) == pytest.approx(30e6)
    assert groups.remove_group(first) == {O1, O2}


def test_merged_group_can_become_heaviest():
    groups = make_groups()
    groups.merge(O1, O2)
    groups.merge(O1, O3)  # 10+20+30 = 60M > O4's 40M
    assert groups.remove_group(groups.heaviest()) == {O1, O2, O3}


def test_remove_operation_updates_cycles():
    groups = make_groups()
    merged = groups.merge(O1, O2)
    groups.remove_operation(O2)
    assert groups.cycles(merged) == pytest.approx(10e6)
    assert not groups.same_group(O1, O2)
    assert groups.remove_group(merged) == {O1}


def test_removing_last_member_drops_group():
    groups = make_groups()
    groups.remove_operation(O1)
    with pytest.raises(KeyError):
        groups.cycles(O1)
    for op in (O2, O3, O4):
        groups.remove_group(op)
    assert groups.heaviest() is None


def test_remove_group_returns_members():
    groups = make_groups()
    merged = groups.merge(O3, O4)
    members = groups.remove_group(merged)
    assert members == {O3, O4}
    assert groups.heaviest() == O2
    with pytest.raises(KeyError):
        groups.cycles(merged)


def test_same_group_query():
    groups = make_groups()
    assert not groups.same_group(O1, O2)
    groups.merge(O1, O2)
    assert groups.same_group(O1, O2)
    groups.remove_operation(O1)
    assert not groups.same_group(O1, O2)


def test_heaviest_none_when_empty():
    groups = make_groups(cycles=(10e6,))
    groups.remove_operation(O1)
    assert groups.heaviest() is None


def test_heaviest_tie_breaks_by_insertion_rank():
    groups = make_groups(cycles=(10e6, 10e6, 10e6, 10e6))
    assert groups.heaviest() == O1
    # the tie-break follows a group's lowest member as members leave
    groups.merge(O2, O1)
    groups.remove_operation(O1)
    assert groups.remove_group(groups.heaviest()) == {O2}


def test_weighted_cycles_used(xor_diamond, bus3):
    """Group cycles honour the section 3.4 probability weights."""

    class Probe(DeploymentAlgorithm):
        name = "test-groups-probe-xor"

        def _deploy(self, context):
            self.context = context
            return Deployment.round_robin(context.workflow, context.network)

    probe = Probe()
    probe.deploy(xor_diamond, bus3)
    compiled = probe.context.compiled
    groups = _Groups(WeightedGraph(compiled, True).cycles)
    left = compiled.op_index["left"]  # still its own singleton group
    assert groups.cycles(left) == pytest.approx(0.7 * 20e6)
