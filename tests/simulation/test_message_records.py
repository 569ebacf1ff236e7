"""Unit tests for per-message trace records."""

import pytest

from repro.core.mapping import Deployment
from repro.simulation.engine import SimulationEngine
from repro.simulation.trace import MessageRecord


def crossed(result):
    """The records of the messages that crossed the network."""
    return tuple(r for r in result.message_records if r.crossed_network)


class TestMessageRecords:
    def test_line_records_every_message(self, line3, bus3):
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S3"})
        result = SimulationEngine(line3, bus3, deployment).run()
        assert [(r.source, r.target) for r in result.message_records] == [
            ("A", "B"),
            ("B", "C"),
        ]
        assert all(r.crossed_network for r in result.message_records)
        assert crossed(result) == result.message_records

    def test_latencies_match_link_speed(self, line3, bus3):
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S3"})
        result = SimulationEngine(line3, bus3, deployment).run()
        ab = result.message_records[0]
        assert ab.latency == pytest.approx(8_000 / 100e6)
        assert ab.size_bits == 8_000
        assert ab.arrival_time == pytest.approx(
            ab.departure_time + ab.latency
        )

    def test_colocated_messages_have_zero_latency(self, line3, bus3):
        deployment = Deployment.all_on_one(line3, "S1")
        result = SimulationEngine(line3, bus3, deployment).run()
        assert len(result.message_records) == 2
        for record in result.message_records:
            assert not record.crossed_network
            assert record.latency == 0.0
        assert crossed(result) == ()

    def test_xor_run_records_only_taken_branch(self, xor_diamond, bus3):
        deployment = Deployment.all_on_one(xor_diamond, "S1")
        result = SimulationEngine(xor_diamond, bus3, deployment).run(rng=1)
        pairs = {(r.source, r.target) for r in result.message_records}
        took_left = ("choice", "left") in pairs
        took_right = ("choice", "right") in pairs
        assert took_left != took_right

    def test_bits_sent_consistent_with_records(self, line5, bus3):
        deployment = Deployment.round_robin(line5, bus3)
        result = SimulationEngine(line5, bus3, deployment).run()
        assert result.bits_sent == pytest.approx(
            sum(r.size_bits for r in crossed(result))
        )
        assert result.messages_sent == len(crossed(result))

    def test_exclusive_bus_queueing_shows_in_latency(self):
        from repro.core.builder import WorkflowBuilder
        from repro.core.workflow import NodeKind
        from repro.network.topology import bus_network

        builder = WorkflowBuilder("two-senders", default_message_bits=1_000_000)
        builder.task("start", 1e6, message_bits=100)
        builder.split(NodeKind.AND_SPLIT, "fork", 1e6, message_bits=100)
        builder.branch()
        builder.task("a", 10e6, message_bits=100)
        builder.branch()
        builder.task("b", 10e6, message_bits=100)
        builder.join("join", 1e6)
        workflow = builder.build()
        network = bus_network([1e9, 1e9], speed_bps=1e6)
        deployment = Deployment(
            {"start": "S1", "fork": "S1", "a": "S1", "b": "S1", "join": "S2"}
        )
        result = SimulationEngine(
            workflow, network, deployment, exclusive_bus=True
        ).run()
        crossing = sorted(
            crossed(result), key=lambda r: r.arrival_time
        )
        big = [r for r in crossing if r.size_bits == 1_000_000]
        assert len(big) == 2
        first, second = big
        # first transfer is pure transmission; the second queued behind it
        assert first.latency == pytest.approx(1.0)
        assert second.latency == pytest.approx(2.0, rel=1e-6)


def test_message_record_latency_property():
    record = MessageRecord("a", "b", 1.0, 3.5, 100.0, True)
    assert record.latency == 2.5
