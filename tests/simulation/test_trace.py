"""Unit tests for trace records and simulation results."""

from repro.simulation.trace import OperationRecord, SimulationResult


def record(name="A", server="S1", ready=1.0, start=2.0, finish=5.0):
    return OperationRecord(
        operation=name,
        server=server,
        ready_time=ready,
        start_time=start,
        finish_time=finish,
    )


class TestOperationRecord:
    def test_queueing_delay(self):
        assert record(ready=1.0, start=3.0).queueing_delay == 2.0
        assert record(ready=1.0, start=1.0).queueing_delay == 0.0


class TestSimulationResult:
    def _result(self):
        return SimulationResult(
            makespan=5.0,
            records=(
                record("A", ready=0.0, start=0.0, finish=2.0),
                record("B", ready=2.0, start=3.0, finish=5.0),
            ),
            busy_time={"S1": 4.0},
            bits_sent=1_000.0,
            messages_sent=1,
            executed_operations=frozenset({"A", "B"}),
        )

    def test_total_queueing_delay(self):
        assert self._result().total_queueing_delay() == 1.0

    def test_fields(self):
        result = self._result()
        assert result.makespan == 5.0
        assert result.bits_sent == 1_000.0
        assert result.messages_sent == 1
        assert result.executed_operations == {"A", "B"}
