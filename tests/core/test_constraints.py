"""Unit tests for the user-constraint framework."""

from repro.core.constraints import (
    ConstraintSet,
    MaxExecutionTime,
    MaxServerLoad,
    MaxTimePenalty,
)
from repro.core.cost import CostBreakdown


def breakdown(execution=1.0, penalty=0.1, loads=None):
    loads = loads if loads is not None else {"S1": 0.5, "S2": 0.7}
    return CostBreakdown(
        execution_time=execution,
        time_penalty=penalty,
        objective=execution + penalty,
        loads=loads,
    )


class TestMaxExecutionTime:
    def test_satisfied(self):
        assert MaxExecutionTime(2.0).satisfied(breakdown(execution=1.0))

    def test_violated_with_message(self):
        message = MaxExecutionTime(0.5).violation(breakdown(execution=1.0))
        assert message is not None and "execution time" in message

    def test_boundary_is_allowed(self):
        assert MaxExecutionTime(1.0).satisfied(breakdown(execution=1.0))


class TestMaxServerLoad:
    def test_global_limit(self):
        assert MaxServerLoad(0.8).satisfied(breakdown())
        assert not MaxServerLoad(0.6).satisfied(breakdown())

    def test_named_server(self):
        constraint = MaxServerLoad(0.6, server_name="S1")
        assert constraint.satisfied(breakdown())  # S1 is 0.5
        constraint2 = MaxServerLoad(0.6, server_name="S2")
        assert not constraint2.satisfied(breakdown())  # S2 is 0.7

    def test_unknown_named_server_is_violation(self):
        message = MaxServerLoad(0.6, server_name="S9").violation(breakdown())
        assert message is not None and "S9" in message


class TestMaxTimePenalty:
    def test_satisfied_and_violated(self):
        assert MaxTimePenalty(0.2).satisfied(breakdown(penalty=0.1))
        assert not MaxTimePenalty(0.05).satisfied(breakdown(penalty=0.1))


class TestConstraintSet:
    def test_empty_set_always_satisfied(self):
        assert ConstraintSet().satisfied(breakdown())
        assert ConstraintSet().violations(breakdown()) == []

    def test_add_chains(self):
        constraints = (
            ConstraintSet()
            .add(MaxExecutionTime(2.0))
            .add(MaxTimePenalty(1.0))
        )
        assert len(constraints) == 2

    def test_collects_all_violations(self):
        constraints = ConstraintSet(
            [MaxExecutionTime(0.5), MaxTimePenalty(0.05), MaxServerLoad(10.0)]
        )
        messages = constraints.violations(breakdown())
        assert len(messages) == 2

    def test_iteration(self):
        items = [MaxExecutionTime(1.0), MaxTimePenalty(1.0)]
        assert list(ConstraintSet(items)) == items


class TestIntegrationWithCostModel:
    def test_constraints_filter_real_deployments(self, line3, bus3):
        from repro.core.cost import CostModel
        from repro.core.mapping import Deployment

        model = CostModel(line3, bus3)
        fair = model.evaluate(Deployment({"A": "S1", "B": "S2", "C": "S3"}))
        lumped = model.evaluate(Deployment.all_on_one(line3, "S1"))
        constraints = ConstraintSet([MaxTimePenalty(0.01)])
        assert constraints.satisfied(fair)
        assert not constraints.satisfied(lumped)
