"""Unit tests for the deployment mapping container."""

import random

import pytest

from repro.core.mapping import Deployment
from repro.exceptions import (
    DeploymentError,
    IncompleteMappingError,
    UnknownOperationError,
    UnknownServerError,
)


class TestConstructors:
    def test_all_on_one(self, line3):
        deployment = Deployment.all_on_one(line3, "S1")
        assert deployment.as_dict() == {"A": "S1", "B": "S1", "C": "S1"}

    def test_round_robin(self, line5, bus3):
        deployment = Deployment.round_robin(line5, bus3)
        assert deployment.as_dict() == {
            "O1": "S1",
            "O2": "S2",
            "O3": "S3",
            "O4": "S1",
            "O5": "S2",
        }

    def test_random_is_complete_and_valid(self, line5, bus3, rng):
        deployment = Deployment.random(line5, bus3, rng)
        assert deployment.is_complete(line5)
        assert set(deployment.as_dict().values()) <= set(bus3.server_names)

    def test_random_is_deterministic_per_seed(self, line5, bus3):
        d1 = Deployment.random(line5, bus3, random.Random(7))
        d2 = Deployment.random(line5, bus3, random.Random(7))
        assert d1 == d2

    def test_constructors_reject_empty_network(self, line3):
        from repro.network.topology import ServerNetwork

        with pytest.raises(DeploymentError):
            Deployment.round_robin(line3, ServerNetwork("empty"))


class TestMutation:
    def test_assign_and_move(self):
        deployment = Deployment()
        deployment.assign("A", "S1")
        assert deployment.server_of("A") == "S1"
        deployment.assign("A", "S2")
        assert deployment.server_of("A") == "S2"

    def test_unassign(self):
        deployment = Deployment({"A": "S1"})
        deployment.unassign("A")
        assert "A" not in deployment
        deployment.unassign("A")  # idempotent

    def test_update(self):
        deployment = Deployment({"A": "S1"})
        deployment.update({"B": "S2", "A": "S3"})
        assert deployment.as_dict() == {"A": "S3", "B": "S2"}


class TestQueries:
    def test_server_of_missing_raises(self):
        with pytest.raises(IncompleteMappingError):
            Deployment().server_of("A")

    def test_get_returns_none(self):
        assert Deployment().get("A") is None

    def test_operations_on(self):
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S1"})
        assert deployment.operations_on("S1") == ("A", "C")
        assert deployment.operations_on("S3") == ()

    def test_used_servers_and_occupancy(self):
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S1"})
        assert deployment.used_servers() == ("S1", "S2")
        occupancy = {s: len(deployment.operations_on(s)) for s in ("S1", "S2")}
        assert occupancy == {"S1": 2, "S2": 1}

    def test_missing_and_is_complete(self, line3):
        deployment = Deployment({"A": "S1"})
        assert not deployment.is_complete(line3)
        assert deployment.missing(line3) == ("B", "C")
        deployment.update({"B": "S1", "C": "S2"})
        assert deployment.is_complete(line3)


class TestValidate:
    def test_valid_passes(self, line3, bus3):
        Deployment.all_on_one(line3, "S1").validate(line3, bus3)

    def test_unknown_operation_rejected(self, line3, bus3):
        deployment = Deployment.all_on_one(line3, "S1")
        deployment.assign("ghost", "S1")
        with pytest.raises(UnknownOperationError):
            deployment.validate(line3, bus3)

    def test_unknown_server_rejected(self, line3, bus3):
        deployment = Deployment.all_on_one(line3, "S9")
        with pytest.raises(UnknownServerError):
            deployment.validate(line3, bus3)

    def test_incomplete_rejected(self, line3, bus3):
        deployment = Deployment({"A": "S1"})
        with pytest.raises(IncompleteMappingError):
            deployment.validate(line3, bus3)


class TestComparison:
    def test_equality_and_hash(self):
        d1 = Deployment({"A": "S1", "B": "S2"})
        d2 = Deployment({"B": "S2", "A": "S1"})
        assert d1 == d2
        assert d1 != Deployment({"A": "S2", "B": "S2"})
        assert d1 != "not a deployment"
        # mutable deployments are deliberately unhashable: a mapping that
        # changes under assign() must never silently corrupt a set/dict
        with pytest.raises(TypeError):
            hash(d1)
        assert hash(d1.frozen()) == hash(d2.frozen())

    def test_frozen_snapshot(self):
        d1 = Deployment({"A": "S1", "B": "S2"})
        snapshot = d1.frozen()
        assert snapshot == d1
        assert dict(snapshot) == {"A": "S1", "B": "S2"}
        assert snapshot.as_dict() == d1.as_dict()
        assert len(snapshot) == 2
        # the snapshot is decoupled from later mutation
        d1.assign("A", "S2")
        assert snapshot != d1
        assert Deployment(snapshot.as_dict()) == Deployment({"A": "S1", "B": "S2"})
        # frozen snapshots are usable as dict keys / set members
        seen = {snapshot: 1, d1.frozen(): 2}
        assert len(seen) == 2

    def test_copy_is_independent(self):
        d1 = Deployment({"A": "S1"})
        d2 = d1.copy()
        d2.assign("A", "S2")
        assert d1.server_of("A") == "S1"

    def test_diff(self):
        d1 = Deployment({"A": "S1", "B": "S2"})
        d2 = Deployment({"A": "S1", "B": "S3", "C": "S1"})
        assert d1.diff(d2) == {"B": ("S2", "S3"), "C": (None, "S1")}
        assert d1.diff(d1) == {}

    def test_len_and_iter(self):
        deployment = Deployment({"A": "S1", "B": "S2"})
        assert len(deployment) == 2
        assert dict(iter(deployment)) == {"A": "S1", "B": "S2"}
