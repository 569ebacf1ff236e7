"""AlgorithmSpec validation and the default portfolio."""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.genetic import GeneticAlgorithm
from repro.algorithms.local_search import HillClimbing
from repro.exceptions import AlgorithmError
from repro.parallel import specs
from repro.parallel.specs import DEFAULT_PORTFOLIO, AlgorithmSpec


class TestAlgorithmSpec:
    def test_of_builds_configured_instance(self):
        spec = AlgorithmSpec.of("Genetic", generations=5, population_size=8)
        algorithm = spec.build()
        assert isinstance(algorithm, GeneticAlgorithm)
        assert algorithm.generations == 5
        assert algorithm.population_size == 8

    def test_of_with_seed_algorithm(self):
        spec = AlgorithmSpec.of(
            "HillClimbing", seed_algorithm="HeavyOps-LargeMsgs"
        )
        assert isinstance(spec.build(), HillClimbing)
        assert spec.label == "HillClimbing@HeavyOps-LargeMsgs"

    def test_parse_round_trips_label(self):
        spec = AlgorithmSpec.parse("SimulatedAnnealing@FL-TieResolver2")
        assert spec.name == "SimulatedAnnealing"
        assert spec.seed_algorithm == "FL-TieResolver2"
        assert AlgorithmSpec.parse(spec.label) == spec

    def test_parse_plain_name(self):
        spec = AlgorithmSpec.parse("Genetic")
        assert spec.name == "Genetic"
        assert spec.seed_algorithm is None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(AlgorithmError):
            AlgorithmSpec.of("NoSuchAlgorithm")

    def test_unknown_seed_algorithm_rejected(self):
        with pytest.raises(AlgorithmError):
            AlgorithmSpec.of("HillClimbing", seed_algorithm="NoSuchSeed")

    def test_seed_algorithm_on_non_refiner_rejected(self):
        # the constructive greedy takes no seed_algorithm hook
        with pytest.raises(AlgorithmError):
            AlgorithmSpec.of(
                "HeavyOps-LargeMsgs", seed_algorithm="FL-TieResolver2"
            )

    def test_unknown_parameter_rejected(self):
        with pytest.raises(AlgorithmError):
            AlgorithmSpec.of("Genetic", warp_factor=9)

    def test_bare_name_does_not_read_the_signature(self, monkeypatch):
        import inspect

        def forbidden(*args, **kwargs):
            raise AssertionError("inspect.signature called")

        monkeypatch.setattr(inspect, "signature", forbidden)
        assert AlgorithmSpec.parse("HeavyOps-LargeMsgs") == AlgorithmSpec(
            "HeavyOps-LargeMsgs"
        )
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            AlgorithmSpec.parse("NoSuchAlgorithm")
        specs._accepted.cache_clear()  # a cold class reads it
        with pytest.raises(AssertionError, match="signature"):
            AlgorithmSpec.of("Genetic", generations=3)

    def test_signature_is_read_once_per_class(self, monkeypatch):
        import inspect

        signature = inspect.signature
        reads = []

        def counting(target, *args, **kwargs):
            reads.append(target)
            return signature(target, *args, **kwargs)

        specs._accepted.cache_clear()
        monkeypatch.setattr(inspect, "signature", counting)
        first = AlgorithmSpec.of("HillClimbing", "FL-TieResolver2")
        assert reads == [HillClimbing.__init__]
        assert AlgorithmSpec.of("HillClimbing", "FL-TieResolver2") == first
        with pytest.raises(AlgorithmError, match="has no parameter 'warp'"):
            AlgorithmSpec.of("HillClimbing", warp=9)
        with pytest.raises(AlgorithmError, match="takes no seed_algorithm"):
            AlgorithmSpec.of(
                "HeavyOps-LargeMsgs", seed_algorithm="FL-TieResolver2"
            )
        assert len(reads) == 2  # one per class

    def test_spec_is_picklable_and_hashable(self):
        spec = AlgorithmSpec.of("Genetic", generations=3)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(AlgorithmSpec.of("Genetic", generations=3))


class TestDefaultPortfolio:
    def test_every_entry_builds(self):
        for spec in DEFAULT_PORTFOLIO:
            assert spec.build() is not None

    def test_labels_are_unique(self):
        labels = [spec.label for spec in DEFAULT_PORTFOLIO]
        assert len(labels) == len(set(labels))

    def test_mixes_constructive_seeds_and_families(self):
        seeded = [s for s in DEFAULT_PORTFOLIO if s.seed_algorithm]
        assert seeded, "portfolio should include constructive-seeded racers"
        names = {s.name for s in DEFAULT_PORTFOLIO}
        assert {"HillClimbing", "SimulatedAnnealing", "Genetic"} <= names
