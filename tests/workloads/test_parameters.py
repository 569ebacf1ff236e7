"""Unit tests for the Class A/B/C parameter mixtures (Table 6)."""

import random

import pytest

from repro.exceptions import ExperimentError
from repro.workloads.parameters import (
    ClassAParameters,
    ClassBParameters,
    ClassCParameters,
    DiscreteMixture,
    HEAVY_OPERATION_CYCLES,
    MEDIUM_OPERATION_CYCLES,
    SIMPLE_OPERATION_CYCLES,
)
from tests.oracles import mixture_probabilities


class TestDiscreteMixture:
    def test_rejects_empty(self):
        with pytest.raises(ExperimentError):
            DiscreteMixture([])

    def test_rejects_bad_weight(self):
        with pytest.raises(ExperimentError):
            DiscreteMixture([(1.0, -1.0)])

    def test_constant(self):
        mixture = DiscreteMixture.constant(42.0)
        rng = random.Random(0)
        assert all(mixture.sample(rng) == 42.0 for _ in range(10))
        assert mixture.mean() == 42.0

    def test_probabilities_normalised(self):
        mixture = DiscreteMixture([(1.0, 1), (2.0, 3)])
        assert mixture.probabilities() == pytest.approx((0.25, 0.75))
        assert mixture.values == (1.0, 2.0)

    def test_mean(self):
        mixture = DiscreteMixture([(10.0, 0.25), (20.0, 0.5), (30.0, 0.25)])
        assert mixture.mean() == pytest.approx(20.0)

    def test_sample_frequencies(self):
        mixture = DiscreteMixture([(1, 0.25), (2, 0.5), (3, 0.25)])
        rng = random.Random(5)
        n = 20_000
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(n):
            counts[mixture.sample(rng)] += 1
        assert counts[1] / n == pytest.approx(0.25, abs=0.02)
        assert counts[2] / n == pytest.approx(0.50, abs=0.02)

    def test_deterministic_per_seed(self):
        mixture = DiscreteMixture([(1, 1), (2, 1), (3, 1)])
        a = [mixture.sample(random.Random(9)) for _ in range(1)]
        b = [mixture.sample(random.Random(9)) for _ in range(1)]
        assert a == b


class TestOperationAnchors:
    def test_section_41_values(self):
        assert SIMPLE_OPERATION_CYCLES == 5e6
        assert MEDIUM_OPERATION_CYCLES == 50e6
        assert HEAVY_OPERATION_CYCLES == 500e6


class TestClassC:
    def test_table6_values(self):
        params = ClassCParameters.paper()
        assert params.line_speed_bps.values == (10e6, 100e6, 1000e6)
        assert params.line_speed_bps.probabilities() == pytest.approx(
            (0.25, 0.5, 0.25)
        )
        assert params.operation_cycles.values == (10e6, 20e6, 30e6)
        assert params.server_power_hz.values == (1e9, 2e9, 3e9)
        mixture = params.message_mixture
        assert mixture_probabilities(mixture)[mixture.classes[1]] == pytest.approx(
            0.5
        )

    def test_with_fixed_bus_speed(self):
        pinned = ClassCParameters.paper().with_fixed_bus_speed(1e6)
        assert pinned.line_speed_bps.values == (1e6,)
        # the other mixtures survive unchanged
        assert pinned.operation_cycles.values == (10e6, 20e6, 30e6)


class TestClassA:
    def test_sweep_point_single_scale(self):
        params = ClassAParameters.sweep_point(10e6, "complex")
        assert params.line_speed_bps.values == (10e6,)
        assert len(params.message_mixture.classes) == 1
        assert params.message_mixture.classes[0].name == "complex"
        # CPU side pinned
        assert params.operation_cycles.values == (MEDIUM_OPERATION_CYCLES,)

    def test_sweep_point_mixed(self):
        params = ClassAParameters.sweep_point(100e6, "mixed")
        assert len(params.message_mixture.classes) == 3

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError):
            ClassAParameters.sweep_point(1e6, "gigantic")

    def test_as_class_c_roundtrip(self):
        params = ClassAParameters.sweep_point(10e6, "simple")
        as_c = params.as_class_c()
        assert as_c.line_speed_bps.values == (10e6,)
        assert as_c.message_mixture is params.message_mixture


class TestClassB:
    def test_sweep_point(self):
        params = ClassBParameters.sweep_point(HEAVY_OPERATION_CYCLES, 3e9)
        assert params.operation_cycles.values == (HEAVY_OPERATION_CYCLES,)
        assert params.server_power_hz.values == (3e9,)
        # communication side pinned
        assert params.line_speed_bps.values == (100e6,)

    def test_as_class_c(self):
        as_c = ClassBParameters.sweep_point(5e6, 1e9).as_class_c()
        assert as_c.operation_cycles.values == (5e6,)
        assert as_c.server_power_hz.values == (1e9,)
