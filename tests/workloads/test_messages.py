"""Unit tests for the SOAP message classes and mixtures."""

import random

import pytest

from repro.exceptions import ExperimentError
from repro.workloads.messages import (
    COMPLEX_MESSAGE,
    MEDIUM_MESSAGE,
    SIMPLE_MESSAGE,
    MessageClass,
    MessageMixture,
    PAPER_MESSAGE_MIXTURE,
)
from tests.oracles import mixture_probabilities


class TestMessageClasses:
    def test_paper_byte_sizes(self):
        assert SIMPLE_MESSAGE.size_bytes == 873
        assert MEDIUM_MESSAGE.size_bytes == 7_581
        assert COMPLEX_MESSAGE.size_bytes == 21_392

    def test_bits_are_bytes_times_eight(self):
        assert SIMPLE_MESSAGE.size_bits == 873 * 8

    def test_paper_mbit_convention(self):
        """The paper's 'Mbits' figures use bytes*8/2**20."""
        assert SIMPLE_MESSAGE.size_mbits_paper == pytest.approx(
            0.00666, abs=5e-5
        )
        assert MEDIUM_MESSAGE.size_mbits_paper == pytest.approx(
            0.057838, abs=5e-5
        )
        assert COMPLEX_MESSAGE.size_mbits_paper == pytest.approx(
            0.163208, abs=5e-5
        )

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ExperimentError):
            MessageClass("bad", 0)


class TestMessageMixture:
    def test_rejects_empty(self):
        with pytest.raises(ExperimentError):
            MessageMixture([])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ExperimentError):
            MessageMixture([(SIMPLE_MESSAGE, 0.0)])

    def test_probability_of(self):
        probabilities = mixture_probabilities(PAPER_MESSAGE_MIXTURE)
        assert probabilities[SIMPLE_MESSAGE] == pytest.approx(0.25)
        assert probabilities[MEDIUM_MESSAGE] == pytest.approx(0.50)
        assert probabilities[COMPLEX_MESSAGE] == pytest.approx(0.25)
        assert MessageClass("other", 1) not in probabilities

    def test_weights_are_normalised(self):
        mixture = MessageMixture([(SIMPLE_MESSAGE, 2), (MEDIUM_MESSAGE, 6)])
        assert mixture_probabilities(mixture)[SIMPLE_MESSAGE] == pytest.approx(0.25)

    def test_sample_distribution(self):
        rng = random.Random(0)
        counts = {"simple": 0, "medium": 0, "complex": 0}
        n = 20_000
        for _ in range(n):
            counts[PAPER_MESSAGE_MIXTURE.sample(rng).name] += 1
        assert counts["simple"] / n == pytest.approx(0.25, abs=0.02)
        assert counts["medium"] / n == pytest.approx(0.50, abs=0.02)
        assert counts["complex"] / n == pytest.approx(0.25, abs=0.02)

    def test_sample_bits(self):
        rng = random.Random(1)
        valid = {
            SIMPLE_MESSAGE.size_bits,
            MEDIUM_MESSAGE.size_bits,
            COMPLEX_MESSAGE.size_bits,
        }
        for _ in range(50):
            assert PAPER_MESSAGE_MIXTURE.sample_bits(rng) in valid

    def test_mean_bits(self):
        expected = (
            0.25 * SIMPLE_MESSAGE.size_bits
            + 0.50 * MEDIUM_MESSAGE.size_bits
            + 0.25 * COMPLEX_MESSAGE.size_bits
        )
        assert PAPER_MESSAGE_MIXTURE.mean_bits() == pytest.approx(expected)

    def test_single_class_mixture(self):
        mixture = MessageMixture([(MEDIUM_MESSAGE, 1.0)])
        rng = random.Random(2)
        assert all(
            mixture.sample(rng) == MEDIUM_MESSAGE for _ in range(20)
        )
        assert mixture.mean_bits() == MEDIUM_MESSAGE.size_bits
