"""Unit contracts of the orchestration layer: curves, runtime modes."""

from __future__ import annotations

import pytest

from repro.parallel.runtime import ParallelRuntime, merge_curves


class TestMergeCurves:
    def test_single_curve_passes_through_strict_improvements(self):
        curve = ((1, 10.0), (3, 8.0), (5, 8.0), (7, 6.0))
        assert merge_curves([curve]) == ((1, 10.0), (3, 8.0), (7, 6.0))

    def test_merges_by_step_then_worker(self):
        fast = ((1, 9.0), (2, 5.0))
        slow = ((1, 7.0), (4, 3.0))
        # step 1: worker 0's 9.0 improves, worker 1's 7.0 improves;
        # step 2: 5.0 improves; step 4: 3.0 improves
        assert merge_curves([fast, slow]) == (
            (1, 9.0),
            (1, 7.0),
            (2, 5.0),
            (4, 3.0),
        )

    def test_non_improvements_are_dropped(self):
        a = ((1, 5.0),)
        b = ((2, 6.0), (3, 4.0))
        assert merge_curves([a, b]) == ((1, 5.0), (3, 4.0))

    def test_empty_curves(self):
        assert merge_curves([]) == ()
        assert merge_curves([(), ()]) == ()


class TestParallelRuntime:
    def test_workers_one_forces_inline(self):
        runtime = ParallelRuntime(1)
        assert runtime.inline
        runtime.close()

    def test_workers_validated(self):
        with pytest.raises(Exception):
            ParallelRuntime(0)

    def test_pool_rejects_an_injected_clock(self):
        from repro.core.clock import MONOTONIC, StepClock
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError, match="inline=True"):
            ParallelRuntime(2, clock=StepClock())
        ParallelRuntime(2, inline=True, clock=StepClock()).close()
        ParallelRuntime(1, clock=StepClock()).close()
        ParallelRuntime(2, clock=MONOTONIC).close()

    def test_close_is_idempotent(self):
        runtime = ParallelRuntime(2, inline=True)
        runtime.close()
        runtime.close()
