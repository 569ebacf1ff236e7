"""Budget slicing: each racer's deterministic share."""

from __future__ import annotations

import pytest

from repro.algorithms.runtime import SearchBudget
from repro.parallel.budget import slice_budget


class TestSliceBudget:
    def test_none_budget_passes_through(self):
        assert slice_budget(None, 4, 0) is None

    def test_even_division(self):
        budget = SearchBudget(max_evals=100)
        shares = [slice_budget(budget, 4, i).max_evals for i in range(4)]
        assert shares == [25, 25, 25, 25]

    def test_remainder_goes_to_lowest_indices(self):
        budget = SearchBudget(max_evals=10, max_steps=7)
        slices = [slice_budget(budget, 3, i) for i in range(3)]
        assert [s.max_evals for s in slices] == [4, 3, 3]
        assert [s.max_steps for s in slices] == [3, 2, 2]
        assert sum(s.max_evals for s in slices) == 10
        assert sum(s.max_steps for s in slices) == 7

    def test_floor_of_one_for_surplus_workers(self):
        budget = SearchBudget(max_evals=2)
        shares = [slice_budget(budget, 4, i).max_evals for i in range(4)]
        assert shares == [1, 1, 1, 1]

    def test_deadline_is_shared_not_divided(self):
        budget = SearchBudget(deadline_s=1.5, max_evals=8)
        share = slice_budget(budget, 4, 2)
        assert share.deadline_s == 1.5
        assert share.max_evals == 2

    def test_unlimited_dimensions_stay_unlimited(self):
        share = slice_budget(SearchBudget(max_evals=8), 2, 0)
        assert share.max_steps is None

    def test_index_out_of_range_rejected(self):
        budget = SearchBudget(max_evals=8)
        with pytest.raises(ValueError):
            slice_budget(budget, 2, 2)
        with pytest.raises(ValueError):
            slice_budget(budget, 2, -1)

    def test_pure_function_of_inputs(self):
        budget = SearchBudget(max_evals=1000, max_steps=99)
        assert slice_budget(budget, 8, 5) == slice_budget(budget, 8, 5)
