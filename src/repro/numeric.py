"""Interpreter-independent float reductions.

The lowest layer of the package: the topology, the compiled IR and the
fleet state all sum floats that reach logged decisions, so they share
one summation order that does not depend on the Python version.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable[float]) -> float:
    """Add *values* strictly left to right.

    The builtin ``sum()`` of floats is compensated (Neumaier) from
    Python 3.12 on and a plain left fold before it, so its result
    depends on the interpreter. The scalar reductions the batch kernel
    mirrors fold in this order instead
    (:func:`~repro.core.compiled.penalty_statistic` inlines the same
    fold), which is the order the kernel's vector accumulations use on
    every Python version; so do the capacity, weighted-cycle and
    fairness totals behind the fleet's admission and balance figures.
    """
    total = 0.0
    for value in values:
        total += value
    return total
