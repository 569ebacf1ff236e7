"""Deterministic RNG spawning for multiprocess search.

A parallel run must be a pure function of ``(seed, workers)``:
re-running it reproduces the same winner byte-identically. That rules
out shipping live ``random.Random`` streams across processes (their
state cannot be split) and it rules out entropy-based child seeding.
Instead every worker derives its *own* seed string from the parent seed
and its structural position -- restart index or portfolio lane -- and
feeds it through the library's one seeding convention,
:func:`repro.core.rng.coerce_rng` (the same ``f"{seed}:{path}"`` idiom
the experiment harness has always used for per-instance streams).

Two properties follow by construction:

* workers are order-independent -- a worker's stream depends only on
  its position in the line-up, never on scheduling; and
* runs are extension-stable -- adding workers never perturbs the
  streams of existing positions.
"""

from __future__ import annotations

import random

from repro.core.rng import DEFAULT_SEED, coerce_rng
from repro.exceptions import AlgorithmError

__all__ = ["spawn_seed", "spawn_rng", "require_spawnable_seed"]


def require_spawnable_seed(
    seed: int | float | str | bytes | None,
) -> int | float | str | bytes:
    """Validate that *seed* can be split deterministically across workers.

    A live ``random.Random`` is rejected: its stream cannot be forked
    into independent, reproducible per-worker streams. ``None`` maps to
    the library default seed (the documented "deterministic by default"
    convention of :mod:`repro.core.rng`).
    """
    if isinstance(seed, random.Random):
        raise AlgorithmError(
            "parallel search needs a seed value (int/str), not a live "
            "random.Random: a shared stream cannot be split "
            "deterministically across workers"
        )
    return DEFAULT_SEED if seed is None else seed


def spawn_seed(seed, *path) -> str:
    """Derive a child seed string from *seed* and a structural *path*.

    ``spawn_seed(7, "worker", 3)`` -> ``"7:worker:3"``; nested
    positions chain naturally (``spawn_seed(7, "a", 2, "b", 5)``). The
    result is fed to :func:`~repro.core.rng.coerce_rng`, exactly like the
    experiment harness's historical ``f"{seed}:{repetition}:{name}"``
    strings.
    """
    seed = require_spawnable_seed(seed)
    return ":".join(str(part) for part in (seed, *path))


def spawn_rng(seed, *path) -> random.Random:
    """:func:`spawn_seed` coerced into a ready ``random.Random``."""
    return coerce_rng(spawn_seed(seed, *path))
