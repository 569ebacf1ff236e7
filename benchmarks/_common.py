"""Shared helpers for the benchmark harness.

Every benchmark both *times* its experiment (pytest-benchmark) and
*regenerates the paper's data*: the tables/series are printed to stdout
(visible with ``pytest -s``) and persisted under ``benchmarks/output/``
so a full ``pytest benchmarks/ --benchmark-only`` run leaves the complete
set of reproduced figures on disk.

Perf numbers additionally land in machine-readable JSON
(``output/<name>.json`` via :func:`write_json`, plus a ``.json`` sidecar
of every :func:`emit` call) so successive PRs can diff the perf
trajectory instead of parsing tables.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def perf_floor(name: str, default: float) -> float:
    """The perf floor asserted by a benchmark, env-tunable per machine.

    ``BENCH_FLOOR_<NAME>`` overrides *default* (set it to ``0`` to turn
    an assertion into measurement-only). Defaults are chosen to pass on
    modest CI hardware; the measured values are always recorded in the
    benchmark's JSON output regardless of the floor, so perf
    trajectories stay comparable across machines.
    """
    raw = os.environ.get(f"BENCH_FLOOR_{name}", "").strip()
    return float(raw) if raw else default

def host() -> dict:
    """The host a perf record was measured on, for every ``BENCH_*.json``.

    CPU count, Python version and NumPy version: the figures in one
    record are comparable with another's only on a like host.
    """
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


#: Paper anchor numbers quoted in section 4.2, for side-by-side context
#: in the quality benchmarks: worst-case (execution, penalty) deviations
#: of HeavyOps-LargeMsgs from the best of 32 000 sampled solutions.
PAPER_QUALITY_ANCHORS = {
    ("line", 1e6): (0.029, 0.12),
    ("line", 100e6): (0.29, 0.003),
    ("graph", 1e6): (0.29, 0.018),
    ("graph", 100e6): (0.0, 0.0),
}


def write_json(name: str, payload) -> pathlib.Path:
    """Persist *payload* to ``output/<name>.json``; return the path.

    The machine-readable side of the benchmark outputs: stable key
    order, indented, trailing newline -- so perf trajectories diff
    cleanly across runs and PRs.
    """
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def emit(name: str, *renderables) -> None:
    """Print tables/strings and persist them to ``output/<name>.txt``.

    Also dumps a machine-readable ``output/<name>.json`` sidecar holding
    the rendered chunks, via :func:`write_json`.
    """
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    chunks = []
    for renderable in renderables:
        text = renderable if isinstance(renderable, str) else str(renderable)
        chunks.append(text)
    body = "\n\n".join(chunks) + "\n"
    (OUTPUT_DIR / f"{name}.txt").write_text(body)
    write_json(name, {"name": name, "chunks": chunks})
    print(f"\n=== {name} ===\n{body}")
