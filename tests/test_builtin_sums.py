"""No builtin ``sum()`` of floats in ``src/`` or the bench scripts.

From Python 3.12 the builtin ``sum()`` of floats is compensated
(Neumaier), and a plain left fold before it; CI runs both. A float total
-- an XOR branch probability, a worst-fit budget, a report mean -- must
therefore go through :func:`repro.numeric.ordered_sum`, which folds left
to right on every interpreter. The builtin stays only for the integer
counts listed in :data:`INTEGER_SUMS`. The ``benchmarks/bench_*.py``
scripts write committed records, so they are held to the same rule
against :data:`BENCH_SUMS`; the frozen ``benchmarks/e2e/`` is not
scanned.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Iterable

import repro

SRC = Path(repro.__file__).parent
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: ``(module, function)`` of the builtin ``sum()`` calls over integers,
#: with how many each function makes.
INTEGER_SUMS = Counter(
    {
        ("repro.core.analysis", "RegionNode.count"): 1,
        ("repro.core.workflow", "Workflow.decision_fraction"): 1,
        ("repro.experiments.claims", "ClaimReport.passed"): 1,
        ("repro.experiments.stats", "comparison_table"): 1,
        ("repro.network.routing", "Router.compile_all_pairs"): 1,
        ("repro.parallel.runtime", "_merged_outcome"): 4,
        ("repro.service.controller", "FleetController.metrics"): 3,
        ("repro.service.queue", "WorkQueue.pending"): 1,
        ("repro.workloads.generator", "_GraphGenerator._emit_region"): 1,
    }
)


#: The same for ``benchmarks/bench_*.py``: integer counts, plus the
#: reproduction of the pre-compiled-IR objective, whose cost is what the
#: bench times and whose values only meet a tolerance check.
BENCH_SUMS = Counter(
    {
        ("benchmarks.bench_core_perf", "_LegacyCostModel.objective"): 4,
        ("benchmarks.bench_extensions", "bench_incremental_adaptation"): 1,
        ("benchmarks.bench_fleet", "bench_fleet_surge_work_counters"): 4,
    }
)


def builtin_sums(tree: ast.AST, module: str) -> list[tuple[str, str]]:
    """``(module, enclosing function)`` of every call to the name ``sum``."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "sum"
            ):
                found.append((module, ".".join(scope)))
            visit(child, inner)

    visit(tree, ())
    return found


def scan(root: Path, paths: Iterable[Path] | None = None) -> Counter:
    """Builtin ``sum()`` calls in *paths* (default: every module under
    *root*), keyed by dotted module name from *root*'s parent."""
    calls: Counter = Counter()
    for path in sorted(root.rglob("*.py") if paths is None else paths):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        calls.update(builtin_sums(ast.parse(path.read_text()), module))
    return calls


def test_only_integer_counts_use_the_builtin_sum():
    calls = scan(SRC)
    unexpected = calls - INTEGER_SUMS
    assert not unexpected, (
        f"builtin sum() outside the integer-count allowlist: "
        f"{sorted(unexpected)}; use repro.numeric.ordered_sum for floats"
    )
    stale = INTEGER_SUMS - calls
    assert not stale, f"allowlisted sums no longer in src/: {sorted(stale)}"


def test_bench_scripts_use_the_builtin_sum_only_where_allowed():
    # top-level scripts only: benchmarks/e2e/ is frozen with its harness
    calls = scan(BENCHMARKS, BENCHMARKS.glob("bench_*.py"))
    assert calls, "the scan found no bench script"
    unexpected = calls - BENCH_SUMS
    assert not unexpected, (
        f"builtin sum() outside the bench allowlist: {sorted(unexpected)}; "
        f"use repro.numeric.ordered_sum for floats"
    )
    stale = BENCH_SUMS - calls
    assert not stale, f"allowlisted sums no longer in benchmarks/: {sorted(stale)}"


def test_the_scan_sees_a_reintroduced_float_sum():
    source = "class G:\n    def f(self, weights):\n        return sum(weights)\n"
    assert builtin_sums(ast.parse(source), "m") == [("m", "G.f")]
