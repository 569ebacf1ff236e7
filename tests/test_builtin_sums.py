"""No builtin ``sum()`` of floats in ``src/``.

From Python 3.12 the builtin ``sum()`` of floats is compensated
(Neumaier), and a plain left fold before it; CI runs both. A float total
-- an XOR branch probability, a worst-fit budget, a report mean -- must
therefore go through :func:`repro.numeric.ordered_sum`, which folds left
to right on every interpreter. The builtin stays only for the integer
counts listed in :data:`INTEGER_SUMS`.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

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


def scan(root: Path) -> Counter:
    calls: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
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


def test_the_scan_sees_a_reintroduced_float_sum():
    source = "class G:\n    def f(self, weights):\n        return sum(weights)\n"
    assert builtin_sums(ast.parse(source), "m") == [("m", "G.f")]
