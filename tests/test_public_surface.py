"""Every public name in ``src/`` has a user outside ``tests/``.

A function, class, method or property that only tests call is surface
the library carries for nobody: either it becomes a test oracle in
``tests/oracles.py`` or it goes. The scan collects every public
definition under ``src/repro`` (module level and class bodies; a name
without a leading underscore, also inside a private class) and looks
for a use of the name anywhere but inside its own definition:

* in the Python under ``src/``, ``benchmarks/`` (the frozen ``e2e/``
  included), ``examples/`` and ``tools/``, as an AST ``Name``, an
  ``Attribute``, an import alias or a string constant that is an
  identifier (``getattr(obj, "name")``);
* as a word in the prose docs: ``README.md``, ``DESIGN.md``,
  ``EXPERIMENTS.md`` and ``docs/*.md`` except the generated
  ``docs/API.md``.

Names match by word, not by owner, so an override is used when any
``.name`` is. The fix for an offender is a real caller, a docs mention,
or a move to ``tests/oracles.py`` -- not an entry in :data:`ALLOWED`
without a reason.
"""

import ast
import re
from pathlib import Path
from typing import Iterable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "benchmarks", "examples", "tools")
PROSE = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: Public names with no caller in the repository, each with its reason.
ALLOWED = {
    "do_GET": "BaseHTTPRequestHandler dispatches GET requests to it by name",
    "do_POST": "BaseHTTPRequestHandler dispatches POST requests to it by name",
    "log_message": "BaseHTTPRequestHandler hook, overridden to silence access logs",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Definition(NamedTuple):
    module: str
    line: int
    name: str


def definitions(tree: ast.Module, module: str) -> list[Definition]:
    """Public functions, classes, methods and properties of *tree*: the
    module body and class bodies, not the closures inside a function."""
    found = []

    def visit(body: Iterable[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, _DEFS):
                if not node.name.startswith("_"):
                    found.append(Definition(module, node.lineno, node.name))
                if isinstance(node, ast.ClassDef):
                    visit(node.body)

    visit(tree.body)
    return found


def used_names(tree: ast.AST) -> set[str]:
    """Names *tree* uses, except a name inside its own definition (a
    recursive call is not a user)."""
    used: set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        for child in ast.iter_child_nodes(node):
            names: list[str] = []
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.alias):
                names = child.name.split(".")
                if child.asname:
                    names.append(child.asname)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if child.value.isidentifier():
                    names = [child.value]
            used.update(name for name in names if name not in inside)
            nested = inside | {child.name} if isinstance(child, _DEFS) else inside
            visit(child, nested)

    visit(tree, frozenset())
    return used


def prose_words(paths: Iterable[Path]) -> set[str]:
    """Every identifier-shaped word in the prose docs at *paths*."""
    words: set[str] = set()
    for path in paths:
        words.update(_WORD.findall(path.read_text()))
    return words


def prose_docs(root: Path) -> list[Path]:
    """The prose docs whose mentions count as a use."""
    docs = [root / name for name in PROSE]
    docs += [p for p in sorted((root / "docs").glob("*.md")) if p.name != "API.md"]
    return docs


def scan(root: Path) -> list[Definition]:
    """Public ``src/repro`` definitions under *root* with no use outside
    ``tests/``, in module and line order."""
    defined: list[Definition] = []
    used: set[str] = set()
    for directory in CODE_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text())
            used |= used_names(tree)
            if directory == "src":
                parts = path.relative_to(root / "src").with_suffix("").parts
                module = ".".join(p for p in parts if p != "__init__")
                defined += definitions(tree, module)
    used |= prose_words(prose_docs(root))
    return [d for d in defined if d.name not in used]


def test_every_public_name_has_a_user_outside_the_tests():
    offenders = [d for d in scan(ROOT) if d.name not in ALLOWED]
    assert not offenders, (
        "public names used only by tests (or by nobody); give each a real "
        "caller or a docs mention, or move it to tests/oracles.py:\n"
        + "\n".join(f"{d.module}:{d.line} {d.name}" for d in offenders)
    )


def test_every_allowed_name_is_still_defined_and_unused():
    unused = {d.name for d in scan(ROOT)}
    stale = sorted(set(ALLOWED) - unused)
    assert not stale, f"allowlisted names that have a user or are gone: {stale}"


def test_the_scan_sees_a_method_only_a_test_calls(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "class Box:\n"
        "    def size(self):\n"
        "        return self.size() if False else 1\n"
        "    def used(self):\n"
        "        return 2\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("print(Box().used())\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("assert Box().size() == 1\n")
    for name in PROSE:
        (tmp_path / name).write_text("The Box class.\n")
    assert scan(tmp_path) == [Definition("repro.m", 2, "size")]
