"""`src/` keeps only what the package itself uses: every public top-level
function and class of camvitals is referenced somewhere in src/ outside
its own definition. Readers and helpers that only tests need live under
tests/ (see readers.py)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "camvitals"

# "module.name": why the name stays in src/ with no reference there
ALLOWED = {
    "detect.rect_sum": "acceptance criterion 6 imports it from camvitals.detect as the "
                       "documented integral-image lookup",
}


def _referenced_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreferenced_public_names():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    tops = [(mod, node) for mod, tree in trees.items() for node in tree.body]
    unused = []
    for mod, node in tops:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not any(node.name in _referenced_names(other)
                            for _, other in tops if other is not node)):
            unused.append(f"{mod}.{node.name}")
    return unused


def test_every_public_function_and_class_is_used_in_src():
    assert unreferenced_public_names() == sorted(ALLOWED)
