"""Checks on the package source itself."""

import ast
import pathlib

import hypergeo

# The one assert that checks the code's own consistency, not its input.
ALLOWED = {("algebra.py", "singular_values")}


def _asserts(path):
    """(file name, enclosing function) for every assert in one file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((path.name, func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_no_asserts_guard_input():
    """Input checks raise, so they survive python -O."""
    src = pathlib.Path(hypergeo.__file__).parent
    found = [a for path in sorted(src.glob("*.py")) for a in _asserts(path)]
    assert [a for a in found if a not in ALLOWED] == []
