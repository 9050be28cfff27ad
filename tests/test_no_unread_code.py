"""Every top-level function and method in ``src/mpcmarket`` is named
somewhere in the package outside its own body and the ``__init__.py``
re-exports, or is on the allowlist below with its reason."""

import ast
from collections import Counter
from pathlib import Path

import mpcmarket

ROOT = Path(mpcmarket.__file__).parent

ALLOWED = {
    "noise_budget": "tests and perfbench's he.bfv.min_budget_bits measure the exact budget",
    "Transcript.received_by": "perfbench's workloads check the datatrust's message types",
}


def _names(tree: ast.AST, init: bool) -> Counter:
    """Identifiers that ``tree`` names: loads, attributes and imports (an
    ``__init__.py``'s imports are its re-exports and do not count)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias) and not init:
            out[node.name.rpartition(".")[2]] += 1
    return out


def _unread() -> set[str]:
    named = Counter()
    defs = []  # (qualified name, def node)
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named += _names(tree, path.name == "__init__.py")
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(node.name + ".", n) for n in node.body]
            else:
                members = [("", node)]
            for prefix, fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((prefix + fn.name, fn))
    return {
        qual
        for qual, fn in defs
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and named[fn.name] <= _names(fn, False)[fn.name]
    }


def test_every_definition_is_read_or_allowed():
    assert _unread() == set(ALLOWED)
