"""Every top-level function and method in ``src/mpcmarket`` is named
somewhere in the package outside its own body and the ``__init__.py``
re-exports, and every dataclass or NamedTuple field is loaded somewhere in
the package, or each is on the allowlist below with its reason."""

import ast
from collections import Counter
from pathlib import Path

import mpcmarket

ROOT = Path(mpcmarket.__file__).parent

ALLOWED = {
    "noise_budget": "tests and perfbench's he.bfv.min_budget_bits measure the exact budget",
    "Transcript.received_by": "perfbench's workloads check the datatrust's message types",
    "HeCiphertext.budget_estimate": "perfbench's he.bfv.budget_estimate_bits and tests read it",
    "LdResult.chi_square": "the exact statistic the oracle reports; tests/test_ld.py reads it",
    "LdResult.d_coefficient": "the exact D the oracle reports; tests/test_ld.py reads it",
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


def _loads(tree: ast.AST) -> set[str]:
    """Identifiers that ``tree`` loads, as a name or an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _is_record(node: ast.ClassDef) -> bool:
    """Whether ``node`` is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
        getattr(b, "id", None) == "NamedTuple" for b in node.bases
    )


def _unread() -> set[str]:
    named = Counter()
    loaded = set()
    defs = []  # (qualified name, def node)
    fields = []  # qualified names of dataclass and NamedTuple fields
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named += _names(tree, path.name == "__init__.py")
        loaded |= _loads(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(node.name + ".", n) for n in node.body]
                if _is_record(node):
                    fields += [
                        f"{node.name}.{n.target.id}"
                        for n in node.body
                        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                    ]
            else:
                members = [("", node)]
            for prefix, fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((prefix + fn.name, fn))
    functions = {
        qual
        for qual, fn in defs
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and named[fn.name] <= _names(fn, False)[fn.name]
    }
    return functions | {qual for qual in fields if qual.partition(".")[2] not in loaded}


def test_every_definition_is_read_or_allowed():
    assert _unread() == set(ALLOWED)
