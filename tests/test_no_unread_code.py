"""Every top-level function and method in ``src/mpcmarket`` is named
somewhere in the package outside its own body and the ``__init__.py``
re-exports, or is on the allowlist below with its reason."""

import ast
from collections import Counter
from pathlib import Path

import mpcmarket

ROOT = Path(mpcmarket.__file__).parent

ALLOWED = {
    # Plaintext references that tests compare the real paths against.
    "eval_plain": "tests evaluate circuits in plaintext against garbled evaluation",
    "schoolbook_negacyclic": "tests check the NTT products against the schoolbook product",
    "lr_predict_float": "tests bound the fixed-point LR prediction by the float one",
    "assert_datatrust_hygiene": "tests check the message types the DataTrust received",
    "noise_budget": "tests and perfbench's he.bfv.min_budget_bits measure the exact budget",
    # Acceptance criterion 4 garbles and evaluates this circuit corpus.
    "build_adder": "criterion 4's circuit corpus",
    "build_multiplier": "criterion 4's circuit corpus",
    "build_greater_than": "criterion 4's circuit corpus",
    "build_lookup": "criterion 4's circuit corpus",
    # Test harness: raw-socket tests and transcript comparisons drive these.
    "TcpChannel.endpoint": "raw-socket transport tests look up a peer's address",
    "Transcript.type_sequence": "tests compare the message types of two transcripts",
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
