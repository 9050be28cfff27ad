"""Every top-level function and method in ``src/mpcmarket`` is named
somewhere in the package outside its own body and the ``__init__.py``
re-exports, every dataclass or NamedTuple field is loaded somewhere in
the package, and every parameter default of a top-level function or method
is overridden by some call in the package, or each is on the allowlist
below with its reason."""

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
    "TcpChannel(host)": "a deployment setting; every session here runs on loopback",
    "HeParams.default(t_bits)": "perfbench's he-ld passes 21 (ROADMAP item 6)",
    "main(argv)": "the entry point, which tests drive with their own argument lists",
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


def _calls(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """Every call in ``tree``, by the name it calls: ``f(...)`` and
    ``x.f(...)`` both under ``f``."""
    out: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            out.setdefault(name, []).append(node)
    return out


def _defaults(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position among the arguments a call passes, or None when it
    is keyword-only) of each parameter of ``fn`` that has a default; a
    method's position leaves out self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    out = [
        (a.arg, i - skip)
        for i, a in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    ]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _overrides(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at ``position``;
    ``*args`` and ``**kwargs`` may pass anything."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _unread() -> set[str]:
    named = Counter()
    loaded = set()
    calls: dict[str, list[ast.Call]] = {}
    defs = []  # (qualified name, def node)
    fields = []  # qualified names of dataclass and NamedTuple fields
    defaults = []  # (qualified name, the name calls use, (parameter, position))
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named += _names(tree, path.name == "__init__.py")
        loaded |= _loads(tree)
        for name, found in _calls(tree).items():
            calls.setdefault(name, []).extend(found)
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
                    # A constructor is called by its class's name.
                    init = fn.name == "__init__"
                    called = prefix[:-1] if init else fn.name
                    qual = called if init else prefix + fn.name
                    defaults += [(qual, called, d) for d in _defaults(fn, bool(prefix))]
    functions = {
        qual
        for qual, fn in defs
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and named[fn.name] <= _names(fn, False)[fn.name]
    }
    fixed = {
        f"{qual}({param})"
        for qual, called, (param, position) in defaults
        if not any(_overrides(c, param, position) for c in calls.get(called, []))
    }
    unloaded = {qual for qual in fields if qual.partition(".")[2] not in loaded}
    return functions | unloaded | fixed


def test_every_definition_is_read_or_allowed():
    assert _unread() == set(ALLOWED)
