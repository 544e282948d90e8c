"""No module-level cache in the package.

What a served structure determines lives with the object that serves it —
a reducer's structures, a machine's embeddings and its LRU of structure
entries, a sampler's routes — never in a module global, which worker
threads would share and forked workers inherit.  This reads the sources:
a module-level name bound to an empty ``{}``, ``[]``, ``dict()`` or
``OrderedDict()``, or a module-level function under ``functools``'
``lru_cache`` / ``cache``, fails unless it is allowed below, with its
reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``module:name`` -> why the package keeps it at module level.
ALLOWED = {
    "repro/annealer/backends.py:_HELPERS":
        "the process's helper-thread pool for sharded calls: one per "
        "process (a forked child clears it and starts its own), not a "
        "per-structure fact",
}

CACHES = {"lru_cache", "cache"}
EMPTY_CALLS = {"dict", "OrderedDict"}


def _name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _empty_store(value) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (isinstance(value, ast.Call) and not value.args
            and not value.keywords and _name(value) in EMPTY_CALLS)


def _module_statements(body):
    """Module-level statements, through ``if`` / ``try`` / ``with`` blocks
    but not into functions or classes."""
    for statement in body:
        yield statement
        for field in ("body", "orelse", "finalbody", "handlers"):
            inner = getattr(statement, field, None)
            if isinstance(inner, list) and not isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                yield from _module_statements(inner)


def module_caches(source: str):
    """Names of *source*'s module-level empty stores and cached functions."""
    for statement in _module_statements(ast.parse(source).body):
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_name(decorator) in CACHES
                   for decorator in statement.decorator_list):
                yield statement.name
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            if statement.value is None or not _empty_store(statement.value):
                continue
            targets = (statement.targets if isinstance(statement, ast.Assign)
                       else [statement.target])
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id


def package_caches():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE.parent).as_posix()
        for name in module_caches(path.read_text()):
            found[f"{module}:{name}"] = path
    return found


def test_no_module_level_cache_outside_the_allowlist():
    found = package_caches()
    assert set(found) - set(ALLOWED) == set()


def test_every_allowed_entry_exists_and_says_why():
    found = package_caches()
    for entry, reason in ALLOWED.items():
        assert entry in found, f"{entry} is allowed but gone: drop it"
        assert len(reason.split()) >= 5


def test_the_guard_sees_each_kind():
    source = (
        "import functools\n"
        "from collections import OrderedDict\n"
        "from functools import lru_cache\n"
        "A = {}\n"
        "B: dict = dict()\n"
        "C = OrderedDict()\n"
        "D = E = []\n"
        "KEPT = {'a': 1}\n"
        "if True:\n"
        "    F = []\n"
        "@lru_cache(maxsize=8)\n"
        "def g(x): return x\n"
        "@functools.cache\n"
        "def h(x): return x\n"
        "def inner():\n"
        "    local = {}\n"
        "class Holder:\n"
        "    shared = {}\n")
    assert sorted(module_caches(source)) == ["A", "B", "C", "D", "E", "F",
                                             "g", "h"]
