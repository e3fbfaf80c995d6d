"""The recorded mutants of tools/mutants.py still point at real code and tests.

The replay itself takes minutes and stays outside pytest; this checks only
what a moved anchor or a renamed test would break, without running either.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def _defines(body: list[ast.stmt], names: list[str]) -> bool:
    # names is a chain of classes ending in a function, as in a test id
    head, *rest = names
    for node in body:
        if rest and isinstance(node, ast.ClassDef) and node.name == head:
            return _defines(node.body, rest)
        if not rest and isinstance(node, ast.FunctionDef) and node.name == head:
            return True
    return False


def test_every_mutant_anchor_and_killer_exists():
    trees: dict[str, ast.Module] = {}
    for m in _load_mutants():
        target = ROOT / m.path
        assert target.is_file(), f"{m.name}: no file {m.path}"
        assert target.read_text().count(m.old) == 1, f"{m.name}: old text not found once"
        for test in m.tests:
            path, *names = test.split("[")[0].split("::")
            if path not in trees:
                trees[path] = ast.parse((ROOT / path).read_text())
            assert _defines(trees[path].body, names), f"{m.name}: no test {test}"
