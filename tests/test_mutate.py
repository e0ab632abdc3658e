"""The mutant generator of the mutation audit (``tests/mutate.py``) on a
fixed snippet, without running the suite per mutant: every operator kind
appears, each mutant is one change that compiles, and no docstring or
definition is mutated."""

import ast
from collections import Counter

from .mutate import mutants

SNIPPET = '''"""Module doc: 1 == 2 and not x."""

import os

LIMIT = 3


def f(a, b):
    """Function doc: a < b or c."""
    if not a and b:
        return a == b
    return a is None or b in (1, 2)


class C:
    """Class doc: 0."""

    size: int = 0
'''


def _docstrings(tree):
    owners = [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef)))]
    return [ast.get_docstring(owner) for owner in owners]


def test_each_operator_makes_its_mutants_and_each_compiles():
    found = mutants(SNIPPET)
    assert Counter(m.kind for m in found) == {"pass": 5, "compare": 3, "boolop": 2, "not": 1, "int": 8}
    assert [m.line for m in found] == sorted(m.line for m in found)
    assert len({m.source for m in found}) == len(found)
    baseline = ast.parse(SNIPPET)
    for m in found:
        tree = ast.parse(m.source)
        compile(tree, "mutant", "exec")
        assert _docstrings(tree) == _docstrings(baseline), m
        kept = [type(n).__name__ for n in tree.body if isinstance(n, (ast.Import, ast.FunctionDef, ast.ClassDef))]
        assert kept == ["Import", "FunctionDef", "ClassDef"], m


def test_the_changes_are_the_listed_ones():
    described = {(m.line, m.description) for m in mutants(SNIPPET)}
    assert described == {
        (5, "statement -> pass"), (5, "3 -> 4"), (5, "3 -> 2"),
        (10, "statement -> pass"), (10, "and -> or"), (10, "drop not"),
        (11, "statement -> pass"), (11, "== -> !="),
        (12, "statement -> pass"), (12, "or -> and"), (12, "is -> is not"), (12, "in -> not in"),
        (12, "1 -> 2"), (12, "1 -> 0"), (12, "2 -> 3"), (12, "2 -> 1"),
        (18, "statement -> pass"), (18, "0 -> 1"), (18, "0 -> -1"),
    }
