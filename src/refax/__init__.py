"""refax: a language-parametric refactoring engine.

Layers, bottom up: ``terms`` (the uniform term protocol), ``strategy``
(generic traversal combinators), ``framework`` (focus, scope, name
analyses, extraction and introduction), and two language instantiations,
``joos`` (a mini-Java) and ``minilet`` (nested-let functional language),
driven by the ``refax`` command-line tool.
"""

from .terms import ArityMismatch, SortMismatch, Term, TermError, append_child, dump, node

__all__ = [
    "Term",
    "TermError",
    "ArityMismatch",
    "SortMismatch",
    "append_child",
    "dump",
    "node",
]
