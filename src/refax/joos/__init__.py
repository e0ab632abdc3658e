"""JOOS: a mini-Java instantiation of the refactoring framework."""

from ..framework import Language
from . import ast
from .analysis import (
    ExprType,
    MethodType,
    declared_pairs,
    defined_names,
    referenced_names,
    static_check,
    used_names,
)
from .parser import parse_method, parse_program
from .pretty import pretty
from .refactoring import (
    check_extractable,
    extract_method,
    focus_class_methods,
    introduce_method,
    method_list_focus,
    method_list_host,
    method_signature,
    statement_focus,
)

LANGUAGE = Language(
    name="joos",
    parse=parse_program,
    parse_decl=parse_method,
    pretty=pretty,
    check=static_check,
    extract=extract_method,
    introduce=introduce_method,
    focus_kinds=ast.FOCUS_KINDS,
    fragment_kind="statement",
    list_kind="methodlist",
    focus_class=focus_class_methods,
)
place_focus_by_span = LANGUAGE.place_focus_by_span

__all__ = [
    "ast",
    "LANGUAGE",
    "ExprType",
    "MethodType",
    "declared_pairs",
    "defined_names",
    "used_names",
    "referenced_names",
    "static_check",
    "parse_program",
    "parse_method",
    "pretty",
    "check_extractable",
    "extract_method",
    "introduce_method",
    "focus_class_methods",
    "method_signature",
    "statement_focus",
    "method_list_host",
    "method_list_focus",
    "place_focus_by_span",
]
