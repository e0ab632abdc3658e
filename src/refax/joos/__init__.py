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
from .refactoring import check_extractable, focus_class_methods, method_list_host, method_signature

LANGUAGE = Language(
    name="joos",
    parse=parse_program,
    parse_decl=parse_method,
    pretty=pretty,
    check=static_check,
    focus_kinds=ast.FOCUS_KINDS,
    fragment_kind="statement",
    list_kind="methodlist",
    declared=declared_pairs,
    referenced=referenced_names,
    host=method_list_host,
    extractable=check_extractable,
    signature=method_signature,
    focus_class=focus_class_methods,
)
place_focus_by_span = LANGUAGE.place_focus_by_span
extract_method = LANGUAGE.extract
introduce_method = LANGUAGE.introduce
statement_focus = LANGUAGE.find
method_list_focus = LANGUAGE.find2

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
