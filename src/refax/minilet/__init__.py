"""Minilet: a nested-let functional instantiation of the framework."""

from ..framework import Language
from . import ast
from .analysis import declared_pairs, referenced_names, resolution_check
from .parser import parse_fundef, parse_program
from .pretty import pretty
from .refactoring import check_extractable, function_signature, let_defs_host

LANGUAGE = Language(
    name="minilet",
    parse=parse_program,
    parse_decl=parse_fundef,
    pretty=pretty,
    check=resolution_check,
    focus_kinds=ast.FOCUS_KINDS,
    fragment_kind="expr",
    list_kind="fundeflist",
    declared=declared_pairs,
    referenced=referenced_names,
    host=let_defs_host,
    extractable=check_extractable,
    signature=function_signature,
)
place_focus_by_span = LANGUAGE.place_focus_by_span
extract_function = LANGUAGE.extract
introduce_function = LANGUAGE.introduce
expr_focus = LANGUAGE.find
fundef_list_focus = LANGUAGE.find2

__all__ = [
    "ast",
    "LANGUAGE",
    "declared_pairs",
    "referenced_names",
    "resolution_check",
    "parse_program",
    "parse_fundef",
    "pretty",
    "extract_function",
    "introduce_function",
    "function_signature",
    "expr_focus",
    "let_defs_host",
    "fundef_list_focus",
    "place_focus_by_span",
]
