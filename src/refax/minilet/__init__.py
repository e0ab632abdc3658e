"""Minilet: a nested-let functional instantiation of the framework."""

from ..framework import Language
from . import ast
from .analysis import declared_pairs, referenced_names, resolution_check
from .parser import parse_fundef, parse_program
from .pretty import pretty
from .refactoring import (
    expr_focus,
    extract_function,
    function_signature,
    fundef_list_focus,
    introduce_function,
    let_defs_host,
)

LANGUAGE = Language(
    name="minilet",
    parse=parse_program,
    parse_decl=parse_fundef,
    pretty=pretty,
    check=resolution_check,
    extract=extract_function,
    introduce=introduce_function,
    focus_kinds=ast.FOCUS_KINDS,
    fragment_kind="expr",
    list_kind="fundeflist",
)
place_focus_by_span = LANGUAGE.place_focus_by_span

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
