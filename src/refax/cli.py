"""Command-line driver: parse, place a focus, refactor, check and dump.

Exit codes: 0 success; 1 a refactoring precondition failed (the source
file is untouched); 2 span errors, parse errors (naming the file), an
input file that cannot be read (missing, or not UTF-8 text), or an
``--output`` path that cannot be written (say, in a missing directory);
3 usage errors, found before any file is read; 4 internal error:
any other exception, including input nested past the recursion limit,
reported as one ``internal error: ...`` line without a traceback (the
source file is untouched). Program text goes to the output stream,
diagnostics about failures to the error stream, so outputs are pipeable.
In-place rewriting is atomic (temp file plus rename in the same
directory) and keeps the file's permission bits. Through a symbolic link
it rewrites the file the link resolves to, so the link stays a link.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import shutil
import sys
import tempfile
from collections.abc import Iterator

from . import joos, minilet
from .framework import FocusPresent, RefactoringError
from .lexing import ParseError, Span, SpanMismatch
from .terms import dump

LANGUAGES = {lang.name: lang for lang in (joos.LANGUAGE, minilet.LANGUAGE)}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 3 on usage errors
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _span_arg(text: str) -> Span:
    try:
        return Span.parse(text)
    except ValueError as exc:  # argparse shows only this type's message
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and ``--lang`` reads its choices from ``LANGUAGES`` itself."""
    parser = _ArgumentParser(prog="refax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lang", required=True, choices=LANGUAGES)
        p.add_argument("--file", required=True, help="source file to operate on")

    def output_opts(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--output", help="write the result to this path")
        group.add_argument(
            "--in-place", action="store_true", help="rewrite the source file atomically"
        )

    p_extract = sub.add_parser("extract", help="extract the focused fragment")
    common(p_extract)
    p_extract.add_argument(
        "--focus", required=True, type=_span_arg, metavar="L:C-L:C",
        help="span of the fragment (1-based, end-exclusive)",
    )
    p_extract.add_argument("--name", required=True, help="name for the new abstraction")
    output_opts(p_extract)

    p_intro = sub.add_parser("introduce", help="introduce a parsed abstraction")
    common(p_intro)
    p_intro.add_argument("--decl", required=True, help="file holding one abstraction")
    p_intro.add_argument("--class", dest="class_name", help="target class (joos)")
    p_intro.add_argument(
        "--focus", type=_span_arg, metavar="L:C-L:C",
        help="span of the target definition list (minilet)",
    )
    output_opts(p_intro)

    p_check = sub.add_parser("check", help="run the static checks")
    common(p_check)

    p_ast = sub.add_parser("ast", help="dump the term structure")
    common(p_ast)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one request. The cyclic collector is paused for it and left as
    the caller had it: trees and tokens hold no reference cycles, so they
    are freed by reference counting, and a collection on the way would
    only walk the nodes the parser just built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(parser, args)
    except (RefactoringError, FocusPresent) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ParseError, SpanMismatch) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: no input may end in a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:  # reported as an unreadable file
            raise OSError(f"{path}: {exc}") from None


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    print(f"{parser.prog}: error: {message}", file=sys.stderr)
    return 3


@contextlib.contextmanager
def _naming(path: str) -> Iterator[None]:
    """A ``ParseError`` raised inside names ``path``, as it was given."""
    try:
        yield
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    lang = LANGUAGES[args.lang]
    if args.command == "introduce":
        by_class = lang.focus_class is not None
        given = {"--class": args.class_name, "--focus": args.focus}
        flag, other = ("--class", "--focus") if by_class else ("--focus", "--class")
        if not given[flag]:
            return _usage_error(parser, f"introduce --lang {lang.name} requires {flag}")
        if given[other] is not None:
            return _usage_error(parser, f"introduce --lang {lang.name} does not take {other}")
    source = _read(args.file)
    if args.command == "check":
        with _naming(args.file):
            diags = lang.check(lang.parse(source))
        for diag in diags:
            print(diag)
        return 0 if not diags else 1
    if args.command == "ast":
        with _naming(args.file):
            print(dump(lang.parse(source)))
        return 0
    if args.command == "extract":
        with _naming(args.file):
            at = lang.focus_path_by_span(source, lang.fragment_kind, args.focus)
        result = lang.extract_at(args.name, at)
    else:
        decl_source = _read(args.decl)
        with _naming(args.decl):
            decl = lang.parse_decl(decl_source)
        with _naming(args.file):
            if by_class:
                at = lang.focus_class(lang.parse(source), args.class_name)
            else:
                at = lang.focus_path_by_span(source, lang.list_kind, args.focus)
        result = lang.introduce_at(decl, at)
    _emit(lang.pretty(result), args)
    return 0


def _emit(text: str, args: argparse.Namespace) -> None:
    if getattr(args, "in_place", False):
        target = os.path.realpath(args.file)
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            shutil.copymode(target, tmp_path)
            os.replace(tmp_path, target)
        except BaseException:
            os.unlink(tmp_path)
            raise
    elif getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
