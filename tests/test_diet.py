"""The diet parse of a JOOS extract or introduce.

``refax extract`` and ``refax introduce`` whose new name the source does
not mention build the classes, fields and method headers, and only the
method body that encloses the focus (no body for ``introduce --class``);
every other body is checked by the same grammar and kept as an
``ast.Unparsed`` of its text. A source that mentions the new name is
parsed in full, once. These tests hold the CLI to what a CLI that parses in full gives: the
same exit code, stdout and stderr on printer fixpoints, the same exit
code and stderr on malformed input, and the full parse's verdict where a
body left as text could change it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import sys
from pathlib import Path

import pytest

from refax import cli, framework, joos, lexing, minilet
from refax.cli import main
from refax.joos import ast
from refax.joos.parser import _KEYWORDS, _SYMBOLS, parse_program
from refax.lexing import Lines, ParseError, Span, SpanMismatch, is_identifier, tokenize
from refax.strategy import apply_tu, scoped_uses_tu
from refax.terms import Opaque, TermError, append_child

from . import joos_gen
from .fixture_trees import preorder

SEEDS = (1, 7919)


def _full_record() -> framework.Language:
    """The JOOS record with a parser that builds every body, whatever
    ``build`` it is given."""
    return dataclasses.replace(joos.LANGUAGE, parse=lambda source, build=None: parse_program(source))


def _counting_record(parses: list[bool]) -> framework.Language:
    """The JOOS record, noting for each parse whether it was a diet one."""

    def parse(source, build=None):
        parses.append(build is not None)
        return parse_program(source, build)

    return dataclasses.replace(joos.LANGUAGE, parse=parse)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _differential(monkeypatch, requests: list[list[str]]) -> tuple[list, list, list[list[bool]]]:
    """Each request run by the CLI, then by the CLI with a full-parse JOOS
    record; and the parses (diet or not) each diet run made."""
    diet, parses = [], []
    for argv in requests:
        parses.append([])
        monkeypatch.setitem(cli.LANGUAGES, "joos", _counting_record(parses[-1]))
        diet.append(_run(argv))
    monkeypatch.setitem(cli.LANGUAGES, "joos", _full_record())
    full = [_run(argv) for argv in requests]
    monkeypatch.setitem(cli.LANGUAGES, "joos", joos.LANGUAGE)
    return diet, full, parses


def _names(prog: ast.Program) -> list[str]:
    """The identifiers of ``prog``: its variables, fields, methods and
    formals."""
    return sorted(n for n in joos_gen.used_identifiers(prog) if is_identifier(n, _KEYWORDS))


def _programs(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [joos.pretty(joos_gen.gen_program(rng)) for _ in range(count)]


@pytest.mark.parametrize("seed", SEEDS)
def test_extract_and_introduce_match_a_full_parse_on_generated_programs(seed, tmp_path, monkeypatch):
    """On generated programs (printer fixpoints): an extract at every
    statement's span, with a fresh name and with a name drawn from the
    program, and an introduce into every class (and a missing one) of a
    method with a fresh name and with each of the program's names, give
    the exit code, stdout and stderr of a CLI that parses in full, with
    one parse each. Each path is taken to each verdict: a diet parse for
    a name the source does not mention and a full one for a name it does."""
    rng = random.Random(seed)
    requests = []
    for k, source in enumerate(_programs(seed, 25)):
        path = tmp_path / f"p{k}.joos"
        path.write_text(source, encoding="utf-8")
        prog, lines = parse_program(source), Lines(source)
        names = _names(prog)
        fresh = joos_gen.fresh_name(prog)
        for t in preorder(prog):
            if isinstance(t, ast.Statement):
                for name in (fresh, rng.choice(names)):
                    requests.append(["extract", "--lang", "joos", "--file", str(path),
                                     "--focus", str(lines.span(t.span)), "--name", name])
        for name in [fresh, *names]:
            decl = tmp_path / f"p{k}-{name}.jdecl"
            decl.write_text(f"void {name}(int q) {{\n    q = q + 1;\n}}\n", encoding="utf-8")
            for cls in [*(c.name for c in prog.classes), "Missing"]:
                requests.append(["introduce", "--lang", "joos", "--file", str(path),
                                 "--class", cls, "--decl", str(decl)])
    diet, full, parses = _differential(monkeypatch, requests)
    for argv, mine, theirs in zip(requests, diet, full):
        assert mine == theirs, argv
    assert 4 not in {outcome[0] for outcome in diet}
    paths = {(outcome[0], tuple(p)) for outcome, p in zip(diet, parses)}
    assert paths == {(0, (True,)), (1, (True,)), (0, (False,)), (1, (False,))}


def _mutants(source: str, positions: range):
    """``source`` with the token at each of ``positions`` dropped, doubled,
    or swapped with the next, each edit made in place in the text, so the
    layout around it stays."""
    tokens = tokenize(source, _KEYWORDS, _SYMBOLS)
    texts, starts, ends = tokens.texts, tokens.starts, tokens.ends
    for i in positions:
        yield source[: starts[i]] + source[ends[i] :]
        yield source[: ends[i]] + " " + texts[i] + source[ends[i] :]
        if i + 2 < len(texts):  # the last token is EOF
            j = i + 1
            yield source[: starts[i]] + texts[j] + source[ends[i] : starts[j]] + texts[i] + source[ends[j] :]


def _assert_same_result(argv, mine, theirs):
    """The same exit code and stderr; the same stdout, or, where the input
    is not a printer fixpoint, a program of the same structure."""
    assert mine[0] == theirs[0] and mine[2] == theirs[2], argv
    if mine[1] != theirs[1]:
        assert mine[0] == 0 and parse_program(mine[1]) == parse_program(theirs[1]), argv


@pytest.mark.parametrize("seed", SEEDS)
def test_token_mutations_give_the_exit_code_and_stderr_of_a_full_parse(seed, tmp_path, monkeypatch):
    """Each token of generated programs dropped, doubled or swapped with
    the next, inside the bodies kept as text too: an extract in the first
    method gives the full parse's exit code and stderr (a ``ParseError``
    names the same position and token), and a program of the same
    structure when both succeed."""
    requests = []
    for k, source in enumerate(_programs(seed, 40)):
        path = tmp_path / f"p{k}.joos"
        path.write_text(source, encoding="utf-8")
        methods = _methods(parse_program(source))
        spans = [str(Lines(source).span(t.span)) for t in preorder(methods[0].body)[1:]]
        extracts = (["extract", "--lang", "joos", "--file", str(path), "--focus", s, "--name", "hx"] for s in spans)
        focus = next((argv[-3] for argv in extracts if _run(argv)[0] == 0), None)
        if len(methods) < 2 or focus is None:
            continue
        count = len(tokenize(source, _KEYWORDS, _SYMBOLS).texts) - 1
        for n, mutant in enumerate(_mutants(source, range(count))):
            path = tmp_path / f"p{k}-{n}.joos"
            path.write_text(mutant, encoding="utf-8")
            requests.append(["extract", "--lang", "joos", "--file", str(path), "--focus", focus, "--name", "hx"])
        if len(requests) > 700:
            break
    diet, full, _ = _differential(monkeypatch, requests)
    for argv, mine, theirs in zip(requests, diet, full):
        _assert_same_result(argv, mine, theirs)
    assert {outcome[0] for outcome in diet} >= {0, 2}
    assert sum(outcome[2].startswith("ParseError: ") for outcome in diet) > len(diet) // 2


_INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_MAX_STR_DIGITS, reason="int() converts strings of any length")
def test_an_over_long_literal_in_a_body_kept_as_text_is_the_same_parse_error(tmp_path, monkeypatch):
    """A literal past ``int``'s digit limit in a method the focus is not in
    is the ``ParseError`` a full parse gives, at its start."""
    source = (
        "class C {\n    void m(int a) {\n        a = 1;\n    }\n\n"
        f"    void n(int b) {{\n        b = {'9' * (_INT_MAX_STR_DIGITS + 1)};\n    }}\n}}\n"
    )
    path = tmp_path / "long.joos"
    path.write_text(source, encoding="utf-8")
    argv = ["extract", "--lang", "joos", "--file", str(path), "--focus", "3:9-3:15", "--name", "h"]
    (mine,), (theirs,), _ = _differential(monkeypatch, [argv])
    assert mine == theirs
    digits = _INT_MAX_STR_DIGITS + 1
    assert mine == (2, "", f"ParseError: {path}: line 7, col 13: integer literal of {digits} digits is too long\n")


_FALLBACK = """class C {
    int f;

    void m(int a) {
        this.n(a);
    }

    void n(int b) {
        int z = b;
        f = z;
    }

    void o() {
        f = y;
    }
}
"""


@pytest.mark.parametrize("name,code", [("z", 0), ("y", 1), ("helper", 0), ("o", 1), ("b", 0)])
def test_a_name_in_a_body_kept_as_text_gets_the_full_parse_verdict(name, code, tmp_path, monkeypatch):
    """The new name ``z`` is declared in ``n`` and ``y`` is free in ``o``,
    both bodies a diet parse would keep as text when extracting from
    ``m``; ``o`` is a method's name and ``b`` is ``n``'s formal. The source
    mentions each of them, so the CLI parses it in full, once, and finds
    ``z`` and ``b`` bound (exit 0) and ``y`` free and ``o`` defined
    (``NameClash``). Only ``helper``, which the source does not mention,
    is judged on a diet parse."""
    path = tmp_path / "c.joos"
    path.write_text(_FALLBACK, encoding="utf-8")
    argv = ["extract", "--lang", "joos", "--file", str(path), "--focus", "5:9-5:19", "--name", name]
    (mine,), (theirs,), (parses,) = _differential(monkeypatch, [argv])
    assert mine == theirs and mine[0] == code
    assert parses == [name == "helper"]
    if code == 1:
        assert mine[2] == f"NameClash: name {name!r} is already defined or free in the target scope\n"
    else:
        assert f"    void {name}(int a) {{\n        this.n(a);\n    }}\n}}\n" in mine[1]


def test_introduce_meets_a_name_in_a_body_kept_as_text(tmp_path, monkeypatch):
    """A decl named ``y``, free in ``o``, is refused: the source mentions
    ``y``, so ``introduce --class`` parses it in full, once."""
    path, decl = tmp_path / "c.joos", tmp_path / "y.jdecl"
    path.write_text(_FALLBACK, encoding="utf-8")
    decl.write_text("void y() {\n}\n", encoding="utf-8")
    argv = ["introduce", "--lang", "joos", "--file", str(path), "--class", "C", "--decl", str(decl)]
    (mine,), (theirs,), (parses,) = _differential(monkeypatch, [argv])
    assert mine == theirs == (1, "", "NameClash: name 'y' is already defined or free in the target scope\n")
    assert parses == [False]


@pytest.mark.parametrize("name", ["h", "a"])
@pytest.mark.parametrize("focus", ["4:5-4:9", "9:9-9:18", "1:1-99:1"])
def test_a_focus_no_statement_has_names_the_candidates_of_a_full_parse(focus, name, tmp_path, monkeypatch):
    """A ``--focus`` that matches no statement (a method's ``void``, a
    declaration without its ``;``, a line the source lacks) is
    the ``SpanMismatch`` of a full parse: its nearest candidates lie in
    bodies the diet parse kept as text, so the CLI names them from a full
    parse after the diet one; for ``a``, which the source mentions, from
    its one full parse."""
    path = tmp_path / "c.joos"
    path.write_text(_FALLBACK, encoding="utf-8")
    argv = ["extract", "--lang", "joos", "--file", str(path), "--focus", focus, "--name", name]
    (mine,), (theirs,), (parses,) = _differential(monkeypatch, [argv])
    assert mine == theirs and mine[0] == 2
    assert mine[2].startswith(f"SpanMismatch: no statement node covers exactly {focus}; nearest candidate spans: ")
    assert "none" not in mine[2]
    assert parses == ([True, False] if name == "h" else [False])


@pytest.mark.parametrize("name,source,found", [
    ("x", "int x;", True), ("x", "x", True), ("x", "f(x,y)", True), ("x", "int xy;", False),
    ("x", "int yx;", False), ("x", "x_", False), ("x", "1x", False), ("m1", "this.m17();", False),
    ("m1", "this.m1();", True), ("a+", "a+ b", True), ("a+", "aa+ b", False), ("++", "a+++", True),
    ("q", "", False),
])
def test_mentions_finds_a_name_between_non_identifier_characters(name, source, found):
    assert lexing.mentions(source, name) is found


# -- the parser ----------------------------------------------------------------


def _methods(prog: ast.Program) -> list[ast.MethodDecl]:
    return [m for c in prog.classes for m in c.methods.methods]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_diet_parse_builds_only_the_bodies_build_takes(seed):
    """With ``build`` taking one body's span, the tree is the full parse's
    with every other body an ``ast.Unparsed``: its span the body's, its
    text the source there and its atoms that text and the body's token
    texts. The printer writes the diet tree as it writes the full one."""
    for source in _programs(seed, 30):
        full = parse_program(source)
        tokens = tokenize(source, _KEYWORDS, _SYMBOLS)
        spans = [m.body.span for m in _methods(full)]
        for kept in [None, *spans]:
            seen = []

            def build(span):
                seen.append(span)
                return span == kept

            diet = parse_program(source, build)
            assert seen == spans
            assert joos.pretty(diet) == joos.pretty(full) == source
            for mine, theirs in zip(_methods(diet), _methods(full)):
                assert (mine.return_type, mine.name, mine.formals, mine.span) == (
                    theirs.return_type, theirs.name, theirs.formals, theirs.span)
                if theirs.body.span == kept:
                    assert mine.body == theirs.body
                    assert [t.span for t in preorder(mine.body)] == [t.span for t in preorder(theirs.body)]
                    continue
                start, end = theirs.body.span
                assert type(mine.body) is ast.Unparsed and mine.body.span == (start, end)
                body_tokens = tuple(t for t, s in zip(tokens.texts, tokens.starts) if start <= s < end)
                assert mine.body.atoms() == (source[start:end], *body_tokens)
                assert mine.body.children() == () and mine.body.opaque


def test_a_body_kept_as_text_is_checked_without_building_a_node(monkeypatch):
    """Of the node classes, a diet parse that builds no body constructs only
    the program, the classes, the fields, the method headers and their
    ``Unparsed`` bodies."""
    source = _programs(1, 1)[0] + "\n" + _FALLBACK
    built = []
    for cls in vars(ast).values():
        if isinstance(cls, type) and issubclass(cls, ast.Term) and "_term_slots" in cls.__dict__:
            init = cls.__init__

            def counting(self, *args, init=init, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
    full = parse_program(source)
    assert {"Block", "BinOp", "VarRef"} <= set(built)
    built.clear()
    diet = parse_program(source, lambda span: False)
    methods = len(_methods(full))
    assert sorted(set(built)) == ["ClassDecl", "FieldDecl", "Formal", "MethodDecl", "MethodList", "Program", "Unparsed"]
    assert built.count("Unparsed") == built.count("MethodDecl") == methods == len(_methods(diet))


def test_the_printer_writes_a_body_kept_as_text_as_written():
    source = "class C {\n  int m(int a)   {  return a;\n}\n  void n() { }\n}\n"
    diet = parse_program(source, lambda span: False)
    assert joos.pretty(diet) == "class C {\n    int m(int a) {  return a;\n}\n\n    void n() { }\n}\n"
    assert joos.pretty(parse_program(source)) == (
        "class C {\n    int m(int a) {\n        return a;\n    }\n\n    void n() {\n    }\n}\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_the_recogniser_raises_the_parsers_parse_errors(seed):
    """On token mutations of generated programs, a parse that builds no
    body raises the ``ParseError`` of a full parse, at the same position
    with the same message, or neither raises."""

    def outcome(parse):
        try:
            parse()
        except ParseError as exc:
            return str(exc)
        return None

    errors = 0
    for source in _programs(seed, 6):
        count = len(tokenize(source, _KEYWORDS, _SYMBOLS).texts) - 1
        for mutant in _mutants(source, range(count)):
            expected = outcome(lambda: parse_program(mutant))
            assert outcome(lambda: parse_program(mutant, lambda span: False)) == expected, mutant
            errors += expected is not None
    assert errors > 100


def test_the_recogniser_raises_the_parsers_parse_errors_on_golden_prefixes():
    """Every prefix of every golden JOOS program: a parse that builds no
    body fails exactly where and as a full parse does."""
    golden = Path(__file__).parent / "golden" / "joos"
    failures = 0
    for path in sorted(golden.glob("*.joos")):
        source = path.read_text(encoding="utf-8")
        for end in range(len(source) + 1):
            outcomes = []
            for build in (None, lambda span: False):
                try:
                    parse_program(source[:end], build)
                    outcomes.append("ok")
                except ParseError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (path.name, end)
            failures += outcomes[0] != "ok"
    assert failures > 1000


def test_a_diet_parse_of_deep_nesting_takes_the_frames_of_a_full_one():
    """The recogniser reads a body in the frames the parser takes, and a
    body it builds is read from the same frame, so both give up at the
    same depth."""

    def depth_reached(build):
        for n in range(100, 2000, 20):
            source = "class C {\n    void m() {\n" + "{" * n + "}" * n + "\n    }\n}\n"
            try:
                parse_program(source, build)
            except RecursionError:
                return n
        return None

    assert depth_reached(None) == depth_reached(lambda span: False) == depth_reached(lambda span: True)


def test_a_chain_too_deep_to_print_in_a_body_kept_as_text_is_written_as_it_is(tmp_path, capsys):
    """The printer spends a frame per term of an operator chain, so a full
    parse fails to print a 990-term chain (exit 4); an extract in another
    method keeps that body as text and writes it as it is."""
    chain = " + ".join(["1"] * 990)
    source = f"class C {{\n    void m() {{\n        this.n();\n    }}\n\n    int n() {{\n        return {chain};\n    }}\n}}\n"
    path = tmp_path / "chain.joos"
    path.write_text(source, encoding="utf-8")
    code = main(["extract", "--lang", "joos", "--file", str(path), "--focus", "3:9-3:18", "--name", "h"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert f"    int n() {{\n        return {chain};\n    }}\n" in out


# -- the term protocol ---------------------------------------------------------


def test_the_free_name_pass_raises_at_an_opaque_node():
    """``scoped_uses_tu`` cannot tell which names an ``Unparsed`` body binds
    or uses, so it raises ``Opaque`` there; a walk of the atoms sees its
    tokens."""
    prog = parse_program(_FALLBACK, lambda span: False)
    methods = prog.classes[0].methods
    free = scoped_uses_tu(framework.declared_names(joos.declared_pairs), joos.referenced_names)
    with pytest.raises(Opaque) as exc:
        apply_tu(free, methods)
    assert isinstance(exc.value, TermError) and str(exc.value) == "Unparsed holds names no pass has parsed"
    assert framework._occurs("y", methods) and not framework._occurs("x", methods)
    assert apply_tu(free, parse_program(_FALLBACK).classes[0].methods) == ("f", "y")


@pytest.mark.parametrize("seed", SEEDS)
def test_every_name_among_a_kept_body_s_tokens_is_one_its_source_mentions(seed):
    """What the CLI's choice of parse rests on: the ``NameClash`` rule's
    free-name pass runs only when the new name is among the list's atoms,
    and an ``Unparsed`` body's atoms are its tokens, so after a diet parse,
    taken only for a name the source does not mention, it never meets one."""
    golden = sorted((Path(__file__).parent / "golden" / "joos").glob("*.joos"))
    sources = [*_programs(seed, 25), *(p.read_text(encoding="utf-8") for p in golden)]
    checked = 0
    for source in sources:
        try:
            diet = parse_program(source, lambda span: False)
        except ParseError:
            continue
        for m in _methods(diet):
            for token in m.body.atoms():
                if is_identifier(token, _KEYWORDS):
                    assert lexing.mentions(source, token), token
                    checked += 1
    assert checked > 300


def test_append_child_and_the_let_host_build_through_the_constructor(monkeypatch):
    """Appending to a sequence node and wrapping a let's definition list
    call the node's class, not ``dataclasses.replace``, and keep every other
    field and the span."""

    def refused(*args, **kwargs):
        raise AssertionError("dataclasses.replace called")

    monkeypatch.setattr(dataclasses, "replace", refused)
    call = ast.Call(True, "m", (ast.VarRef("a"),), span=(3, 9))
    extended = append_child(call, ast.IntLit(1))
    assert extended == ast.Call(True, "m", (ast.VarRef("a"), ast.IntLit(1))) and extended.span == (3, 9)
    let = minilet.parse_program("let f(x) = x; in f(1)").body
    wrapped = minilet.LANGUAGE.host.fn(let)
    assert isinstance(wrapped.defs, minilet.ast.FunDefListFocus) and wrapped.defs.inner is let.defs
    assert wrapped.body is let.body and wrapped.span == let.span == (0, 21)


def test_the_diet_parse_is_used_only_by_extract_and_introduce(monkeypatch, capsys, tmp_path):
    """``check`` and ``ast`` parse in full; ``extract`` and ``introduce``
    on a diet; the library entries in full."""
    parses: list[bool] = []
    monkeypatch.setitem(cli.LANGUAGES, "joos", _counting_record(parses))
    path, decl = tmp_path / "c.joos", tmp_path / "h.jdecl"
    path.write_text(_FALLBACK, encoding="utf-8")
    decl.write_text("void h() {\n}\n", encoding="utf-8")
    file = ["--lang", "joos", "--file", str(path)]
    for argv in (["check", *file], ["ast", *file], ["extract", *file, "--focus", "5:9-5:19", "--name", "h"],
                 ["introduce", *file, "--class", "C", "--decl", str(decl)]):
        main(argv)
    capsys.readouterr()
    assert parses == [False, False, True, True]
    # A mismatch names the nearest spans among the nodes built: a diet parse
    # builds the body that encloses the span, and none for a position the
    # source lacks or a span across two bodies, so only the bodies kept as
    # text are candidates.
    for span, diet, nearest in [
        (Span(99, 1, 99, 2), False, "14:9-14:15, 13:14-15:6, 10:9-10:15"),
        (Span(99, 1, 99, 2), True, "13:14-15:6, 8:19-11:6, 4:19-6:6"),
        (Span(5, 9, 9, 18), False, "5:9-5:19, 4:19-6:6, 8:19-11:6"),
        (Span(5, 9, 9, 18), True, "4:19-6:6, 8:19-11:6, 13:14-15:6"),
        (Span(5, 9, 5, 18), False, "5:9-5:19, 4:19-6:6, 8:19-11:6"),
        (Span(5, 9, 5, 18), True, "5:9-5:19, 4:19-6:6, 8:19-11:6"),
    ]:
        with pytest.raises(SpanMismatch) as exc:
            joos.LANGUAGE.focus_path_by_span(_FALLBACK, "statement", span, diet)
        assert str(exc.value).endswith(f"nearest candidate spans: {nearest}"), (span, diet)
    span = Span.parse("5:9-5:19")
    full = joos.LANGUAGE.focus_path_by_span(_FALLBACK, "statement", span)
    assert not any(isinstance(t, ast.Unparsed) for t in preorder(full.rebuild(full.node)))
    diet = joos.LANGUAGE.focus_path_by_span(_FALLBACK, "statement", span, diet=True)
    assert diet.node == full.node and diet.node.span == full.node.span
    assert [type(t) for t in preorder(diet.rebuild(diet.node))].count(ast.Unparsed) == 2
