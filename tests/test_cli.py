"""Command-line contract: the golden corpus of end-to-end scenarios with
byte-exact stdout and the documented exit codes, plus output-mode behavior."""

from __future__ import annotations

import argparse
import gc
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import refax
from refax.cli import main
from refax.minilet import parse_program as parse_minilet

from .minilet_gen import eval_program, nested_lets

GOLDEN = Path(__file__).parent / "golden"

# (name, argv, expected exit code, expected-stdout file or literal "", stderr fragment)
SCENARIOS = [
    # -- joos ---------------------------------------------------------------
    ("j-extract-block",
     "extract --lang joos --file {g}/joos/account.joos --focus 6:9-10:10 --name stash",
     0, "j-extract-block.out", None),
    ("j-extract-stmt",
     "extract --lang joos --file {g}/joos/account.joos --focus 11:9-11:26 --name audit",
     0, "j-extract-stmt.out", None),
    ("j-extract-field",
     "extract --lang joos --file {g}/joos/fields.joos --focus 5:9-5:32 --name probe",
     0, "j-extract-field.out", None),
    ("j-extract-return-reject",
     "extract --lang joos --file {g}/joos/returns.joos --focus 5:9-10:10 --name body",
     1, "", "HasReturn"),
    ("j-extract-assign-reject",
     "extract --lang joos --file {g}/joos/assigns.joos --focus 5:9-7:10 --name body",
     1, "", "AssignsFreeVariable(count)"),
    ("j-extract-clash",
     "extract --lang joos --file {g}/joos/account.joos --focus 6:9-10:10 --name log",
     1, "", "NameClash"),
    ("j-extract-span-mismatch",
     "extract --lang joos --file {g}/joos/account.joos --focus 6:9-10:9 --name stash",
     2, "", "SpanMismatch"),
    ("j-extract-parse-error",
     "extract --lang joos --file {g}/joos/bad_syntax.joos --focus 1:1-1:2 --name x",
     2, "", "/joos/bad_syntax.joos: line 2, col 15: expected 'int' or 'boolean'"),
    ("j-extract-usage",
     "extract --lang joos --file {g}/joos/account.joos --focus 6:9-10:10",
     3, "", "--name"),
    ("j-introduce",
     "introduce --lang joos --file {g}/joos/account.joos --class Account --decl {g}/joos/newmethod.jdecl",
     0, "j-introduce.out", None),
    ("j-introduce-clash",
     "introduce --lang joos --file {g}/joos/account.joos --class Account --decl {g}/joos/clash.jdecl",
     1, "", "NameClash"),
    ("j-introduce-bad-decl",
     "introduce --lang joos --file {g}/joos/account.joos --class Account --decl {g}/joos/bad.jdecl",
     2, "", "/joos/bad.jdecl: line 1, col 14: expected 'int' or 'boolean'"),
    ("j-introduce-unknown-class",
     "introduce --lang joos --file {g}/joos/account.joos --class Missing --decl {g}/joos/newmethod.jdecl",
     1, "", "NoHost"),
    ("j-introduce-missing-class",
     "introduce --lang joos --file {g}/joos/account.joos --decl {g}/joos/newmethod.jdecl",
     3, "", "--class"),
    ("j-introduce-missing-class-unread",  # usage is checked before any file is read
     "introduce --lang joos --file {g}/joos/missing.joos --decl {g}/joos/missing.jdecl",
     3, "", "introduce --lang joos requires --class"),
    ("j-introduce-parse-error",
     "introduce --lang joos --file {g}/joos/bad_syntax.joos --class C --decl {g}/joos/newmethod.jdecl",
     2, "", "/joos/bad_syntax.joos: line 2, col 15: expected 'int' or 'boolean'"),
    ("j-check-clean",
     "check --lang joos --file {g}/joos/account.joos",
     0, "", None),
    ("j-check-dirty",
     "check --lang joos --file {g}/joos/unresolved.joos",
     1, "j-check-dirty.out", None),
    ("j-check-parse-error",
     "check --lang joos --file {g}/joos/bad_syntax.joos",
     2, "", "/joos/bad_syntax.joos: line 2, col 15: expected 'int' or 'boolean'"),
    ("j-ast",
     "ast --lang joos --file {g}/joos/fields.joos",
     0, "j-ast.out", None),
    # -- minilet ------------------------------------------------------------
    ("m-extract-inner",
     "extract --lang minilet --file {g}/minilet/nested.mlt --focus 6:31-6:36 --name mul",
     0, "m-extract-inner.out", None),
    ("m-extract-body",
     "extract --lang minilet --file {g}/minilet/pipeline.mlt --focus 5:5-5:22 --name left",
     0, "m-extract-body.out", None),
    ("m-extract-nohost",
     "extract --lang minilet --file {g}/minilet/top.mlt --focus 1:5-1:10 --name q",
     1, "", "NoHost"),
    ("m-extract-clash",
     "extract --lang minilet --file {g}/minilet/pipeline.mlt --focus 5:5-5:22 --name square",
     1, "", "NameClash"),
    ("m-extract-span-mismatch",
     "extract --lang minilet --file {g}/minilet/pipeline.mlt --focus 5:5-5:21 --name left",
     2, "", "SpanMismatch"),
    ("m-extract-parse-error",
     "extract --lang minilet --file {g}/minilet/bad.mlt --focus 1:1-1:2 --name x",
     2, "", "/minilet/bad.mlt: line 1, col 12: expected an expression"),
    ("m-extract-usage",
     "extract --lang minilet --file {g}/minilet/pipeline.mlt --name x",
     3, "", "--focus"),
    ("m-introduce",
     "introduce --lang minilet --file {g}/minilet/pipeline.mlt --focus 2:5-3:23 --decl {g}/minilet/newfun.mdecl",
     0, "m-introduce.out", None),
    ("m-introduce-clash",
     "introduce --lang minilet --file {g}/minilet/pipeline.mlt --focus 2:5-3:23 --decl {g}/minilet/clash.mdecl",
     1, "", "NameClash"),
    ("m-introduce-missing-focus",
     "introduce --lang minilet --file {g}/minilet/pipeline.mlt --decl {g}/minilet/newfun.mdecl",
     3, "", "--focus"),
    ("m-introduce-stray-class-unread",  # usage is checked before any file is read
     "introduce --lang minilet --file {g}/minilet/missing.mlt --focus 2:5-3:23 --class Foo "
     "--decl {g}/minilet/missing.mdecl",
     3, "", "introduce --lang minilet does not take --class"),
    ("m-introduce-parse-error",
     "introduce --lang minilet --file {g}/minilet/bad.mlt --focus 1:1-1:2 --decl {g}/minilet/newfun.mdecl",
     2, "", "/minilet/bad.mlt: line 1, col 12: expected an expression"),
    ("m-check-clean",
     "check --lang minilet --file {g}/minilet/pipeline.mlt",
     0, "", None),
    ("m-check-dirty",
     "check --lang minilet --file {g}/minilet/unbound.mlt",
     1, "m-check-dirty.out", None),
    ("m-ast",
     "ast --lang minilet --file {g}/minilet/pipeline.mlt",
     0, "m-ast.out", None),
    ("m-ast-parse-error",
     "ast --lang minilet --file {g}/minilet/bad.mlt",
     2, "", "/minilet/bad.mlt: line 1, col 12: expected an expression"),
]


def run_scenario(argv_template, capsys):
    argv = argv_template.format(g=GOLDEN).split()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name,argv,expected_code,out_file,err_fragment",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_golden_scenario(name, argv, expected_code, out_file, err_fragment, capsys):
    code, out, err = run_scenario(argv, capsys)
    assert code == expected_code, f"{name}: exit {code}, stderr: {err!r}"
    if out_file:
        expected = (GOLDEN / "expected" / out_file).read_text(encoding="utf-8")
        assert out == expected
    else:
        assert out == ""  # failures and clean checks print nothing on stdout
    if err_fragment is not None:
        assert err_fragment in err


def test_sources_untouched_by_read_only_runs(capsys):
    before = (GOLDEN / "joos" / "account.joos").read_bytes()
    for name, argv, *_ in SCENARIOS:
        run_scenario(argv, capsys)
    assert (GOLDEN / "joos" / "account.joos").read_bytes() == before


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "result.joos"
    code = main([
        "extract", "--lang", "joos", "--file", str(GOLDEN / "joos" / "account.joos"),
        "--focus", "6:9-10:10", "--name", "stash", "--output", str(out_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    expected = (GOLDEN / "expected" / "j-extract-block.out").read_text(encoding="utf-8")
    assert out_path.read_text(encoding="utf-8") == expected


def test_output_that_cannot_be_written_reports_io_error(tmp_path, capsys):
    """An ``--output`` path in a directory that does not exist is exit 2
    with one ``error: ...`` line naming it, and nothing is created."""
    out_path = tmp_path / "missing" / "result.joos"
    code = main([
        "extract", "--lang", "joos", "--file", str(GOLDEN / "joos" / "account.joos"),
        "--focus", "6:9-10:10", "--name", "stash", "--output", str(out_path),
    ])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out_path) in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_in_place_success_rewrites_atomically(tmp_path, capsys):
    work = tmp_path / "account.joos"
    work.write_bytes((GOLDEN / "joos" / "account.joos").read_bytes())
    code = main([
        "extract", "--lang", "joos", "--file", str(work),
        "--focus", "6:9-10:10", "--name", "stash", "--in-place",
    ])
    assert code == 0
    expected = (GOLDEN / "expected" / "j-extract-block.out").read_text(encoding="utf-8")
    assert work.read_text(encoding="utf-8") == expected
    assert list(tmp_path.iterdir()) == [work]  # no temp litter


def test_in_place_keeps_the_permission_bits(tmp_path, capsys):
    path, focus = _EXTRACTABLE["minilet"]
    work = tmp_path / path.name
    work.write_bytes(path.read_bytes())
    work.chmod(0o640)
    code = main([
        "extract", "--lang", "minilet", "--file", str(work),
        "--focus", focus, "--name", "helper", "--in-place",
    ])
    assert code == 0, capsys.readouterr().err
    assert work.read_bytes() != path.read_bytes()
    assert stat.S_IMODE(work.stat().st_mode) == 0o640


@pytest.mark.parametrize("name,expected_code", [("stash", 0), ("log", 1)])
def test_in_place_through_a_symlink_rewrites_its_target(name, expected_code, tmp_path, capsys):
    """``--in-place`` on a symbolic link rewrites the file it points to, in
    that file's directory, and leaves the link a link; a refused extract
    leaves both byte-identical."""
    original = (GOLDEN / "joos" / "account.joos").read_bytes()
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "c.joos"
    target.write_bytes(original)
    link = tmp_path / "link.joos"
    link.symlink_to(target)
    code = main([
        "extract", "--lang", "joos", "--file", str(link),
        "--focus", "6:9-10:10", "--name", name, "--in-place",
    ])
    assert code == expected_code, capsys.readouterr().err
    assert link.is_symlink() and link.resolve() == target
    if code == 0:
        expected = (GOLDEN / "expected" / "j-extract-block.out").read_bytes()
        assert target.read_bytes() == expected
    else:
        assert target.read_bytes() == original
    assert link.read_bytes() == target.read_bytes()
    assert sorted(tmp_path.rglob("*")) == [link, tmp_path / "real", target]  # no temp litter


def test_in_place_failure_leaves_file_byte_identical(tmp_path, capsys):
    work = tmp_path / "account.joos"
    original = (GOLDEN / "joos" / "account.joos").read_bytes()
    work.write_bytes(original)
    code = main([
        "extract", "--lang", "joos", "--file", str(work),
        "--focus", "6:9-10:10", "--name", "log", "--in-place",
    ])
    assert code == 1
    assert work.read_bytes() == original


# (lang, source, focus of a fragment that extracts under a valid name)
_EXTRACTABLE = {
    "joos": (GOLDEN / "joos" / "account.joos", "6:9-10:10"),
    "minilet": (GOLDEN / "minilet" / "nested.mlt", "6:31-6:36"),
}
_BAD_NAMES = [
    (lang, name)
    for lang, keywords in (("joos", ["while"]), ("minilet", ["in", "let"]))
    for name in ["1abc", "x y", "", *keywords]
]


@pytest.mark.parametrize("lang,name", _BAD_NAMES, ids=[f"{lang}-{name!r}" for lang, name in _BAD_NAMES])
def test_extract_rejects_a_name_that_is_not_an_identifier(lang, name, tmp_path, capsys):
    """A new name that the language would not scan as one identifier (or
    scans as a keyword) is a precondition failure, so the file is kept."""
    path, focus = _EXTRACTABLE[lang]
    work = tmp_path / path.name
    original = path.read_bytes()
    work.write_bytes(original)
    code = main([
        "extract", "--lang", lang, "--file", str(work),
        "--focus", focus, "--name", name, "--in-place",
    ])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert "ConstructorRejected" in captured.err
    assert work.read_bytes() == original


def test_missing_file_reports_io_error(capsys):
    code = main(["check", "--lang", "joos", "--file", "/nonexistent/x.joos"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# Bytes that are not UTF-8 text: a UTF-16 byte-order mark before a program.
_UNDECODABLE = b"\xff\xfe" + (GOLDEN / "joos" / "account.joos").read_bytes()
# argv templates; {bad} is the undecodable file, {out} an --output path
_UNDECODABLE_RUNS = {
    "check-file": "check --lang joos --file {bad}",
    "extract-in-place-file": "extract --lang joos --file {bad} --focus 6:9-10:10 --name stash --in-place",
    "introduce-decl": ("introduce --lang minilet --file {g}/minilet/pipeline.mlt --focus 2:5-3:23 "
                       "--decl {bad} --output {out}"),
}


@pytest.mark.parametrize("argv", _UNDECODABLE_RUNS.values(), ids=_UNDECODABLE_RUNS.keys())
def test_undecodable_input_reports_io_error(argv, tmp_path, capsys):
    """An input file whose bytes are not UTF-8 is exit 2 with one
    ``error: <path>: ...`` line, like a missing file, and nothing is
    written."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(_UNDECODABLE)
    out = tmp_path / "out.txt"
    code = main(argv.format(g=GOLDEN, bad=bad, out=out).split())
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert bad.read_bytes() == _UNDECODABLE
    assert sorted(tmp_path.iterdir()) == [bad]


_STRAY_TARGETS = {
    "joos-focus": ("introduce --lang joos --file {g}/joos/account.joos --class Account "
                   "--focus 9:9-9:10 --decl {g}/joos/newmethod.jdecl", "--focus"),
    "minilet-class": ("introduce --lang minilet --file {g}/minilet/pipeline.mlt --focus 2:5-3:23 "
                      "--class Foo --decl {g}/minilet/newfun.mdecl", "--class"),
}


@pytest.mark.parametrize("argv,flag", _STRAY_TARGETS.values(), ids=_STRAY_TARGETS.keys())
def test_introduce_rejects_the_target_flag_its_language_does_not_take(argv, flag, capsys):
    """JOOS names its target list by ``--class``, minilet places it by
    ``--focus``; the other flag is a usage error, not silently ignored."""
    code, out, err = run_scenario(argv, capsys)
    assert code == 3, err
    assert out == ""
    assert f"does not take {flag}" in err


def test_unknown_command_is_usage_error(capsys):
    assert main(["obliterate", "--lang", "joos", "--file", "x"]) == 3
    assert main([]) == 3
    assert main(["extract", "--lang", "cobol", "--file", "x", "--focus", "1:1-1:2", "--name", "n"]) == 3


def test_malformed_span_is_usage_error(capsys):
    """A malformed ``--focus`` is a usage error that names its reason."""
    for focus, reason in [
        ("86", "malformed span '86', expected L:C-L:C"),
        ("9:9-6:1", "span '9:9-6:1' is not well-ordered"),
    ]:
        code = main([
            "extract", "--lang", "joos", "--file", str(GOLDEN / "joos" / "account.joos"),
            "--focus", focus, "--name", "x",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert f"argument --focus: {reason}\n" in err
        assert "_span_arg" not in err


@pytest.mark.parametrize("depth", [60, 120, 180])
def test_deep_nesting_extracts(depth, tmp_path, capsys):
    """An extract at the innermost of ``depth`` nested lets stays within
    the default recursion limit: no pass may spend more frames per level.
    (120 needs the strategy passes' one frame per tree level; 180 needs no
    more frames per let in the printer, the checker and the parser.)"""
    source, spans = nested_lets(depth)
    work = tmp_path / "deep.mlt"
    work.write_text(source, encoding="utf-8")
    code = main([
        "extract", "--lang", "minilet", "--file", str(work),
        "--focus", spans[depth], "--name", "h",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert f"h(x) = x * {depth};" in captured.out


def test_deep_nesting_dumps_ast(tmp_path, capsys):
    """``ast`` on 180 nested lets: the dump, like the parser, spends one
    frame per tree level."""
    source, _ = nested_lets(180)
    work = tmp_path / "deep.mlt"
    work.write_text(source, encoding="utf-8")
    code = main(["ast", "--lang", "minilet", "--file", str(work)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert [line.strip() for line in captured.out.splitlines()].count("Let") == 180


def _assert_internal_error(code, captured, name):
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {name}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_internal_fault_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    """Any exception outside the documented ones, here a ``RuntimeError``
    raised inside ``extract`` by the language's extraction precondition,
    is exit 4 with a one-line diagnostic, and the input file stays as it
    was."""
    from dataclasses import replace

    from refax import cli

    def broken(fragment):
        raise RuntimeError("extraction left a focus wrapper behind")

    monkeypatch.setitem(cli.LANGUAGES, "minilet", replace(cli.LANGUAGES["minilet"], extractable=broken))
    source, spans = nested_lets(3)
    work = tmp_path / "p.mlt"
    work.write_text(source, encoding="utf-8")
    code = main([
        "extract", "--lang", "minilet", "--file", str(work),
        "--focus", spans[3], "--name", "h", "--in-place",
    ])
    _assert_internal_error(code, capsys.readouterr(), "RuntimeError")
    assert work.read_text(encoding="utf-8") == source


def test_a_span_no_node_has_in_a_long_chain_is_a_span_mismatch(tmp_path, capsys):
    """Span placement takes no frame per tree level: on a one-line
    ``let`` whose body is a 3000-term chain, a span that no node has is
    reported as ``SpanMismatch`` (exit 2), not as a recursion fault."""
    work = tmp_path / "chain.mlt"
    work.write_text("let f(x) = x; in " + " + ".join(["1"] * 3000) + "\n", encoding="utf-8")
    code = main([
        "extract", "--lang", "minilet", "--file", str(work),
        "--focus", "1:18-1:20", "--name", "h",
    ])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("SpanMismatch: no expr node covers exactly 1:18-1:20;")


def test_nesting_past_the_limit_exits_4(tmp_path, capsys):
    """Input nested past the recursion limit is exit 4, not a traceback.
    On CPython 3.10 to 3.13, through ``cli.main`` or the ``refax`` script,
    an innermost extract first fails at 199 nested lets (see the fresh
    interpreter test below); ``python -m refax.cli`` fails one level
    earlier on 3.10 and 3.11, and pytest's own frames lower the limit
    here further."""
    source, spans = nested_lets(250)
    work = tmp_path / "deep.mlt"
    work.write_text(source, encoding="utf-8")
    code = main([
        "extract", "--lang", "minilet", "--file", str(work),
        "--focus", spans[250], "--name", "h", "--in-place",
    ])
    _assert_internal_error(code, capsys.readouterr(), "RecursionError")
    assert work.read_text(encoding="utf-8") == source


def _run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """``cli.main(argv)`` run by ``-c`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(refax.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from refax.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, check=False,
    )


@pytest.mark.parametrize("depth,code", [(198, 0), (199, 4)])
def test_the_documented_nesting_limit_holds_in_a_fresh_interpreter(depth, code, tmp_path):
    """The limit README documents, measured as a user meets it: an
    extract at the innermost of 198 nested lets, run through ``cli.main``
    in a new interpreter, succeeds, and one at 199 is exit 4 with one
    ``internal error: RecursionError`` line. The interpreter runs ``-c``,
    not ``-m refax.cli``, whose runpy frames take a level on 3.10 and
    3.11."""
    source, spans = nested_lets(depth)
    work = tmp_path / "deep.mlt"
    work.write_text(source, encoding="utf-8")
    run = _run_fresh("extract", "--lang", "minilet", "--file", str(work), "--focus", spans[depth], "--name", "h")
    assert run.returncode == code, run.stderr
    if code == 0:
        assert run.stderr == "" and run.stdout.startswith("let")
    else:
        assert run.stdout == ""
        assert run.stderr.startswith("internal error: RecursionError: ")
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def _lets_in_definitions(depth: int) -> str:
    source = "1"
    for _ in range(depth):
        source = f"let f(x) = {source}; in 1"
    return source + "\n"


# On CPython 3.10 to 3.13, ``check`` first fails on these shapes at 495,
# 987, 992, 331, 495 and 995 levels (the lowest over the four versions):
# the parser's frames set the limit on the nested shapes, the checker's on
# the chains, which the parser reads in a loop. Each depth here is 10 or 11
# below that.
_DEEP_CHECKS = {
    "484 nested blocks": ("joos", "class C {\n    void m() {\n" + "{" * 484 + "}" * 484 + "\n    }\n}\n"),
    "976 nested ifs": ("joos", "class C {\n    void m() {\n" + "if (true) " * 976 + "return;\n    }\n}\n"),
    "981-term chain": ("joos", "class C {\n    int m() {\n        return " + " + ".join(["1"] * 981) + ";\n    }\n}\n"),
    "320 lets in definitions": ("minilet", _lets_in_definitions(320)),
    "485 lets in bodies": ("minilet", "let f(x) = x; in " * 485 + "1\n"),
    "985-term chain": ("minilet", " + ".join(["1"] * 985) + "\n"),
}


@pytest.mark.parametrize("shape", sorted(_DEEP_CHECKS))
def test_check_holds_at_depth_in_a_fresh_interpreter(shape, tmp_path):
    """``check`` on deep input, run as in the test above, gives its
    diagnostics (exit 0 or 1), not an internal error: on the nested shapes
    the checker takes no more frames per level than the parser, and on a
    chain one frame per term."""
    lang, source = _DEEP_CHECKS[shape]
    work = tmp_path / "deep.src"
    work.write_text(source, encoding="utf-8")
    run = _run_fresh("check", "--lang", lang, "--file", str(work))
    assert run.returncode in (0, 1), run.stderr
    assert "Traceback" not in run.stderr


# -- one binding model: what ``check`` resolves, ``extract`` reads ------------

_SHADOWING_FUNCTION = "let f(x) =\n  let x(y) = x + y; in x(1);\nin f(2)\n"

_FIELD_AND_METHOD = """class C {
    int f;
    int f() {
        return 1;
    }
    void use(int x) {
    }
    void m() {
        this.use(f);
    }
}
"""

_LONE_DECLARATION = """class C {
    void m(boolean b, int x) {
        if (b) int x = x;
    }
}
"""


def _extract_then_check(lang, source, focus, tmp_path, capsys) -> str:
    """Extract ``focus`` of ``source`` into ``g``, assert both the input
    and the output pass ``check``, and return the output."""
    src = tmp_path / f"in.{lang}"
    src.write_text(source, encoding="utf-8")
    assert main(["check", "--lang", lang, "--file", str(src)]) == 0
    capsys.readouterr()
    code = main(["extract", "--lang", lang, "--file", str(src), "--focus", focus, "--name", "g"])
    out, err = capsys.readouterr()
    assert code == 0, err
    result = tmp_path / f"out.{lang}"
    result.write_text(out, encoding="utf-8")
    code = main(["check", "--lang", lang, "--file", str(result)])
    assert code == 0, capsys.readouterr().out
    return out


def test_extract_keeps_a_variable_a_local_function_name_shadows(tmp_path, capsys):
    """A function's own name is in the call name space: inside the local
    ``x(y) = x + y``, ``x`` is still ``f``'s parameter, so it is free in
    the fragment and becomes a parameter of ``g``."""
    out = _extract_then_check("minilet", _SHADOWING_FUNCTION, "2:3-2:28", tmp_path, capsys)
    assert "g(x)" in out
    assert eval_program(parse_minilet(_SHADOWING_FUNCTION)) == 3
    assert eval_program(parse_minilet(out)) == 3


def test_extract_passes_a_field_that_hides_a_method_of_its_name(tmp_path, capsys):
    """As in ``check``, the field ``f`` hides the method ``f``: the
    fragment reads the field, which becomes an ``int`` parameter."""
    out = _extract_then_check("joos", _FIELD_AND_METHOD, "9:9-9:21", tmp_path, capsys)
    assert "void g(int f) {" in out


def test_extract_passes_a_variable_a_lone_declaration_reads(tmp_path, capsys):
    """A declaration outside a block binds nothing, as in ``check``: its
    initializer reads the parameter ``x``, which becomes a parameter."""
    out = _extract_then_check("joos", _LONE_DECLARATION, "3:9-3:26", tmp_path, capsys)
    assert "void g(boolean b, int x) {" in out


_EDGE_MINILET = "let\n    f(x) = x + 1;\nin\n    f(2)\n"
_EDGE_JOOS = "class C {\n    void m(int a) {\n        a = 1;\n    }\n}\n"


@pytest.mark.parametrize("lang,source,focus,message", [
    # Column 8 of the two-character line 3 is no position; counted on
    # from the line's start it would be 4:5, where ``f(2)`` begins.
    ("minilet", _EDGE_MINILET, "3:8-3:12",
     "no expr node covers exactly 3:8-3:12; nearest candidate spans: 4:7-4:8, 4:5-4:9, 2:12-2:13"),
    ("minilet", _EDGE_MINILET, "9:1-9:2",
     "no expr node covers exactly 9:1-9:2; nearest candidate spans: 4:5-4:9, 4:7-4:8, 2:12-2:13"),
    ("minilet", _EDGE_MINILET, "4:0-4:9",
     "no expr node covers exactly 4:0-4:9; nearest candidate spans: 4:5-4:9, 4:7-4:8, 2:12-2:13"),
    # 5:1 is the end of the source, after its last newline.
    ("minilet", _EDGE_MINILET, "4:5-5:1",
     "no expr node covers exactly 4:5-5:1; nearest candidate spans: 4:5-4:9, 4:7-4:8, 2:12-2:13"),
    ("minilet", _EDGE_MINILET, "2:5-5:1",
     "no expr node covers exactly 2:5-5:1; nearest candidate spans: 2:12-2:13, 2:12-2:17, 2:16-2:17"),
    ("joos", _EDGE_JOOS, "3:16-3:22",
     "no statement node covers exactly 3:16-3:22; nearest candidate spans: 3:9-3:15, 2:19-4:6"),
    ("joos", _EDGE_JOOS, "6:1-6:1",
     "no statement node covers exactly 6:1-6:1; nearest candidate spans: 3:9-3:15, 2:19-4:6"),
])
def test_focus_at_the_edges_of_the_source_is_a_span_mismatch(lang, source, focus, message, tmp_path, capsys):
    """A ``--focus`` past a line's end, past the last line, at column 0 or
    ending at the end of the source: exit 2, naming the nearest spans."""
    work = tmp_path / "edge.src"
    work.write_text(source, encoding="utf-8")
    code = main(["extract", "--lang", lang, "--file", str(work), "--focus", focus, "--name", "g"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"SpanMismatch: {message}\n")


def test_a_focus_ending_at_the_end_of_the_source_places(tmp_path, capsys):
    work = tmp_path / "edge.mlt"
    work.write_text(_EDGE_MINILET.rstrip("\n"), encoding="utf-8")
    code = main(["extract", "--lang", "minilet", "--file", str(work), "--focus", "4:5-4:9", "--name", "g"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "let\n    f(x) = x + 1;\n    g() = f(2);\nin\n    g()\n"


def _collector_runs(tmp_path):
    """One ``main`` argv per exit code, 0 to 4."""
    clean, dirty, bad = tmp_path / "clean.mlt", tmp_path / "dirty.mlt", tmp_path / "bad.mlt"
    clean.write_text("let f(x) = x; in f(1)\n", encoding="utf-8")
    dirty.write_text("let f(x) = y; in f(1)\n", encoding="utf-8")
    bad.write_text("let f(x) = ; in f(1)\n", encoding="utf-8")
    return {
        0: ["check", "--lang", "minilet", "--file", str(clean)],
        1: ["check", "--lang", "minilet", "--file", str(dirty)],
        2: ["check", "--lang", "minilet", "--file", str(bad)],
        3: ["check", "--lang", "minilet"],
        4: ["extract", "--lang", "minilet", "--file", str(clean), "--focus", "1:12-1:13", "--name", "g"],
    }


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_it(enabled, tmp_path, capsys, monkeypatch):
    """``main`` runs its request with the cyclic collector off and leaves
    it as the caller had it, on every exit code."""
    from dataclasses import replace

    from refax import cli

    language = cli.LANGUAGES["minilet"]
    seen = []

    def parse(source):
        seen.append(gc.isenabled())
        return language.parse(source)

    def broken(fragment):
        raise RuntimeError("fault")

    monkeypatch.setitem(cli.LANGUAGES, "minilet", replace(language, parse=parse, extractable=broken))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for expected, argv in _collector_runs(tmp_path).items():
            assert main(argv) == expected, capsys.readouterr().err
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False] * 4  # every request but the usage error parses


@pytest.mark.parametrize("name", ["j-extract-block", "j-extract-clash", "j-extract-span-mismatch", "j-extract-usage"])
def test_a_later_request_reuses_the_argument_parser(name, capsys, monkeypatch):
    """The argument parser is built once per process: a request after the
    first constructs no ``ArgumentParser``, and its output and exit code
    are those of a fresh ``refax`` process."""
    template = next(s[1] for s in SCENARIOS if s[0] == name)
    run_scenario(template, capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    later = run_scenario(template, capsys)
    assert built == []
    env = {**os.environ, "PYTHONPATH": str(Path(refax.__file__).parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-m", "refax.cli", *template.format(g=GOLDEN).split()],
        capture_output=True, text=True, env=env, check=False,
    )
    assert later == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("name", ["j-extract-block", "m-extract-inner"])
def test_a_later_extract_leaves_no_cyclic_garbage(name, capsys):
    """With the cyclic collector off, an extract through ``main`` after a
    first one leaves nothing that only the collector can free: no pass of
    the request builds a reference cycle."""
    template = next(s[1] for s in SCENARIOS if s[0] == name)
    was = gc.isenabled()
    gc.disable()
    try:
        run_scenario(template, capsys)
        gc.collect()
        assert run_scenario(template, capsys)[0] == 0
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
