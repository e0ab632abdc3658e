"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion runs at its stated scale with fixed seeds. Expected
values come from independent oracles (explicit preorder/postorder scans,
ancestor enumeration, environment-passing interpreters, an expression
evaluator) computed here in the test, never from the code under test.
"""

from __future__ import annotations

import random

import pytest

from refax import framework
from refax.cli import main
from refax.strategy import (
    QueryTU,
    SortCase,
    StrategyFailure,
    TransformTP,
    above_path_tp,
    above_tp,
    apply_tp,
    apply_tu,
    choice_tu,
    fail_tp,
    mono_tp,
    mono_tu,
    oncetd_tp,
    oncetd_tu,
)
from refax.terms import dump

from . import joos_gen, minilet_gen, oracles
from .fixture_trees import (
    Leaf,
    Node,
    Tag,
    Tree,
    all_paths,
    gen_tree,
    inc_leaf,
    leaf_case,
    node_at,
    plant,
    postorder,
    preorder,
    wrap_node,
)
from .reference_strategies import (
    all_tp_reference,
    choice_reference,
    const_reference,
    id_reference,
    one_tp_reference,
    one_tu_reference,
    oncebu_reference,
    seq_reference,
)


def _outcome_tp(s, t):
    try:
        return ("ok", apply_tp(s, t))
    except StrategyFailure:
        return ("fail", None)


def test_criterion_1_combinator_laws():
    """Identity, unit, associativity and left-bias laws on >=500 trees; the
    combinators no refactoring runs are those of ``reference_strategies``."""
    rng = random.Random(101)
    trees = [gen_tree(rng, tag_chance=0.15) for _ in range(500)]
    inc, ident = mono_tp(inc_leaf), id_reference()
    maybe_inc = choice_reference(TransformTP, inc, ident)
    for t in trees:
        # identity
        assert apply_tp(ident, t) == t
        assert apply_tp(all_tp_reference(ident), t) == t
        # units of seq
        assert _outcome_tp(seq_reference(ident, inc), t) == _outcome_tp(inc, t)
        assert _outcome_tp(seq_reference(inc, ident), t) == _outcome_tp(inc, t)
        assert _outcome_tp(seq_reference(fail_tp(), inc), t) == ("fail", None)
        # units of choice
        assert _outcome_tp(choice_reference(TransformTP, fail_tp(), inc), t) == _outcome_tp(inc, t)
        assert _outcome_tp(choice_reference(TransformTP, inc, fail_tp()), t) == _outcome_tp(inc, t)
        # left bias
        assert apply_tu(choice_tu(const_reference(1), const_reference(2)), t) == 1
        # associativity of seq (observational)
        a, b, c = oncetd_tp(inc), all_tp_reference(maybe_inc), oncebu_reference(TransformTP, one_tp_reference, inc)
        left, right = seq_reference(seq_reference(a, b), c), seq_reference(a, seq_reference(b, c))
        assert _outcome_tp(left, t) == _outcome_tp(right, t)
    print("\nACCEPTANCE 1 combinator laws: PASS")


def test_criterion_2_traversal_order_oracle():
    """oncetd/oncebu hit exactly the preorder/postorder-first match on
    >=500 trees with randomly planted markers; application count is 1."""
    rng = random.Random(202)
    for _ in range(500):
        t = gen_tree(rng, 5, tag_chance=0.1)
        leaf_paths = [p for p in all_paths(t) if isinstance(node_at(t, p), Leaf)]
        for path in rng.sample(leaf_paths, k=min(len(leaf_paths), rng.randrange(1, 4))):
            t = plant(t, path, Leaf(99))

        def is_marked(u):
            if isinstance(u, Leaf) and u.value == 99:
                return u
            raise StrategyFailure("not marked")

        hits: list = []

        def probe(u):
            result = is_marked(u)
            hits.append(u)
            return result

        case = SortCase(Tree, probe)
        marked = [n for n in preorder(t) if isinstance(n, Leaf) and n.value == 99]
        if not marked:
            with pytest.raises(StrategyFailure):
                apply_tu(oncetd_tu(mono_tu(case)), t)
            continue
        hits.clear()
        got = apply_tu(oncetd_tu(mono_tu(case)), t)
        assert len(hits) == 1 and hits[0] is marked[0]
        hits.clear()
        apply_tu(oncebu_reference(QueryTU, one_tu_reference, mono_tu(case)), t)
        post_first = next(n for n in postorder(t) if isinstance(n, Leaf) and n.value == 99)
        assert len(hits) == 1 and hits[0] is post_first
    print("\nACCEPTANCE 2 traversal order oracle: PASS")


def test_criterion_3_above_bottom_most_law():
    """aboveTP transforms the maximal-depth candidate host above a planted
    focus; the oracle enumerates the ancestors exhaustively. Exact on 100%,
    for ``above_tp`` and for ``above_path_tp``, the scheme ``mark_host``
    runs: each tree holds one focus, where the two must agree."""
    rng = random.Random(303)
    mark = SortCase(Tree, _mark_candidate)
    is_focus = SortCase(Tree, _is_focus_leaf)
    for _ in range(400):
        t = gen_tree(rng, 5)
        leaf_paths = [p for p in all_paths(t) if isinstance(node_at(t, p), Leaf)]
        focus_path = rng.choice(leaf_paths)
        t = plant(t, focus_path, Leaf(99))
        depth_pool = list(range(len(focus_path) + 1))
        depths = set(rng.sample(depth_pool, k=min(len(depth_pool), rng.randrange(1, 4))))
        wrapped = _wrap_chain(t, focus_path, depths)
        deepest = max(depths)
        for scheme in (above_tp, above_path_tp):
            out = apply_tp(scheme(mono_tp(mark), mono_tu(is_focus)), wrapped)
            for d in depths:
                got = node_at(out, _tag_path(focus_path, depths, d))
                assert isinstance(got, Tag)
                assert got.label == ("hit" if d == deepest else "cand")
    print("\nACCEPTANCE 3 above bottom-most law: PASS")


def _mark_candidate(u):
    if isinstance(u, Tag) and u.label == "cand":
        return Tag("hit", u.child)
    raise StrategyFailure("not a candidate")


def _is_focus_leaf(u):
    if isinstance(u, Leaf) and u.value == 99:
        return True
    raise StrategyFailure("not the focus")


def _wrap_chain(t, rel_path, depths, depth=0):
    """Wrap the ancestors of the node at ``rel_path`` whose depths are in
    ``depths`` in candidate tags, preserving everything else."""
    if rel_path:
        i = rel_path[0]
        cs = t.children()
        child = _wrap_chain(cs[i], rel_path[1:], depths, depth + 1)
        out = t.rebuild(cs[:i] + (child,) + cs[i + 1 :])
    else:
        out = t
    return Tag("cand", out) if depth in depths else out


def _tag_path(focus_path, depths, d):
    """Path of the candidate tag originally at ancestor depth ``d`` after
    the chain has been wrapped (each shallower tag adds one 0 step)."""
    steps: list[int] = []
    for i in range(d):
        if i in depths:
            steps.append(0)
        steps.append(focus_path[i])
    return tuple(steps)


def test_criterion_4_name_analysis_oracle_equivalence():
    """freeNames / boundTypedNames / freeTypedNames agree exactly with the
    environment-passing interpreters on >=1000 programs per language."""
    rng = random.Random(404)
    from refax.joos import ast as jast
    from refax.joos import declared_pairs as jd, referenced_names as jr, statement_focus

    declared = framework.declared_names(jd)
    for _ in range(1000):
        prog = joos_gen.gen_program(rng)
        assert framework.free_names(declared, jr, prog) == oracles.joos_free_names(prog)
        stmts = joos_gen.statement_nodes(prog)
        target = rng.choice(stmts)
        focused = wrap_node(prog, target, jast.StatementFocus)
        env, fragment = framework.bound_typed_names(jd, statement_focus, focused)
        oracle_env, oracle_fragment = oracles.joos_env_at_focus(focused)
        assert env == oracle_env and fragment == oracle_fragment
        frees = oracles.joos_free_names(fragment)
        if all(any(p.name == n for p in env) for n in frees):
            pairs = framework.free_typed_names(jd, jr, env, fragment)
            assert pairs == oracles.typed_frees(frees, env)

    from refax.minilet import ast as mast
    from refax.minilet import declared_pairs as md, expr_focus, referenced_names as mr

    declared_m = framework.declared_names(md)
    for _ in range(1000):
        prog = minilet_gen.gen_program(rng)
        assert framework.free_names(declared_m, mr, prog) == oracles.minilet_free_names(prog)
        exprs = minilet_gen.expr_nodes_under_let(prog)
        if not exprs:
            continue
        target = rng.choice(exprs)
        focused = wrap_node(prog, target, mast.ExprFocus)
        env, fragment = framework.bound_typed_names(md, expr_focus, focused)
        oracle_env, oracle_fragment = oracles.minilet_env_at_focus(focused)
        assert env == oracle_env and fragment == oracle_fragment
        pairs = framework.free_typed_names(md, mr, env, fragment)
        assert pairs == oracles.typed_frees(oracles.minilet_free_names(fragment), env)
    print("\nACCEPTANCE 4 name-analysis oracle equivalence: PASS")


def test_criterion_5_extraction_postconditions():
    """Every successful extract-method on generated (focus, fresh name)
    inputs satisfies the five postconditions and passes the static check."""
    from refax.joos import ast as jast, extract_method

    from .test_joos_refactor import assert_extract_postconditions

    rng = random.Random(505)
    successes = failures = 0
    for _ in range(400):
        prog = joos_gen.gen_program(rng)
        stmts = [s for s in joos_gen.statement_nodes(prog) if not isinstance(s, jast.LocalVarDecl)]
        if not stmts:
            continue
        target = rng.choice(stmts)
        focused = wrap_node(prog, target, jast.StatementFocus)
        name = joos_gen.fresh_name(focused)
        before = dump(focused)
        try:
            result = extract_method(name, focused)
        except framework.RefactoringError:
            failures += 1
            assert dump(focused) == before
            continue
        successes += 1
        assert_extract_postconditions(focused, name, result)
    assert successes >= 80, f"only {successes} successful extractions"
    print(f"\nACCEPTANCE 5 extraction postconditions ({successes} ok, {failures} rejected): PASS")


def test_criterion_6_rejection_behavior():
    """HasReturn / AssignsFreeVariable / NameClash each on >=20 constructed
    fixtures, with the input byte-identical after the failure."""
    from refax.framework import CheckFailed, NameClash
    from refax.joos import ast as jast, extract_method, parse_program, pretty

    returns = 0
    for i in range(25):
        stmts = "".join(f"this.log({j});" for j in range(i % 3))
        src = f"class C {{ void m(int a) {{ {{ {stmts} return; }} }} void log(int x) {{ }} }}"
        prog = parse_program(src)
        target = prog.classes[0].methods.methods[0].body.statements[0]
        focused = wrap_node(prog, target, jast.StatementFocus)
        before = dump(focused)
        with pytest.raises(CheckFailed) as exc:
            extract_method("fresh", focused)
        assert exc.value.reason == "HasReturn"
        assert dump(focused) == before
        returns += 1

    assigns = 0
    for i in range(25):
        src = f"class C {{ int shared; void m() {{ {{ shared = {i}; }} }} }}"
        prog = parse_program(src)
        target = prog.classes[0].methods.methods[0].body.statements[0]
        focused = wrap_node(prog, target, jast.StatementFocus)
        before = dump(focused)
        with pytest.raises(CheckFailed) as exc:
            extract_method("fresh", focused)
        assert exc.value.reason == "AssignsFreeVariable(shared)"
        assert dump(focused) == before
        assigns += 1

    clashes = 0
    for i in range(25):
        src = f"class C {{ void taken{i}() {{ }} void m(int a) {{ this.taken{i}(); }} }}"
        prog = parse_program(src)
        target = prog.classes[0].methods.methods[1].body.statements[0]
        focused = wrap_node(prog, target, jast.StatementFocus)
        before = dump(focused)
        with pytest.raises(NameClash):
            extract_method(f"taken{i}", focused)
        assert dump(focused) == before
        clashes += 1

    assert returns >= 20 and assigns >= 20 and clashes >= 20
    print("\nACCEPTANCE 6 rejection behavior: PASS")


def test_criterion_7_nested_scope_and_meaning_preservation():
    """Innermost-list targeting on the 3-level fixture, and evaluator
    equality before/after extraction on >=200 generated closed programs."""
    from .test_minilet import test_extract_targets_innermost_list_on_three_level_nesting

    test_extract_targets_innermost_list_on_three_level_nesting()

    from refax.minilet import ast as mast, extract_function

    rng = random.Random(707)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        prog = minilet_gen.gen_program(rng)
        exprs = minilet_gen.expr_nodes_under_let(prog)
        if not exprs:
            continue
        target = rng.choice(exprs)
        focused = wrap_node(prog, target, mast.ExprFocus)
        try:
            result = extract_function(minilet_gen.fresh_name(prog), focused)
        except framework.RefactoringError:
            continue
        assert minilet_gen.eval_program(result) == minilet_gen.eval_program(prog)
        checked += 1
    assert checked >= 200
    print(f"\nACCEPTANCE 7 nested scope + meaning preservation ({checked} programs): PASS")


def test_criterion_8_parse_pretty_round_trip():
    """parse(pretty(p)) == p structurally and pretty is a fixpoint, on
    >=1000 generated programs per language."""
    from refax.joos import parse_program as pj, pretty as prj
    from refax.minilet import parse_program as pm, pretty as prm

    rng = random.Random(808)
    for _ in range(1000):
        prog = joos_gen.gen_program(rng)
        text = prj(prog)
        assert pj(text) == prog
        assert prj(pj(text)) == text
    for _ in range(1000):
        prog = minilet_gen.gen_program(rng)
        text = prm(prog)
        assert pm(text) == prog
        assert prm(pm(text)) == text
    print("\nACCEPTANCE 8 parse/pretty round trip: PASS")


def test_criterion_9_cli_golden_corpus(capsys):
    """The full golden corpus reproduces byte-exact stdout and the
    documented exit codes."""
    from .test_cli import GOLDEN, SCENARIOS

    assert len([s for s in SCENARIOS if s[0].startswith("j-")]) >= 10
    assert len([s for s in SCENARIOS if s[0].startswith("m-")]) >= 10
    for name, argv, expected_code, out_file, err_fragment in SCENARIOS:
        code = main(argv.format(g=GOLDEN).split())
        captured = capsys.readouterr()
        assert code == expected_code, f"{name}: exit {code}"
        if out_file:
            expected = (GOLDEN / "expected" / out_file).read_text(encoding="utf-8")
            assert captured.out == expected, f"{name}: stdout mismatch"
        if err_fragment is not None:
            assert err_fragment in captured.err, f"{name}: stderr missing {err_fragment!r}"
    print("\nACCEPTANCE 9 CLI golden corpus: PASS")
