"""Independent environment-passing interpreters for the name analyses.

These walk the concrete ASTs directly with an explicit environment,
without touching the strategy machinery, and serve as the ground truth
the combinator-based analyses are compared against: free names in
preorder first-occurrence order, the environment on the path to a focus,
and typed free names.
"""

from __future__ import annotations

from refax.framework import NameTypePair
from refax.joos import ast as jast
from refax.joos.analysis import ExprType, MethodType
from refax.minilet import ast as mast

# -- JOOS ----------------------------------------------------------------------


def joos_refs_at(node) -> list[str]:
    if isinstance(node, jast.Assign):
        return [node.name]
    if isinstance(node, jast.VarRef):
        return [node.name]
    return []


def joos_binds_at(node) -> list[NameTypePair]:
    if isinstance(node, jast.Block):
        return [
            NameTypePair(s.name, ExprType(s.type_name))
            for s in node.statements
            if isinstance(s, jast.LocalVarDecl)
        ]
    if isinstance(node, jast.MethodDecl):
        return [NameTypePair(f.name, ExprType(f.type_name)) for f in node.formals]
    if isinstance(node, jast.ClassDecl):
        # method headers first, so that a field hides a method of its name
        pairs = []
        if isinstance(node.methods, jast.MethodList):
            for m in node.methods.methods:
                pairs.append(
                    NameTypePair(
                        m.name, MethodType(m.return_type, tuple(f.type_name for f in m.formals))
                    )
                )
        pairs.extend(NameTypePair(f.name, ExprType(f.type_name)) for f in node.fields)
        return pairs
    return []


def _free_walk(node, bound: frozenset[str], refs_at, binds_at, acc: list[str]) -> None:
    bound = bound | {p.name for p in binds_at(node)}
    for name in refs_at(node):
        if name not in bound and name not in acc:
            acc.append(name)
    for c in node.children():
        _free_walk(c, bound, refs_at, binds_at, acc)


def joos_free_names(t) -> tuple[str, ...]:
    acc: list[str] = []
    _free_walk(t, frozenset(), joos_refs_at, joos_binds_at, acc)
    return tuple(acc)


def _env_to_focus(node, env, binds_at, is_focus, unwrap):
    if is_focus(node):
        return env, unwrap(node)
    env = env + tuple(binds_at(node))
    for c in node.children():
        found = _env_to_focus(c, env, binds_at, is_focus, unwrap)
        if found is not None:
            return found
    return None


def joos_env_at_focus(prog) -> tuple[tuple[NameTypePair, ...], jast.Statement]:
    found = _env_to_focus(
        prog,
        (),
        joos_binds_at,
        lambda n: isinstance(n, jast.StatementFocus),
        lambda n: n.statement,
    )
    assert found is not None, "oracle: no focus present"
    return found


def typed_frees(frees, env):
    out = []
    for name in frees:
        pair = next((p for p in reversed(env) if p.name == name), None)
        assert pair is not None, f"oracle: {name} missing from environment"
        out.append(pair)
    return tuple(out)


# -- minilet --------------------------------------------------------------------


def minilet_refs_at(node) -> list[str]:
    if isinstance(node, mast.Var):
        return [node.name]
    return []


def minilet_binds_at(node) -> list[NameTypePair]:
    if isinstance(node, mast.FunDef):  # the name is in the call name space
        return [NameTypePair(p, mast.VAL) for p in node.params]
    return []


def minilet_free_names(t) -> tuple[str, ...]:
    acc: list[str] = []
    _free_walk(t, frozenset(), minilet_refs_at, minilet_binds_at, acc)
    return tuple(acc)


def minilet_env_at_focus(prog) -> tuple[tuple[NameTypePair, ...], mast.Expression]:
    found = _env_to_focus(
        prog,
        (),
        minilet_binds_at,
        lambda n: isinstance(n, mast.ExprFocus),
        lambda n: n.expr,
    )
    assert found is not None, "oracle: no focus present"
    return found
