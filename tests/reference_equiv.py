"""The recursive alpha equivalence and binder-permutation equivalence that
`structind.core` used before its single iterative walk, kept as a test
oracle. The code is copied unchanged, except that the kind-* type
expression it used to accept no longer exists.

`prefix_perm_eq` here backtracks over every permutation of a binder run,
so keep its inputs small.
"""

from __future__ import annotations

from structind.core import (
    And,
    App,
    Arrow,
    Bottom,
    Formula,
    Forall,
    Implies,
    OfKindStar,
    OfType,
    PredApp,
    PredOver,
    Sort,
    Term,
    TApp,
    TVar,
    TupleType,
    TypeExpr,
    Var,
    _binder_namespace,
    _sort_type_vars,
)

# Environments map (namespace, name) to the nesting depth of the binder, so
# two formulas agree exactly when corresponding occurrences resolve to the
# same depth (or are both free with the same name).

_Env = dict[tuple[str, str], int]


def alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    return _alpha_formula(f1, f2, {}, {}, 0)


def _alpha_name(ns: str, n1: str, n2: str, env1: _Env, env2: _Env) -> bool:
    d1 = env1.get((ns, n1))
    d2 = env2.get((ns, n2))
    if d1 is None and d2 is None:
        return n1 == n2
    return d1 == d2


def _alpha_type(t1: TypeExpr, t2: TypeExpr, env1: _Env, env2: _Env) -> bool:
    if isinstance(t1, Var) and isinstance(t2, Var):
        return _alpha_name("type", t1.name, t2.name, env1, env2)
    if isinstance(t1, App) and isinstance(t2, App):
        return (
            t1.head == t2.head
            and len(t1.args) == len(t2.args)
            and all(_alpha_type(a, b, env1, env2) for a, b in zip(t1.args, t2.args))
        )
    if isinstance(t1, TupleType) and isinstance(t2, TupleType):
        return len(t1.elems) == len(t2.elems) and all(
            _alpha_type(a, b, env1, env2) for a, b in zip(t1.elems, t2.elems)
        )
    if isinstance(t1, Arrow) and isinstance(t2, Arrow):
        return _alpha_type(t1.domain, t2.domain, env1, env2) and _alpha_type(
            t1.codomain, t2.codomain, env1, env2
        )
    return False


def _alpha_term(t1: Term, t2: Term, env1: _Env, env2: _Env) -> bool:
    if isinstance(t1, TVar) and isinstance(t2, TVar):
        return _alpha_name("term", t1.name, t2.name, env1, env2)
    if isinstance(t1, TApp) and isinstance(t2, TApp):
        return (
            t1.ctor == t2.ctor
            and len(t1.args) == len(t2.args)
            and all(_alpha_term(a, b, env1, env2) for a, b in zip(t1.args, t2.args))
        )
    return isinstance(t1, Bottom) and isinstance(t2, Bottom)


def _alpha_sort(s1: Sort, s2: Sort, env1: _Env, env2: _Env) -> bool:
    if isinstance(s1, OfKindStar) and isinstance(s2, OfKindStar):
        return True
    if isinstance(s1, OfType) and isinstance(s2, OfType):
        return _alpha_type(s1.ty, s2.ty, env1, env2)
    if isinstance(s1, PredOver) and isinstance(s2, PredOver):
        return _alpha_type(s1.ty, s2.ty, env1, env2)
    return False


def _alpha_formula(f1: Formula, f2: Formula, env1: _Env, env2: _Env, depth: int) -> bool:
    if isinstance(f1, PredApp) and isinstance(f2, PredApp):
        return _alpha_name("pred", f1.pred, f2.pred, env1, env2) and _alpha_term(
            f1.arg, f2.arg, env1, env2
        )
    if isinstance(f1, And) and isinstance(f2, And):
        return _alpha_formula(f1.left, f2.left, env1, env2, depth) and _alpha_formula(
            f1.right, f2.right, env1, env2, depth
        )
    if isinstance(f1, Implies) and isinstance(f2, Implies):
        return _alpha_formula(
            f1.antecedent, f2.antecedent, env1, env2, depth
        ) and _alpha_formula(f1.consequent, f2.consequent, env1, env2, depth)
    if isinstance(f1, Forall) and isinstance(f2, Forall):
        if not _alpha_sort(f1.sort, f2.sort, env1, env2):
            return False
        ns = _binder_namespace(f1.sort)
        e1 = {**env1, (ns, f1.var): depth}
        e2 = {**env2, (ns, f2.var): depth}
        return _alpha_formula(f1.body, f2.body, e1, e2, depth + 1)
    return False


# --- equivalence modulo binder permutation ------------------------------------------


def prefix_perm_eq(f1: Formula, f2: Formula) -> bool:
    """alpha_eq modulo reordering within each chain of Forall binders, one
    swap of adjacent commuting binders at a time (see `_commute`)."""
    return _ppe_formula(f1, f2, {}, {}, 0)


def _binders(f: Formula) -> tuple[list[tuple[str, Sort]], Formula]:
    """The leading Forall binders of `f`, outermost first, and their body."""
    binders: list[tuple[str, Sort]] = []
    while isinstance(f, Forall):
        binders.append((f.var, f.sort))
        f = f.body
    return binders, f


def _commute(outer: tuple[str, Sort], inner: tuple[str, Sort]) -> bool:
    """Whether two adjacent binders can swap without changing meaning: they
    do not bind the same name in one namespace, and neither binds a type
    variable that the other's sort mentions."""
    (v1, s1), (v2, s2) = outer, inner
    ns1, ns2 = _binder_namespace(s1), _binder_namespace(s2)
    return (
        (ns1, v1) != (ns2, v2)
        and not (ns1 == "type" and v1 in _sort_type_vars(s2))
        and not (ns2 == "type" and v2 in _sort_type_vars(s1))
    )


def _ppe_formula(f1: Formula, f2: Formula, env1: _Env, env2: _Env, depth: int) -> bool:
    if isinstance(f1, Forall) and isinstance(f2, Forall):
        run1, body1 = _binders(f1)
        run2, body2 = _binders(f2)
        if len(run1) != len(run2):
            return False
        return _match_runs(run1, body1, run2, body2, env1, env2, depth)
    if isinstance(f1, PredApp) and isinstance(f2, PredApp):
        return _alpha_name("pred", f1.pred, f2.pred, env1, env2) and _alpha_term(
            f1.arg, f2.arg, env1, env2
        )
    if isinstance(f1, And) and isinstance(f2, And):
        return _ppe_formula(f1.left, f2.left, env1, env2, depth) and _ppe_formula(
            f1.right, f2.right, env1, env2, depth
        )
    if isinstance(f1, Implies) and isinstance(f2, Implies):
        return _ppe_formula(
            f1.antecedent, f2.antecedent, env1, env2, depth
        ) and _ppe_formula(f1.consequent, f2.consequent, env1, env2, depth)
    return False


def _match_runs(
    run1: list[tuple[str, Sort]],
    body1: Formula,
    run2: list[tuple[str, Sort]],
    body2: Formula,
    env1: _Env,
    env2: _Env,
    depth: int,
) -> bool:
    """Whether run2 can be brought into run1's order, up to renaming, by
    moving binders outward past binders they commute with."""
    if not run1:
        return _ppe_formula(body1, body2, env1, env2, depth)
    v1, s1 = run1[0]
    for i, (v2, s2) in enumerate(run2):
        if not _alpha_sort(s1, s2, env1, env2):
            continue
        if not all(_commute(outer, run2[i]) for outer in run2[:i]):
            continue
        ns = _binder_namespace(s1)
        e1 = {**env1, (ns, v1): depth}
        e2 = {**env2, (ns, v2): depth}
        if _match_runs(run1[1:], body1, run2[:i] + run2[i + 1 :], body2, e1, e2, depth + 1):
            return True
    return False
