"""AST for data declarations, types, terms, and formulas, plus equivalence utilities.

Binders live in three disjoint namespaces: kind-* binders bind type
variables, predicate-sort binders bind predicate names, and everything
else binds term variables. Constructor and type-constructor names are
constants, never variables.
"""

from __future__ import annotations

from dataclasses import dataclass


# --- identifiers -------------------------------------------------------------
# Haskell lexical convention: type and constructor names start uppercase,
# type and term variables start lowercase.

def valid_name(name: str) -> bool:
    return (
        bool(name)
        and name[0].isalpha()
        and all(ch.isalnum() or ch in "_'" for ch in name)
    )


def is_upper_name(name: str) -> bool:
    return valid_name(name) and name[0].isupper()


def is_lower_name(name: str) -> bool:
    return valid_name(name) and name[0].islower()


# --- type expressions ---------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A type variable."""

    name: str


@dataclass(frozen=True)
class App:
    """A named type constructor applied to zero or more arguments."""

    head: str
    args: tuple[TypeExpr, ...] = ()


@dataclass(frozen=True)
class TupleType:
    elems: tuple[TypeExpr, ...]

    def __post_init__(self) -> None:
        if len(self.elems) < 2:
            raise ValueError("tuple types need at least two components")


@dataclass(frozen=True)
class Arrow:
    domain: TypeExpr
    codomain: TypeExpr


@dataclass(frozen=True)
class KindStar:
    """The kind of ground types; only legal at a binder annotation."""


TypeExpr = Var | App | TupleType | Arrow | KindStar

KIND_STAR = KindStar()


def ty_con(ty: TypeExpr) -> str | None:
    """Head constructor name of an applied type, None for everything else."""
    if isinstance(ty, KindStar):
        raise ValueError("the kind * is not a type expression")
    if isinstance(ty, App):
        return ty.head
    return None


def type_vars(ty: TypeExpr) -> set[str]:
    if isinstance(ty, Var):
        return {ty.name}
    if isinstance(ty, App):
        out: set[str] = set()
        for arg in ty.args:
            out |= type_vars(arg)
        return out
    if isinstance(ty, TupleType):
        out = set()
        for elem in ty.elems:
            out |= type_vars(elem)
        return out
    if isinstance(ty, Arrow):
        return type_vars(ty.domain) | type_vars(ty.codomain)
    return set()


def mentions_type(ty: TypeExpr, name: str) -> bool:
    """True when `name` occurs as an App head anywhere inside `ty`."""
    if isinstance(ty, App):
        return ty.head == name or any(mentions_type(a, name) for a in ty.args)
    if isinstance(ty, TupleType):
        return any(mentions_type(e, name) for e in ty.elems)
    if isinstance(ty, Arrow):
        return mentions_type(ty.domain, name) or mentions_type(ty.codomain, name)
    return False


# --- declarations -------------------------------------------------------------


@dataclass(frozen=True)
class ConstructorDecl:
    name: str
    arg_types: tuple[TypeExpr, ...] = ()

    def __post_init__(self) -> None:
        if not is_upper_name(self.name):
            raise ValueError(f"constructor name {self.name!r} must start uppercase")

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class DataDecl:
    type_name: str
    type_params: tuple[str, ...]
    constructors: tuple[ConstructorDecl, ...]

    def __post_init__(self) -> None:
        if not is_upper_name(self.type_name):
            raise ValueError(f"type name {self.type_name!r} must start uppercase")
        seen: set[str] = set()
        for p in self.type_params:
            if not is_lower_name(p):
                raise ValueError(f"type parameter {p!r} must start lowercase")
            if p in seen:
                raise ValueError(f"duplicate type parameter {p!r}")
            seen.add(p)
        if not self.constructors:
            raise ValueError(f"type {self.type_name} declares no constructors")
        for ctor in self.constructors:
            for ty in ctor.arg_types:
                loose = type_vars(ty) - seen
                if loose:
                    raise ValueError(
                        f"type variable {min(loose)!r} in constructor "
                        f"{ctor.name} is not a parameter of {self.type_name}"
                    )


# --- terms ---------------------------------------------------------------------


@dataclass(frozen=True)
class TVar:
    """A term variable."""

    name: str


@dataclass(frozen=True)
class TApp:
    """A constructor applied to zero or more argument terms."""

    ctor: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Bottom:
    """The undefined value of a pointed type."""


Term = TVar | TApp | Bottom

BOTTOM = Bottom()


# --- sorts and formulas ----------------------------------------------------------


@dataclass(frozen=True)
class OfKindStar:
    """Binder annotation for a type variable."""


@dataclass(frozen=True)
class OfType:
    """Binder annotation for a term variable of the given type."""

    ty: TypeExpr


@dataclass(frozen=True)
class PredOver:
    """Binder annotation for a predicate over the given type."""

    ty: TypeExpr


Sort = OfKindStar | OfType | PredOver

OF_KIND_STAR = OfKindStar()


@dataclass(frozen=True)
class Truth:
    pass


@dataclass(frozen=True)
class PredApp:
    pred: str
    arg: Term


@dataclass(frozen=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies:
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class Forall:
    var: str
    sort: Sort
    body: Formula


Formula = Truth | PredApp | And | Implies | Forall

TRUTH = Truth()


@dataclass(frozen=True)
class Principle:
    """A generated induction principle together with its per-constructor clauses."""

    decl: DataDecl
    pointed: bool
    formula: Formula
    clauses: tuple[tuple[str, Formula], ...]


def subformulas(f: Formula):
    """Yield f and every formula nested inside it, outermost first."""
    yield f
    if isinstance(f, And):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Implies):
        yield from subformulas(f.antecedent)
        yield from subformulas(f.consequent)
    elif isinstance(f, Forall):
        yield from subformulas(f.body)


# --- free variables -------------------------------------------------------------


def _binder_namespace(sort: Sort) -> str:
    if isinstance(sort, OfKindStar):
        return "type"
    if isinstance(sort, PredOver):
        return "pred"
    return "term"


def _sort_type_vars(sort: Sort) -> set[str]:
    if isinstance(sort, OfKindStar):
        return set()
    return type_vars(sort.ty)


def free_vars(f: Formula) -> set[str]:
    """Free variables of a formula, across all three namespaces."""
    free: set[str] = set()
    _free_formula(f, frozenset(), frozenset(), frozenset(), free)
    return free


def _free_type(ty: TypeExpr, bound: frozenset[str], free: set[str]) -> None:
    for v in type_vars(ty):
        if v not in bound:
            free.add(v)


def _free_term(t: Term, bound: frozenset[str], free: set[str]) -> None:
    if isinstance(t, TVar):
        if t.name not in bound:
            free.add(t.name)
    elif isinstance(t, TApp):
        for arg in t.args:
            _free_term(arg, bound, free)


def _free_formula(
    f: Formula,
    term_bound: frozenset[str],
    type_bound: frozenset[str],
    pred_bound: frozenset[str],
    free: set[str],
) -> None:
    # The right spine (right conjuncts, consequents, quantifier bodies) is a
    # loop, so long generated chains cost no stack depth.
    while True:
        if isinstance(f, Truth):
            return
        if isinstance(f, PredApp):
            if f.pred not in pred_bound:
                free.add(f.pred)
            _free_term(f.arg, term_bound, free)
            return
        if isinstance(f, And):
            _free_formula(f.left, term_bound, type_bound, pred_bound, free)
            f = f.right
        elif isinstance(f, Implies):
            _free_formula(f.antecedent, term_bound, type_bound, pred_bound, free)
            f = f.consequent
        elif isinstance(f, Forall):
            if not isinstance(f.sort, OfKindStar):
                _free_type(f.sort.ty, type_bound, free)
            ns = _binder_namespace(f.sort)
            if ns == "type":
                type_bound = type_bound | {f.var}
            elif ns == "pred":
                pred_bound = pred_bound | {f.var}
            else:
                term_bound = term_bound | {f.var}
            f = f.body
        else:
            raise TypeError(f"not a formula: {f!r}")


# --- alpha equivalence ------------------------------------------------------------
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
    return isinstance(t1, KindStar) and isinstance(t2, KindStar)


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
    if isinstance(f1, Truth) and isinstance(f2, Truth):
        return True
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
    if isinstance(f1, Truth) and isinstance(f2, Truth):
        return True
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
