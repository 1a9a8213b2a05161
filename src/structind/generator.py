"""Generation of structural induction principles from data declarations.

For a declaration `data T a1 .. ak = C1 .. | Cm` the generated formula is

    forall a1:*. .. forall ak:*. forall P:(T a1 .. ak) -> Bool.
        (clause(C1) and .. and clause(Cm)) => forall t:(T a1 .. ak). P t

where each constructor clause universally quantifies the constructor's
arguments and takes an induction hypothesis for every argument whose head
type constructor is T itself. Argument variables are numbered jointly
from 1 across all arguments of a constructor; recursive arguments use the
lowercased first letter of the type name and the rest use "x". Pointed
generation adds (P bottom) as the first conjunct, modelling the undefined
value of lazy semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    And,
    App,
    Bottom,
    ConstructorDecl,
    DataDecl,
    Forall,
    Formula,
    Implies,
    OF_KIND_STAR,
    OfType,
    PredApp,
    PredOver,
    Principle,
    Sort,
    TApp,
    TVar,
    TypeExpr,
    Var,
    _type_nodes,
    ty_con,
)

PRED_NAME = "P"
_PLAIN_BASE = "x"


@dataclass(frozen=True)
class GenOptions:
    pointed: bool = False


def declared_type(decl: DataDecl) -> App:
    """The fully applied declared type, `T a1 .. ak`."""
    return App(decl.type_name, tuple(Var(p) for p in decl.type_params))


def induction_var(decl: DataDecl) -> str:
    return decl.type_name[0].lower()


def is_recursive_arg(decl: DataDecl, ty: TypeExpr) -> bool:
    """Recursion test: the argument's head type constructor is the declared type."""
    return ty_con(ty) == decl.type_name


def name_arguments(decl: DataDecl, ctor: ConstructorDecl) -> list[tuple[str, TypeExpr]]:
    """Pair every constructor argument with its quantified variable name."""
    _own(decl, ctor)
    return [(var, ty) for var, ty, _ in _arguments(decl, ctor)]


def _own(decl: DataDecl, ctor: ConstructorDecl) -> None:
    if ctor not in decl.constructors:
        raise ValueError(f"constructor {ctor.name!r} does not belong to {decl.type_name!r}")


def _arguments(decl: DataDecl, ctor: ConstructorDecl) -> list[tuple[str, TypeExpr, bool]]:
    """Each argument's variable name and type, and whether it is recursive."""
    out = []
    for i, ty in enumerate(ctor.arg_types, start=1):
        recursive = is_recursive_arg(decl, ty)
        out.append((f"{induction_var(decl) if recursive else _PLAIN_BASE}{i}", ty, recursive))
    return out


def conjoin(formulas: list[Formula]) -> Formula:
    """Right-nested conjunction of a nonempty list."""
    if not formulas:
        raise ValueError("empty conjunction")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = And(f, out)
    return out


def conjuncts(f: Formula) -> list[Formula]:
    """Flatten nested conjunctions back into a list."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += (f.right, f.left)
        else:
            out.append(f)
    return out


def constructor_clause(decl: DataDecl, ctor: ConstructorDecl, pred_name: str = PRED_NAME) -> Formula:
    _own(decl, ctor)
    return _clause(decl, ctor, pred_name)


def _clause(decl: DataDecl, ctor: ConstructorDecl, pred_name: str) -> Formula:
    named = _arguments(decl, ctor)
    terms = [TVar(var) for var, _, _ in named]
    hypotheses = [PredApp(pred_name, t) for t, (_, _, rec) in zip(terms, named) if rec]
    body: Formula = PredApp(pred_name, TApp(ctor.name, tuple(terms)))
    if hypotheses:
        body = Implies(conjoin(hypotheses), body)
    for var, ty, _ in reversed(named):
        body = Forall(var, OfType(ty), body)
    return body


def assemble(decl: DataDecl, pointed: bool, clause_formulas: list[Formula]) -> Formula:
    """Wrap clause formulas into the full principle; used for rebuilding variants."""
    applied = declared_type(decl)
    conj: list[Formula] = []
    if pointed:
        conj.append(PredApp(PRED_NAME, Bottom()))
    conj.extend(clause_formulas)
    v = induction_var(decl)
    conclusion = Forall(v, OfType(applied), PredApp(PRED_NAME, TVar(v)))
    body: Formula = Forall(PRED_NAME, PredOver(applied), Implies(conjoin(conj), conclusion))
    for p in reversed(decl.type_params):
        body = Forall(p, OF_KIND_STAR, body)
    return body


def induction_principle(decl: DataDecl, opts: GenOptions = GenOptions()) -> Principle:
    clauses = tuple((c.name, _clause(decl, c, PRED_NAME)) for c in decl.constructors)
    formula = assemble(decl, opts.pointed, [f for _, f in clauses])
    return Principle(decl, opts.pointed, formula, clauses)


def clause_parts(clause: Formula) -> tuple[list[tuple[str, Sort]], list[Formula], Formula]:
    """Split a constructor clause into binders, hypotheses, and conclusion."""
    binders: list[tuple[str, Sort]] = []
    f = clause
    while isinstance(f, Forall):
        binders.append((f.var, f.sort))
        f = f.body
    if isinstance(f, Implies):
        return binders, conjuncts(f.antecedent), f.consequent
    return binders, [], f


def mind_check(principle: Principle) -> bool:
    """Check that a principle over a Nat-shaped type is ordinary mathematical induction.

    The declaration must have exactly one nullary constructor and one unary
    recursive constructor, and the principle must be unpointed; anything
    else raises ValueError. The result states whether the base clause is
    quantifier- and hypothesis-free and the step clause has exactly one
    quantifier and one hypothesis.
    """
    if principle.pointed:
        raise ValueError("mind_check applies only to unpointed principles")
    decl = principle.decl
    nullary = [c for c in decl.constructors if c.arity == 0]
    unary = [
        c
        for c in decl.constructors
        if c.arity == 1 and is_recursive_arg(decl, c.arg_types[0])
    ]
    if len(decl.constructors) != 2 or len(nullary) != 1 or len(unary) != 1:
        raise ValueError(f"{decl.type_name} is not shaped like the naturals")
    if len(principle.clauses) != 2:
        return False
    by_name = dict(principle.clauses)
    base = by_name.get(nullary[0].name)
    step = by_name.get(unary[0].name)
    if base is None or step is None:
        return False
    base_binders, base_hyps, _ = clause_parts(base)
    step_binders, step_hyps, _ = clause_parts(step)
    return (
        not base_binders
        and not base_hyps
        and len(step_binders) == 1
        and len(step_hyps) == 1
    )


@dataclass(frozen=True)
class NestedRecursionWarning:
    """A constructor argument mentioning the declared type below its head.

    Such arguments get no induction hypothesis, which usually makes the
    principle too weak to be useful, though still sound.
    """

    constructor: str
    position: int
    arg_type: TypeExpr


def nested_recursion_warnings(decl: DataDecl) -> list[NestedRecursionWarning]:
    name = decl.type_name
    types = [ty for ctor in decl.constructors for ty in ctor.arg_types]
    # One walk lists the arguments first and then every type below their
    # heads; only a declaration whose type occurs there walks each argument.
    if not _mentions(_type_nodes(types)[len(types) :], name):
        return []
    return [
        NestedRecursionWarning(ctor.name, i, ty)
        for ctor in decl.constructors
        for i, ty in enumerate(ctor.arg_types, start=1)
        if not is_recursive_arg(decl, ty) and _mentions(_type_nodes([ty]), name)
    ]


def _mentions(nodes: list[TypeExpr], name: str) -> bool:
    return any(t.__class__ is App and t.head == name for t in nodes)
