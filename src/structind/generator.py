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
    TApp,
    TVar,
    TypeExpr,
    Var,
    _type_nodes,
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
    return isinstance(ty, App) and ty.head == decl.type_name


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


def _clause(decl: DataDecl, ctor: ConstructorDecl) -> Formula:
    terms: list[TVar] = []
    hypotheses: list[Formula] = []
    for i, ty in enumerate(ctor.arg_types, start=1):
        recursive = is_recursive_arg(decl, ty)
        terms.append(TVar(f"{induction_var(decl) if recursive else _PLAIN_BASE}{i}"))
        if recursive:
            hypotheses.append(PredApp(PRED_NAME, terms[-1]))
    body: Formula = PredApp(PRED_NAME, TApp(ctor.name, tuple(terms)))
    if hypotheses:
        body = Implies(conjoin(hypotheses), body)
    for t, ty in zip(reversed(terms), reversed(ctor.arg_types)):
        body = Forall(t.name, OfType(ty), body)
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
    clauses = tuple((c.name, _clause(decl, c)) for c in decl.constructors)
    formula = assemble(decl, opts.pointed, [f for _, f in clauses])
    return Principle(decl, opts.pointed, formula, clauses)


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
