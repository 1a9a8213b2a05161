"""Formula shapes for the tests: `subformulas` walks a formula,
`clause_parts` splits a constructor clause, `mind_check` says whether a
principle over a Nat-shaped type is ordinary mathematical induction, and
`alternating_chain` builds a chain that alternates type and term binders."""

from structind.core import (
    And,
    Forall,
    Formula,
    Implies,
    OF_KIND_STAR,
    OfType,
    PredApp,
    Principle,
    Sort,
    TVar,
    Var,
)
from structind.generator import conjuncts, is_recursive_arg


def subformulas(f: Formula):
    """Yield f and every formula nested inside it, outermost first and left
    before right. The formulas still to visit wait on a stack, so long
    chains cost no recursion."""
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, And):
            stack += f.right, f.left
        elif isinstance(f, Implies):
            stack += f.consequent, f.antecedent
        elif isinstance(f, Forall):
            stack.append(f.body)


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


def alternating_chain(n: int, term: str = "x") -> Formula:
    """`∀a1:*. ∀x1:a1. … ∀an:*. ∀xn:an. (P x1) ∧ … ∧ (P xn)`, one chain of
    binders in which every type binder after the first follows a term
    binder. With `term="a"` each term binder shadows the type variable
    bound just before it."""
    body: Formula = PredApp("P", TVar(f"{term}{n}"))
    for i in range(n - 1, 0, -1):
        body = And(PredApp("P", TVar(f"{term}{i}")), body)
    for i in range(n, 0, -1):
        body = Forall(f"a{i}", OF_KIND_STAR, Forall(f"{term}{i}", OfType(Var(f"a{i}")), body))
    return body
