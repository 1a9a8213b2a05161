"""Set-per-predicate model checking, used as a differential oracle.

This is the direct reading of the relativized check: each predicate is a
`frozenset` of ground terms, a quantifier instance is skipped when its
term is not in a second set holding the whole universe, and the missed
term is the first universe element outside the predicate. It builds two
sets per check and one per predicate, which `semantics.check_principle`
does not, and it must produce the same `SoundnessReport`.
"""

import random
from typing import Iterable, Optional

from structind.core import (
    And,
    App,
    BOTTOM,
    Forall,
    Formula,
    Implies,
    OfKindStar,
    OfType,
    PredApp,
    PredOver,
    TApp,
    TVar,
    Var,
)
from structind.generator import conjuncts
from structind.semantics import (
    Atom,
    Exhaustive,
    GroundTerm,
    Node,
    Sampled,
    SoundnessReport,
    UnsupportedTypeError,
    enumerate_terms,
)


class _RelativizedChecker:
    """Evaluates one principle over a fixed universe, one predicate at a time."""

    def __init__(self, decl, env, universe: list[GroundTerm], formula: Formula):
        self.decl = decl
        self.universe = universe
        self.in_universe = frozenset(universe)
        self.atoms = {p: [Atom(label) for label in env.carrier(p)] for p in decl.type_params}
        self.pred_name, self.conjunct_formulas = self._split(formula)
        self.pred: frozenset[GroundTerm] = frozenset()

    def _split(self, formula: Formula) -> tuple[str, list[Formula]]:
        f = formula
        while isinstance(f, Forall) and isinstance(f.sort, OfKindStar):
            f = f.body
        if not (isinstance(f, Forall) and isinstance(f.sort, PredOver)):
            raise ValueError("formula lacks the predicate binder of a generated principle")
        pred = f.var
        body = f.body
        if not isinstance(body, Implies):
            raise ValueError("predicate binder body is not an implication")
        concl = body.consequent
        if not (
            isinstance(concl, Forall)
            and isinstance(concl.sort, OfType)
            and isinstance(concl.sort.ty, App)
            and concl.sort.ty.head == self.decl.type_name
            and concl.body == PredApp(pred, TVar(concl.var))
        ):
            raise ValueError("conclusion does not quantify the declared type")
        return pred, conjuncts(body.antecedent)

    def counterexample(self, pred: frozenset[GroundTerm]) -> Optional[GroundTerm]:
        """First universe element refuting the principle under `pred`, if any."""
        self.pred = pred
        for clause in self.conjunct_formulas:
            if self._eval(clause, {}) is False:
                return None
        for t in self.universe:
            if t not in pred:
                return t
        return None

    def _eval(self, f: Formula, assign: dict[str, GroundTerm]) -> Optional[bool]:
        # None marks an instance that mentions a term outside the universe;
        # such instances are skipped rather than counted either way.
        if isinstance(f, PredApp):
            if f.pred != self.pred_name:
                raise ValueError(f"unexpected predicate {f.pred!r} in clause")
            g = self._ground(f.arg, assign)
            if g not in self.in_universe:
                return None
            return g in self.pred
        if isinstance(f, And):
            a = self._eval(f.left, assign)
            b = self._eval(f.right, assign)
            if a is None or b is None:
                return None
            return a and b
        if isinstance(f, Implies):
            a = self._eval(f.antecedent, assign)
            b = self._eval(f.consequent, assign)
            if a is None or b is None:
                return None
            return (not a) or b
        if isinstance(f, Forall):
            for value in self._sort_range(f.sort):
                if self._eval(f.body, {**assign, f.var: value}) is False:
                    return False
            return True
        raise ValueError(f"unsupported formula node in clause: {f!r}")

    def _sort_range(self, sort) -> Iterable[GroundTerm]:
        if isinstance(sort, OfType):
            ty = sort.ty
            if isinstance(ty, Var):
                try:
                    return self.atoms[ty.name]
                except KeyError:
                    raise ValueError(f"unbound type variable {ty.name!r} in clause") from None
            if isinstance(ty, App) and ty.head == self.decl.type_name:
                return self.universe
        raise UnsupportedTypeError(f"cannot range over sort {sort!r}")

    def _ground(self, term, assign: dict[str, GroundTerm]) -> GroundTerm:
        if isinstance(term, TVar):
            try:
                return assign[term.name]
            except KeyError:
                raise ValueError(f"unbound term variable {term.name!r} in clause") from None
        if isinstance(term, TApp):
            return Node(term.ctor, tuple(self._ground(a, assign) for a in term.args))
        return BOTTOM


def reference_check(principle, env, depth_bound, mode) -> SoundnessReport:
    """`semantics.check_principle` with one `frozenset` per predicate. It does
    not refuse a large exhaustive check, so keep those universes small."""
    decl = principle.decl
    universe = enumerate_terms(decl, env, depth_bound, principle.pointed)
    checker = _RelativizedChecker(decl, env, universe, principle.formula)
    n = len(universe)
    if isinstance(mode, Exhaustive):
        masks: Iterable[int] = range(1 << n)
    elif isinstance(mode, Sampled):
        rng = random.Random(mode.seed)
        masks = (rng.getrandbits(n) if n else 0 for _ in range(mode.count))
    else:
        raise TypeError(f"not a checking mode: {mode!r}")
    checked = 0
    for mask in masks:
        checked += 1
        pred = frozenset(universe[i] for i in range(n) if mask >> i & 1)
        failing = checker.counterexample(pred)
        if failing is not None:
            witness = (tuple(t for t in universe if t in pred), failing)
            return SoundnessReport(decl.type_name, n, checked, mode, witness)
    return SoundnessReport(decl.type_name, n, checked, mode, None)
