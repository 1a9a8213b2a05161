"""Finite-model soundness oracle for generated induction principles.

The oracle enumerates ground terms of the declared type up to a depth
bound, then checks the principle's quantifier-free core against every
predicate in a family of subsets of that universe. Quantified clause
variables range over the universe, and any quantifier instance whose
constructed term falls outside the universe is skipped, so a correct
principle can never fail: the universe is closed under immediate
subterms, which makes the relativized induction scheme valid. A reported
counterexample therefore always indicates a generator bug.

The enumerable fragment covers constructor arguments that are type
parameters (carrier atoms) or applications headed by the declared type
itself (recursive positions). Recursion is tracked at the level of the
head constructor: every recursive position draws from the one shared
universe, and a parameter position always draws from the carrier of the
parameter named there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import inf, prod
from typing import Iterable, Mapping, Optional

from .core import (
    And,
    App,
    DataDecl,
    Forall,
    Formula,
    Implies,
    OfKindStar,
    OfType,
    PredApp,
    PredOver,
    Principle,
    TApp,
    TVar,
    Truth,
    Var,
)
from .generator import GenOptions, conjuncts, induction_principle
from .render import type_source

DEFAULT_SEED = 271828
EXHAUSTIVE_LIMIT = 20


class UnsupportedTypeError(Exception):
    """The declaration lies outside the fragment the oracle can enumerate."""


@dataclass(frozen=True)
class Exhaustive:
    """Check every subset of the universe."""


@dataclass(frozen=True)
class Sampled:
    """Check `count` subsets drawn from a seeded generator."""

    count: int
    seed: int = DEFAULT_SEED


Mode = Exhaustive | Sampled


@dataclass(frozen=True)
class GroundEnv:
    """Finite carriers (atom labels) for the declaration's type parameters."""

    carriers: Mapping[str, tuple[str, ...]]

    @classmethod
    def default_for(cls, decl: DataDecl, atoms_per_param: int = 2) -> "GroundEnv":
        return cls(
            {
                p: tuple(f"{p}{i}" for i in range(1, atoms_per_param + 1))
                for p in decl.type_params
            }
        )

    def carrier(self, param: str) -> tuple[str, ...]:
        try:
            atoms = self.carriers[param]
        except KeyError:
            raise ValueError(f"no carrier for type parameter {param!r}") from None
        if not atoms:
            raise ValueError(f"empty carrier for type parameter {param!r}")
        return tuple(atoms)


# --- ground terms -----------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A carrier element sitting in a parameter position."""

    label: str
    of_param: str


@dataclass(frozen=True)
class Node:
    """A constructor applied to ground children.

    The hash is the dataclass hash of `(ctor, children)`, computed once
    when the node is built from the children's own stored hashes, so
    hashing a node costs O(arity) instead of O(term size).
    """

    ctor: str
    children: tuple[GroundTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.ctor, self.children)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so a stored hash must not
        # travel in a pickle: unpickling rebuilds the node and rehashes it.
        return Node, (self.ctor, self.children)


@dataclass(frozen=True)
class BottomTerm:
    """The undefined value, present only in pointed universes."""


GroundTerm = Atom | Node | BottomTerm


def immediate_subterms(t: GroundTerm) -> list[GroundTerm]:
    """Children of the declared type; atoms never count and the bottom has none."""
    if isinstance(t, Node):
        return [c for c in t.children if not isinstance(c, Atom)]
    return []


def term_depth(t: GroundTerm) -> int:
    subs = immediate_subterms(t)
    return 1 + (max(map(term_depth, subs)) if subs else 0)


def format_ground_term(t: GroundTerm) -> str:
    if isinstance(t, Atom):
        return t.label
    if isinstance(t, BottomTerm):
        return "⊥"
    if not t.children:
        return t.ctor
    return "(" + " ".join([t.ctor] + [format_ground_term(c) for c in t.children]) + ")"


def _argument_slots(
    decl: DataDecl, env: GroundEnv, depth_bound: int
) -> list[tuple[str, list[Optional[list[Atom]]]]]:
    """Each constructor's name and, per argument, its carrier atoms or None
    for a recursive position; raises as enumeration does on bad input."""
    if depth_bound < 1:
        raise ValueError("depth bound must be at least 1")
    for ctor in decl.constructors:
        for i, ty in enumerate(ctor.arg_types, start=1):
            if isinstance(ty, Var):
                continue
            if isinstance(ty, App) and ty.head == decl.type_name:
                continue
            raise UnsupportedTypeError(
                f"cannot enumerate argument {i} of constructor {ctor.name!r}: "
                f"type '{type_source(ty)}' is neither a type parameter nor "
                f"an application of {decl.type_name!r}"
            )
    atoms = {p: [Atom(label, p) for label in env.carrier(p)] for p in decl.type_params}
    return [
        (ctor.name, [atoms[ty.name] if isinstance(ty, Var) else None for ty in ctor.arg_types])
        for ctor in decl.constructors
    ]


def universe_size(
    decl: DataDecl, env: GroundEnv, depth_bound: int, pointed: bool = False, limit: float = inf
) -> int:
    """len(enumerate_terms(decl, env, depth_bound, pointed)), counted without
    building a term; raises exactly as enumerate_terms does. Counting stops
    at the first depth whose total passes `limit`, so a result above it
    means only "more than `limit`" (the exact count can have billions of
    digits at a large depth).

    A constructor with k recursive arguments and A atom combinations adds
    A * (S[d-1]**k - S[d-2]**k) terms to layer d >= 2, where S[d] counts
    the terms of depth at most d; with k = 0 it adds A terms to layer 1.
    """
    shapes = [
        (prod(len(atoms) for atoms in slots if atoms is not None), slots.count(None))
        for _, slots in _argument_slots(decl, env, depth_bound)
    ]
    older, total = 0, int(pointed) + sum(a for a, k in shapes if k == 0)
    for _ in range(2, depth_bound + 1):
        # An empty layer has no deeper terms above it.
        if total == older or total > limit:
            break
        older, total = total, total + sum(a * (total**k - older**k) for a, k in shapes if k)
    return total


def enumerate_terms(
    decl: DataDecl, env: GroundEnv, depth_bound: int, pointed: bool = False
) -> list[GroundTerm]:
    """All ground terms up to the depth bound, in canonical order.

    Order is by depth, then constructor declaration order (the bottom term
    first in pointed mode), then children lexicographically by universe
    position. Depth counts constructor nesting only: atoms and the bottom
    term have depth 1, and a node is one deeper than its deepest child of
    the declared type. Layer d is built only from children of depth below
    d with at least one child in layer d - 1.
    """
    ctors = _argument_slots(decl, env, depth_bound)
    universe: list[GroundTerm] = [BottomTerm()] if pointed else []
    for name, slots in ctors:
        if None not in slots:
            universe.extend(Node(name, combo) for combo in product(*slots))
    start = 0  # universe[start:] is the newest layer
    for _ in range(2, depth_bound + 1):
        end = len(universe)
        if start == end:
            break
        old, new, below = universe[:start], universe[start:end], universe[:end]
        for name, slots in ctors:
            if None in slots:
                universe.extend(Node(name, combo) for combo in _layer_children(slots, old, new, below))
        start = end
    return universe


def _layer_children(
    slots: list[Optional[list[Atom]]],
    old: list[GroundTerm],
    new: list[GroundTerm],
    below: list[GroundTerm],
) -> list[tuple[GroundTerm, ...]]:
    """Argument tuples, in lexicographic order of universe position, whose
    recursive arguments come from `below` (= old + new) with at least one
    from `new`. Built from the last argument back: `free` holds every
    suffix, `need` the suffixes with a child from `new`."""
    free: list[tuple[GroundTerm, ...]] = [()]
    need: list[tuple[GroundTerm, ...]] = []
    for i in range(len(slots) - 1, -1, -1):
        atoms = slots[i]
        if atoms is None:
            need = [(c, *t) for c in old for t in need] + [(c, *t) for c in new for t in free]
        else:
            need = [(a, *t) for a in atoms for t in need]
        if i:
            free = [(c, *t) for c in (below if atoms is None else atoms) for t in free]
    return need


# --- the relativized check ----------------------------------------------------


class _RelativizedChecker:
    """Evaluates one principle over a fixed universe, one predicate at a time."""

    def __init__(self, decl: DataDecl, env: GroundEnv, universe: list[GroundTerm], formula: Formula):
        self.decl = decl
        self.universe = universe
        self.in_universe = frozenset(universe)
        self.atoms = {p: [Atom(label, p) for label in env.carrier(p)] for p in decl.type_params}
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
        if isinstance(f, Truth):
            return True
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
        return BottomTerm()


@dataclass(frozen=True)
class SoundnessReport:
    decl_name: str
    universe_size: int
    predicates_checked: int
    mode: Mode
    counterexample: Optional[tuple[tuple[GroundTerm, ...], GroundTerm]]

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def check_principle(
    principle: Principle, env: GroundEnv, depth_bound: int, mode: Mode
) -> SoundnessReport:
    """Check one principle; the counterexample, if any, is the first one found."""
    decl = principle.decl
    if isinstance(mode, Exhaustive):
        n = universe_size(decl, env, depth_bound, principle.pointed)
        if n > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"universe of size {n} is too large to check exhaustively "
                f"(limit {EXHAUSTIVE_LIMIT}); use sampled mode"
            )
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


def check_soundness(
    decl: DataDecl,
    opts: GenOptions,
    env: GroundEnv,
    depth_bound: int,
    mode: Mode,
) -> SoundnessReport:
    """Generate the principle for `decl` and check it."""
    return check_principle(induction_principle(decl, opts), env, depth_bound, mode)
