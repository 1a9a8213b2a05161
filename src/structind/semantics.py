"""Finite-model soundness oracle for generated induction principles.

The oracle enumerates ground terms of the declared type up to a depth
bound, then checks the principle's quantifier-free core against every
predicate in a family of subsets of that universe. A predicate is an int
bitmask over universe positions: bit i says whether it holds of
universe[i]. Masks are tried as they are counted (exhaustive mode) or
drawn (sampled mode). Quantified clause variables range over the
universe, and any quantifier instance whose constructed term falls
outside the universe is skipped, so a correct principle can never fail:
the universe is closed under immediate subterms, which makes the
relativized induction scheme valid. A reported counterexample, the first
failing predicate (as the terms it holds of) with the first term it
misses, therefore always indicates a generator bug. The check itself
works on hash-consed keys (`_layers`) and builds the `Node` terms only
for a counterexample. The universe's size is counted first
(`_count_terms`), and its keys are built one depth layer at a time, on
demand, in exhaustive and sampled checks alike: a lookup that misses
builds the next layer and retries, until the key is found or no layer is
left, and a counterexample builds up to the last term its witness names.

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
from itertools import compress, product
from math import inf, prod
from typing import Iterable, Iterator, Mapping, Optional

from .core import (
    And,
    BOTTOM,
    Bottom,
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
    Var,
)
from .generator import conjuncts, is_recursive_arg
from .render import type_source

DEFAULT_SEED = 271828
EXHAUSTIVE_LIMIT = 20
# A sampled check that builds its whole universe, because a lookup
# reached the last layer or its counterexample names a term there, keeps
# the keys, their position dict and one sampled predicate in memory: about
# 160 B per term, 170 B while they are built (tracemalloc on universes of
# 260,000-460,000 terms), so a million terms is under 200 MB. That is
# the worst case: a check whose lookups stay in the first layers keeps
# only those.
SAMPLED_LIMIT = 1_000_000


class UnsupportedTypeError(ValueError):
    """The declaration lies outside the fragment the oracle can enumerate,
    or its universe is too large for the requested check."""


@dataclass(frozen=True)
class Exhaustive:
    """Check every subset of the universe."""


@dataclass(frozen=True)
class Sampled:
    """Check `count` subsets drawn from a seeded generator."""

    count: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"sample count must be at least 1, not {self.count}")


Mode = Exhaustive | Sampled


@dataclass(frozen=True)
class GroundEnv:
    """Finite carriers (atom labels) for the declaration's type parameters."""

    carriers: Mapping[str, tuple[str, ...]]

    @classmethod
    def default_for(cls, decl: DataDecl) -> "GroundEnv":
        """Two atoms, `p1` and `p2`, for each type parameter `p`."""
        return cls({p: (f"{p}1", f"{p}2") for p in decl.type_params})

    def carrier(self, param: str) -> tuple[str, ...]:
        try:
            atoms = self.carriers[param]
        except KeyError:
            raise ValueError(f"no carrier for type parameter {param!r}") from None
        if not atoms:
            raise ValueError(f"empty carrier for type parameter {param!r}")
        if len(set(atoms)) < len(atoms):
            raise ValueError(f"repeated label in the carrier for type parameter {param!r}")
        return tuple(atoms)


# --- ground terms -----------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A carrier element: its label alone. The parameter position it sits
    in says whose carrier it came from, so atoms of two parameters that
    share a label are equal, as their keys are."""

    label: str


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


# The undefined value, present only in pointed universes, is `core.BOTTOM`.
GroundTerm = Atom | Node | Bottom


def format_ground_term(t: GroundTerm) -> str:
    if isinstance(t, Atom):
        return t.label
    if isinstance(t, Bottom):
        return "⊥"
    if not t.children:
        return t.ctor
    return "(" + " ".join([t.ctor] + [format_ground_term(c) for c in t.children]) + ")"


def _argument_slots(
    decl: DataDecl, env: GroundEnv, depth_bound: int
) -> tuple[dict[str, tuple[str, ...]], list[tuple[str, list[Optional[tuple[str, ...]]]]]]:
    """Each type parameter's carrier labels, and each constructor's name
    with, per argument, its parameter's labels or None for a recursive
    position; raises as enumeration does on bad input. This is the one
    place that reads the carriers and classifies arguments."""
    if depth_bound < 1:
        raise ValueError("depth bound must be at least 1")
    for ctor in decl.constructors:
        for i, ty in enumerate(ctor.arg_types, start=1):
            if isinstance(ty, Var) or is_recursive_arg(decl, ty):
                continue
            raise UnsupportedTypeError(
                f"cannot enumerate argument {i} of constructor {ctor.name!r}: "
                f"type '{type_source(ty)}' is neither a type parameter nor "
                f"an application of {decl.type_name!r}"
            )
    labels = {p: env.carrier(p) for p in decl.type_params}
    return labels, [
        (ctor.name, [labels[ty.name] if isinstance(ty, Var) else None for ty in ctor.arg_types])
        for ctor in decl.constructors
    ]


def universe_size(
    decl: DataDecl, env: GroundEnv, depth_bound: int, pointed: bool = False, limit: float = inf
) -> int:
    """len(enumerate_terms(decl, env, depth_bound, pointed)), counted without
    building a term; raises exactly as enumerate_terms does. Counting stops
    at the first depth whose total passes `limit`, so a result above it
    means only "more than `limit`" (the exact count can have billions of
    digits at a large depth)."""
    return _count_terms(_argument_slots(decl, env, depth_bound)[1], depth_bound, pointed, limit)


def _count_terms(
    ctors: list[tuple[str, list[Optional[tuple[str, ...]]]]],
    depth_bound: int,
    pointed: bool,
    limit: float = inf,
) -> int:
    """The number of terms up to the depth bound, or the first total above
    `limit` as counting goes deeper.

    A constructor with k recursive arguments and A atom combinations adds
    A * (S[d-1]**k - S[d-2]**k) terms to layer d >= 2, where S[d] counts
    the terms of depth at most d; with k = 0 it adds A terms to layer 1.
    """
    shapes = [
        (prod(len(labels) for labels in slots if labels is not None), slots.count(None))
        for _, slots in ctors
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
    the declared type. Each layer is built in `itertools.product` blocks
    (see `_layers`), so a type whose constructors have at most one
    recursive argument costs time linear in the depth besides its terms.
    """
    for keys in _layers(_argument_slots(decl, env, depth_bound)[1], depth_bound, pointed):
        pass
    return _materialize(keys)


def _layers(
    ctors: list[tuple[str, list[Optional[tuple[str, ...]]]]], depth_bound: int, pointed: bool
) -> Iterator[list[tuple]]:
    """Builds the universe as hash-consed keys, in enumerate_terms' order,
    and yields the one growing key list after each depth layer. `()` is
    the bottom term, and a node is `(ctor, *args)` with each recursive
    argument the child's universe position and each parameter argument
    the atom's label. Keys hold only str and int, so hashing one runs no
    Python code.

    Layer d >= 2 is built in blocks. A prefix fixes the arguments before
    the first recursive one whose child is in layer d - 1 (`new`): labels,
    and children of depth below d - 1 (`old`) in recursive arguments
    before the last; its block, `product(new, *rest)` with each later
    argument drawn from `below` (= old + new) or its carrier, is built in
    C. Only prefixes that yield a block are visited, so a constructor
    with one recursive argument costs O(1) per layer besides its terms."""
    keys: list[tuple] = [()] if pointed else []
    for name, slots in ctors:
        if None not in slots:
            keys.extend(product((name,), *slots))
    yield keys
    start = 0  # keys[start:] is the newest layer
    for _ in range(2, depth_bound + 1):
        end = len(keys)
        if start == end:
            break
        # A tuple `new` is shared by every block; product() would copy a range.
        old, new, below = range(start), tuple(range(start, end)), range(end)
        for name, slots in ctors:
            if None not in slots:
                continue
            stack = [((name,), 0)]  # (prefix, argument index); ~index marks a block
            while stack:
                prefix, i = stack.pop()
                if i < 0:
                    rest = [below if s is None else s for s in slots[~i + 1 :]]
                    keys.extend(map(prefix.__add__, product(new, *rest)))
                elif slots[i] is not None:
                    stack.extend((prefix + (a,), i + 1) for a in reversed(slots[i]))
                else:
                    stack.append((prefix, ~i))
                    if None in slots[i + 1 :]:  # not the last recursive argument
                        stack.extend((prefix + (c,), i + 1) for c in reversed(old))
        start = end
        yield keys


def _materialize(keys: list[tuple]) -> list[GroundTerm]:
    """The terms the keys stand for, in the same order."""
    terms: list[GroundTerm] = []
    for key in keys:
        args = (terms[a] if isinstance(a, int) else Atom(a) for a in key[1:])
        terms.append(Node(key[0], tuple(args)) if key else BOTTOM)
    return terms


# --- the relativized check ----------------------------------------------------


class _RelativizedChecker:
    """Evaluates one principle over a universe of keys, one predicate at a
    time. Term variables of the declared type range over universe
    positions, and those of a parameter over its carrier's labels.

    The universe has `size` terms, counted before any is built, so
    quantifiers range over positions that may not be built yet. Its keys
    come from `layers` one depth layer at a time: layer 1 at the start,
    and the next one whenever a lookup misses, until the key turns up or
    `layers` is used up (then None). A well-formed key lies one layer
    deeper than its deepest child, so its lookup builds no further; a key
    above the depth bound, or one the declaration cannot build, builds
    every layer before it misses."""

    def __init__(
        self,
        decl: DataDecl,
        labels: Mapping[str, tuple[str, ...]],
        layers: Iterator[list[tuple]],
        size: int,
        formula: Formula,
    ):
        self.decl = decl
        self.layers: Optional[Iterator[list[tuple]]] = layers
        self.size = size
        self.keys: list[tuple] = []
        self.position: dict[tuple, int] = {}
        self._grow()
        self.labels = labels
        self.pred_name, self.conjunct_formulas = self._split(formula)
        self.mask = 0

    def _grow(self) -> None:
        """Build and index the next layer, or set `layers` to None once
        every layer is built."""
        keys = next(self.layers, None)
        if keys is None:
            self.layers = None
            return
        start = len(self.position)
        self.position.update(zip(keys[start:], range(start, len(keys))))
        self.keys = keys

    def _split(self, f: Formula) -> tuple[str, list[Formula]]:
        while isinstance(f, Forall) and isinstance(f.sort, OfKindStar):
            f = f.body
        if not (isinstance(f, Forall) and isinstance(f.sort, PredOver)):
            raise ValueError("formula lacks the predicate binder of a generated principle")
        pred, body = f.var, f.body
        if not isinstance(body, Implies):
            raise ValueError("predicate binder body is not an implication")
        concl = body.consequent
        if not (
            isinstance(concl, Forall)
            and isinstance(concl.sort, OfType)
            and is_recursive_arg(self.decl, concl.sort.ty)
            and type(concl.body) is PredApp
            and type(concl.body.arg) is TVar
            and (concl.body.pred, concl.body.arg.name) == (pred, concl.var)
        ):
            raise ValueError("conclusion does not quantify the declared type")
        return pred, conjuncts(body.antecedent)

    def counterexample(self, mask: int) -> Optional[int]:
        """Position of the first universe element refuting the principle
        under the predicate whose bit i says whether it holds of the term
        at position i, if any."""
        self.mask = mask
        for clause in self.conjunct_formulas:
            if self._eval(clause, {}) is False:
                return None
        missed = ~mask & ((1 << self.size) - 1)
        return (missed & -missed).bit_length() - 1 if missed else None

    def _eval(self, f: Formula, assign: dict[str, int | str]) -> Optional[bool]:
        # None marks an instance that mentions a term outside the universe;
        # such instances are skipped rather than counted either way.
        if isinstance(f, PredApp):
            if f.pred != self.pred_name:
                raise ValueError(f"unexpected predicate {f.pred!r} in clause")
            i = self._ground(f.arg, assign)
            if not isinstance(i, int):  # outside the universe, or an atom
                return None
            return self.mask >> i & 1 == 1
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

    def _sort_range(self, sort) -> Iterable[int | str]:
        if isinstance(sort, OfType):
            ty = sort.ty
            if isinstance(ty, Var):
                try:
                    return self.labels[ty.name]
                except KeyError:
                    raise ValueError(f"unbound type variable {ty.name!r} in clause") from None
            if is_recursive_arg(self.decl, ty):
                return range(self.size)
        raise UnsupportedTypeError(f"cannot range over sort {sort!r}")

    def _ground(self, term, assign: dict[str, int | str]) -> int | str | None:
        """A term's universe position, an atom variable's label, or None for
        a term outside the universe."""
        if isinstance(term, TVar):
            try:
                return assign[term.name]
            except KeyError:
                raise ValueError(f"unbound term variable {term.name!r} in clause") from None
        if isinstance(term, TApp):
            key = (term.ctor, *[self._ground(a, assign) for a in term.args])
        else:
            key = ()
        i = self.position.get(key)
        while i is None and self.layers is not None:
            self._grow()
            i = self.position.get(key)
        return i


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
    """Check one principle; the counterexample, if any, is the first one found.

    Raises UnsupportedTypeError for a declaration outside the enumerable
    fragment, for a universe above the mode's limit, counted before any
    term is built or any predicate drawn, and for a clause nested too
    deeply for the recursive evaluator."""
    decl = principle.decl
    labels, ctors = _argument_slots(decl, env, depth_bound)
    if isinstance(mode, Exhaustive):
        limit, refusal = EXHAUSTIVE_LIMIT, "is too large to check exhaustively; use sampled mode"
    elif isinstance(mode, Sampled):
        limit, refusal = SAMPLED_LIMIT, f"at depth {depth_bound}"
    else:
        raise TypeError(f"not a checking mode: {mode!r}")
    n = _count_terms(ctors, depth_bound, principle.pointed, limit)
    if n > limit:
        raise UnsupportedTypeError(f"universe of more than {limit} terms {refusal}")
    layers = _layers(ctors, depth_bound, principle.pointed)
    checker = _RelativizedChecker(decl, labels, layers, n, principle.formula)
    if isinstance(mode, Sampled):
        rng = random.Random(mode.seed)
        masks: Iterable[int] = (rng.getrandbits(n) if n else 0 for _ in range(mode.count))
    else:
        masks = range(1 << n)
    checked = 0
    for mask in masks:
        checked += 1
        try:
            missed = checker.counterexample(mask)
        except RecursionError:
            # `_eval` recurses once per quantifier and conjunction of a clause.
            raise UnsupportedTypeError("a clause nests too deeply to check") from None
        if missed is not None:
            # Keys follow their children, so the prefix up to the last term named
            # holds the whole witness; mask bit i is digit i of bin(mask) reversed.
            top = max(mask.bit_length(), missed + 1)
            while len(checker.keys) < top:
                checker._grow()
            universe = _materialize(checker.keys[:top])
            holds = tuple(compress(universe, map("1".__eq__, bin(mask)[:1:-1])))
            return SoundnessReport(decl.type_name, n, checked, mode, (holds, universe[missed]))
    return SoundnessReport(decl.type_name, n, checked, mode, None)
