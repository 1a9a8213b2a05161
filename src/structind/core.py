"""AST for data declarations, types, terms, and formulas, plus equivalence utilities.

Binders live in three disjoint namespaces: kind-* binders bind type
variables, predicate-sort binders bind predicate names, and everything
else binds term variables. Constructor and type-constructor names are
constants, never variables.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat


# --- identifiers -------------------------------------------------------------
# Haskell lexical convention: type and constructor names start uppercase,
# type and term variables start lowercase.

_NAME_TAIL = re.compile(r"[\w']*")  # \w is exactly str.isalnum() or "_"


def valid_name(name: str) -> bool:
    return bool(name) and name[0].isalpha() and _NAME_TAIL.fullmatch(name, 1) is not None


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


TypeExpr = Var | App | TupleType | Arrow


def ty_con(ty: TypeExpr) -> str | None:
    """Head constructor name of an applied type, None for everything else."""
    if isinstance(ty, App):
        return ty.head
    return None


def _type_nodes(types: list) -> list:
    """Every node of the types, breadth first, without recursing."""
    nodes = list(types)
    for ty in nodes:  # the loop also visits what it appends
        if ty.__class__ is App:
            nodes += ty.args
        elif ty.__class__ is TupleType:
            nodes += ty.elems
        elif ty.__class__ is Arrow:
            nodes += ty.domain, ty.codomain
    return nodes


def type_vars(ty: TypeExpr) -> set[str]:
    return {t.name for t in _type_nodes([ty]) if t.__class__ is Var}


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
        repeated = [n for n, k in Counter(c.name for c in self.constructors).items() if k > 1]
        if repeated:
            raise ValueError(f"duplicate constructor {repeated[0]!r}")
        args = [(ctor, ty) for ctor in self.constructors for ty in ctor.arg_types]
        if any(type(t) is Var and t.name not in seen for t in _type_nodes([a for _, a in args])):
            # Name the least loose variable of the first offending argument.
            ctor, loose = next((c, type_vars(ty) - seen) for c, ty in args if type_vars(ty) - seen)
            raise ValueError(
                f"type variable {min(loose)!r} in constructor "
                f"{ctor.name} is not a parameter of {self.type_name}"
            )


def _unchecked(cls, **fields):
    """A `cls` built without its `__post_init__`, for a reader that made its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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


@dataclass(frozen=True)
class Principle:
    """A generated induction principle together with its per-constructor clauses."""

    decl: DataDecl
    pointed: bool
    formula: Formula
    clauses: tuple[tuple[str, Formula], ...]


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


# --- free variables -------------------------------------------------------------


_NAMESPACES = {OfKindStar: "type", PredOver: "pred"}


def _binder_namespace(sort: Sort) -> str:
    return _NAMESPACES.get(sort.__class__, "term")


def _sort_type_vars(sort: Sort) -> set[str]:
    if isinstance(sort, OfKindStar):
        return set()
    return type_vars(sort.ty)


def free_vars(f: Formula) -> set[str]:
    """Free variables of a formula, across all three namespaces. What is
    still to visit waits on a stack, with the binders in scope there."""
    free: set[str] = set()
    stack: list[tuple] = [(f, frozenset())]
    while stack:
        x, bound = stack.pop()
        if isinstance(x, TVar):
            if ("term", x.name) not in bound:
                free.add(x.name)
        elif isinstance(x, PredApp):
            if ("pred", x.pred) not in bound:
                free.add(x.pred)
            stack.append((x.arg, bound))
        elif isinstance(x, And):
            stack += (x.left, bound), (x.right, bound)
        elif isinstance(x, Implies):
            stack += (x.antecedent, bound), (x.consequent, bound)
        elif isinstance(x, TApp):
            stack += ((y, bound) for y in x.args)
        elif isinstance(x, Forall):
            free |= {a for a in _sort_type_vars(x.sort) if ("type", a) not in bound}
            stack.append((x.body, bound | {(_binder_namespace(x.sort), x.var)}))
        elif not isinstance(x, (Truth, Bottom)):
            raise TypeError(f"not a formula: {x!r}")
    return free


# --- equivalence ---------------------------------------------------------------------


def alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    return _Match(False).equal(f1, f2)


def prefix_perm_eq(f1: Formula, f2: Formula) -> bool:
    """alpha_eq modulo reordering within each chain of Forall binders, one
    swap of adjacent commuting binders at a time (see `_commute`)."""
    return _Match(True).equal(f1, f2)


def _commute(outer: tuple, inner: tuple) -> bool:
    """Whether two adjacent binders (name, sort, ...) can swap without
    changing meaning: they do not bind the same name in one namespace, and
    neither binds a type variable that the other's sort mentions."""
    (v1, s1), (v2, s2) = outer[:2], inner[:2]
    ns1, ns2 = _binder_namespace(s1), _binder_namespace(s2)
    return (
        (ns1, v1) != (ns2, v2)
        and not (ns1 == "type" and v1 in _sort_type_vars(s2))
        and not (ns2 == "type" and v2 in _sort_type_vars(s1))
    )


def _open(f: Forall, env: dict, binders: list[tuple]) -> tuple[dict, Formula]:
    """Number the chain of binders from `f` on in `binders`, each with the
    environment its sort is read in, and return the chain's environment and
    body. Sorts read only type binders, so they share one environment until
    a type binder binds in a copy."""
    env = dict(env)
    while f.__class__ is Forall:
        ns = _binder_namespace(f.sort)
        if ns == "type":
            env = dict(env)
        binders.append((f.var, f.sort, env))
        env[ns, f.var] = len(binders) - 1
        f = f.body
    return env, f


def _erased(run: range, binder: tuple) -> tuple:
    """The run, and the binder's sort class and type nodes, with each type
    variable that the sort's environment binds written as None: equal for
    two binders that can pair."""
    _, sort, env = binder
    nodes = () if sort.__class__ is OfKindStar else _type_nodes([sort.ty])
    return run, sort.__class__, *(
        (None if ("type", t.name) in env else t.name) if t.__class__ is Var
        else getattr(t, "head", t.__class__)
        for t in nodes
    )


class _Match:
    """One walk over two formulas, and a pairing of the binders of formula 1
    with binders of the same run in formula 2. A run is a group of binders
    that may be reordered: each binder alone for alpha_eq, each maximal
    chain of Foralls for prefix_perm_eq. Binders are numbered in the order
    the walk opens them, alike on both sides, and environments map
    (namespace, name) to the number in scope. The formulas are equivalent
    when a pairing exists under which each occurrence of a binder stands
    against one of its pair, paired sorts agree, and swaps that `_commute`
    allows bring each run of formula 2 to formula 1's order."""

    def __init__(self, runs: bool):
        self.runs = runs
        self.binders1: list[tuple] = []  # by number: name, sort, the sort's environment
        self.binders2: list[tuple] = []
        self.run: list[range] = []  # by number, the numbers of the binder's run
        self.pairs: dict[int, int] = {}  # binder of formula 1 -> binder of formula 2
        self.taken: set[int] = set()  # the binders of formula 2 in a pair

    def equal(self, f1: Formula, f2: Formula) -> bool:
        """Pair the binders that occur, which leaves no choice, then the
        rest in the order they are numbered, backtracking over `tries`, a
        generator of pairings per binder paired."""
        if not self._agree([(f1, f2, {}, {})]):
            return False
        if self.runs and not all(self._ordered(run) for run in set(self.run)):
            return False
        free = [b for b in range(len(self.binders1)) if b not in self.pairs]
        if free:
            # An unused binder pairs only with an unpaired one of its own run
            # whose sort agrees, so each run's two multisets of sorts must match.
            unpaired = Counter(_erased(self.run[b], self.binders1[b]) for b in free)
            unused2 = (b for b in range(len(self.binders2)) if b not in self.taken)
            unpaired.subtract(_erased(self.run[b], self.binders2[b]) for b in unused2)
            if any(unpaired.values()):
                return False
        tries = []
        while len(tries) < len(free):
            tries.append(self._candidates(free[len(tries)]))
            while tries and not next(tries[-1], False):
                tries.pop()
            if not tries:
                return False
        return True

    def _agree(self, stack: list[tuple]) -> bool:
        """Whether each pair of formulas, types or terms on the stack agrees,
        each side in its environment."""
        pairs = self.pairs
        while stack:
            x1, x2, env1, env2 = stack.pop()
            cls = x1.__class__
            if cls is not x2.__class__:
                return False
            if cls is TVar:
                ns, n1, n2 = "term", x1.name, x2.name
            elif cls is Var:
                ns, n1, n2 = "type", x1.name, x2.name
            elif cls is PredApp:
                ns, n1, n2 = "pred", x1.pred, x2.pred
                stack.append((x1.arg, x2.arg, env1, env2))
            else:
                if cls is App:
                    if x1.head != x2.head or len(x1.args) != len(x2.args):
                        return False
                    if x1.args:
                        stack += zip(x1.args, x2.args, repeat(env1), repeat(env2))
                elif cls is TApp:
                    if x1.ctor != x2.ctor or len(x1.args) != len(x2.args):
                        return False
                    if x1.args:
                        stack += zip(x1.args, x2.args, repeat(env1), repeat(env2))
                elif cls is And:
                    stack += (x1.right, x2.right, env1, env2), (x1.left, x2.left, env1, env2)
                elif cls is Implies:
                    stack.append((x1.consequent, x2.consequent, env1, env2))
                    stack.append((x1.antecedent, x2.antecedent, env1, env2))
                elif cls is TupleType:
                    if len(x1.elems) != len(x2.elems):
                        return False
                    stack += zip(x1.elems, x2.elems, repeat(env1), repeat(env2))
                elif cls is Arrow:
                    stack.append((x1.codomain, x2.codomain, env1, env2))
                    stack.append((x1.domain, x2.domain, env1, env2))
                elif cls is Forall:
                    first = len(self.binders1)
                    env1, body1 = _open(x1, env1, self.binders1)
                    env2, body2 = _open(x2, env2, self.binders2)
                    end = len(self.binders1)
                    if len(self.binders2) != end:
                        return False
                    if self.runs:
                        self.run += [range(first, end)] * (end - first)
                    else:
                        self.run += map(range, range(first, end), range(first + 1, end + 1))
                    stack.append((body1, body2, env1, env2))
                elif cls is not Truth and cls is not Bottom:
                    return False
                continue
            # An occurrence of a name: bound on both sides to a pair, or free on both.
            b1, b2 = env1.get((ns, n1)), env2.get((ns, n2))
            if b1 is None or b2 is None:
                if b1 is not b2 or n1 != n2:
                    return False
            elif pairs.get(b1) != b2 and not self._pair(b1, b2, stack):
                return False
        return True

    def _pair(self, b1: int, b2: int, stack: list[tuple]) -> bool:
        """Whether binders b1 and b2 are, or can become, a pair. Pairing them
        puts the types of their sorts on the stack to compare."""
        if b1 in self.pairs:
            return self.pairs[b1] == b2
        (_, sort1, env1), (_, sort2, env2) = self.binders1[b1], self.binders2[b2]
        if b2 in self.taken or b2 not in self.run[b1] or sort1.__class__ is not sort2.__class__:
            return False
        self.pairs[b1] = b2
        self.taken.add(b2)
        if sort1.__class__ is not OfKindStar:
            stack.append((sort1.ty, sort2.ty, env1, env2))
        return True

    def _ordered(self, run: range) -> bool:
        """Whether insertion sort brings the run's pairs so far from formula
        1's order to formula 2's by swaps that `_commute` allows. It swaps
        each two binders out of order once."""
        order = [self.pairs[b] for b in run if b in self.pairs]
        for i, b in enumerate(order):
            while i and order[i - 1] > b:
                if not _commute(self.binders2[b], self.binders2[order[i - 1]]):
                    return False
                order[i], i = order[i - 1], i - 1
            order[i] = b
        return True

    def _candidates(self, b1: int):
        """Pair b1 in turn with each binder of its run in formula 2 that it
        can pair with and that keeps the run in order, yielding after each.
        The sort of b1 reads only binders numbered before it, paired by now,
        so pairing b1 pairs nothing else."""
        for b2 in self.run[b1]:
            stack: list[tuple] = []
            if b2 in self.taken or not self._pair(b1, b2, stack):
                continue
            if self._agree(stack) and self._ordered(self.run[b1]):
                yield True
            self.taken.remove(self.pairs.pop(b1))
