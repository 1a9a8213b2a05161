"""AST for data declarations, types, terms, and formulas, plus equivalence utilities.

Binders live in three disjoint namespaces: kind-* binders bind type
variables, predicate-sort binders bind predicate names, and everything
else binds term variables. Constructor and type-constructor names are
constants, never variables.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
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


# --- nodes ---------------------------------------------------------------------


class _Node:
    """An immutable AST node, compared, hashed, printed and pickled by its
    fields: the names in `__slots__`, which `__init__` stores through the
    slots' setters (`_setters`), past the frozen `__setattr__`. To
    `dataclasses` a node class is the dataclass its `__init__` describes."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        init = cls.__init__
        cls.__annotations__ = {name: init.__annotations__[name] for name in cls.__slots__}
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        fields = dataclass(init=False, repr=False, eq=False)(cls).__dataclass_fields__
        defaults = getattr(init, "__defaults__", None) or ()
        for name, default in zip(reversed(cls.__slots__), reversed(defaults)):
            fields[name].default = default

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    @property
    def __dict__(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _unchecked(cls, *values):
    """A `cls` built without the checks of its `__init__`, for a reader that made them."""
    obj = object.__new__(cls)
    for store, value in zip(cls._setters, values):
        store(obj, value)
    return obj


# --- type expressions ---------------------------------------------------------


class Var(_Node):
    """A type variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _Var_name(self, name)


class App(_Node):
    """A named type constructor applied to zero or more arguments."""

    __slots__ = ("head", "args")

    def __init__(self, head: str, args: tuple[TypeExpr, ...] = ()):
        _App_head(self, head)
        _App_args(self, args)


class TupleType(_Node):
    __slots__ = ("elems",)

    def __init__(self, elems: tuple[TypeExpr, ...]):
        if len(elems) < 2:
            raise ValueError("tuple types need at least two components")
        _TupleType_elems(self, elems)


class Arrow(_Node):
    __slots__ = ("domain", "codomain")

    def __init__(self, domain: TypeExpr, codomain: TypeExpr):
        _Arrow_domain(self, domain)
        _Arrow_codomain(self, codomain)


[_Var_name] = Var._setters
_App_head, _App_args = App._setters
[_TupleType_elems] = TupleType._setters
_Arrow_domain, _Arrow_codomain = Arrow._setters

TypeExpr = Var | App | TupleType | Arrow


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


class ConstructorDecl(_Node):
    __slots__ = ("name", "arg_types")

    def __init__(self, name: str, arg_types: tuple[TypeExpr, ...] = ()):
        if not is_upper_name(name):
            raise ValueError(f"constructor name {name!r} must start uppercase")
        _ConstructorDecl_name(self, name)
        _ConstructorDecl_arg_types(self, arg_types)

    @property
    def arity(self) -> int:
        return len(self.arg_types)


class DataDecl(_Node):
    __slots__ = ("type_name", "type_params", "constructors")

    def __init__(
        self, type_name: str, type_params: tuple[str, ...], constructors: tuple[ConstructorDecl, ...]
    ):
        if not is_upper_name(type_name):
            raise ValueError(f"type name {type_name!r} must start uppercase")
        seen: set[str] = set()
        for p in type_params:
            if not is_lower_name(p):
                raise ValueError(f"type parameter {p!r} must start lowercase")
            if p in seen:
                raise ValueError(f"duplicate type parameter {p!r}")
            seen.add(p)
        if not constructors:
            raise ValueError(f"type {type_name} declares no constructors")
        repeated = [n for n, k in Counter(c.name for c in constructors).items() if k > 1]
        if repeated:
            raise ValueError(f"duplicate constructor {repeated[0]!r}")
        args = [(ctor, ty) for ctor in constructors for ty in ctor.arg_types]
        if any(type(t) is Var and t.name not in seen for t in _type_nodes([a for _, a in args])):
            # Name the least loose variable of the first offending argument.
            ctor, loose = next((c, type_vars(ty) - seen) for c, ty in args if type_vars(ty) - seen)
            raise ValueError(
                f"type variable {min(loose)!r} in constructor "
                f"{ctor.name} is not a parameter of {type_name}"
            )
        _DataDecl_type_name(self, type_name)
        _DataDecl_type_params(self, type_params)
        _DataDecl_constructors(self, constructors)


_ConstructorDecl_name, _ConstructorDecl_arg_types = ConstructorDecl._setters
_DataDecl_type_name, _DataDecl_type_params, _DataDecl_constructors = DataDecl._setters


# --- terms ---------------------------------------------------------------------


class TVar(_Node):
    """A term variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _TVar_name(self, name)


class TApp(_Node):
    """A constructor applied to zero or more argument terms."""

    __slots__ = ("ctor", "args")

    def __init__(self, ctor: str, args: tuple[Term, ...] = ()):
        _TApp_ctor(self, ctor)
        _TApp_args(self, args)


class Bottom(_Node):
    """The undefined value of a pointed type."""

    __slots__ = ()


[_TVar_name] = TVar._setters
_TApp_ctor, _TApp_args = TApp._setters

Term = TVar | TApp | Bottom

BOTTOM = Bottom()


# --- sorts and formulas ----------------------------------------------------------


class OfKindStar(_Node):
    """Binder annotation for a type variable."""

    __slots__ = ()


class OfType(_Node):
    """Binder annotation for a term variable of the given type."""

    __slots__ = ("ty",)

    def __init__(self, ty: TypeExpr):
        _OfType_ty(self, ty)


class PredOver(_Node):
    """Binder annotation for a predicate over the given type."""

    __slots__ = ("ty",)

    def __init__(self, ty: TypeExpr):
        _PredOver_ty(self, ty)


[_OfType_ty], [_PredOver_ty] = OfType._setters, PredOver._setters

Sort = OfKindStar | OfType | PredOver

OF_KIND_STAR = OfKindStar()


class PredApp(_Node):
    __slots__ = ("pred", "arg")

    def __init__(self, pred: str, arg: Term):
        _PredApp_pred(self, pred)
        _PredApp_arg(self, arg)


class And(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _And_left(self, left)
        _And_right(self, right)


class Implies(_Node):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        _Implies_antecedent(self, antecedent)
        _Implies_consequent(self, consequent)


class Forall(_Node):
    __slots__ = ("var", "sort", "body")

    def __init__(self, var: str, sort: Sort, body: Formula):
        _Forall_var(self, var)
        _Forall_sort(self, sort)
        _Forall_body(self, body)


_PredApp_pred, _PredApp_arg = PredApp._setters
_And_left, _And_right = And._setters
_Implies_antecedent, _Implies_consequent = Implies._setters
_Forall_var, _Forall_sort, _Forall_body = Forall._setters

Formula = PredApp | And | Implies | Forall


class Principle(_Node):
    """A generated induction principle together with its per-constructor clauses."""

    __slots__ = ("decl", "pointed", "formula", "clauses")

    def __init__(
        self, decl: DataDecl, pointed: bool, formula: Formula, clauses: tuple[tuple[str, Formula], ...]
    ):
        _Principle_decl(self, decl)
        _Principle_pointed(self, pointed)
        _Principle_formula(self, formula)
        _Principle_clauses(self, clauses)


_Principle_decl, _Principle_pointed, _Principle_formula, _Principle_clauses = Principle._setters


# --- free variables -------------------------------------------------------------


_NAMESPACES = {OfKindStar: "type", PredOver: "pred"}


def _binder_namespace(sort: Sort) -> str:
    return _NAMESPACES.get(sort.__class__, "term")


def _sort_type_vars(sort: Sort) -> set[str]:
    if isinstance(sort, OfKindStar):
        return set()
    return type_vars(sort.ty)


def free_vars(f: Formula) -> set[str]:
    """Free variables of a formula, across all three namespaces."""
    return _names(f)[0]


def _names(f: Formula) -> tuple[set[str], set[str]]:
    """The free variables of a formula, and the names its binders bind. What
    is still to visit waits on a stack, with the binders in scope there."""
    free, binders = set(), set()
    stack: list[tuple] = [(f, set())]
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
            bound = set(bound)  # one copy for the whole chain of binders
            while isinstance(x, Forall):
                free.update(a for a in _sort_type_vars(x.sort) if ("type", a) not in bound)
                bound.add((_binder_namespace(x.sort), x.var))
                binders.add(x.var)
                x = x.body
            stack.append((x, bound))
        elif not isinstance(x, Bottom):
            raise TypeError(f"not a formula: {x!r}")
    return free, binders


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
    body. The chain binds in one copy of `env`, which its binders share.
    Sorts read only type binders, and a type binder's own sort reads
    nothing; so before a type binder binds, each binder whose sort was read
    since the last one gets its own environment of the names it reads."""
    env, read = dict(env), []
    while f.__class__ is Forall:
        ns = _binder_namespace(f.sort)
        if ns != "type":
            read.append(len(binders))
        elif read:
            for b in read:
                var, sort, _ = binders[b]
                names = [("type", a) for a in _sort_type_vars(sort)]
                binders[b] = var, sort, {k: env[k] for k in names if k in env}
            read = []
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
                elif cls is not Bottom:
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
