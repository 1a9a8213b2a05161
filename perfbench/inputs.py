"""Seeded input generation for the four workloads.

Declarations are modelled here in the tuple form that the independent
reference generator (`tests/reference_gen.py`) takes as input:
`(type_name, params, [(ctor_name, [type, ...]), ...])`, where a type is
`("simple", name, args)`; a lowercase name without arguments is a type
variable. Nothing in this module imports structind.

Every workload is one list of items, which the runner repeats in passes
and times by each item's median over the passes. The list has the same
cost structure for every seed (the same number of items in each size
class); the seed chooses names, shapes and orders inside those classes. The classes are
sized so that the median and the tail (the 11th-largest item time, the
highest percentile with ten items beyond it) each fall inside one class,
not on the boundary between two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

_LOWER = "bcdfghjkmnpqrsvwxz"
_FOREIGN = ("Maybe", "List", "Pair", "Either", "Map", "Int", "Set", "Vec")
_PARAMS = ("a", "b", "c")


def simple(name, args=()):
    return ("simple", name, tuple(args))


def rec(type_name, params):
    return simple(type_name, [simple(p) for p in params])


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_LOWER) for _ in range(n))


def _fresh(rng: random.Random, prefix: str, taken: set[str], length: int = 3) -> str:
    while True:
        name = prefix + _word(rng, length)
        if name not in taken:
            taken.add(name)
            return name


# --- sources and sizes ----------------------------------------------------------


def type_source(ty) -> str:
    """A type in argument position: applications are parenthesized."""
    _, name, args = ty
    if not args:
        return name
    return "(" + " ".join([name] + [type_source(a) for a in args]) + ")"


def decl_source(decl) -> str:
    name, params, ctors = decl
    head = " ".join([name, *params])
    alts = " | ".join(" ".join([c] + [type_source(t) for t in ts]) for c, ts in ctors)
    return f"data {head} = {alts}\n"


def is_recursive(decl, ty) -> bool:
    return ty[1] == decl[0]


def layer_sizes(decl, depth: int, pointed: bool, atoms_per_param: int = 2) -> list[int]:
    """Number of ground terms at each depth 1..depth, by recurrence.

    Depth counts recursive nesting only, as in the checker. A constructor
    with k recursive arguments and A choices for its parameter positions
    has A * (S(d-1)^k - S(d-2)^k) terms at depth d, where S(j) is the size
    of the universe up to depth j.
    """
    totals = [0, 0]  # S(-1), S(0)
    sizes = []
    for d in range(1, depth + 1):
        layer = 1 if pointed and d == 1 else 0
        for _, arg_types in decl[2]:
            k = sum(1 for t in arg_types if is_recursive(decl, t))
            choices = atoms_per_param ** (len(arg_types) - k)
            if k == 0:
                layer += choices if d == 1 else 0
            else:
                layer += choices * (totals[-1] ** k - totals[-2] ** k)
        sizes.append(layer)
        totals.append(totals[-1] + layer)
    return sizes


# --- emit ---------------------------------------------------------------------------

EMIT_BLOCK = 21  # constructor counts 1..21 occur once per block
EMIT_BLOCKS = 6
EMIT_MAX_ARITY = 12


def _foreign(rng: random.Random, params: tuple[str, ...], depth: int = 0):
    """A type headed by some other type constructor; it never mentions the declared type."""
    n_args = 0 if depth >= 2 else rng.choice((0, 1, 1, 2))
    args = [
        simple(rng.choice(params)) if params and rng.random() < 0.6 else _foreign(rng, params, depth + 1)
        for _ in range(n_args)
    ]
    return simple(rng.choice(_FOREIGN), args)


def _emit_arg(rng: random.Random, name: str, params: tuple[str, ...]):
    roll = rng.random()
    if roll < 0.3:
        return rec(name, params)
    if params and roll < 0.65:
        return simple(rng.choice(params))
    return _foreign(rng, params)


def emit_decls(seed: int) -> list:
    """Blocks of 21 declarations in the reference generator's fragment.

    Each block holds one declaration with each constructor count n from 1
    to 21. Its constructors take the arities 0, 1, .., 12, 0, 1, .. (the
    first n of them, shuffled) and it has n mod 4 type parameters, so a
    declaration's size follows from n and every block costs about the
    same; the seed decides the argument types, the order and all names.
    The one-constructor declaration is therefore nullary, which also
    keeps emit clear of a rendering defect: text and LaTeX leave the
    clause quantifier of a one-constructor type with arguments
    unparenthesized (`∀t1:T. (..) ⇒ ∀t:T. (P t)`), which reads back as
    another formula.
    """
    rng = random.Random(f"emit:{seed}")
    taken: set[str] = set()
    decls = []
    for _ in range(EMIT_BLOCKS):
        counts = list(range(1, EMIT_BLOCK + 1))
        rng.shuffle(counts)
        for n_ctors in counts:
            name = _fresh(rng, "T", taken, 4)
            params = _PARAMS[: n_ctors % 4]
            arities = [i % (EMIT_MAX_ARITY + 1) for i in range(n_ctors)]
            rng.shuffle(arities)
            ctor_names: set[str] = set()
            ctors = [
                (_fresh(rng, "K", ctor_names), [_emit_arg(rng, name, params) for _ in range(arity)])
                for arity in arities
            ]
            decls.append((name, params, ctors))
    return decls


# --- prove and refute ------------------------------------------------------------

CORPUS = {
    "Nat": ("Nat", (), [("Z", []), ("S", ["@"])]),
    "Bool": ("Bool", (), [("T", []), ("F", [])]),
    "List": ("List", ("a",), [("Nil", []), ("Cons", ["a", "@"])]),
    "Tsil": ("Tsil", ("a",), [("Snoc", ["@", "a"]), ("Lin", [])]),
    "BTree": ("BTree", ("a",), [("Leaf", ["a"]), ("Fork", ["@", "@"])]),
    "SwapTree": ("SwapTree", ("a", "b"), [("Leaf", []), ("Node", ["a", "@ba", "@ba"])]),
    "Maybe": ("Maybe", ("a",), [("Nothing", []), ("Just", ["a"])]),
    "STree": ("STree", ("a",), [("Leaf", []), ("Node", ["a", "@", "@"])]),
}


def corpus_decl(key: str):
    name, params, ctors = CORPUS[key]

    def ty(spec):
        if spec == "@":
            return rec(name, params)
        if spec == "@ba":
            return rec(name, tuple(reversed(params)))
        return simple(spec)

    return (name, params, [(c, [ty(s) for s in ts]) for c, ts in ctors])


def renamed(decl, rng: random.Random, taken: set[str]):
    """`decl` with fresh type and constructor names (the old ones plus two letters)."""
    name, params, ctors = decl
    new = _fresh(rng, name, taken, 2)
    ctor_names: set[str] = set()

    def ty(t):
        return simple(new if t[1] == name else t[1], [ty(a) for a in t[2]])

    return (new, params, [(_fresh(rng, c, ctor_names, 2), [ty(t) for t in ts]) for c, ts in ctors])


def random_small_decl(rng: random.Random, taken: set[str]):
    """A seeded 2- or 3-constructor type inside the checker's fragment."""
    name = _fresh(rng, "T", taken, 3)
    params = _PARAMS[: rng.randrange(3)]
    ctor_names: set[str] = set()
    n_ctors = rng.choice((2, 3))
    ctors = []
    for i in range(n_ctors):
        if i == 0:  # a base constructor keeps the universe nonempty
            n_rec = 0
        else:
            n_rec = rng.choice((1, 1, 2))
        arg_types = [rec(name, params) for _ in range(n_rec)]
        n_atoms = rng.choice((0, 0, 1)) if params else 0
        arg_types += [simple(rng.choice(params)) for _ in range(n_atoms)]
        rng.shuffle(arg_types)
        ctors.append((_fresh(rng, "K", ctor_names, 2), arg_types))
    rng.shuffle(ctors)
    return (name, params, ctors)


def universe_size(decl, depth: int, pointed: bool) -> int:
    return sum(layer_sizes(decl, depth, pointed))


def clause_instances(decl, size: int, atoms_per_param: int = 2) -> int:
    """Quantifier instances of all constructor clauses over a universe of `size` terms."""
    total = 0
    for _, arg_types in decl[2]:
        k = sum(1 for t in arg_types if is_recursive(decl, t))
        total += size**k * atoms_per_param ** (len(arg_types) - k)
    return total


def configs_up_to(decl, limit: int):
    """(depth, pointed, |U|) for every configuration with 1 <= |U| <= limit."""
    out = []
    for pointed in (False, True):
        depth = 1
        while True:
            n = universe_size(decl, depth, pointed)
            if n > limit:
                break
            if n >= 1:
                out.append((depth, pointed, n))
            prev = n
            depth += 1
            if universe_size(decl, depth, pointed) == prev:
                break  # the universe stopped growing
    return out


# --- items --------------------------------------------------------------------------


@dataclass
class Item:
    """One unit of work; `kind` says which program entry point it calls."""

    kind: str  # "emit", "check" or "refute"
    decl: tuple
    depth: int = 0
    pointed: bool = False
    samples: int = 0
    path: str = ""
    deleted: int = -1  # refute: index of the constructor whose clause is deleted
    extra: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.decl[0]


def small_pool(seed: int, count: int = 48) -> list:
    """The seeded 2- and 3-constructor declarations shared by prove and refute."""
    rng = random.Random(f"small:{seed}")
    taken: set[str] = set()
    return [random_small_decl(rng, taken) for _ in range(count)]


def emit_items(seed: int) -> list[Item]:
    return [Item("emit", d) for d in emit_decls(seed)]


def _corpus_items(spec, rng: random.Random, taken: set[str]) -> list[Item]:
    return [Item("check", renamed(corpus_decl(k), rng, taken), d, p) for k, d, p in spec]


# Prove: 54 items in six cost classes, from the top:
#   3 corpus items with |U| 10, the costliest;
#   12 Nats at depth 9, among which the tail falls;
#   6 Nats with |U| 8, pointed and not;
#   12 Lists at depth 3 (|U| 7), among which the median falls;
#   6 items with |U| 5..6: three corpus and three seeded;
#   15 items with |U| 1..4: five corpus and ten seeded.
# No item has |U| above 10 (about 40 ms), so that a run holds enough
# passes for steady medians: at |U| 16 one item takes over a second.
# Corpus items are renamed. A seeded item's clauses have at most
# PROVE_SEEDED_INSTANCES quantifier instances in all, so that its cost
# stays in its class.
PROVE_CORPUS = (
    [("SwapTree", 2, True), ("STree", 2, True), ("Nat", 10, False)]
    + [("Nat", 9, False)] * 12
    + [("Nat", 8, False)] * 3 + [("Nat", 4, True)] * 3
    + [("List", 3, False)] * 12
    + [("BTree", 2, False), ("List", 2, True), ("Tsil", 2, True)]
    + [("Bool", 1, True), ("Maybe", 1, True), ("List", 2, False), ("Nat", 2, True), ("BTree", 1, True)]
)
# (smallest |U|, largest |U|, count)
PROVE_SEEDED = [(5, 6, 3), (1, 4, 10)]
PROVE_SEEDED_INSTANCES = 30


def prove_items(seed: int) -> list[Item]:
    rng = random.Random(f"prove:{seed}")
    pool = small_pool(seed)
    taken = {d[0] for d in pool}
    items = _corpus_items(PROVE_CORPUS, rng, taken)
    configs = [
        (decl, depth, pointed, n)
        for decl in pool
        for depth, pointed, n in configs_up_to(decl, 16)
        if clause_instances(decl, n) <= PROVE_SEEDED_INSTANCES
    ]
    for small, large, count in PROVE_SEEDED:
        fits = [(decl, depth, pointed) for decl, depth, pointed, n in configs if small <= n <= large]
        for _ in range(count):
            decl, depth, pointed = rng.choice(fits)
            items.append(Item("check", decl, depth, pointed))
    rng.shuffle(items)
    return items


# Refute: 270 mutants, six groups of 45 in these cost classes, from the top:
#   3 mutants of pointed Nat without the zero clause, whose least model
#     lies late in canonical order: the brute-force checker tries 1,366
#     predicates at |U| 12 (twice) and 342 at |U| 10; the tail falls among
#     the former;
#   12 mutants that need 22 to 86 predicates over |U| 6..8, three each of
#     pointed Nat at depths 3 and 4 and of T = L | A T | B T without A,
#     pointed at depth 2 and not at depth 3;
#   then seeded mutants refuted within the first three predicates, as most
#   mutants are, whose cost grows with |U|: 4 with |U| 13..16, 7 with
#   |U| 9..11, and 19 with |U| 1..8; the median falls among those with
#   |U| 9..11 and the cheapest of the 12 above.
# Only the cheap classes are seeded, so the seed moves their choice but
# hardly the workload's cost; the fixed mutants are renamed in each group.
# Mutants that need more predicates (T without A needs 16,454 at |U| 15)
# cost 0.1 to 0.5 s each, which would leave a run few passes.
T3 = ("T", (), [("L", []), ("A", [rec("T", ())]), ("B", [rec("T", ())])])
REFUTE_FIXED = (
    [("Nat", 6, True, 0)] * 2 + [("Nat", 5, True, 0)]
    + [("Nat", 3, True, 0), ("Nat", 4, True, 0), ("T3", 2, True, 1), ("T3", 3, False, 1)] * 3
)
# (fewest predicates, most predicates, smallest |U|, largest |U|, count)
REFUTE_CLASSES = [(1, 3, 13, 16, 4), (1, 3, 9, 11, 7), (1, 3, 1, 8, 19)]
REFUTE_GROUPS = 6


def mutants(decl, limit: int = 16):
    """(depth, pointed, deleted constructor, predicates) for every refutable mutant."""
    from oracle import enumerate_universe, least_model, predicates_to_least_model

    names = [c for c, _ in decl[2]]
    out = []
    for depth, pointed, _ in configs_up_to(decl, limit):
        terms = enumerate_universe(decl, depth, pointed)
        for i, name in enumerate(names):
            model = least_model(decl, terms, pointed, set(names) - {name})
            if len(model) < len(terms):
                out.append((depth, pointed, i, predicates_to_least_model(terms, model)))
    return out


def refute_items(seed: int) -> list[Item]:
    rng = random.Random(f"refute:{seed}")
    pool = small_pool(seed)
    taken = {d[0] for d in pool}
    classes: list[list] = [[] for _ in REFUTE_CLASSES]
    for decl in pool:
        for depth, pointed, deleted, preds in mutants(decl):
            size = universe_size(decl, depth, pointed)
            for bucket, (lo, hi, small, large, _) in zip(classes, REFUTE_CLASSES):
                if lo <= preds <= hi and small <= size <= large:
                    bucket.append((decl, depth, pointed, deleted))
    fixed = {"T3": T3, "Nat": corpus_decl("Nat")}
    items = []
    for _ in range(REFUTE_GROUPS):
        items += [
            Item("refute", renamed(fixed[k], rng, taken), d, p, deleted=i)
            for k, d, p, i in REFUTE_FIXED
        ]
        for bucket, (*_, count) in zip(classes, REFUTE_CLASSES):
            for _ in range(count):
                decl, depth, pointed, deleted = rng.choice(bucket)
                items.append(Item("refute", decl, depth, pointed, deleted=deleted))
    rng.shuffle(items)
    return items


def universe_items(seed: int) -> list[Item]:
    """Sampled checks of trees, with |U| from 147 to 1,446.

    40 items, from the top: fourteen BTrees at depth 4 (1,446 terms, 4
    sampled predicates) among which the tail falls; fourteen STrees and
    SwapTrees at depth 4 (723 terms, 4 predicates) among which the median
    falls; and twelve pointed trees at depth 3 (147 to 202 terms, 8
    predicates). The seed picks the names and the order. Enumerating the
    universe dominates. Larger universes (pointed BTree at depth 4 has
    21,612 terms and takes about a second) would leave a run few passes.
    """
    rng = random.Random(f"universe:{seed}")
    taken: set[str] = set()
    # Which predicates get sampled changes how early each one is refuted,
    # so each kind of item keeps one sampling seed: items of a kind then
    # cost the same, and the percentiles fall inside a kind, not between two.
    plan = [("BTree", 4, False, 4, 3001)] * 14
    plan += [("STree", 4, False, 4, 1009), ("SwapTree", 4, False, 4, 2017)] * 7
    plan += [("BTree", 3, True, 8, 4001), ("STree", 3, True, 8, 1009), ("SwapTree", 3, True, 8, 2017)] * 4
    items = []
    for key, depth, pointed, samples, sample_seed in plan:
        decl = renamed(corpus_decl(key), rng, taken)
        item = Item("check", decl, depth, pointed, samples)
        item.extra["sample_seed"] = sample_seed
        items.append(item)
    rng.shuffle(items)
    return items


def materialize(items: list[Item], workdir: Path) -> None:
    """Write one declaration file per item that goes through the CLI."""
    for i, item in enumerate(it for it in items if it.kind != "refute"):
        path = workdir / f"decl{i:04d}.hs"
        path.write_text(decl_source(item.decl), encoding="utf-8")
        item.path = str(path)
