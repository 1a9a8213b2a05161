"""The iterative equivalence walk of `structind.core` against the recursive
reference in `reference_equiv.py`, and the inputs the reference cannot
take: long chains of connectives and long or wide chains of binders."""

import functools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_equiv
import strategies
from formula_shape import alternating_chain, subformulas
from line_count import lines_run
from structind import core
from structind.core import (
    And,
    App,
    BOTTOM,
    Forall,
    Formula,
    Implies,
    OF_KIND_STAR,
    OfType,
    PredApp,
    PredOver,
    TVar,
    Var,
    alpha_eq,
    free_vars,
    prefix_perm_eq,
)
from structind.generator import GenOptions, induction_principle
from structind.parser import parse_decl
from structind.render import parse_sexpr, render_sexpr


def shuffle_chains(f: Formula, rng: random.Random) -> Formula:
    """`f` with every maximal chain of Forall binders in a random order,
    whether or not the binders commute."""
    if isinstance(f, Forall):
        chain = []
        while isinstance(f, Forall):
            chain.append((f.var, f.sort))
            f = f.body
        rng.shuffle(chain)
        return close_over(chain, shuffle_chains(f, rng))
    if isinstance(f, And):
        return And(shuffle_chains(f.left, rng), shuffle_chains(f.right, rng))
    if isinstance(f, Implies):
        return Implies(shuffle_chains(f.antecedent, rng), shuffle_chains(f.consequent, rng))
    return f


def close_over(chain, body: Formula) -> Formula:
    for var, sort in reversed(chain):
        body = Forall(var, sort, body)
    return body


def assert_agrees(f: Formula, g: Formula) -> None:
    assert alpha_eq(f, g) == reference_equiv.alpha_eq(f, g), (f, g)
    assert prefix_perm_eq(f, g) == reference_equiv.prefix_perm_eq(f, g), (f, g)


# A closed leaf that names no binder of these tests.
LEAF = PredApp("Q", BOTTOM)

# Few names and sorts, so that chains often bind one name twice, bind
# binders that nothing uses, and have sorts that mention their type binders.
_NAMES = ("x", "y", "a", "b", "P")
_SORTS = (
    OF_KIND_STAR,
    OfType(Var("a")),
    OfType(Var("b")),
    OfType(App("N")),
    OfType(App("L", (Var("b"),))),
    PredOver(Var("a")),
    PredOver(App("N")),
)


def adversarial_formula(rng: random.Random, nested: bool = True) -> Formula:
    """A chain of 1-6 binders over a body that uses some of the names, and
    sometimes holds a chain of its own. Some outer chains bind the type
    variables a and b first, and hold a chain whose sorts mention them
    where the body does not."""
    chain = [(rng.choice(_NAMES), rng.choice(_SORTS)) for _ in range(rng.randint(1, 6))]
    atoms = [
        PredApp(rng.choice(("P", "Q")), TVar(rng.choice(_NAMES))) for _ in range(rng.randint(0, 3))
    ]
    body = LEAF
    for atom in atoms:
        body = And(atom, body)
    roll = rng.random() if nested else 1
    if roll < 0.3:
        chain = [("a", OF_KIND_STAR), ("b", OF_KIND_STAR)] + chain[:3]
        inner = [(rng.choice(_NAMES), rng.choice(_SORTS[1:3])) for _ in range(rng.randint(1, 4))]
        body = Implies(close_over(inner, LEAF), body)
    elif roll < 0.6:
        body = Implies(adversarial_formula(rng, nested=False), body)
    return close_over(chain, body)


def adversarial_pair(rng: random.Random) -> tuple[Formula, Formula]:
    f = adversarial_formula(rng)
    roll = rng.random()
    if roll < 0.6:
        return f, shuffle_chains(f, rng)
    if roll < 0.8:
        names = list(_NAMES)
        rng.shuffle(names)
        swap = dict(zip(_NAMES, names))
        return f, parse_sexpr(_rename(render_sexpr(f), swap))
    return f, adversarial_formula(rng)


def _rename(text: str, swap: dict[str, str]) -> str:
    """The s-expression with the variable names permuted."""
    return re.sub(r"[\w']+", lambda m: swap.get(m.group(), m.group()), text)


class TestAgainstReference:
    @given(strategies.formulas(), strategies.formulas(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_pairs(self, f, other, rng):
        g = shuffle_chains(f, rng)
        for left, right in [(f, f), (f, g), (g, f), (f, other), (other, f)]:
            assert_agrees(left, right)

    def test_used_binders_that_bind_one_name_twice_keep_their_order(self):
        # x and y each read their own a; swapping the two a's rebinds both.
        a = OfType(Var("a"))
        body = And(PredApp("P", TVar("x")), PredApp("P", TVar("y")))
        f = close_over([("a", OF_KIND_STAR), ("x", a), ("a", OF_KIND_STAR), ("y", a)], body)
        g = close_over([("a", OF_KIND_STAR), ("y", a), ("a", OF_KIND_STAR), ("x", a)], body)
        assert not reference_equiv.prefix_perm_eq(f, g)
        assert_agrees(f, g)
        assert_agrees(g, f)

    @pytest.mark.parametrize("seed", range(4))
    def test_adversarial_runs(self, seed):
        rng = random.Random(seed)
        for _ in range(750):
            f, g = adversarial_pair(rng)
            assert_agrees(f, g)
            assert_agrees(g, f)


def _and_chain(n: int) -> Formula:
    f = LEAF
    for _ in range(n):
        f = And(LEAF, f)
    return f


class TestNoRecursion:
    def test_long_and_chain(self):
        f, g = _and_chain(1200), _and_chain(1200)
        assert alpha_eq(f, g) and prefix_perm_eq(f, g)
        assert not alpha_eq(f, _and_chain(1199)) and not prefix_perm_eq(f, _and_chain(1199))
        kinds = [type(sub) for sub in subformulas(f)]
        assert kinds == [And, PredApp] * 1200 + [PredApp]

    def test_left_nested_and_chain(self):
        f = LEAF
        for _ in range(1200):
            f = And(f, PredApp("P", TVar("x")))
        assert alpha_eq(f, f) and prefix_perm_eq(f, f)
        assert free_vars(f) == {"P", "Q", "x"}
        assert sum(1 for _ in subformulas(f)) == 2401

    def test_wide_constructor_principle(self):
        decl = parse_decl("data Wide a = Leaf | Node" + " a (Wide a)" * 600)
        principle = induction_principle(decl, GenOptions()).formula
        readback = parse_sexpr(render_sexpr(principle))
        assert alpha_eq(principle, readback) and prefix_perm_eq(principle, readback)

    @pytest.mark.parametrize("equal", [alpha_eq, prefix_perm_eq])
    def test_a_wide_principle_is_compared_in_linear_work(self, equal):
        # At most 100 lines of core run per type parameter: binding one must
        # not walk the ones before it.
        n = 10_000
        params = " ".join(f"a{i}" for i in range(n))
        f = induction_principle(parse_decl(f"data T {params} = C"), GenOptions()).formula
        assert lines_run({core.__file__}, functools.partial(equal, f, f), 100 * n)

    def test_free_vars_of_a_long_binder_chain_in_linear_work(self):
        n = 10_000
        f = induction_principle(parse_decl("data T a = C" + " a" * n), GenOptions()).formula
        assert lines_run({core.__file__}, functools.partial(free_vars, f), 100 * n) == set()

    @pytest.mark.parametrize("n", [2_500, 5_000])
    @pytest.mark.parametrize("walk", [alpha_eq, prefix_perm_eq, free_vars])
    def test_an_alternating_chain_in_linear_work_and_memory(self, walk, n):
        # At most 200 lines of core run per pair of binders and its conjunct
        # (136 do), and the walk holds at most 4 KB per pair at any time. A
        # type binder that follows a term binder must not copy the
        # environment: the copy is one C call, which the line count does not
        # see, but the copies stay alive, and the memory bound sees them.
        f = alternating_chain(n)
        call = functools.partial(walk, f) if walk is free_vars else functools.partial(walk, f, f)
        tracemalloc.start()
        try:
            result = lines_run({core.__file__}, call, 200 * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == ({"P"} if walk is free_vars else True)
        assert peak < 4_000 * n

    def test_mismatch_over_same_sort_binders_pairs_by_use(self, monkeypatch):
        # The reference tries every order of the 12 binders of sort N before
        # it finds that the bodies differ; pairing by use fails at once.
        nat = OfType(App("N"))
        f_body, g_body = PredApp("Q", TVar("z")), PredApp("R", TVar("z"))
        for i in range(12):
            f_body = And(PredApp("P", TVar(f"x{i}")), f_body)
            g_body = And(PredApp("P", TVar(f"y{i}")), g_body)
        f = close_over([(f"x{i}", nat) for i in range(12)], f_body)
        g = close_over([(f"y{i}", nat) for i in reversed(range(12))], g_body)
        assert pairings(monkeypatch, lambda: not prefix_perm_eq(f, g)) <= 12

    def test_unused_same_sort_binders_pair_in_order(self, monkeypatch):
        nat = OfType(App("N"))
        f = close_over([(f"x{i}", nat) for i in range(12)], LEAF)
        g = close_over([(f"y{i}", nat) for i in reversed(range(12))], LEAF)
        assert pairings(monkeypatch, lambda: prefix_perm_eq(f, g)) <= 12 * 12


def pairings(monkeypatch, check) -> int:
    """How many pairings of two binders `check` tries; it must hold."""
    calls = []
    pair = core._Match._pair
    monkeypatch.setattr(core._Match, "_pair", lambda self, *bs: calls.append(bs) or pair(self, *bs))
    assert check()
    return len(calls)


class TestNestedRuns:
    """Runs inside runs whose sorts mention type binders of the outer run
    that nothing else uses, so that how the inner run pairs decides how the
    outer one may pair."""

    star, a, b = OF_KIND_STAR, OfType(Var("a")), OfType(Var("b"))

    def nested(self, outer, inner) -> Formula:
        return close_over(outer, Implies(close_over(inner, LEAF), LEAF))

    @pytest.mark.parametrize(
        "outer2, inner2, equivalent",
        [
            # a and b commute, and so do x and y.
            ([("b", star), ("a", star), ("u", a)], [("y", b), ("x", a)], True),
            # u now fixes a to b, and the inner run still fits.
            ([("b", star), ("a", star), ("u", b)], [("y", b), ("x", a)], True),
            # The inner sorts cannot both be b.
            ([("a", star), ("b", star), ("u", a)], [("x", b), ("y", b)], False),
            # u of sort a cannot move out past a.
            ([("u", a), ("a", star), ("b", star)], [("x", a), ("y", b)], False),
        ],
    )
    def test_against_reference(self, outer2, inner2, equivalent):
        star, a, b = self.star, self.a, self.b
        f = self.nested([("a", star), ("b", star), ("u", a)], [("x", a), ("y", b)])
        g = self.nested(outer2, inner2)
        assert reference_equiv.prefix_perm_eq(f, g) == equivalent
        assert prefix_perm_eq(f, g) == equivalent and prefix_perm_eq(g, f) == equivalent


class TestSubformulas:
    @given(strategies.formulas())
    @settings(max_examples=100, deadline=None)
    def test_outermost_first_and_left_before_right(self, f):
        def recursive(f):
            yield f
            for name in ("left", "right", "antecedent", "consequent", "body"):
                if hasattr(f, name):
                    yield from recursive(getattr(f, name))

        assert [id(sub) for sub in subformulas(f)] == [id(sub) for sub in recursive(f)]
