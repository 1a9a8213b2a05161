"""Core AST construction, free variables, and the two equivalences."""

import sys

import pytest
from hypothesis import given, settings

import strategies
from formula_shape import subformulas
from structind import core
from structind.core import (
    And,
    App,
    Arrow,
    BOTTOM,
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
    Sort,
    TApp,
    TupleType,
    TVar,
    Var,
    _binder_namespace,
    _sort_type_vars,
    alpha_eq,
    free_vars,
    is_lower_name,
    is_upper_name,
    prefix_perm_eq,
    valid_name,
)
from structind.generator import is_recursive_arg

NAT = App("Nat")
# A closed leaf that names no binder of these tests.
LEAF = PredApp("R", BOTTOM)


def nat_principle(step_var="n1", concl_var="n"):
    return Forall(
        "P",
        PredOver(NAT),
        Implies(
            And(
                PredApp("P", TApp("Z")),
                Forall(
                    step_var,
                    OfType(NAT),
                    Implies(
                        PredApp("P", TVar(step_var)),
                        PredApp("P", TApp("S", (TVar(step_var),))),
                    ),
                ),
            ),
            Forall(concl_var, OfType(NAT), PredApp("P", TVar(concl_var))),
        ),
    )


class TestTyCon:
    """An argument is recursive exactly when its head type constructor is
    the declared type."""

    LIST = DataDecl("List", ("a",), (ConstructorDecl("Nil"),))

    def test_applied(self):
        assert is_recursive_arg(self.LIST, App("List", (Var("a"),)))
        assert is_recursive_arg(self.LIST, App("List", (App("List", (Var("a"),)),)))

    def test_nullary(self):
        assert is_recursive_arg(DataDecl("Nat", (), (ConstructorDecl("Z"),)), NAT)
        assert not is_recursive_arg(self.LIST, NAT)
        assert not is_recursive_arg(self.LIST, App("Maybe", (App("List", (Var("a"),)),)))

    def test_var_arrow_tuple(self):
        own = App("List", (Var("a"),))
        assert not is_recursive_arg(self.LIST, Var("a"))
        assert not is_recursive_arg(self.LIST, Arrow(own, own))
        assert not is_recursive_arg(self.LIST, TupleType((own, own)))


class TestDeclValidation:
    def test_tuple_needs_two(self):
        with pytest.raises(ValueError):
            TupleType((Var("a"),))

    def test_duplicate_params(self):
        with pytest.raises(ValueError, match="duplicate"):
            DataDecl("T", ("a", "a"), (ConstructorDecl("C"),))

    def test_duplicate_constructors(self):
        with pytest.raises(ValueError, match="duplicate constructor 'C'"):
            DataDecl("T", (), (ConstructorDecl("C"), ConstructorDecl("D"), ConstructorDecl("C")))

    def test_no_constructors(self):
        with pytest.raises(ValueError, match="no constructors"):
            DataDecl("T", (), ())

    def test_unbound_type_variable(self):
        with pytest.raises(ValueError, match="not a parameter"):
            DataDecl("T", ("a",), (ConstructorDecl("C", (Var("b"),)),))

    def test_casing(self):
        with pytest.raises(ValueError):
            DataDecl("t", (), (ConstructorDecl("C"),))
        with pytest.raises(ValueError):
            ConstructorDecl("c")

    def test_loose_variable_is_named_from_the_first_offending_argument(self):
        with pytest.raises(ValueError, match="variable 'z' in constructor C "):
            DataDecl("T", (), (ConstructorDecl("C", (Var("z"), Var("b"))),))
        # The first offending argument's least loose variable, not the
        # constructor's, nor a later constructor's.
        first = App("Pair", (Var("y"), Arrow(Var("a"), Var("c"))))
        ctors = (
            ConstructorDecl("C", (Var("a"), first, Var("b"))),
            ConstructorDecl("D", (Var("a0"),)),
        )
        with pytest.raises(ValueError, match="variable 'c' in constructor C "):
            DataDecl("T", ("a",), ctors)
        with pytest.raises(ValueError, match="variable 'a0' in constructor D "):
            DataDecl("T", ("a",), ctors[::-1])


def _char_loop_valid_name(name: str) -> bool:
    """valid_name as a loop over the characters."""
    return bool(name) and name[0].isalpha() and all(ch.isalnum() or ch in "_'" for ch in name)


def test_names_agree_with_the_character_loop_on_every_code_point():
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    for names in (chars, ["a" + ch for ch in chars]):
        valid = [_char_loop_valid_name(n) for n in names]
        assert list(map(valid_name, names)) == valid
        first = [n[0] for n in names]
        assert list(map(is_upper_name, names)) == [v and c.isupper() for v, c in zip(valid, first)]
        assert list(map(is_lower_name, names)) == [v and c.islower() for v, c in zip(valid, first)]


class TestFreeVars:
    def test_closed_under_binder(self):
        f = Forall("n", OfType(NAT), PredApp("P", TVar("n")))
        assert free_vars(f) == {"P"}

    def test_free_term_var(self):
        assert free_vars(PredApp("P", TVar("x"))) == {"P", "x"}

    def test_type_var_in_sort(self):
        f = Forall("x", OfType(Var("a")), LEAF)
        assert free_vars(f) == {"R", "a"}
        g = Forall("a", OF_KIND_STAR, f)
        assert free_vars(g) == {"R"}

    def test_namespaces_are_disjoint(self):
        # A term binder named "a" does not bind the type variable "a".
        f = Forall("a", OfType(Var("a")), PredApp("P", TVar("a")))
        assert free_vars(f) == {"a", "P"}

    def test_pred_binder(self):
        f = Forall("P", PredOver(NAT), PredApp("P", TApp("Z")))
        assert free_vars(f) == set()


class TestAlphaEq:
    def test_renamed_binder(self):
        f = Forall("n", OfType(NAT), PredApp("P", TVar("n")))
        g = Forall("m", OfType(NAT), PredApp("P", TVar("m")))
        assert alpha_eq(f, g)

    def test_free_names_matter(self):
        assert not alpha_eq(PredApp("P", TVar("x")), PredApp("P", TVar("y")))
        assert not alpha_eq(PredApp("P", TApp("Z")), PredApp("Q", TApp("Z")))

    def test_nat_principle_renamed_throughout(self):
        assert alpha_eq(nat_principle("n1", "n"), nat_principle("k1", "k"))

    def test_binder_order_matters(self):
        f = Forall("x", OfType(Var("a")), Forall("y", OfType(NAT), LEAF))
        g = Forall("y", OfType(NAT), Forall("x", OfType(Var("a")), LEAF))
        assert not alpha_eq(f, g)
        assert prefix_perm_eq(f, g)

    def test_sorts_must_match(self):
        f = Forall("x", OfType(NAT), LEAF)
        g = Forall("x", OfType(App("Bool")), LEAF)
        assert not alpha_eq(f, g)

    def test_shadowing(self):
        f = Forall("x", OfType(NAT), Forall("x", OfType(NAT), PredApp("P", TVar("x"))))
        g = Forall("y", OfType(NAT), Forall("x", OfType(NAT), PredApp("P", TVar("x"))))
        assert alpha_eq(f, g)
        h = Forall("y", OfType(NAT), Forall("x", OfType(NAT), PredApp("P", TVar("y"))))
        assert not alpha_eq(f, h)

    @given(strategies.formulas())
    @settings(max_examples=200, deadline=None)
    def test_reflexive(self, f):
        assert alpha_eq(f, f)


def binder_run(f: Formula) -> tuple[list[tuple[str, Sort]], Formula]:
    """Maximal leading run of Forall binders that can be soundly permuted,
    so that any order of the run is equivalent.

    A run stops as soon as reordering could change meaning: when a sort
    references a type variable bound earlier in the run, when a type binder
    would capture a variable referenced by an earlier sort, or when a name
    repeats in its namespace.
    """
    run: list[tuple[str, Sort]] = []
    bound_types: set[str] = set()
    bound: set[tuple[str, str]] = set()
    referenced: set[str] = set()
    while isinstance(f, Forall):
        ns = _binder_namespace(f.sort)
        refs = _sort_type_vars(f.sort)
        if refs & bound_types:
            break
        if ns == "type" and f.var in referenced:
            break
        if (ns, f.var) in bound:
            break
        run.append((f.var, f.sort))
        bound.add((ns, f.var))
        if ns == "type":
            bound_types.add(f.var)
        referenced |= refs
        f = f.body
    return run, f


def permute_runs(f: Formula, order) -> Formula:
    """Rebuild `f` with every permutable binder run reversed."""
    if isinstance(f, Forall):
        run, body = binder_run(f)
        if not run:
            return f
        new_body = permute_runs(body, order)
        for var, sort in reversed(list(order(run))):
            new_body = Forall(var, sort, new_body)
        return new_body
    if isinstance(f, And):
        return And(permute_runs(f.left, order), permute_runs(f.right, order))
    if isinstance(f, Implies):
        return Implies(permute_runs(f.antecedent, order), permute_runs(f.consequent, order))
    return f


class TestPrefixPermEq:
    def test_adjacent_same_namespace(self):
        tsil = App("Tsil", (Var("a"),))
        body = Implies(PredApp("P", TVar("t")), PredApp("P", TApp("Snoc", (TVar("t"), TVar("x")))))
        f = Forall("x", OfType(Var("a")), Forall("t", OfType(tsil), body))
        g = Forall("t", OfType(tsil), Forall("x", OfType(Var("a")), body))
        assert prefix_perm_eq(f, g)
        assert not alpha_eq(f, g)

    def test_dependent_binders_do_not_commute(self):
        # x's sort references the type variable a, so the pair cannot swap.
        f = Forall("a", OF_KIND_STAR, Forall("x", OfType(Var("a")), LEAF))
        g = Forall("x", OfType(Var("a")), Forall("a", OF_KIND_STAR, LEAF))
        assert not prefix_perm_eq(f, g)

    def test_binder_must_not_disappear(self):
        f = Forall("x", OfType(NAT), LEAF)
        assert not prefix_perm_eq(f, LEAF)
        assert not prefix_perm_eq(f, Forall("x", OfType(NAT), f))

    def test_runs_inside_clauses(self):
        left = Forall("x", OfType(NAT), Forall("y", OfType(App("Bool")), LEAF))
        right = Forall("y", OfType(App("Bool")), Forall("x", OfType(NAT), LEAF))
        assert prefix_perm_eq(And(left, LEAF), And(right, LEAF))

    def test_binders_move_past_the_ones_they_commute_with(self):
        # P's sort mentions b, so b cannot move outward past P, but a can;
        # the leading runs of f and g split at different binders.
        sort = OfType(App("A", (Var("b"),)))
        f = Forall("P", sort, Forall("b", OF_KIND_STAR, Forall("a", OF_KIND_STAR, LEAF)))
        g = Forall("P", sort, Forall("a", OF_KIND_STAR, Forall("b", OF_KIND_STAR, LEAF)))
        h = Forall("b", OF_KIND_STAR, Forall("P", sort, Forall("a", OF_KIND_STAR, LEAF)))
        assert prefix_perm_eq(f, g) and prefix_perm_eq(g, f)
        assert not prefix_perm_eq(f, h) and not prefix_perm_eq(h, f)

    def test_contains_alpha_eq_with_a_shadowed_binder(self):
        f = Forall("k", OF_KIND_STAR, Forall("Q", OF_KIND_STAR, Forall("k", OF_KIND_STAR, LEAF)))
        g = Forall("i", OF_KIND_STAR, Forall("Q", OF_KIND_STAR, Forall("k", OF_KIND_STAR, LEAF)))
        assert alpha_eq(f, g) and prefix_perm_eq(f, g)

    def test_contains_alpha_eq_on_distinct_binders(self):
        assert prefix_perm_eq(nat_principle("n1", "n"), nat_principle("k1", "k"))

    @given(strategies.formulas())
    @settings(max_examples=200, deadline=None)
    def test_reversed_runs_are_equivalent(self, f):
        g = permute_runs(f, lambda run: list(reversed(run)))
        assert prefix_perm_eq(f, g)
        assert prefix_perm_eq(g, f)

    @given(strategies.formulas())
    @settings(max_examples=200, deadline=None)
    def test_binder_count_preserved(self, f):
        g = permute_runs(f, lambda run: list(reversed(run)))
        count = lambda h: sum(1 for sub in subformulas(h) if isinstance(sub, Forall))
        assert count(f) == count(g)


class TestSubformulas:
    def test_counts(self):
        f = nat_principle()
        kinds = [type(sub).__name__ for sub in subformulas(f)]
        assert kinds.count("Forall") == 3
        assert kinds.count("PredApp") == 4
        assert kinds.count("Implies") == 2
        assert kinds.count("And") == 1


class TestUnusedBinderSearch:
    """Unused binders whose sorts cannot all pair fail before any search."""

    def assert_no_pairing(self, monkeypatch, check):
        """`check` holds without pairing two binders; a search fails at once."""

        def refuse(*_):
            raise AssertionError("paired binders")

        monkeypatch.setattr(core._Match, "_pair", refuse)
        assert check()

    @pytest.mark.parametrize("n", [8, 30])
    def test_one_unused_binder_of_another_sort(self, monkeypatch, n):
        nat, m, k = OfType(NAT), OfType(App("M")), OfType(App("K"))
        f, g = LEAF, LEAF
        for i in range(n):
            f, g = Forall(f"x{i}", nat, f), Forall(f"y{i}", nat, g)
        f, g = Forall("u", m, f), Forall("u", k, g)
        self.assert_no_pairing(monkeypatch, lambda: not prefix_perm_eq(f, g))
        self.assert_no_pairing(monkeypatch, lambda: not alpha_eq(f, g))

    def test_bound_type_variables_are_erased(self, monkeypatch):
        # x and y read different type binders, which pair only in the search.
        star = OF_KIND_STAR
        f = Forall("a", star, Forall("b", star, Forall("x", OfType(Var("a")), LEAF)))
        g = Forall("b", star, Forall("a", star, Forall("y", OfType(Var("a")), LEAF)))
        assert prefix_perm_eq(f, g) and prefix_perm_eq(g, f)
        # Free type variables keep their names.
        c, d = (Forall("x", OfType(Var(v)), LEAF) for v in "cd")
        self.assert_no_pairing(monkeypatch, lambda: not prefix_perm_eq(c, d))
