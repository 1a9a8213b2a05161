"""Principle generation: naming, clause shape, assembly, and the shape check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import strategies
from formula_shape import clause_parts, mind_check, subformulas
from reference_gen import reference_principle
from structind.core import (
    And,
    App,
    Arrow,
    Bottom,
    ConstructorDecl,
    DataDecl,
    Forall,
    Implies,
    OfType,
    PredApp,
    Principle,
    TApp,
    TVar,
    TupleType,
    Var,
    alpha_eq,
    free_vars,
    prefix_perm_eq,
)
from structind.generator import (
    GenOptions,
    assemble,
    conjoin,
    conjuncts,
    induction_principle,
    nested_recursion_warnings,
)
from structind.parser import parse_decl


def principle_conjuncts(principle):
    f = principle.formula
    while isinstance(f, Forall):
        f = f.body
    assert isinstance(f, Implies)
    return conjuncts(f.antecedent)


def clause_of(decl, ctor):
    return dict(induction_principle(decl).clauses)[ctor.name]


def argument_names(decl, ctor):
    binders, _, _ = clause_parts(clause_of(decl, ctor))
    return [(var, sort.ty) for var, sort in binders]


class TestNameArguments:
    def test_cons(self):
        decl = parse_decl(corpus.LIST)
        cons = decl.constructors[1]
        assert argument_names(decl, cons) == [
            ("x1", Var("a")),
            ("l2", App("List", (Var("a"),))),
        ]

    def test_snoc_joint_numbering(self):
        decl = parse_decl(corpus.TSIL)
        snoc = decl.constructors[0]
        assert [v for v, _ in argument_names(decl, snoc)] == ["t1", "x2"]

    def test_fork(self):
        decl = parse_decl(corpus.BTREE)
        fork = decl.constructors[1]
        assert [v for v, _ in argument_names(decl, fork)] == ["b1", "b2"]

    def test_swapped_parameters_still_recursive(self):
        decl = parse_decl(corpus.SWAPTREE)
        node = decl.constructors[1]
        assert [v for v, _ in argument_names(decl, node)] == ["x1", "s2", "s3"]


class TestConstructorClause:
    def test_nullary(self):
        decl = parse_decl(corpus.NAT)
        assert clause_of(decl, decl.constructors[0]) == PredApp("P", TApp("Z"))

    def test_step(self):
        decl = parse_decl(corpus.NAT)
        clause = clause_of(decl, decl.constructors[1])
        assert clause == Forall(
            "n1",
            OfType(App("Nat")),
            Implies(PredApp("P", TVar("n1")), PredApp("P", TApp("S", (TVar("n1"),)))),
        )

    def test_non_recursive_has_no_implication(self):
        decl = parse_decl(corpus.MAYBE)
        clause = clause_of(decl, decl.constructors[1])
        assert clause == Forall(
            "x1", OfType(Var("a")), PredApp("P", TApp("Just", (TVar("x1"),)))
        )

    def test_two_hypotheses_conjoined(self):
        decl = parse_decl(corpus.BTREE)
        _, hyps, conclusion = clause_parts(clause_of(decl, decl.constructors[1]))
        assert hyps == [PredApp("P", TVar("b1")), PredApp("P", TVar("b2"))]
        assert conclusion == PredApp("P", TApp("Fork", (TVar("b1"), TVar("b2"))))


class TestInductionPrinciple:
    def test_differential_against_reference(self):
        for name, source in corpus.ALL.items():
            decl = parse_decl(source)
            generated = induction_principle(decl).formula
            reference = reference_principle(decl)
            assert generated == reference, name
            assert prefix_perm_eq(generated, reference), name

    def test_clause_names_in_declaration_order(self):
        decl = parse_decl(corpus.LAMBDA)
        principle = induction_principle(decl)
        assert [name for name, _ in principle.clauses] == ["Var", "Const", "Ap", "Abs"]

    def test_closed(self):
        for source in corpus.ALL.values():
            principle = induction_principle(parse_decl(source))
            assert free_vars(principle.formula) == set()

    def test_formula_matches_reassembly(self):
        for source in corpus.ALL.values():
            decl = parse_decl(source)
            for pointed in (False, True):
                principle = induction_principle(decl, GenOptions(pointed=pointed))
                rebuilt = assemble(decl, pointed, [f for _, f in principle.clauses])
                assert principle.formula == rebuilt

    def test_pointed_adds_bottom_first(self):
        decl = parse_decl(corpus.NAT)
        principle = induction_principle(decl, GenOptions(pointed=True))
        conj = principle_conjuncts(principle)
        assert len(conj) == 3
        assert conj[0] == PredApp("P", Bottom())
        assert len(principle.clauses) == 2

    def test_unpointed_nat_has_two_conjuncts(self):
        principle = induction_principle(parse_decl(corpus.NAT))
        assert len(principle_conjuncts(principle)) == 2

    def test_exam_type_hypothesis_counts(self):
        stree = induction_principle(parse_decl(corpus.STREE))
        counts = [len(clause_parts(c)[1]) for _, c in stree.clauses]
        assert counts == [0, 2]
        lam = induction_principle(parse_decl(corpus.LAMBDA))
        counts = [len(clause_parts(c)[1]) for _, c in lam.clauses]
        assert counts == [0, 0, 2, 1]

    def test_degenerate_types_have_no_implication(self):
        for source in (corpus.BOOL, corpus.MAYBE):
            principle = induction_principle(parse_decl(source))
            for _, clause in principle.clauses:
                assert not any(isinstance(s, Implies) for s in subformulas(clause))


class TestGeneratorInvariants:
    @given(strategies.data_decls(), strategies.gen_options())
    @settings(max_examples=200, deadline=None)
    def test_counts_and_closure(self, decl, opts):
        principle = induction_principle(decl, opts)
        m = len(decl.constructors)
        assert len(principle.clauses) == m
        assert len(principle_conjuncts(principle)) == m + (1 if opts.pointed else 0)
        for ctor, (name, clause) in zip(decl.constructors, principle.clauses):
            assert ctor.name == name
            binders, hyps, _ = clause_parts(clause)
            assert len(binders) == ctor.arity
            recursive = [
                ty
                for ty in ctor.arg_types
                if isinstance(ty, App) and ty.head == decl.type_name
            ]
            assert len(hyps) == len(recursive)
        assert free_vars(principle.formula) == set()

    @given(strategies.data_decls())
    @settings(max_examples=200, deadline=None)
    def test_reassembly(self, decl):
        principle = induction_principle(decl)
        assert assemble(decl, False, [f for _, f in principle.clauses]) == principle.formula


class TestMindCheck:
    def test_nat(self):
        assert mind_check(induction_principle(parse_decl(corpus.NAT))) is True

    def test_wrong_shape_raises(self):
        for source in (corpus.BOOL, corpus.LIST, corpus.BTREE):
            with pytest.raises(ValueError):
                mind_check(induction_principle(parse_decl(source)))

    def test_pointed_raises(self):
        principle = induction_principle(parse_decl(corpus.NAT), GenOptions(pointed=True))
        with pytest.raises(ValueError):
            mind_check(principle)

    def test_hand_built_missing_base_clause(self):
        decl = parse_decl(corpus.NAT)
        full = induction_principle(decl)
        step_only = Principle(decl, False, full.formula, (full.clauses[1],))
        assert mind_check(step_only) is False

    def test_nat_like_type_with_other_names(self):
        principle = induction_principle(parse_decl("data Peano = Zero | Succ Peano"))
        assert mind_check(principle) is True


def _mentions_type(ty, name):
    """The recursive definition: `name` heads an App somewhere inside `ty`."""
    if isinstance(ty, App):
        return ty.head == name or any(_mentions_type(a, name) for a in ty.args)
    if isinstance(ty, TupleType):
        return any(_mentions_type(e, name) for e in ty.elems)
    if isinstance(ty, Arrow):
        return _mentions_type(ty.domain, name) or _mentions_type(ty.codomain, name)
    return False


def _reference_warnings(decl):
    """(constructor, position, type) of every argument that mentions the
    declared type below a head that is not the declared type."""
    return [
        (ctor.name, i, ty)
        for ctor in decl.constructors
        for i, ty in enumerate(ctor.arg_types, start=1)
        if not (isinstance(ty, App) and ty.head == decl.type_name)
        and _mentions_type(ty, decl.type_name)
    ]


def _triples(warnings):
    return [(w.constructor, w.position, w.arg_type) for w in warnings]


_NESTED = [
    "data Rose a = Rose a (List (Rose a))",
    "data T a = A (T a, a) | B (a -> T a) | C (T (T a)) | D (List (a -> (Int, T a))) a",
    "data U = U (U -> U) (U, U) U (Maybe Int) | V (Maybe (Maybe U))",
]


@st.composite
def _nested_decls(draw):
    """Declarations whose argument types mix tuples, arrows and applications,
    with the declared type anywhere in them, at the head or below it."""
    name = draw(strategies.upper_names())
    params = draw(st.lists(strategies.lower_names(), max_size=2, unique=True))
    heads = st.sampled_from([name, draw(strategies.upper_names())])
    leaves = heads.map(App)
    if params:
        leaves |= st.sampled_from(params).map(Var)
    types = st.recursive(
        leaves,
        lambda sub: st.builds(App, heads, st.lists(sub, min_size=1, max_size=2).map(tuple))
        | st.lists(sub, min_size=2, max_size=3).map(lambda es: TupleType(tuple(es)))
        | st.builds(Arrow, sub, sub),
        max_leaves=6,
    )
    names = draw(st.lists(strategies.upper_names(), min_size=1, max_size=4, unique=True))
    ctors = [ConstructorDecl(c, tuple(draw(st.lists(types, max_size=4)))) for c in names]
    return DataDecl(name, tuple(params), tuple(ctors))


class TestWarnings:
    def test_nested_recursion(self):
        decl = parse_decl("data Rose a = Rose a (List (Rose a))")
        warnings = nested_recursion_warnings(decl)
        assert len(warnings) == 1
        assert warnings[0].constructor == "Rose"
        assert warnings[0].position == 2

    def test_plain_recursion_is_fine(self):
        for source in corpus.ALL.values():
            assert nested_recursion_warnings(parse_decl(source)) == []

    @pytest.mark.parametrize("source", [*corpus.ALL.values(), *_NESTED])
    def test_matches_the_recursive_definition(self, source):
        decl = parse_decl(source)
        assert _triples(nested_recursion_warnings(decl)) == _reference_warnings(decl)

    @given(_nested_decls() | strategies.data_decls(max_ctors=4, max_arity=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_recursive_definition_on_generated_declarations(self, decl):
        assert _triples(nested_recursion_warnings(decl)) == _reference_warnings(decl)


class TestConjoin:
    def test_right_nested(self):
        a, b, c = PredApp("P", TVar("a")), PredApp("P", TVar("b")), PredApp("P", TVar("c"))
        assert conjoin([a, b, c]) == And(a, And(b, c))
        assert conjuncts(conjoin([a, b, c])) == [a, b, c]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            conjoin([])
