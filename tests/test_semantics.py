"""Ground-term enumeration and the finite-model soundness check."""

import os
import pickle
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import corpus
import strategies
from reference_check import reference_check
from reference_enum import immediate_subterms, reference_terms, term_depth
from structind import semantics
from structind.core import (
    And,
    App,
    BOTTOM,
    Bottom,
    Forall,
    Implies,
    OfType,
    PredApp,
    PredOver,
    Principle,
    TApp,
    TVar,
    Var,
)
from structind.generator import GenOptions, assemble, induction_principle
from structind.parser import parse_decl
from structind.semantics import (
    Atom,
    DEFAULT_SEED,
    EXHAUSTIVE_LIMIT,
    Exhaustive,
    GroundEnv,
    Node,
    Sampled,
    UnsupportedTypeError,
    check_principle,
    enumerate_terms,
    format_ground_term,
    universe_size,
)

NO_PARAMS = GroundEnv({})


def with_clauses(decl, pointed, clauses):
    """The principle made of these (constructor name, clause) pairs."""
    formula = assemble(decl, pointed, [f for _, f in clauses])
    return Principle(decl, pointed, formula, tuple(clauses))


def delete_clause(decl, pointed, index):
    """The principle with one constructor clause removed."""
    full = induction_principle(decl, GenOptions(pointed=pointed))
    return with_clauses(decl, pointed, [c for i, c in enumerate(full.clauses) if i != index])


class TestEnumeration:
    def test_nat_depth_three(self):
        nat = parse_decl(corpus.NAT)
        z = Node("Z")
        assert enumerate_terms(nat, NO_PARAMS, 3) == [
            z,
            Node("S", (z,)),
            Node("S", (Node("S", (z,)),)),
        ]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_nat_universe_sizes(self, depth):
        nat = parse_decl(corpus.NAT)
        assert len(enumerate_terms(nat, NO_PARAMS, depth)) == depth
        assert len(enumerate_terms(nat, NO_PARAMS, depth, pointed=True)) == 2 * depth

    def test_bool_any_depth(self):
        bool_ = parse_decl(corpus.BOOL)
        for depth in (1, 3, 7):
            assert enumerate_terms(bool_, NO_PARAMS, depth) == [Node("T"), Node("F")]

    def test_btree_single_atom_depth_two(self):
        btree = parse_decl(corpus.BTREE)
        env = GroundEnv({"a": ("u",)})
        leaf = Node("Leaf", (Atom("u"),))
        assert enumerate_terms(btree, env, 2) == [leaf, Node("Fork", (leaf, leaf))]

    def test_pointed_nat_depth_two(self):
        nat = parse_decl(corpus.NAT)
        bot = BOTTOM
        z = Node("Z")
        assert enumerate_terms(nat, NO_PARAMS, 2, pointed=True) == [
            bot,
            z,
            Node("S", (bot,)),
            Node("S", (z,)),
        ]

    def test_atom_order_follows_carrier(self):
        maybe = parse_decl(corpus.MAYBE)
        env = GroundEnv({"a": ("v", "u")})
        assert enumerate_terms(maybe, env, 1) == [
            Node("Nothing"),
            Node("Just", (Atom("v"),)),
            Node("Just", (Atom("u"),)),
        ]

    def test_depth_counts_recursion_only(self):
        list_ = parse_decl(corpus.LIST)
        env = GroundEnv({"a": ("u",)})
        nil = Node("Nil")
        cons1 = Node("Cons", (Atom("u"), nil))
        assert term_depth(cons1) == 2
        assert enumerate_terms(list_, env, 2) == [nil, cons1]

    def test_downward_closure(self):
        swap = parse_decl(corpus.SWAPTREE)
        env = GroundEnv({"a": ("u",), "b": ("v",)})
        universe = enumerate_terms(swap, env, 3)
        members = set(universe)
        for t in universe:
            for sub in immediate_subterms(t):
                assert sub in members

    def test_depth_bound_respected(self):
        nat = parse_decl(corpus.NAT)
        for depth in (1, 2, 3, 4):
            assert all(
                term_depth(t) <= depth for t in enumerate_terms(nat, NO_PARAMS, depth)
            )

    def test_invalid_inputs(self):
        nat = parse_decl(corpus.NAT)
        with pytest.raises(ValueError):
            enumerate_terms(nat, NO_PARAMS, 0)
        list_ = parse_decl(corpus.LIST)
        with pytest.raises(ValueError):
            enumerate_terms(list_, GroundEnv({}), 2)
        with pytest.raises(ValueError):
            enumerate_terms(list_, GroundEnv({"a": ()}), 2)

    def test_unsupported_fragment(self):
        lam = parse_decl(corpus.LAMBDA)
        with pytest.raises(UnsupportedTypeError, match="String"):
            enumerate_terms(lam, GroundEnv({"c": ("k",)}), 2)
        fun = parse_decl("data Fun a = MkFun (a -> a)")
        with pytest.raises(UnsupportedTypeError):
            enumerate_terms(fun, GroundEnv({"a": ("u",)}), 2)

    # Small shapes: depth-3 layers grow like |U|^arity per constructor.
    @pytest.mark.parametrize("deleted", [None, 0])
    def test_a_check_reads_each_carrier_once(self, deleted, monkeypatch):
        reads = []
        carrier = GroundEnv.carrier

        def counted(env, param):
            reads.append(param)
            return carrier(env, param)

        swap = parse_decl(corpus.SWAPTREE)
        if deleted is None:
            principle = induction_principle(swap, GenOptions())
        else:
            principle = delete_clause(swap, False, deleted)
        env = GroundEnv.default_for(swap)
        monkeypatch.setattr(GroundEnv, "carrier", counted)
        report = check_principle(principle, env, 2, Exhaustive())
        assert report.passed == (deleted is None)
        assert sorted(reads) == ["a", "b"]

    @pytest.mark.parametrize(
        "source", ["data T = L | N" + " T" * 1200, "data Wide a = Leaf | Node" + " a (Wide a)" * 600]
    )
    def test_a_clause_nested_too_deeply_is_unsupported(self, source):
        decl = parse_decl(source)
        principle = induction_principle(decl, GenOptions())
        with pytest.raises(UnsupportedTypeError, match="^a clause nests too deeply to check$"):
            check_principle(principle, GroundEnv.default_for(decl), 1, Exhaustive())

    @given(
        strategies.data_decls(max_ctors=3, max_arity=2, supported_only=True),
        strategies.st_depths(),
    )
    @settings(max_examples=100, deadline=None)
    def test_closure_and_depth_properties(self, decl, depth):
        env = GroundEnv({p: (f"{p}1",) for p in decl.type_params})
        universe = enumerate_terms(decl, env, depth)
        members = set(universe)
        assert len(universe) == len(members)
        for t in universe:
            assert term_depth(t) <= depth
            for sub in immediate_subterms(t):
                assert sub in members


# Every enumerable corpus declaration with the CLI's two atoms per parameter,
# at depths 1-4, pointed and not; cases of more than 5,000 terms are skipped.
ENUMERABLE = [
    (name, depth, pointed)
    for name in sorted(corpus.ALL)
    if name != "Lambda"
    for depth in (1, 2, 3, 4)
    for pointed in (False, True)
]
SIZE_CAP = 5000


class TestCountedUniverse:
    @pytest.mark.parametrize("name, depth, pointed", ENUMERABLE)
    def test_matches_reference_enumerator(self, name, depth, pointed):
        decl = parse_decl(corpus.ALL[name])
        env = GroundEnv.default_for(decl)
        size = universe_size(decl, env, depth, pointed)
        if size > SIZE_CAP:
            pytest.skip(f"universe of {size} terms")
        universe = enumerate_terms(decl, env, depth, pointed)
        assert universe == reference_terms(decl, env, depth, pointed)
        assert len(universe) == size

    @given(
        strategies.data_decls(max_ctors=3, max_arity=3, supported_only=True),
        strategies.st_depths(),
        strategies.gen_options(),
    )
    @settings(max_examples=100, deadline=None)
    def test_size_matches_enumeration(self, decl, depth, opts):
        env = GroundEnv.default_for(decl)
        size = universe_size(decl, env, depth, opts.pointed)
        if size <= SIZE_CAP:
            universe = enumerate_terms(decl, env, depth, opts.pointed)
            assert len(universe) == size
            assert universe == reference_terms(decl, env, depth, opts.pointed)

    def test_counts_without_building(self):
        btree = parse_decl(corpus.BTREE)
        env = GroundEnv({"a": ("u", "v")})
        assert [universe_size(btree, env, d) for d in range(1, 7)] == [
            2, 6, 38, 1446, 2090918, 4371938082726,
        ]

    def test_raises_as_enumeration_does(self):
        nat = parse_decl(corpus.NAT)
        with pytest.raises(ValueError, match="at least 1"):
            universe_size(nat, NO_PARAMS, 0)
        list_ = parse_decl(corpus.LIST)
        with pytest.raises(ValueError, match="no carrier"):
            universe_size(list_, GroundEnv({}), 2)
        with pytest.raises(UnsupportedTypeError, match="String"):
            universe_size(parse_decl(corpus.LAMBDA), GroundEnv({"c": ("k",)}), 2)

    # Argument shapes the corpus lacks: labels before, between and after the
    # recursive arguments, three recursive arguments in a row, and a single
    # recursive argument first or last.
    @pytest.mark.parametrize(
        "source",
        [
            "data W a b = N | C a (W a b) b (W a b) a | D (W a b) (W a b) (W a b)",
            "data F a b = E | F (F a b) a b",
            "data L a b = E b | L a b (L a b)",
            "data M a = K | M a (M a) a (M a) (M a) a",
        ],
    )
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("pointed", [False, True])
    def test_block_order_matches_reference(self, source, depth, pointed):
        decl = parse_decl(source)
        env = GroundEnv.default_for(decl)
        size = universe_size(decl, env, depth, pointed)
        if size > 50_000:
            pytest.skip(f"universe of {size} terms")
        universe = enumerate_terms(decl, env, depth, pointed)
        assert universe == reference_terms(decl, env, depth, pointed)
        assert len(universe) == size

    def test_a_constructor_of_1200_recursive_arguments(self):
        decl = parse_decl("data Wide = Leaf | Node" + " Wide" * 1200)
        _, ctors = semantics._argument_slots(decl, NO_PARAMS, 2)
        for keys in semantics._layers(ctors, 2, False):
            pass
        assert keys == [("Leaf",), ("Node", *[0] * 1200)]

    def test_oversized_exhaustive_check_is_refused_before_enumeration(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("the universe was built")

        monkeypatch.setattr(semantics, "enumerate_terms", no_enumeration)
        monkeypatch.setattr(semantics, "_layers", no_enumeration)
        btree = parse_decl(corpus.BTREE)
        with pytest.raises(ValueError, match="universe of more than 20 terms is too large"):
            principle = induction_principle(btree, GenOptions())
            check_principle(principle, GroundEnv({"a": ("u", "v")}), 6, Exhaustive())

    def test_exhaustive_refusal_stops_counting_at_the_limit(self):
        # The exact count at depth 40 has billions of digits.
        btree = parse_decl(corpus.BTREE)
        env = GroundEnv({"a": ("u", "v")})
        with pytest.raises(ValueError, match="universe of more than 20 terms is too large"):
            check_principle(induction_principle(btree, GenOptions()), env, 40, Exhaustive())

    @pytest.mark.parametrize("depth", [6, 40])
    def test_oversized_sampled_check_is_refused_before_building_or_drawing(
        self, depth, monkeypatch
    ):
        # Two-atom BTree has 4,371,938,082,726 terms at depth 6, and the
        # exact count at depth 40 has billions of digits.
        def fail(*args):
            raise AssertionError("the universe was built or a predicate drawn")

        for name in ("enumerate_terms", "_layers"):
            monkeypatch.setattr(semantics, name, fail)
        monkeypatch.setattr(semantics.random, "Random", fail)
        principle = induction_principle(parse_decl(corpus.BTREE), GenOptions())
        reason = f"universe of more than {semantics.SAMPLED_LIMIT} terms at depth {depth}"
        with pytest.raises(UnsupportedTypeError, match=reason):
            check_principle(principle, GroundEnv({"a": ("u", "v")}), depth, Sampled(200))

    def test_the_sampled_refusal_is_a_value_error_in_the_cli_wording(self):
        principle = induction_principle(parse_decl(corpus.BTREE), GenOptions())
        with pytest.raises(ValueError) as refused:
            check_principle(principle, GroundEnv({"a": ("u", "v")}), 7, Sampled(200))
        assert refused.type is UnsupportedTypeError
        assert str(refused.value) == "universe of more than 1000000 terms at depth 7"

    @pytest.mark.parametrize("limit, checked", [(1446, True), (1445, False)])
    def test_sampled_limit_is_inclusive(self, limit, checked, monkeypatch):
        monkeypatch.setattr(semantics, "SAMPLED_LIMIT", limit)
        principle = induction_principle(parse_decl(corpus.BTREE), GenOptions())
        env = GroundEnv({"a": ("u", "v")})
        if checked:
            assert check_principle(principle, env, 4, Sampled(5)).universe_size == limit
        else:
            with pytest.raises(ValueError, match="universe of more than 1445 terms"):
                check_principle(principle, env, 4, Sampled(5))


class TestNode:
    def test_equal_nodes_hash_equal(self):
        built = [Node("S", (Node("Z"),)), Node("S", (Node("Z", ()),))]
        assert built[0] == built[1] and built[0] is not built[1]
        assert hash(built[0]) == hash(built[1])
        assert len({*built, Node("S", (BOTTOM,))}) == 2

    def test_unpickled_node_hashes_in_another_process(self):
        term = Node("Cons", (Atom("u"), Node("Nil")))
        code = (
            "import pickle, sys; from structind.semantics import Atom, Node; "
            "t = pickle.loads(sys.stdin.buffer.read()); "
            "print(t in {Node('Cons', (Atom('u'), Node('Nil')))})"
        )
        # Another hash seed than this process's, so string hashes differ.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        result = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(term), capture_output=True, env=env
        )
        assert result.stdout.strip() == b"True", result.stderr

    def test_repr_unchanged(self):
        assert repr(Node("S", (Node("Z"),))) == (
            "Node(ctor='S', children=(Node(ctor='Z', children=()),))"
        )


class TestImmediateSubterms:
    def test_examples(self):
        z = Node("Z")
        assert immediate_subterms(Node("S", (z,))) == [z]
        assert immediate_subterms(z) == []
        assert immediate_subterms(BOTTOM) == []
        assert immediate_subterms(Atom("u")) == []

    def test_atoms_are_not_subterms(self):
        cons = Node("Cons", (Atom("u"), Node("Nil")))
        assert immediate_subterms(cons) == [Node("Nil")]

    def test_bottom_child_counts(self):
        s_bot = Node("S", (BOTTOM,))
        assert immediate_subterms(s_bot) == [BOTTOM]
        assert term_depth(s_bot) == 2


class TestSoundness:
    def test_bool_exhaustive(self):
        report = check_principle(
            induction_principle(parse_decl(corpus.BOOL), GenOptions()), NO_PARAMS, 3, Exhaustive()
        )
        assert report.passed
        assert report.universe_size == 2
        assert report.predicates_checked == 4

    def test_nat_exhaustive(self):
        report = check_principle(
            induction_principle(parse_decl(corpus.NAT), GenOptions()), NO_PARAMS, 3, Exhaustive()
        )
        assert report.passed
        assert report.predicates_checked == 8

    def test_missing_base_clause_found_immediately(self):
        nat = parse_decl(corpus.NAT)
        mutant = delete_clause(nat, False, 0)
        report = check_principle(mutant, NO_PARAMS, 3, Exhaustive())
        assert not report.passed
        predicate, failing = report.counterexample
        assert predicate == ()
        assert failing == Node("Z")
        assert report.predicates_checked == 1

    def test_missing_step_clause(self):
        nat = parse_decl(corpus.NAT)
        mutant = delete_clause(nat, False, 1)
        report = check_principle(mutant, NO_PARAMS, 3, Exhaustive())
        assert not report.passed
        predicate, failing = report.counterexample
        assert Node("Z") in predicate
        assert failing == Node("S", (Node("Z"),))

    def test_exhaustive_limit(self):
        list_ = parse_decl(corpus.LIST)
        env = GroundEnv({"a": ("u", "v")})
        assert len(enumerate_terms(list_, env, 5)) > EXHAUSTIVE_LIMIT
        with pytest.raises(ValueError, match="too large"):
            check_principle(induction_principle(list_, GenOptions()), env, 5, Exhaustive())

    def test_a_label_repeated_in_one_carrier_is_refused(self):
        principle = induction_principle(parse_decl(corpus.LIST), GenOptions())
        with pytest.raises(ValueError, match="repeated label"):
            check_principle(principle, GroundEnv({"a": ("u", "u")}), 2, Exhaustive())

    def test_sampled_determinism(self):
        list_ = parse_decl(corpus.LIST)
        env = GroundEnv({"a": ("u", "v")})
        mode = Sampled(50, seed=7)
        first = check_principle(induction_principle(list_, GenOptions()), env, 4, mode)
        second = check_principle(induction_principle(list_, GenOptions()), env, 4, mode)
        assert first == second
        assert first.passed

    def test_sampled_mutant_determinism(self):
        list_ = parse_decl(corpus.LIST)
        env = GroundEnv({"a": ("u", "v")})
        mutant = delete_clause(list_, False, 1)
        mode = Sampled(200, seed=11)
        first = check_principle(mutant, env, 4, mode)
        second = check_principle(mutant, env, 4, mode)
        assert first == second
        assert not first.passed

    @pytest.mark.parametrize("count", [0, -4])
    def test_a_sample_count_below_one_is_refused(self, count):
        # Otherwise a check of no predicate would pass.
        with pytest.raises(ValueError, match=f"sample count must be at least 1, not {count}"):
            Sampled(count)

    def test_a_passing_check_builds_and_hashes_no_term(self, monkeypatch):
        def fail(self):
            raise AssertionError("a ground term was built or hashed")

        btree = parse_decl(corpus.BTREE)
        env = GroundEnv({"a": ("u", "v")})
        assert universe_size(btree, env, 4) == 1446
        monkeypatch.setattr(Node, "__post_init__", fail)
        monkeypatch.setattr(Atom, "__hash__", fail)
        principle = induction_principle(btree, GenOptions())
        report = check_principle(principle, env, 4, Sampled(40, seed=1))
        assert report.passed and report.universe_size == 1446

    def test_unsupported_type_raises(self):
        with pytest.raises(UnsupportedTypeError):
            check_principle(
                induction_principle(parse_decl(corpus.LAMBDA), GenOptions()),
                GroundEnv({"c": ("k",)}),
                2,
                Exhaustive(),
            )

    NAT_TYPE = App("Nat", ())
    CLAUSE = PredApp("P", TApp("Z", ()))
    NO_BINDER = "formula lacks the predicate binder of a generated principle"
    NO_CONCLUSION = "conclusion does not quantify the declared type"

    @pytest.mark.parametrize(
        "formula, message",
        [
            (PredApp("Q", BOTTOM), NO_BINDER),
            (Forall("n", OfType(NAT_TYPE), PredApp("P", TVar("n"))), NO_BINDER),
            (
                Forall("P", PredOver(NAT_TYPE), CLAUSE),
                "predicate binder body is not an implication",
            ),
            (Forall("P", PredOver(NAT_TYPE), Implies(CLAUSE, CLAUSE)), NO_CONCLUSION),
            (
                Forall(
                    "P",
                    PredOver(NAT_TYPE),
                    Implies(CLAUSE, Forall("n", OfType(NAT_TYPE), PredApp("Q", TVar("n")))),
                ),
                NO_CONCLUSION,
            ),
            (
                Forall(
                    "P",
                    PredOver(NAT_TYPE),
                    Implies(CLAUSE, Forall("n", OfType(Var("a")), PredApp("P", TVar("n")))),
                ),
                NO_CONCLUSION,
            ),
            (
                Forall(
                    "P",
                    PredOver(NAT_TYPE),
                    Implies(CLAUSE, Forall("n", OfType(NAT_TYPE), PredApp("P", TVar("m")))),
                ),
                NO_CONCLUSION,
            ),
            (
                Forall(
                    "P",
                    PredOver(NAT_TYPE),
                    Implies(CLAUSE, Forall("n", OfType(NAT_TYPE), PredApp("P", TApp("S", (TVar("n"),))))),
                ),
                NO_CONCLUSION,
            ),
            (
                Forall(
                    "P",
                    PredOver(NAT_TYPE),
                    Implies(
                        CLAUSE,
                        Forall("n", OfType(NAT_TYPE), And(PredApp("P", TVar("n")), PredApp("Q", BOTTOM))),
                    ),
                ),
                NO_CONCLUSION,
            ),
        ],
    )
    def test_a_malformed_principle_is_refused(self, formula, message):
        principle = Principle(parse_decl(corpus.NAT), False, formula, ())
        with pytest.raises(ValueError) as refused:
            check_principle(principle, NO_PARAMS, 2, Exhaustive())
        assert str(refused.value) == message

    def test_a_mode_that_is_not_a_checking_mode_is_refused(self):
        principle = induction_principle(parse_decl(corpus.NAT), GenOptions())
        with pytest.raises(TypeError) as refused:
            check_principle(principle, NO_PARAMS, 2, None)
        assert str(refused.value) == "not a checking mode: None"

    @given(
        strategies.data_decls(max_ctors=3, max_arity=2, supported_only=True),
        strategies.gen_options(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generator_output_always_passes(self, decl, opts):
        env = GroundEnv({p: (f"{p}1",) for p in decl.type_params})
        # Back off the depth until the check is cheap enough to run.
        depth = 3
        universe = enumerate_terms(decl, env, depth, opts.pointed)
        while depth > 1 and len(universe) > 60:
            depth -= 1
            universe = enumerate_terms(decl, env, depth, opts.pointed)
        mode = Exhaustive() if len(universe) <= EXHAUSTIVE_LIMIT else Sampled(40, seed=3)
        report = check_principle(induction_principle(decl, opts), env, depth, mode)
        assert report.passed


def swap_parameters(clause):
    """The clause with its binders of sort a read at b, and those of b at a."""
    chain = []
    while isinstance(clause, Forall):
        sort = clause.sort
        if isinstance(sort, OfType) and isinstance(sort.ty, Var):
            sort = OfType(Var({"a": "b", "b": "a"}[sort.ty.name]))
        chain.append((clause.var, sort))
        clause = clause.body
    for var, sort in reversed(chain):
        clause = Forall(var, sort, clause)
    return clause


def oracle_cases(name, depth, pointed):
    """The generated principle and each clause-deletion mutant of a corpus
    declaration, with its carriers."""
    decl = parse_decl(corpus.ALL[name])
    principles = [induction_principle(decl, GenOptions(pointed=pointed))]
    principles += [delete_clause(decl, pointed, i) for i in range(len(decl.constructors))]
    return GroundEnv.default_for(decl), principles


# Every enumerable corpus declaration at depths 1-3, pointed and not, and
# sampled universes of 127 to 1,446 terms. The oracle builds a set per
# predicate, so exhaustive checks stop at 12 terms (4,096 predicates).
ORACLE_EXHAUSTIVE_MAX = 12
ORACLE_CORPUS = [(name, depth, pointed) for name, depth, pointed in ENUMERABLE if depth <= 3]
ORACLE_SAMPLED = [
    ("List", 7, False),
    ("Tsil", 6, True),
    ("BTree", 3, True),
    ("STree", 3, True),
    ("SwapTree", 3, True),
    ("STree", 4, False),
    ("SwapTree", 4, False),
    ("BTree", 4, False),
]


class TestCheckerOracle:
    """check_principle against tests/reference_check.py, whole reports."""

    @pytest.mark.parametrize("name, depth, pointed", ORACLE_CORPUS)
    def test_corpus_and_mutants(self, name, depth, pointed):
        env, principles = oracle_cases(name, depth, pointed)
        size = universe_size(principles[0].decl, env, depth, pointed)
        mode = Exhaustive() if size <= ORACLE_EXHAUSTIVE_MAX else Sampled(200, seed=depth)
        for principle in principles:
            report = check_principle(principle, env, depth, mode)
            assert report == reference_check(principle, env, depth, mode)

    @pytest.mark.parametrize("name, depth, pointed", ORACLE_SAMPLED)
    def test_sampled_large_universes(self, name, depth, pointed):
        env, principles = oracle_cases(name, depth, pointed)
        assert 100 <= universe_size(principles[0].decl, env, depth, pointed) <= 1500
        for seed in (1, 2):
            mode = Sampled(40, seed)
            for principle in principles:
                report = check_principle(principle, env, depth, mode)
                assert report == reference_check(principle, env, depth, mode)

    # An atom is its label; the position of the argument tells which
    # parameter it belongs to. A clause whose binders range over the other
    # parameter's carrier builds the same terms when the labels are shared.
    @pytest.mark.parametrize(
        "source",
        [
            corpus.SWAPTREE,
            "data Two a b = L a | R b | B a b (Two a b)",
            "data Two a b = L a | R b",
        ],
    )
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("pointed", [False, True])
    def test_parameters_sharing_a_label(self, source, depth, pointed):
        decl = parse_decl(source)
        env = GroundEnv({"a": ("u",), "b": ("u",)})
        full = induction_principle(decl, GenOptions(pointed=pointed))
        principles = [full]
        principles += [delete_clause(decl, pointed, i) for i in range(len(decl.constructors))]
        for i, (name, clause) in enumerate(full.clauses):
            clauses = list(full.clauses)
            clauses[i] = (name, swap_parameters(clause))
            principles.append(with_clauses(decl, pointed, clauses))
        size = universe_size(decl, env, depth, pointed)
        mode = Exhaustive() if size <= ORACLE_EXHAUSTIVE_MAX else Sampled(200, seed=depth)
        for principle in principles:
            report = check_principle(principle, env, depth, mode)
            assert report == reference_check(principle, env, depth, mode)

    @pytest.mark.parametrize(
        "conclusion",
        [
            # An atom variable in the recursive position of Cons.
            PredApp("P", TApp("Cons", (TVar("x"), TVar("x")))),
            # The predicate applied to an atom variable.
            PredApp("P", TVar("x")),
        ],
    )
    @pytest.mark.parametrize("pointed", [False, True])
    def test_ill_typed_instances_are_skipped(self, conclusion, pointed):
        decl = parse_decl(corpus.LIST)
        env = GroundEnv.default_for(decl)
        nil = induction_principle(decl, GenOptions(pointed=pointed)).clauses[0]
        bad = Forall("x", OfType(Var("a")), conclusion)
        principle = Principle(
            decl, pointed, assemble(decl, pointed, [nil[1], bad]), (nil, ("Cons", bad))
        )
        for depth in (1, 2, 3):
            size = universe_size(decl, env, depth, pointed)
            mode = Exhaustive() if size <= ORACLE_EXHAUSTIVE_MAX else Sampled(200)
            report = check_principle(principle, env, depth, mode)
            assert report == reference_check(principle, env, depth, mode)
            # Every instance of the bad clause is skipped, so the principle
            # fails as if the clause were missing.
            assert report.passed == (depth == 1)

    @staticmethod
    def nat_with_first_clause(clause, pointed):
        """Nat's principle with the clause for Z replaced, so that the first
        predicate that holds of ⊥ (or the first one, unpointed) reads it."""
        decl = parse_decl(corpus.NAT)
        step = induction_principle(decl, GenOptions(pointed=pointed)).clauses[1]
        return with_clauses(decl, pointed, [("Z", clause), step])

    @pytest.mark.parametrize(
        "clause",
        [
            # A clause that every predicate satisfies, and one equivalent to (P Z).
            Implies(PredApp("P", TApp("Z")), PredApp("P", TApp("Z"))),
            And(PredApp("P", TApp("Z")), PredApp("P", TApp("Z"))),
            # The right conjunct leaves the universe below depth 3.
            Forall(
                "n",
                OfType(App("Nat")),
                Implies(
                    And(
                        PredApp("P", TVar("n")),
                        PredApp("P", TApp("S", (TApp("S", (TVar("n"),)),))),
                    ),
                    PredApp("P", TApp("Z")),
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("pointed", [False, True])
    def test_hand_built_clauses(self, clause, pointed):
        principle = self.nat_with_first_clause(clause, pointed)
        for depth in (1, 2, 3):
            report = check_principle(principle, NO_PARAMS, depth, Exhaustive())
            assert report == reference_check(principle, NO_PARAMS, depth, Exhaustive())

    @pytest.mark.parametrize(
        "clause, error, message",
        [
            (PredApp("Q", TApp("Z")), ValueError, "unexpected predicate 'Q' in clause"),
            (BOTTOM, ValueError, "unsupported formula node in clause: Bottom()"),
            (
                Forall("x", OfType(Var("a")), PredApp("P", TApp("Z"))),
                ValueError,
                "unbound type variable 'a' in clause",
            ),
            (
                Forall("x", OfType(App("Bool")), PredApp("P", TApp("Z"))),
                UnsupportedTypeError,
                "cannot range over sort OfType(ty=App(head='Bool', args=()))",
            ),
            (
                Forall("Q", PredOver(App("Nat")), PredApp("P", TApp("Z"))),
                UnsupportedTypeError,
                "cannot range over sort PredOver(ty=App(head='Nat', args=()))",
            ),
            (PredApp("P", TVar("y")), ValueError, "unbound term variable 'y' in clause"),
        ],
    )
    @pytest.mark.parametrize("pointed", [False, True])
    def test_malformed_clauses(self, clause, error, message, pointed):
        principle = self.nat_with_first_clause(clause, pointed)
        for check in (check_principle, reference_check):
            with pytest.raises(error) as err:
                check(principle, NO_PARAMS, 2, Exhaustive())
            assert str(err.value) == message

    def test_the_comparison_covers_refutations(self):
        verdicts = set()
        for name, depth, pointed in ORACLE_CORPUS:
            env, principles = oracle_cases(name, depth, pointed)
            if universe_size(principles[0].decl, env, depth, pointed) <= 4:
                mutants = principles[1:]
                verdicts |= {check_principle(p, env, depth, Exhaustive()).passed for p in mutants}
        assert verdicts == {True, False}


def corpus_size(name, depth, pointed):
    decl = parse_decl(corpus.ALL[name])
    return universe_size(decl, GroundEnv.default_for(decl), depth, pointed)


# Sampled checks of every enumerable corpus declaration at depths 3 and 4,
# pointed and not, up to pointed BTree at depth 4 (21,612 terms). Pointed
# STree and SwapTree at depth 4 (81,610 terms) are left out: the oracle
# builds a set of about half the universe for each predicate.
ORACLE_LAZY = [
    (name, depth, pointed)
    for name, depth, pointed in ENUMERABLE
    if depth >= 3 and corpus_size(name, depth, pointed) <= 25_000
]


class TestLazyUniverse:
    """A check builds the universe a layer at a time, as far as its lookups
    reach; its reports must not show it."""

    @pytest.mark.parametrize("name, depth, pointed", ORACLE_LAZY)
    def test_reports_match_reference(self, name, depth, pointed):
        env, principles = oracle_cases(name, depth, pointed)
        for seed in (1, 2, 3):
            mode = Sampled(8, seed)
            for principle in principles:
                report = check_principle(principle, env, depth, mode)
                assert report == reference_check(principle, env, depth, mode)

    @staticmethod
    def layers_built(monkeypatch) -> list[int]:
        """The universe's length after each layer the checks build."""
        built = []
        layers = semantics._layers

        def counted(*args):
            for keys in layers(*args):
                built.append(len(keys))
                yield keys

        monkeypatch.setattr(semantics, "_layers", counted)
        return built

    def test_a_sampled_check_builds_only_the_layers_it_reaches(self, monkeypatch):
        built = self.layers_built(monkeypatch)
        btree = parse_decl(corpus.BTREE)
        principle = induction_principle(btree, GenOptions(pointed=True))
        env = GroundEnv({"a": ("u", "v")})
        report = check_principle(principle, env, 4, Sampled(200, DEFAULT_SEED))
        assert report.passed and report.universe_size == 21_612
        # Layers 1-3 of 4: no lookup reached a child in layer 3.
        assert built == [3, 12, 147]

    def test_a_counterexample_builds_only_the_layers_its_witness_names(self, monkeypatch):
        built = self.layers_built(monkeypatch)
        mutant = delete_clause(parse_decl(corpus.NAT), False, 1)
        # Predicate 2 holds of Z alone and misses S Z, in layer 2 of 12.
        report = check_principle(mutant, NO_PARAMS, 12, Exhaustive())
        assert (report.predicates_checked, built) == (2, [1, 2])
        assert report == reference_check(mutant, NO_PARAMS, 12, Exhaustive())

    # Seed 3's missed term is the witness's last, seed 7's predicate holds
    # of a later term than the one it misses.
    @pytest.mark.parametrize("seed", [3, 7])
    def test_a_sampled_witness_builds_the_layers_it_names(self, seed, monkeypatch):
        built = self.layers_built(monkeypatch)
        mutant = delete_clause(parse_decl(corpus.NAT), False, 1)
        mode = Sampled(20, seed)
        # Without the step clause every lookup lies in layer 1.
        report = check_principle(mutant, NO_PARAMS, 4, mode)
        assert built == [1, 2, 3]
        assert report == reference_check(mutant, NO_PARAMS, 4, mode)
        # The witness names terms of layer 3, which no lookup reached.
        predicate, missed = report.counterexample
        assert Node("Z") in predicate and max(map(term_depth, (*predicate, missed))) == 3

    # A 677-bit predicate: its terms are read far past one machine word.
    @pytest.mark.parametrize("seed, held", [(1, 333), (2, 352), (3, 345)])
    def test_a_wide_sampled_witness(self, seed, held, monkeypatch):
        built = self.layers_built(monkeypatch)
        mutant = delete_clause(parse_decl("data T = L | N T T"), False, 1)
        mode = Sampled(5, seed)
        report = check_principle(mutant, NO_PARAMS, 5, mode)
        layers = list(built)  # before the reference builds layers of its own
        assert report == reference_check(mutant, NO_PARAMS, 5, mode)
        assert (report.universe_size, report.predicates_checked) == (677, 1)
        assert len(report.counterexample[0]) == held and layers == [1, 2, 5, 26, 677]

    def test_an_exhaustive_check_reaches_every_layer(self, monkeypatch):
        built = self.layers_built(monkeypatch)
        nat = parse_decl(corpus.NAT)
        report = check_principle(induction_principle(nat, GenOptions()), NO_PARAMS, 4, Exhaustive())
        assert report.passed and built == [1, 2, 3, 4]

    # Clauses no generator writes for the unpointed Nat: one on a
    # constructor T that Nat lacks, and P ⊥. No layer holds their keys.
    @pytest.mark.parametrize(
        "odd",
        [
            Forall(
                "n",
                OfType(App("Nat", ())),
                Implies(PredApp("P", TVar("n")), PredApp("P", TApp("T", (TVar("n"),)))),
            ),
            PredApp("P", Bottom()),
        ],
        ids=["unknown constructor", "bottom in an unpointed check"],
    )
    @pytest.mark.parametrize("depth, mode", [(3, Exhaustive()), (6, Sampled(20, 1))])
    def test_a_key_in_no_layer_builds_every_layer(self, odd, depth, mode, monkeypatch):
        built = self.layers_built(monkeypatch)
        nat = parse_decl(corpus.NAT)
        z, s = induction_principle(nat, GenOptions()).clauses
        # The odd clause in place of the step clause, then before all clauses.
        verdicts = []
        for clauses in ([z, ("T", odd)], [("T", odd), z, s]):
            formula = assemble(nat, False, [f for _, f in clauses])
            principle = Principle(nat, False, formula, tuple(clauses))
            built.clear()
            report = check_principle(principle, NO_PARAMS, depth, mode)
            assert built == list(range(1, depth + 1))
            assert report == reference_check(principle, NO_PARAMS, depth, mode)
            verdicts.append(report.passed)
        # Every instance of the odd clause is skipped.
        assert verdicts == [False, True]


SWEEP_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "soundness_sweep.py"
SWEEP_GOLDEN = Path(__file__).resolve().parent / "data" / "soundness_sweep.txt"


def test_soundness_sweep_output_is_unchanged(monkeypatch, capsys):
    """The sweep's verdicts and mutant witnesses, byte for byte."""
    monkeypatch.setattr(sys, "argv", [str(SWEEP_SCRIPT)])
    runpy.run_path(str(SWEEP_SCRIPT), run_name="__main__")
    assert capsys.readouterr().out == SWEEP_GOLDEN.read_text(encoding="utf-8")


class TestFormatGroundTerm:
    def test_forms(self):
        assert format_ground_term(Node("Z")) == "Z"
        assert format_ground_term(Node("S", (BOTTOM,))) == "(S ⊥)"
        assert format_ground_term(Node("Leaf", (Atom("u"),))) == "(Leaf u)"
