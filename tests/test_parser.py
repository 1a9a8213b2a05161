"""Declaration parsing: grammar coverage, positions, and error reporting."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from structind.core import App, Arrow, ConstructorDecl, DataDecl, TupleType, Var
from structind.parser import MAX_TYPE_NESTING, ParseError, parse_decl, parse_program
from structind.render import render_decl_source

import corpus


class TestGrammar:
    def test_nat(self):
        decl = parse_decl(corpus.NAT)
        assert decl == DataDecl(
            "Nat",
            (),
            (ConstructorDecl("Z"), ConstructorDecl("S", (App("Nat"),))),
        )

    def test_list(self):
        decl = parse_decl(corpus.LIST)
        assert decl.type_params == ("a",)
        assert decl.constructors[1] == ConstructorDecl(
            "Cons", (Var("a"), App("List", (Var("a"),)))
        )

    def test_swap_tree_argument_order(self):
        decl = parse_decl(corpus.SWAPTREE)
        node = decl.constructors[1]
        assert node.arg_types == (
            Var("a"),
            App("SwapTree", (Var("b"), Var("a"))),
            App("SwapTree", (Var("b"), Var("a"))),
        )

    def test_undeclared_type_names_accepted(self):
        decl = parse_decl(corpus.LAMBDA)
        assert decl.constructors[0].arg_types == (App("String"),)

    def test_tuple_argument(self):
        decl = parse_decl("data Pair a b = MkPair (a, b)")
        assert decl.constructors[0].arg_types == (TupleType((Var("a"), Var("b"))),)

    def test_arrow_argument(self):
        decl = parse_decl("data Fun a b = MkFun (a -> b)")
        assert decl.constructors[0].arg_types == (Arrow(Var("a"), Var("b")),)

    def test_arrow_is_right_associative(self):
        decl = parse_decl("data T a = C (a -> a -> a)")
        assert decl.constructors[0].arg_types == (
            Arrow(Var("a"), Arrow(Var("a"), Var("a"))),
        )

    def test_nested_application_needs_parens(self):
        decl = parse_decl("data Rose a = Rose a (List (Rose a))")
        assert decl.constructors[0].arg_types[1] == App(
            "List", (App("Rose", (Var("a"),)),)
        )

    def test_comments_and_whitespace(self):
        text = "-- natural numbers\ndata Nat = Z -- base\n  | S Nat -- step\n"
        assert parse_decl(text) == parse_decl(corpus.NAT)

    def test_grouping_parens(self):
        assert parse_decl("data T = C (Nat)") == parse_decl("data T = C Nat")


class TestErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("data Nat =", "constructor"),
            ("data nat = Z", "type name"),
            ("data Nat = z", "uppercase"),
            ("data T a a = C a", "duplicate type parameter"),
            ("data T A = C", "lowercase"),
            ("data T = C | | D", "constructor"),
            ("Nat = Z", "'data'"),
            ("data T = C b", "not a parameter"),
            ("data T a = C (f a)", "type variable"),
            ("data T a = C ((Either a) a)", "parenthesized"),
            ("data T = C ()", "type"),
        ],
    )
    def test_rejected(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_decl(text)
        assert fragment in err.value.message

    @pytest.mark.parametrize(
        "text",
        [
            "data T = C !Int",
            "data T = C { field :: Int }",
            "data T a = T1 a deriving Show",
            "data T = A :+: B",
        ],
    )
    def test_unsupported_features(self, text):
        with pytest.raises(ParseError) as err:
            parse_decl(text)
        assert "unsupported feature" in err.value.message

    def test_position_of_duplicate_param(self):
        with pytest.raises(ParseError) as err:
            parse_decl("data T a a = C a")
        assert (err.value.pos.line, err.value.pos.column) == (1, 10)

    def test_repeated_constructor(self):
        with pytest.raises(ParseError) as err:
            parse_decl("data T a = A a | B\n  | A")
        assert err.value.message == "duplicate constructor 'A'"
        assert (err.value.pos.line, err.value.pos.column) == (2, 5)

    def test_constructor_names_repeat_across_declarations(self):
        decls = parse_program(corpus.BTREE + "\n" + corpus.STREE + "\n" + corpus.SWAPTREE)
        assert all("Leaf" in [c.name for c in d.constructors] for d in decls)

    def test_position_on_later_line(self):
        with pytest.raises(ParseError) as err:
            parse_decl("data T =\n  C |")
        assert err.value.pos.line == 2

    def test_positions_stay_in_bounds(self):
        for text in ["data Nat =", "data", "data T = C ("]:
            with pytest.raises(ParseError) as err:
                parse_decl(text)
            lines = text.split("\n")
            pos = err.value.pos
            assert 1 <= pos.line <= len(lines)
            assert 1 <= pos.column <= len(lines[pos.line - 1]) + 1

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_decl(corpus.NAT + "\n" + corpus.BOOL)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_decl("data T = C [a]")
        assert "unexpected character" in err.value.message

    @pytest.mark.parametrize("param", ["ǅbe", "中"])
    def test_type_parameter_without_lowercase_start(self, param):
        # Neither is uppercase, so both lex as lowercase names.
        with pytest.raises(ParseError) as err:
            parse_decl(f"data X {param} = A")
        assert (err.value.pos.line, err.value.pos.column) == (1, 8)
        assert err.value.message == f"type parameters must be lowercase names, found {param!r}"


def _nested(shape, depth):
    """A declaration whose one argument type nests `depth` levels deep."""
    if shape == "parens":
        return "data D = D " + "(" * depth + "D" + ")" * depth
    if shape == "applications":
        return "data D a = D " + "(D " * depth + "a" + ")" * depth
    return "data D a = D (" + "a -> " * (depth - 1) + "a)"


class TestNesting:
    @pytest.mark.parametrize("shape", ["parens", "applications", "arrows"])
    def test_nesting_at_the_cap_parses(self, shape):
        decl = parse_decl(_nested(shape, MAX_TYPE_NESTING))
        assert decl.type_name == "D"

    # The error points at the first token of the level past the cap: after
    # "data D = D " and N + 1 "(", after "data D a = D " and N "(D " and a
    # "(", or after "data D a = D (" and N "a -> ".
    @pytest.mark.parametrize(
        "shape, offset",
        [
            ("parens", 11 + MAX_TYPE_NESTING + 1),
            ("applications", 13 + 3 * MAX_TYPE_NESTING + 1),
            ("arrows", 14 + 5 * MAX_TYPE_NESTING),
        ],
    )
    def test_deeper_nesting_is_a_positioned_error(self, shape, offset):
        with pytest.raises(ParseError) as err:
            parse_decl(_nested(shape, 1200))
        assert err.value.message == f"type nested more than {MAX_TYPE_NESTING} levels deep"
        assert (err.value.pos.line, err.value.pos.column) == (1, offset + 1)


class TestProgram:
    def test_two_declarations(self):
        decls = parse_program(corpus.BOOL + "\n" + corpus.MAYBE)
        assert [d.type_name for d in decls] == ["Bool", "Maybe"]

    def test_empty_input(self):
        assert parse_program("") == []
        assert parse_program("-- nothing here\n") == []

    def test_duplicate_type_names(self):
        with pytest.raises(ParseError) as err:
            parse_program(corpus.NAT + "\n" + corpus.NAT)
        assert "duplicate declaration" in err.value.message
        assert (err.value.pos.line, err.value.pos.column) == (2, 6)

    @given(st.lists(strategies.data_decls(), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_concatenated_roundtrip(self, decls):
        unique = list({d.type_name: d for d in decls}.values())
        parsed = parse_program("\n".join(render_decl_source(d) for d in unique))
        assert parsed == unique

    def test_concatenation_preserves_order(self):
        sources = [corpus.NAT, corpus.LIST, corpus.BOOL]
        decls = parse_program("\n".join(sources))
        assert [d.type_name for d in decls] == ["Nat", "List", "Bool"]


def _emit_sources(seed):
    """The benchmark's emit declarations (`perfbench/inputs.py`) as source text."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(inputs)
    return [inputs.decl_source(d) for d in inputs.emit_decls(seed)]


def assert_rebuilds(decls):
    """The parser builds declarations without their `__post_init__` checks;
    each must equal itself rebuilt through them, which would raise
    ValueError for a declaration they reject."""
    for d in decls:
        ctors = tuple(ConstructorDecl(c.name, c.arg_types) for c in d.constructors)
        assert DataDecl(d.type_name, d.type_params, ctors) == d


# Edits that reach the checks the parser makes in place of the constructors':
# case, digits and marks in names, repeated names, and loose variables.
_EDITS = [" ", "a", "b", "A", "B", "_", "'", "1", "\u01c5", "\u00aa", "\u00b2", "x", "|", "(", ")",
          ",", "->", " a", " A", "| A", "| B a", "| Leaf", "| T", " (a, b)", " (a -> z)"]


class TestParsedDeclarationsAreValid:
    def test_corpus(self):
        for source in corpus.ALL.values():
            assert_rebuilds(parse_program(source))

    def test_emit_declarations(self):
        for seed in (1, 2):
            assert_rebuilds(parse_program("".join(_emit_sources(seed))))

    @given(st.lists(strategies.data_decls(), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_generated_declarations(self, decls):
        unique = list({d.type_name: d for d in decls}.values())
        assert_rebuilds(parse_program("\n".join(render_decl_source(d) for d in unique)))

    def test_every_edit_that_parses(self):
        rng = random.Random(20261019)
        sources = [*corpus.ALL.values(), *_emit_sources(3)[:21], "data T a b = C a | D (b, a) b"]
        parsed = 0
        for _ in range(3000):
            chars = list(rng.choice(sources))
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(chars) + 1)
                if rng.random() < 0.5:
                    chars.insert(k, rng.choice(_EDITS))
                elif k < len(chars):
                    chars[k] = rng.choice(_EDITS)
            try:
                decls = parse_program("".join(chars))
            except ParseError:
                continue
            assert_rebuilds(decls)
            parsed += 1
        assert parsed > 500
