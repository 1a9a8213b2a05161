"""The regex tokenizers of both readers against the character-by-character oracles.

`tests/reference_lex.py` keeps the tokenizers that walk the text one
character at a time. The package's readers must give the same tokens,
the same position for every token, and the same ParseError (message,
position, expected) on every input.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import reference_lex
from structind import parser, render
from structind.generator import GenOptions, induction_principle
from structind.parser import ParseError, parse_decl, parse_program
from structind.render import parse_sexpr, render_sexpr


def _outcome(read, text):
    try:
        return "ok", read(text)
    except ParseError as e:
        return "error", e.pos, e.message, e.expected


def _indices(n):
    """Every token of a short input; a spread of them, and the last, of a long one."""
    return range(n) if n <= 80 else sorted({*range(0, n, n // 40), n - 1})


def assert_same_decl_reading(text):
    assert _outcome(parse_program, text) == _outcome(reference_lex.parse_program, text)
    try:
        expected = reference_lex.tokenize(text)
    except ParseError:
        return  # the same error, compared above
    reader = parser._Parser(text)
    assert reader.kinds == [t.kind for t in expected]
    assert reader.words == [t.text for t in expected]
    for k in _indices(len(expected)):
        assert reader.pos(k) == expected[k].pos


def assert_same_sexpr_reading(text):
    assert _outcome(parse_sexpr, text) == _outcome(reference_lex.parse_sexpr, text)
    expected = reference_lex.sx_tokenize(text)
    reader = render._SxParser(text)
    assert reader.words == [t.text for t in expected]
    for k in _indices(len(expected)):
        assert reader.pos(k) == expected[k].pos


# Characters and fragments that sit on the tokenizers' boundaries.
_PIECES = [
    *"aZ()=|,!{}:+.;'_0 \t\r\n", "²", "ǅ", "λ", "Ä", " ", "--", "->", "-->", "+--",
    "-- note\n", "; note\n", "data ", "deriving ", "(var a)", "(app Z)", "(pred P",
]


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(0, 4)):
        k = rng.randint(0, len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars.insert(k, rng.choice(_PIECES))
        elif chars:
            k = min(k, len(chars) - 1)
            if op == 1:
                del chars[k]
            else:
                chars[k] = rng.choice(_PIECES)
    text = "".join(chars)
    if rng.random() < 0.3:
        text += rng.choice(["\n", "  ", " -- end", "--end", " ; end", ";end"])
    return text


_DECLS = list(corpus.ALL.values()) + [
    "-- numbers\ndata Nat = Z -- zero\n\t| S Nat\r\n",
    "data Fun a b = MkFun (a -> b) | Pair (a, b) | Rose a (List (Fun a b))",
]
_SEXPRS = [
    render_sexpr(induction_principle(parse_decl(d), GenOptions(pointed=p)).formula)
    for d in _DECLS
    for p in (False, True)
]


def test_corpus_mutations_read_the_same():
    rng = random.Random(20261018)
    for _ in range(1500):
        assert_same_decl_reading(_mutate(rng, rng.choice(_DECLS)))
    for _ in range(300):
        assert_same_sexpr_reading(_mutate(rng, rng.choice(_SEXPRS)))


_texts = st.lists(st.sampled_from(_PIECES) | st.characters(), max_size=40).map("".join)


@given(_texts)
@settings(max_examples=300, deadline=None)
def test_random_text_reads_the_same(text):
    assert_same_decl_reading(text)
    assert_same_sexpr_reading(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "-- only a comment",
        "data T = A -- a trailing comment without a newline",
        "data T =  -- nothing after the comment",
        "data T = A\n-- last line",
        "data T =\t\tA\r\n  |\tB\r|",
        "data\tT\r=\r\r",
        "data T = A ²",
        "data T = ²A",
        "data T = A _x",
        "data T = A 1",
        "data T = A B",
        "data T = A --> B",
        "data T = A +-- B",
        "data T a = A (a --> a)\n",
        "data T a = A (a ->> a)",
        "data Ärger ä = Ö ä | Ñ",
        "data T = Ωmega | ß",
        "data T ǅ = A",
        "-->",
        "a--b",
        ":--:",
        "->-",
        "data T a = A (a ->- a)",
        "data T = A B--B",
        "--",
        "\f",
        "\v",
        "\u00a0",
        "data T = A\f",
        "data T\v= A",
        "data T =\u00a0A",
        "x\u0663",
        "data T x\u0663 = A x\u0663",
    ],
)
def test_declaration_edge_cases(text):
    assert_same_decl_reading(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "; only a comment",
        "(pred Q (bottom)) ; a trailing comment without a newline",
        "(and (pred Q (bottom)) ; nothing after the comment",
        "(pred Q (bottom))\n; last line",
        # No formula form is called `true`: both readers refuse it at the
        # same position, whatever follows.
        "(true)",
        "(true) ; a trailing comment without a newline",
        "(and (true) ; nothing after the comment",
        "(true)\n; last line",
        "(forall (x (ty (var a))) (true)",
        "(pred\tP\r(var x))",
        "(pred P (var x)) junk",
        "(forall (x (ty (var a))) (pred Q (bottom))",
        "(bogus)",
        "(forall (x (ty (tuple (var a)))) (true))",  # refused at the tuple, before the leaf
        "(pred P (app Ö (var ä)))",
        "(pred P (var x y))",
    ],
)
def test_sexpr_edge_cases(text):
    assert_same_sexpr_reading(text)


def test_end_of_input_after_a_comment_sits_at_the_comment():
    with pytest.raises(ParseError) as err:
        parse_decl("data T =  -- c")
    assert (err.value.pos.line, err.value.pos.column) == (1, 11)
    with pytest.raises(ParseError) as err:
        parse_sexpr("(pred Q (bottom)\n\t; c")
    assert (err.value.pos.line, err.value.pos.column) == (2, 2)


def test_columns_count_tabs_and_carriage_returns_as_one():
    with pytest.raises(ParseError) as err:
        parse_decl("data T =\t\r[")
    assert (err.value.pos.line, err.value.pos.column) == (1, 11)
    assert err.value.message == "unexpected character '['"
