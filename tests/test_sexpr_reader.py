"""`parse_sexpr` against the reader it replaced, kept in `reference_sexpr.py`.

The package's reader splits its tokens without a regular expression and
reads them through locals. On every input it must give the old reader's
tokens, and the same formula or the same ParseError (message, position,
expected).
"""

import random

from hypothesis import given, settings

import corpus
import reference_sexpr
import strategies
from structind import render
from structind.generator import GenOptions, induction_principle
from structind.parser import ParseError, parse_decl
from structind.render import parse_sexpr, render_sexpr


def _outcome(read, text):
    try:
        return "ok", read(text)
    except ParseError as e:
        return "error", e.pos, e.message, e.expected


def assert_same_reading(text):
    assert render._SxParser(text).words == reference_sexpr._SxParser(text).words, text
    assert _outcome(parse_sexpr, text) == _outcome(reference_sexpr.parse_sexpr, text), text


_PRINCIPLES = [
    render_sexpr(induction_principle(parse_decl(source), GenOptions(pointed=pointed)).formula)
    for source in corpus.ALL.values()
    for pointed in (False, True)
]


def test_corpus_principles_read_the_same():
    for text in _PRINCIPLES:
        assert_same_reading(text)
        assert parse_sexpr(text) == reference_sexpr.parse_sexpr(text)


@given(strategies.formulas())
@settings(max_examples=300, deadline=None)
def test_generated_formulas_read_the_same(f):
    assert_same_reading(render_sexpr(f))


# Blanks the reader separates atoms with, blanks it does not (\x0b, \x0c,
# \xa0 are atom characters), comments, parentheses and name characters.
_EDIT_CHARS = "() \t\r\n;\x0b\x0c\xa0" + "aPx1'-_"
_FRAGMENTS = ["(var x)", "(app Z)", "(bottom)", "(ty", "(kind-star)", "; note\n", "))", "(("]


def _edit(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        op = rng.randrange(4)
        if op == 0 or not chars:
            pieces = _EDIT_CHARS if rng.random() < 0.85 else _FRAGMENTS
            chars.insert(k, rng.choice(pieces))
        elif op == 1:
            del chars[min(k, len(chars) - 1)]
        elif op == 2:
            chars[min(k, len(chars) - 1)] = rng.choice(_EDIT_CHARS)
        else:
            del chars[k:]  # a truncation
    return "".join(chars)


# Short bases keep the 20,000 edits quick: each error rescans the text for
# its position.
_BASES = [text for text in _PRINCIPLES if len(text) < 700] + [
    "(true)",
    "(pred P (app S (var n1)))",
    "(forall (a (kind-star)) (forall (x (ty (tuple (var a) (arrow (app N) (var a))))) (true)))",
    "; header\n(and (pred Q (bottom)) (implies (true) (pred P (app C (var x) (bottom)))))",
]


def test_seeded_edits_read_the_same():
    rng = random.Random(8)
    for _ in range(20_000):
        assert_same_reading(_edit(rng, rng.choice(_BASES)))


def test_random_strings_split_the_same():
    rng = random.Random(9)
    alphabet = "() \t\r\n;\x0b\x0c\xa0ab"
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert render._SxParser(text).words == reference_sexpr._SxParser(text).words, text
