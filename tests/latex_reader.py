"""A reader for the package's own LaTeX output, used to test the renderer.

render_latex keeps nested connectives parenthesized and predicate and
constructor applications always parenthesized, so every subformula below
the top level is self-delimiting. The reader mirrors the layout: the
leading quantifier chain scopes to the end of the string, while any other
quantifier scopes over exactly the next self-delimiting group, which may
be a parenthesized quantifier (an antecedent of an implication). On the
principle shapes the generator emits this is an exact inverse of
render_latex, which lets tests check that the rendered string denotes
the formula it came from. A name's "_" is written "\\_"; the one bare "_"
opens its trailing-digit subscript, braced or not.
"""

import re

from structind.core import (
    And,
    App,
    Arrow,
    Bottom,
    Forall,
    Implies,
    OF_KIND_STAR,
    OfType,
    PredApp,
    PredOver,
    TApp,
    TupleType,
    TVar,
    Truth,
    Var,
)

_TOKEN = re.compile(
    r"""\\forall|\\wedge|\\Rightarrow|\\rightarrow|\\bot|\\top
        |\{\\mathbb\{B\}\}
        |[()*.:,]
        |(?P<stem>[A-Za-z](?:[A-Za-z0-9']|\\_)*)(?:_(?P<digits>\d+)|_\{(?P<braced>\d+)\})?
    """,
    re.VERBOSE,
)


def _tokenize(text):
    text = text.replace("\\;", " ")
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        between = text[pos : m.start()]
        if between.strip():
            raise ValueError(f"stray characters {between.strip()!r}")
        tok = m.group(0)
        if m.group("stem"):
            subscript = m.group("digits") or m.group("braced") or ""
            tok = m.group("stem").replace("\\_", "_") + subscript
        tokens.append(tok)
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"stray characters {text[pos:].strip()!r}")
    tokens.append("<eof>")
    return tokens


class _Reader:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.advance()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def _is_name(self, tok):
        return tok not in ("<eof>",) and tok[0].isalpha() and not tok.startswith("\\")

    # formula := leading \forall chain scoping to the end, then at most one
    # bare connective between self-delimiting units
    def formula(self):
        if self.peek() == "\\forall":
            var, sort = self.binder()
            return Forall(var, sort, self.formula())
        left = self.unit()
        tok = self.peek()
        if tok == "\\wedge":
            self.advance()
            return And(left, self.unit())
        if tok == "\\Rightarrow":
            self.advance()
            return Implies(left, self.unit())
        return left

    def binder(self):
        self.expect("\\forall")
        var = self.advance()
        if not self._is_name(var):
            raise ValueError(f"bad binder name {var!r}")
        self.expect(":")
        sort = self.sort()
        self.expect(".")
        return var, sort

    # unit := \top | \forall binder. unit | ( predapp | unit | unit conn unit )
    def unit(self):
        tok = self.peek()
        if tok == "\\forall":
            var, sort = self.binder()
            return Forall(var, sort, self.unit())
        if tok == "\\top":
            self.advance()
            return Truth()
        if tok == "(":
            self.advance()
            if self._is_name(self.peek()):
                pred = self.advance()
                arg = self.term()
                self.expect(")")
                return PredApp(pred, arg)
            left = self.unit()
            conn = self.advance()
            if conn == ")":
                return left
            if conn == "\\wedge":
                inner = And(left, self.unit())
            elif conn == "\\Rightarrow":
                inner = Implies(left, self.unit())
            else:
                raise ValueError(f"expected a connective, got {conn!r}")
            self.expect(")")
            return inner
        raise ValueError(f"unexpected token {tok!r} in formula")

    def sort(self):
        if self.peek() == "*":
            self.advance()
            return OF_KIND_STAR
        ty = self.type_atom()
        if self.peek() == "\\rightarrow":
            self.advance()
            if self.peek() == "{\\mathbb{B}}":
                self.advance()
                return PredOver(ty)
            raise ValueError("sort arrow must end in the booleans")
        return OfType(ty)

    def type_atom(self):
        tok = self.peek()
        if self._is_name(tok):
            self.advance()
            return Var(tok) if tok[0].islower() else App(tok, ())
        if tok == "(":
            self.advance()
            ty = self.type_full()
            if self.peek() == ",":
                elems = [ty]
                while self.peek() == ",":
                    self.advance()
                    elems.append(self.type_full())
                self.expect(")")
                return TupleType(tuple(elems))
            self.expect(")")
            return ty
        raise ValueError(f"unexpected token {tok!r} in type")

    def type_full(self):
        tok = self.peek()
        if self._is_name(tok) and tok[0].isupper():
            self.advance()
            args = []
            while self._is_name(self.peek()) or self.peek() == "(":
                args.append(self.type_atom())
            left = App(tok, tuple(args))
        else:
            left = self.type_atom()
        if self.peek() == "\\rightarrow":
            self.advance()
            return Arrow(left, self.type_full())
        return left

    def term(self):
        tok = self.peek()
        if tok == "\\bot":
            self.advance()
            return Bottom()
        if self._is_name(tok):
            self.advance()
            return TVar(tok) if tok[0].islower() else TApp(tok, ())
        if tok == "(":
            self.advance()
            head = self.advance()
            if not (self._is_name(head) and head[0].isupper()):
                raise ValueError(f"bad constructor {head!r}")
            args = []
            while self.peek() != ")":
                args.append(self.term())
            self.expect(")")
            return TApp(head, tuple(args))
        raise ValueError(f"unexpected token {tok!r} in term")


def parse_latex(text):
    reader = _Reader(_tokenize(text))
    f = reader.formula()
    reader.expect("<eof>")
    return f
