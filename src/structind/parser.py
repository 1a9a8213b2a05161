"""Recursive-descent parser for the data-declaration language.

Grammar (one token of lookahead throughout):

    program  :=  { decl }
    decl     :=  "data" UpperName { lowerName } "=" ctor { "|" ctor }
    ctor     :=  UpperName { atype }
    atype    :=  lowerName | UpperName | "(" type ")" | "(" type "," type { "," type } ")"
    type     :=  btype [ "->" type ]
    btype    :=  ( UpperName | lowerName | parenthesized type ) { atype }

Whitespace and "--" line comments are skipped. Types nest at most
MAX_TYPE_NESTING levels deep, each pair of parentheses and each arrow
adding one. Recognizable Haskell features outside this fragment
(deriving clauses, record syntax, strictness annotations, infix
constructors) raise a ParseError that says the feature is unsupported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .core import App, Arrow, ConstructorDecl, DataDecl, TupleType, TypeExpr, Var


@dataclass(frozen=True)
class SourcePos:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    """Syntax or semantic error in declaration or s-expression input."""

    def __init__(self, pos: SourcePos, message: str, expected: tuple[str, ...] = ()):
        super().__init__(f"{pos}: {message}")
        self.pos = pos
        self.message = message
        self.expected = tuple(expected)


def position(text: str, offset: int) -> SourcePos:
    """The line and column of `offset` in `text`, both from 1; only newlines end lines."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SourcePos(text.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Reader:
    """A cursor over the tokens that `pattern` finds in `text`.

    The pattern skips blanks and comments, which start with `comment` and
    run to the end of the line, then captures one token, or "" at the end
    of input, in its only group; a token's index is also the index of its
    match. Tokens are plain strings; a position is worked out from the
    text only when an error needs one.
    """

    pattern: re.Pattern[str]
    comment: str

    def __init__(self, text: str):
        self.text = text
        self.words = self.pattern.findall(text)
        if len(self.words) > 1 and not self.words[-2]:
            self.words.pop()  # input that ends in blanks or a comment matches "" twice
        self.i = 0

    def pos(self, index: int) -> SourcePos:
        """Where token `index` starts. The end of input after a last-line
        comment that no newline ends sits at the comment's start."""
        m = next(islice(self.pattern.finditer(self.text), index, None))
        offset = m.start(1)
        if not m.group(1):
            last_line = max(m.start(), self.text.rfind("\n") + 1)
            comment = self.text.find(self.comment, last_line)
            if comment >= 0:
                offset = comment
        return position(self.text, offset)

    def peek(self) -> str:
        return self.words[self.i]

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        word = self.words[self.i]
        found = repr(word) if word else "end of input"
        raise ParseError(self.pos(self.i), f"{message}, found {found}", expected)


_TOKEN = re.compile(
    r"(?:[ \t\r\n]|--[^\n]*)*"
    r"(->|[=|(),!{}]|[^\W\d_][\w']*|[:#$%&*+./<>?@\\^~-]+|.|\Z)"
)
_KINDS = {w: w for w in ("->", *"=|(),!{}", "data", "deriving")}
_KINDS[""] = "eof"
_OP_CHARS = frozenset(":#$%&*+./<>?@\\^~-")


def _kind(word: str) -> str:
    kind = _KINDS.get(word)
    if kind is None:
        ch = word[0]
        if ch.isalpha():  # the pattern's [^\W\d_] also admits digits such as '²'
            kind = "upper" if ch.isupper() else "lower"
        elif ch in _OP_CHARS:
            kind = "op"
        else:
            kind = "bad"
    return kind


_ATYPE_FIRST = ("lower", "upper", "(")
# Parentheses and arrows nest types; each level costs the parser (and the
# renderers and checker after it) a few stack frames.
MAX_TYPE_NESTING = 100


class _Parser(_Reader):
    pattern, comment = _TOKEN, "--"

    def __init__(self, text: str):
        super().__init__(text)
        kinds = {w: _kind(w) for w in set(self.words)}
        self.kinds = list(map(kinds.__getitem__, self.words))
        if "bad" in self.kinds:
            bad = self.kinds.index("bad")
            raise ParseError(self.pos(bad), f"unexpected character {self.words[bad][0]!r}")
        self.depth = 0

    def kind(self) -> str:
        return self.kinds[self.i]

    def advance(self) -> str:
        self.i += 1
        return self.words[self.i - 1]

    def expect(self, kind: str, what: str) -> str:
        if self.kinds[self.i] != kind:
            self.fail(f"expected {what}", (what,))
        return self.advance()

    def program(self) -> list[DataDecl]:
        decls: list[DataDecl] = []
        seen: set[str] = set()
        while self.kind() != "eof":
            name_at = self.i + 1  # the type name follows 'data'
            decl = self.decl()
            if decl.type_name in seen:
                raise ParseError(
                    self.pos(name_at), f"duplicate declaration of type {decl.type_name!r}"
                )
            seen.add(decl.type_name)
            decls.append(decl)
        return decls

    # --- declarations ---

    def decl(self) -> DataDecl:
        self.expect("data", "'data'")
        name = self.expect("upper", "type name")
        first = self.i
        while self.kind() == "lower":
            self.i += 1
        params = self.words[first : self.i]
        for k, p in enumerate(params):
            if p in params[:k]:
                raise ParseError(self.pos(first + k), f"duplicate type parameter {p!r}")
        if self.kind() == "upper":
            self.fail("type parameters must be lowercase names")
        self.expect("=", "'='")
        # `var` notes each type variable read outside `scope` in `loose`.
        self.scope, self.loose, taken = frozenset(params), set(), set()
        ctors = [self.ctor(name, taken)]
        while self.kind() == "|":
            self.i += 1
            ctors.append(self.ctor(name, taken))
        if self.kind() == "deriving":
            self.fail("unsupported feature: deriving clause")
        # Titlecase letters, and letters without case, lex as lowercase
        # names; DataDecl rejects them, so they are reported where it would.
        for k, p in enumerate(params):
            if not p[0].islower():
                raise ParseError(
                    self.pos(first + k), f"type parameters must be lowercase names, found {p!r}"
                )
        return DataDecl(name, tuple(params), tuple(ctors))

    def ctor(self, type_name: str, taken: set[str]) -> ConstructorDecl:
        if self.kind() == "lower":
            self.fail("constructor names must be uppercase")
        name = self.expect("upper", "constructor name")
        if name in taken:
            raise ParseError(self.pos(self.i - 1), f"duplicate constructor {name!r}")
        taken.add(name)
        if self.kind() == "{":
            self.fail("unsupported feature: record syntax")
        args: list[TypeExpr] = []
        while True:
            kind = self.kind()
            if kind == "!":
                self.fail("unsupported feature: strictness annotation")
            if kind not in _ATYPE_FIRST:
                break
            start = self.i
            ty = self.atype()
            if self.loose:
                raise ParseError(
                    self.pos(start),
                    f"type variable {min(self.loose)!r} is not a parameter of {type_name!r}",
                )
            args.append(ty)
        if self.kind() == "op":
            if self.peek().startswith(":"):
                self.fail("unsupported feature: infix constructor")
            self.fail("unexpected operator")
        return ConstructorDecl(name, tuple(args))

    # --- types ---

    def atype(self) -> TypeExpr:
        kind = self.kind()
        if kind == "lower":
            return self.var()
        if kind == "upper":
            return App(self.advance(), ())
        if kind == "(":
            return self.paren_type()
        self.fail("expected a type")

    def var(self) -> Var:
        name = self.advance()
        if name not in self.scope:
            self.loose.add(name)
        return Var(name)

    def paren_type(self) -> TypeExpr:
        self.expect("(", "'('")
        elems = [self.type_()]
        while self.kind() == ",":
            self.i += 1
            elems.append(self.type_())
        self.expect(")", "')'")
        if len(elems) == 1:
            return elems[0]
        return TupleType(tuple(elems))

    def type_(self) -> TypeExpr:
        if self.depth == MAX_TYPE_NESTING:
            raise ParseError(
                self.pos(self.i), f"type nested more than {MAX_TYPE_NESTING} levels deep"
            )
        self.depth += 1
        ty = self.btype()
        if self.kind() == "->":
            self.i += 1
            ty = Arrow(ty, self.type_())
        self.depth -= 1
        return ty

    def btype(self) -> TypeExpr:
        kind = self.kind()
        if kind == "upper":
            head = self.advance()
            args = []
            while self.kind() in _ATYPE_FIRST:
                args.append(self.atype())
            return App(head, tuple(args))
        if kind == "lower":
            var = self.var()
            if self.kind() in _ATYPE_FIRST:
                self.fail(f"cannot apply arguments to type variable {var.name!r}")
            return var
        if kind == "(":
            ty = self.paren_type()
            if self.kind() in _ATYPE_FIRST:
                self.fail("unsupported feature: application of a parenthesized type")
            return ty
        self.fail("expected a type")


def parse_decl(text: str) -> DataDecl:
    """Parse exactly one declaration; the whole input must be consumed."""
    parser = _Parser(text)
    decl = parser.decl()
    parser.expect("eof", "end of input")
    return decl


def parse_program(text: str) -> list[DataDecl]:
    """Parse zero or more declarations with distinct type names."""
    return _Parser(text).program()
