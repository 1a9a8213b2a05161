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

from .core import App, Arrow, ConstructorDecl, DataDecl, TupleType, TypeExpr, Var, _unchecked


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
    """A cursor over `words`, the tokens that `pattern` finds in `text`
    without the comments, which start with `comment` and run to the end of
    the line, and then "" for the end of input. Blanks match nothing, so
    the scan steps over them. Tokens are plain strings; a position is
    worked out from the text only when an error needs one.
    """

    pattern: re.Pattern[str]
    comment: str

    def pos(self, index: int) -> SourcePos:
        """Where token `index` starts. The end of input after a last-line
        comment that no newline ends sits at the comment's start."""
        text, offset = self.text, len(self.text)
        for m in self.pattern.finditer(text):
            if m.group().startswith(self.comment):
                if m.end() == len(text):
                    offset = m.start()
            elif index:
                index -= 1
            else:
                offset = m.start()
                break
        return position(text, offset)

    def peek(self) -> str:
        return self.words[self.i]

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        word = self.words[self.i]
        found = repr(word) if word else "end of input"
        raise ParseError(self.pos(self.i), f"{message}, found {found}", expected)

    def fail_at(self, index: int, message: str):
        self.i = index
        self.fail(message)


# One comment or token per match; "--" starts a comment unless an operator
# run holds it, and a character that no longer token takes, blanks aside,
# is a token alone.
_TOKEN = re.compile(r"--[^\n]*|->|[=|(),!{}]|[^\W\d_][\w']*|[:#$%&*+./<>?@\\^~-]+|[^ \t\r\n]")
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
        self.text, self.i = text, 0
        words = _TOKEN.findall(text)
        if "--" in text:  # an operator token never starts with "--"
            words = [w for w in words if w[:2] != "--"]
        words.append("")
        self.words = words
        kinds = {w: _kind(w) for w in set(words)}
        self.kinds = list(map(kinds.__getitem__, words))
        if "bad" in self.kinds:
            bad = self.kinds.index("bad")
            raise ParseError(self.pos(bad), f"unexpected character {self.words[bad][0]!r}")
        self.depth = 0

    def expect(self, kind: str, what: str) -> str:
        if self.kinds[self.i] != kind:
            self.fail(f"expected {what}", (what,))
        self.i += 1
        return self.words[self.i - 1]

    def program(self) -> list[DataDecl]:
        decls: list[DataDecl] = []
        seen: set[str] = set()
        while self.kinds[self.i] != "eof":
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
        while self.kinds[self.i] == "lower":
            self.i += 1
        params = self.words[first : self.i]
        seen: set[str] = set()
        for k, p in enumerate(params):
            if p in seen:
                raise ParseError(self.pos(first + k), f"duplicate type parameter {p!r}")
            seen.add(p)
        if self.kinds[self.i] == "upper":
            self.fail("type parameters must be lowercase names")
        self.expect("=", "'='")
        # Each type variable read outside `scope` is noted in `loose`.
        self.scope, self.loose, taken = frozenset(params), set(), set()
        ctors = [self.ctor(name, taken)]
        while self.kinds[self.i] == "|":
            self.i += 1
            ctors.append(self.ctor(name, taken))
        if self.kinds[self.i] == "deriving":
            self.fail("unsupported feature: deriving clause")
        # Titlecase letters, and letters without case, lex as lowercase
        # names; DataDecl rejects them, so they are reported where it would.
        # With that, the reader has made every check of DataDecl and
        # ConstructorDecl, and builds both without repeating them.
        for k, p in enumerate(params):
            if not p[0].islower():
                raise ParseError(
                    self.pos(first + k), f"type parameters must be lowercase names, found {p!r}"
                )
        return _unchecked(DataDecl, name, tuple(params), tuple(ctors))

    def ctor(self, type_name: str, taken: set[str]) -> ConstructorDecl:
        if self.kinds[self.i] == "lower":
            self.fail("constructor names must be uppercase")
        name = self.expect("upper", "constructor name")
        if name in taken:
            raise ParseError(self.pos(self.i - 1), f"duplicate constructor {name!r}")
        taken.add(name)
        if self.kinds[self.i] == "{":
            self.fail("unsupported feature: record syntax")
        args = self.atypes(type_name)
        if self.kinds[self.i] == "!":
            self.fail("unsupported feature: strictness annotation")
        if self.kinds[self.i] == "op":
            if self.peek().startswith(":"):
                self.fail("unsupported feature: infix constructor")
            self.fail("unexpected operator")
        return _unchecked(ConstructorDecl, name, args)

    # --- types ---

    def atypes(self, type_name: str | None = None) -> tuple[TypeExpr, ...]:
        """The atypes up to the first token that starts none. With `type_name`, they are
        a constructor's arguments, and one that reads a loose variable is an error at its start."""
        kinds, words, scope = self.kinds, self.words, self.scope
        args, i = [], self.i
        while True:
            kind = kinds[i]
            if kind == "upper":
                args.append(App(words[i], ()))
                i += 1
                continue
            start = i
            if kind == "lower":
                if words[i] not in scope:
                    self.loose.add(words[i])
                args.append(Var(words[i]))
                i += 1
            elif kind == "(":
                self.i = i
                args.append(self.paren_type())
                i = self.i
            else:
                self.i = i
                return tuple(args)
            if type_name is not None and self.loose:
                raise ParseError(
                    self.pos(start),
                    f"type variable {min(self.loose)!r} is not a parameter of {type_name!r}",
                )

    def paren_type(self) -> TypeExpr:
        self.i += 1  # past the "(" that the caller saw
        elems = [self.type_()]
        while self.kinds[self.i] == ",":
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
        if self.kinds[self.i] == "->":
            self.i += 1
            ty = Arrow(ty, self.type_())
        self.depth -= 1
        return ty

    def btype(self) -> TypeExpr:
        i, kind = self.i, self.kinds[self.i]
        if kind == "upper":
            self.i += 1
            return App(self.words[i], self.atypes())
        if kind == "lower":
            ty = Var(self.words[i])
            if ty.name not in self.scope:
                self.loose.add(ty.name)
            self.i += 1
        elif kind == "(":
            ty = self.paren_type()
        else:
            self.fail("expected a type")
        if self.kinds[self.i] in _ATYPE_FIRST:
            if kind == "lower":
                self.fail(f"cannot apply arguments to type variable {ty.name!r}")
            self.fail("unsupported feature: application of a parenthesized type")
        return ty


def parse_decl(text: str) -> DataDecl:
    """Parse exactly one declaration; the whole input must be consumed."""
    parser = _Parser(text)
    decl = parser.decl()
    parser.expect("eof", "end of input")
    return decl


def parse_program(text: str) -> list[DataDecl]:
    """Parse zero or more declarations with distinct type names."""
    return _Parser(text).program()
