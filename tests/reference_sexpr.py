"""The s-expression reader as it was before it split its tokens without a
regular expression and read them through locals, kept verbatim as a
differential oracle for `structind.render.parse_sexpr`.

`tests/test_sexpr_reader.py` runs both readers on the same inputs; they
must give the same formula, or the same ParseError (message, position,
expected).
"""

from __future__ import annotations

import re
from itertools import islice

from structind.core import (
    And,
    App,
    Arrow,
    Bottom,
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
    Term,
    TypeExpr,
    Var,
)
from structind.parser import MAX_TYPE_NESTING, ParseError, SourcePos


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


_SX_TOKEN = re.compile(r"(?:[ \t\r\n]|;[^\n]*)*([()]|[^ \t\r\n();]+|\Z)")
# A declaration type nested parser.MAX_TYPE_NESTING levels deep writes type
# forms up to three deep per level (an arrow, an application, a tuple), so
# this admits every type the generator can write; terms it writes are shallow.
MAX_SEXPR_NESTING = 3 * MAX_TYPE_NESTING


class _SxParser(_Reader):
    pattern, comment = _SX_TOKEN, ";"

    def open_(self):
        if self.words[self.i] != "(":
            self.fail("expected '('")
        self.i += 1

    def close_(self):
        if self.words[self.i] != ")":
            self.fail("expected ')'")
        self.i += 1

    def atom(self, what: str) -> str:
        word = self.words[self.i]
        if word in ("(", ")", ""):
            self.fail(f"expected {what}")
        self.i += 1
        return word

    def document(self) -> Formula:
        f = self.formula()
        if self.peek():
            self.fail("expected end of input")
        return f

    def formula(self) -> Formula:
        # `and`, `implies` and `forall` forms wait on `pending` for their
        # subformulas instead of on the call stack, so the long chains the
        # generator writes (a conjunct per constructor, a quantifier and an
        # implication per argument) cost no stack depth. An entry is And or
        # Implies before its left operand is read, (And or Implies, left)
        # after, and (variable, sort) for a quantifier.
        pending: list = []
        open_, atom, close = self.open_, self.atom, self.close_
        push, pop = pending.append, pending.pop
        while True:
            open_()
            tag = atom("a formula form")
            if tag == "forall":
                open_()
                var = atom("a bound variable")
                sort = self.sort()
                close()
                push((var, sort))
                continue
            if tag == "implies":
                push(Implies)
                continue
            if tag == "and":
                push(And)
                continue
            if tag == "pred":
                name = atom("a predicate name")
                f: Formula = PredApp(name, self.term())
            else:
                raise ParseError(self.pos(self.i - 1), f"unknown formula form {tag!r}")
            close()
            while pending:
                form = pop()
                if form is And or form is Implies:
                    push((form, f))
                    break
                if form[0] is And or form[0] is Implies:
                    f = form[0](form[1], f)
                else:
                    f = Forall(form[0], form[1], f)
                close()
            else:
                return f

    def sort(self) -> Sort:
        self.open_()
        tag = self.atom("a sort form")
        if tag == "kind-star":
            self.close_()
            return OF_KIND_STAR
        if tag == "ty":
            ty = self.type_()
            self.close_()
            return OfType(ty)
        if tag == "pred-over":
            ty = self.type_()
            self.close_()
            return PredOver(ty)
        raise ParseError(self.pos(self.i - 1), f"unknown sort form {tag!r}")

    def too_deep(self):
        raise ParseError(
            self.pos(self.i - 1), f"type or term nested more than {MAX_SEXPR_NESTING} levels deep"
        )

    def type_(self, depth: int = 0) -> TypeExpr:
        self.open_()
        if depth == MAX_SEXPR_NESTING:
            self.too_deep()
        tag_at = self.i
        tag = self.atom("a type form")
        if tag == "var":
            name = self.atom("a type variable")
            self.close_()
            return Var(name)
        if tag == "app":
            head = self.atom("a type constructor")
            args = []
            while self.peek() == "(":
                args.append(self.type_(depth + 1))
            self.close_()
            return App(head, tuple(args))
        if tag == "tuple":
            elems = []
            while self.peek() == "(":
                elems.append(self.type_(depth + 1))
            if len(elems) < 2:
                raise ParseError(self.pos(tag_at), "tuple type needs at least two components")
            self.close_()
            return TupleType(tuple(elems))
        if tag == "arrow":
            domain = self.type_(depth + 1)
            codomain = self.type_(depth + 1)
            self.close_()
            return Arrow(domain, codomain)
        raise ParseError(self.pos(tag_at), f"unknown type form {tag!r}")

    def term(self, depth: int = 0) -> Term:
        self.open_()
        if depth == MAX_SEXPR_NESTING:
            self.too_deep()
        tag = self.atom("a term form")
        if tag == "var":
            name = self.atom("a term variable")
            self.close_()
            return TVar(name)
        if tag == "app":
            ctor = self.atom("a constructor name")
            args = []
            while self.peek() == "(":
                args.append(self.term(depth + 1))
            self.close_()
            return TApp(ctor, tuple(args))
        if tag == "bottom":
            self.close_()
            return Bottom()
        raise ParseError(self.pos(self.i - 1), f"unknown term form {tag!r}")


def parse_sexpr(text: str) -> Formula:
    """Inverse of render_sexpr; the whole input must be one formula."""
    return _SxParser(text).document()
