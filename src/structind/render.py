"""Rendering of formulas and declarations: plain text, LaTeX, s-expressions.

Text and LaTeX share one layout: the top-level connective after the
leading quantifier chain stays bare, nested conjunctions and implications
parenthesize themselves, predicate and constructor applications are always
parenthesized, and a quantifier body extends as far right as its context
allows. A quantified antecedent of an implication is parenthesized, so
that a one-constructor type's clause does not read as part of the
leading chain. When a term or predicate binder shadows a type variable
in scope, its displayed name gets "0" appended until it is distinct; the
underlying AST is untouched, and the s-expression format never renames.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .core import (
    And,
    App,
    Arrow,
    BOTTOM,
    DataDecl,
    Forall,
    Formula,
    Implies,
    OF_KIND_STAR,
    OfKindStar,
    OfType,
    PredApp,
    PredOver,
    Sort,
    TApp,
    TupleType,
    TVar,
    Term,
    Truth,
    TypeExpr,
    Var,
)
from .parser import MAX_TYPE_NESTING, ParseError, _Reader


@dataclass(frozen=True)
class _Style:
    forall: str
    wedge: str
    implies: str
    arrow: str
    bool_sym: str
    bottom: str
    truth: str
    sep: str
    subscripts: bool


_TEXT = _Style("∀", " ∧ ", " ⇒ ", " → ", "\U0001d539", "⊥", "⊤", " ", False)
_LATEX = _Style(
    "\\forall ",
    " \\wedge ",
    " \\Rightarrow ",
    " \\rightarrow ",
    "{\\mathbb{B}}",
    "\\bot",
    "\\top",
    "\\; ",
    True,
)

_TRAILING_DIGITS = re.compile(r"(.+?)(\d+)$")


def _ident(name: str, st: _Style) -> str:
    if not st.subscripts:
        return name
    # Escape "_" first, so that only the trailing digits' subscript has a bare "_".
    if "_" in name:
        name = name.replace("_", "\\_")
    m = _TRAILING_DIGITS.match(name) if name[-1:].isdigit() else None
    if not m:
        return name
    stem, digits = m.groups()
    if len(digits) == 1:
        return f"{stem}_{digits}"
    return f"{stem}_{{{digits}}}"


def _term(t: Term, st: _Style, ren: dict[str, str]) -> str:
    if isinstance(t, TVar):
        return _ident(ren.get(t.name, t.name), st)
    if isinstance(t, TApp):
        if not t.args:
            return _ident(t.ctor, st)
        parts = [_ident(t.ctor, st)] + [_term(a, st, ren) for a in t.args]
        return "(" + st.sep.join(parts) + ")"
    return st.bottom


def _type_ann(ty: TypeExpr, st: _Style) -> str:
    if isinstance(ty, Var):
        return _ident(ty.name, st)
    if isinstance(ty, App):
        if not ty.args:
            return _ident(ty.head, st)
        parts = [_ident(ty.head, st)] + [_type_ann(a, st) for a in ty.args]
        return "(" + st.sep.join(parts) + ")"
    if isinstance(ty, TupleType):
        return "(" + ", ".join(_type_full(e, st) for e in ty.elems) + ")"
    if isinstance(ty, Arrow):
        return "(" + _type_full(ty, st) + ")"
    raise TypeError(f"not a type: {ty!r}")


def _type_full(ty: TypeExpr, st: _Style) -> str:
    if isinstance(ty, Arrow):
        dom = _type_full(ty.domain, st) if not isinstance(ty.domain, Arrow) else _type_ann(ty.domain, st)
        return f"{dom}{st.arrow}{_type_full(ty.codomain, st)}"
    return _type_ann(ty, st)


def _sort(s: Sort, st: _Style) -> str:
    if isinstance(s, OfKindStar):
        return "*"
    if isinstance(s, OfType):
        return _type_ann(s.ty, st)
    return f"{_type_ann(s.ty, st)}{st.arrow}{st.bool_sym}"


def _formula(
    f: Formula, st: _Style, top: bool, tscope: frozenset[str], ren: dict[str, str]
) -> str:
    # The right spine (quantifier bodies, right conjuncts, consequents) is
    # walked in a loop, so the long chains the generator writes (a conjunct
    # per constructor, a quantifier per argument) cost no stack depth. Each
    # connective that is not on top opens a parenthesis that closes at the
    # very end, because everything after it is its right operand.
    out: list[str] = []
    opened = 0
    while True:
        if isinstance(f, Forall):
            display = f.var
            if isinstance(f.sort, OfKindStar):
                tscope = tscope | {f.var}
            else:
                while display in tscope:
                    display += "0"
                if display != f.var:
                    ren = {**ren, f.var: display}
            out.append(f"{st.forall}{_ident(display, st)}:{_sort(f.sort, st)}. ")
            f = f.body
            continue
        if isinstance(f, And):
            left, connective, right = f.left, st.wedge, f.right
        elif isinstance(f, Implies):
            left, connective, right = f.antecedent, st.implies, f.consequent
        else:
            break
        if not top:
            out.append("(")
            opened += 1
        operand = _formula(left, st, False, tscope, ren)
        if isinstance(f, Implies) and isinstance(left, Forall):
            operand = f"({operand})"
        out.append(operand + connective)
        f, top = right, False
    if isinstance(f, Truth):
        out.append(st.truth)
    elif isinstance(f, PredApp):
        head = _ident(ren.get(f.pred, f.pred), st)
        out.append(f"({head}{st.sep}{_term(f.arg, st, ren)})")
    else:
        raise TypeError(f"not a formula: {f!r}")
    out.append(")" * opened)
    return "".join(out)


def render_text(f: Formula) -> str:
    return _formula(f, _TEXT, True, frozenset(), {})


def render_latex(f: Formula) -> str:
    return _formula(f, _LATEX, True, frozenset(), {})


# --- declaration source ---------------------------------------------------------


def type_source(ty: TypeExpr) -> str:
    """A type in declaration syntax, parenthesized as little as possible."""
    if isinstance(ty, Arrow):
        dom = type_source(ty.domain) if not isinstance(ty.domain, Arrow) else f"({type_source(ty.domain)})"
        return f"{dom} -> {type_source(ty.codomain)}"
    if isinstance(ty, App) and ty.args:
        return " ".join([ty.head] + [_atype_source(a) for a in ty.args])
    return _atype_source(ty)


def _atype_source(ty: TypeExpr) -> str:
    if isinstance(ty, Var):
        return ty.name
    if isinstance(ty, App):
        if not ty.args:
            return ty.head
        return f"({type_source(ty)})"
    if isinstance(ty, TupleType):
        return "(" + ", ".join(type_source(e) for e in ty.elems) + ")"
    if isinstance(ty, Arrow):
        return f"({type_source(ty)})"
    raise TypeError(f"not a type: {ty!r}")


def render_decl_source(decl: DataDecl) -> str:
    """Declaration source text that parses back to an equal DataDecl."""
    head = " ".join(["data", decl.type_name, *decl.type_params])
    ctors = []
    for ctor in decl.constructors:
        ctors.append(" ".join([ctor.name] + [_atype_source(t) for t in ctor.arg_types]))
    return f"{head} = " + " | ".join(ctors)


# --- s-expressions ----------------------------------------------------------------


def render_sexpr(f: Formula) -> str:
    return _sx_formula(f)


def _sx_formula(f: Formula) -> str:
    # As in _formula, the right spine is a loop: every form on it closes at
    # the very end.
    out: list[str] = []
    opened = 0
    while True:
        if isinstance(f, And):
            out.append(f"(and {_sx_formula(f.left)} ")
            f = f.right
        elif isinstance(f, Implies):
            out.append(f"(implies {_sx_formula(f.antecedent)} ")
            f = f.consequent
        elif isinstance(f, Forall):
            out.append(f"(forall ({f.var} {_sx_sort(f.sort)}) ")
            f = f.body
        else:
            break
        opened += 1
    if isinstance(f, Truth):
        out.append("(true)")
    elif isinstance(f, PredApp):
        out.append(f"(pred {f.pred} {_sx_term(f.arg)})")
    else:
        raise TypeError(f"not a formula: {f!r}")
    out.append(")" * opened)
    return "".join(out)


def _sx_sort(s: Sort) -> str:
    if isinstance(s, OfKindStar):
        return "(kind-star)"
    if isinstance(s, OfType):
        return f"(ty {_sx_type(s.ty)})"
    return f"(pred-over {_sx_type(s.ty)})"


def _sx_type(ty: TypeExpr) -> str:
    if isinstance(ty, Var):
        return f"(var {ty.name})"
    if isinstance(ty, App):
        parts = ["app", ty.head] + [_sx_type(a) for a in ty.args]
        return "(" + " ".join(parts) + ")"
    if isinstance(ty, TupleType):
        return "(" + " ".join(["tuple"] + [_sx_type(e) for e in ty.elems]) + ")"
    if isinstance(ty, Arrow):
        return f"(arrow {_sx_type(ty.domain)} {_sx_type(ty.codomain)})"
    raise TypeError(f"not a type: {ty!r}")


def _sx_term(t: Term) -> str:
    if isinstance(t, TVar):
        return f"(var {t.name})"
    if isinstance(t, TApp):
        parts = ["app", t.ctor] + [_sx_term(a) for a in t.args]
        return "(" + " ".join(parts) + ")"
    return "(bottom)"


# --- s-expression parsing ------------------------------------------------------------


_SX_TOKEN = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")
_SX_COMMENT = re.compile(r";[^\n]*")
_SX_SPACING = (("(", " ( "), (")", " ) "), ("\t", " "), ("\r", " "), ("\n", " "))
_NOT_ATOM = ("(", ")", "")
# A declaration type nested parser.MAX_TYPE_NESTING levels deep writes type
# forms up to three deep per level (an arrow, an application, a tuple), so
# this admits every type the generator can write; terms it writes are shallow.
MAX_SEXPR_NESTING = 3 * MAX_TYPE_NESTING


class _SxParser(_Reader):
    """Each method reads from token `self.i` on and leaves `self.i` after what it read."""

    pattern, comment = _SX_TOKEN, ";"

    def __init__(self, text: str):
        # The pattern's tokens, split without it: comments go, parentheses
        # stand alone, and only " \t\r\n" separate atoms.
        self.text = text
        spaced = _SX_COMMENT.sub("", text) if ";" in text else text
        for old, new in _SX_SPACING:
            spaced = spaced.replace(old, new)
        self.words = [*filter(None, spaced.split(" ")), ""]
        self.i = 0

    def close_(self):
        if self.words[self.i] != ")":
            self.fail("expected ')'")
        self.i += 1

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
        words, i = self.words, self.i
        while True:
            if words[i] != "(":
                self.fail_at(i, "expected '('")
            tag, i = words[i + 1], i + 2
            if tag == "forall":
                if words[i] != "(":
                    self.fail_at(i, "expected '('")
                if words[i + 1] in _NOT_ATOM:
                    self.fail_at(i + 1, "expected a bound variable")
                self.i = i + 2
                pending.append((words[i + 1], self.sort()))
                self.close_()
                i = self.i
                continue
            if tag == "implies" or tag == "and":
                pending.append(Implies if tag == "implies" else And)
                continue
            if tag == "pred":
                if words[i] in _NOT_ATOM:
                    self.fail_at(i, "expected a predicate name")
                self.i = i + 1
                f: Formula = PredApp(words[i], self.term())
                i = self.i
            elif tag == "true":
                f = Truth()
            else:
                self.bad_form(i - 1, "formula")
            while True:  # close the forms that `f` completes
                if words[i] != ")":
                    self.fail_at(i, "expected ')'")
                i += 1
                if not pending:
                    self.i = i
                    return f
                form = pending.pop()
                if form is And or form is Implies:
                    pending.append((form, f))
                    break
                if form[0] is And or form[0] is Implies:
                    f = form[0](form[1], f)
                else:
                    f = Forall(form[0], form[1], f)

    def sort(self) -> Sort:
        tag = self.open_form()
        if tag == "kind-star":
            sort: Sort = OF_KIND_STAR
        elif tag == "ty" or tag == "pred-over":
            sort = OfType(self.type_()) if tag == "ty" else PredOver(self.type_())
        else:
            self.bad_form(self.i - 1, "sort")
        self.close_()
        return sort

    def bad_form(self, index: int, noun: str) -> NoReturn:
        """Refuse token `index`, where the tag of a `noun` form should stand."""
        tag = self.words[index]
        if tag in _NOT_ATOM:
            self.fail_at(index, f"expected a {noun} form")
        raise ParseError(self.pos(index), f"unknown {noun} form {tag!r}")

    def open_form(self, depth: int = 0) -> str:
        """Read the "(" and the tag of a form inside `depth` type or term forms."""
        words, i = self.words, self.i
        if words[i] != "(":
            self.fail_at(i, "expected '('")
        if depth == MAX_SEXPR_NESTING:
            raise ParseError(self.pos(i), f"type or term nested more than {depth} levels deep")
        self.i = i + 2
        return words[i + 1]

    def named(self, tag: str, var_what: str, app_what: str, read, depth: int) -> tuple[str, tuple]:
        """The rest of a `var` or `app` form: its name, and an `app`'s arguments via `read`."""
        words, i = self.words, self.i
        name = words[i]
        if name in _NOT_ATOM:
            self.fail_at(i, f"expected {var_what if tag == 'var' else app_what}")
        args, i = [], i + 1
        while tag == "app" and words[i] == "(":
            self.i = i
            args.append(read(depth + 1))
            i = self.i
        if words[i] != ")":
            self.fail_at(i, "expected ')'")
        self.i = i + 1
        return name, tuple(args)

    def type_(self, depth: int = 0) -> TypeExpr:
        tag = self.open_form(depth)
        if tag == "var" or tag == "app":
            name, args = self.named(tag, "a type variable", "a type constructor", self.type_, depth)
            return Var(name) if tag == "var" else App(name, args)
        if tag == "arrow":
            ty: TypeExpr = Arrow(self.type_(depth + 1), self.type_(depth + 1))
        elif tag == "tuple":
            tag_at, elems = self.i - 1, []
            while self.words[self.i] == "(":
                elems.append(self.type_(depth + 1))
            if len(elems) < 2:
                raise ParseError(self.pos(tag_at), "tuple type needs at least two components")
            ty = TupleType(tuple(elems))
        else:
            self.bad_form(self.i - 1, "type")
        self.close_()
        return ty

    def term(self, depth: int = 0) -> Term:
        tag = self.open_form(depth)
        if tag == "var" or tag == "app":
            name, args = self.named(tag, "a term variable", "a constructor name", self.term, depth)
            return TVar(name) if tag == "var" else TApp(name, args)
        if tag != "bottom":
            self.bad_form(self.i - 1, "term")
        self.close_()
        return BOTTOM


def parse_sexpr(text: str) -> Formula:
    """Inverse of render_sexpr; the whole input must be one formula."""
    return _SxParser(text).document()
