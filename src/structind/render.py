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

from .core import (
    And,
    App,
    Arrow,
    Bottom,
    DataDecl,
    Forall,
    Formula,
    Implies,
    KindStar,
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
from .parser import ParseError, _Reader


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
    m = _TRAILING_DIGITS.match(name)
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
    raise ValueError("the kind * cannot appear inside a type")


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
    if isinstance(f, Truth):
        return st.truth
    if isinstance(f, PredApp):
        head = _ident(ren.get(f.pred, f.pred), st)
        return f"({head}{st.sep}{_term(f.arg, st, ren)})"
    if isinstance(f, And):
        s = _formula(f.left, st, False, tscope, ren) + st.wedge + _formula(
            f.right, st, False, tscope, ren
        )
        return s if top else f"({s})"
    if isinstance(f, Implies):
        antecedent = _formula(f.antecedent, st, False, tscope, ren)
        if isinstance(f.antecedent, Forall):
            antecedent = f"({antecedent})"
        s = antecedent + st.implies + _formula(f.consequent, st, False, tscope, ren)
        return s if top else f"({s})"
    if isinstance(f, Forall):
        if isinstance(f.sort, OfKindStar):
            display = f.var
            tscope = tscope | {f.var}
        else:
            display = f.var
            while display in tscope:
                display += "0"
            if display != f.var:
                ren = {**ren, f.var: display}
        binder = f"{st.forall}{_ident(display, st)}:{_sort(f.sort, st)}. "
        return binder + _formula(f.body, st, top, tscope, ren)
    raise TypeError(f"not a formula: {f!r}")


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
    raise ValueError("the kind * cannot appear inside a type")


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
    if isinstance(f, Truth):
        return "(true)"
    if isinstance(f, PredApp):
        return f"(pred {f.pred} {_sx_term(f.arg)})"
    if isinstance(f, And):
        return f"(and {_sx_formula(f.left)} {_sx_formula(f.right)})"
    if isinstance(f, Implies):
        return f"(implies {_sx_formula(f.antecedent)} {_sx_formula(f.consequent)})"
    if isinstance(f, Forall):
        return f"(forall ({f.var} {_sx_sort(f.sort)}) {_sx_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


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
    raise ValueError("the kind * cannot appear inside a type")


def _sx_term(t: Term) -> str:
    if isinstance(t, TVar):
        return f"(var {t.name})"
    if isinstance(t, TApp):
        parts = ["app", t.ctor] + [_sx_term(a) for a in t.args]
        return "(" + " ".join(parts) + ")"
    return "(bottom)"


# --- s-expression parsing ------------------------------------------------------------


_SX_TOKEN = re.compile(r"(?:[ \t\r\n]|;[^\n]*)*([()]|[^ \t\r\n();]+|\Z)")


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
        self.open_()
        tag = self.atom("a formula form")
        if tag == "true":
            self.close_()
            return Truth()
        if tag == "pred":
            name = self.atom("a predicate name")
            arg = self.term()
            self.close_()
            return PredApp(name, arg)
        if tag == "and":
            left = self.formula()
            right = self.formula()
            self.close_()
            return And(left, right)
        if tag == "implies":
            antecedent = self.formula()
            consequent = self.formula()
            self.close_()
            return Implies(antecedent, consequent)
        if tag == "forall":
            self.open_()
            var = self.atom("a bound variable")
            sort = self.sort()
            self.close_()
            body = self.formula()
            self.close_()
            return Forall(var, sort, body)
        raise ParseError(self.pos(self.i - 1), f"unknown formula form {tag!r}")

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

    def type_(self) -> TypeExpr:
        self.open_()
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
                args.append(self.type_())
            self.close_()
            return App(head, tuple(args))
        if tag == "tuple":
            elems = []
            while self.peek() == "(":
                elems.append(self.type_())
            if len(elems) < 2:
                raise ParseError(self.pos(tag_at), "tuple type needs at least two components")
            self.close_()
            return TupleType(tuple(elems))
        if tag == "arrow":
            domain = self.type_()
            codomain = self.type_()
            self.close_()
            return Arrow(domain, codomain)
        raise ParseError(self.pos(tag_at), f"unknown type form {tag!r}")

    def term(self) -> Term:
        self.open_()
        tag = self.atom("a term form")
        if tag == "var":
            name = self.atom("a term variable")
            self.close_()
            return TVar(name)
        if tag == "app":
            ctor = self.atom("a constructor name")
            args = []
            while self.peek() == "(":
                args.append(self.term())
            self.close_()
            return TApp(ctor, tuple(args))
        if tag == "bottom":
            self.close_()
            return Bottom()
        raise ParseError(self.pos(self.i - 1), f"unknown term form {tag!r}")


def parse_sexpr(text: str) -> Formula:
    """Inverse of render_sexpr; the whole input must be one formula."""
    return _SxParser(text).document()
