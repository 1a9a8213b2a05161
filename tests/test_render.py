"""Text, LaTeX, s-expression, and declaration-source rendering."""

import pytest
from hypothesis import given, settings

import corpus
import strategies
from latex_reader import parse_latex
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
from structind.generator import GenOptions, induction_principle
from structind.parser import ParseError, parse_decl
from structind.render import (
    parse_sexpr,
    render_decl_source,
    render_latex,
    render_sexpr,
    render_text,
    type_source,
)


# One-constructor types with arguments: the clause is the whole antecedent.
ONE_CONSTRUCTOR = {
    "Box": "data Box = Box Box",
    "Pair": "data Pair a = Pair a (Pair a)",
    "Wide": "data Wide = W " + " ".join(["Wide"] * 11),
}


def principle_for(source, pointed=False):
    return induction_principle(parse_decl(source), GenOptions(pointed=pointed))


class TestRenderText:
    def test_nat_golden(self):
        assert render_text(principle_for(corpus.NAT).formula) == (
            "∀P:Nat → \U0001d539. ((P Z) ∧ "
            "∀n1:Nat. ((P n1) ⇒ (P (S n1)))) ⇒ ∀n:Nat. (P n)"
        )

    def test_bool_golden(self):
        assert render_text(principle_for(corpus.BOOL).formula) == (
            "∀P:Bool → \U0001d539. ((P T) ∧ (P F)) ⇒ ∀b:Bool. (P b)"
        )

    def test_list_applied_type_is_parenthesized(self):
        text = render_text(principle_for(corpus.LIST).formula)
        assert "∀a:*. ∀P:(List a) → \U0001d539. " in text
        assert "∀l2:(List a). " in text
        assert text.endswith("∀l:(List a). (P l)")

    def test_pointed_nat(self):
        text = render_text(principle_for(corpus.NAT, pointed=True).formula)
        assert "((P ⊥) ∧ ((P Z) ∧ " in text

    def test_truth(self):
        assert render_text(Truth()) == "⊤"

    def test_quantified_antecedent_is_parenthesized(self):
        assert render_text(principle_for(ONE_CONSTRUCTOR["Box"]).formula) == (
            "∀P:Box → \U0001d539. (∀b1:Box. ((P b1) ⇒ (P (Box b1)))) ⇒ ∀b:Box. (P b)"
        )

    def test_shadowed_conclusion_variable_gets_suffix(self):
        formula = principle_for("data B a b = MkB a (B a b)").formula
        text = render_text(formula)
        assert text.endswith("∀b0:(B a b). (P b0)")
        # The clause variables are numbered, so they never collide.
        assert "∀b2:(B a b). " in text

    def test_suffix_repeats_until_free(self):
        formula = Forall(
            "b0",
            OF_KIND_STAR,
            Forall("b", OF_KIND_STAR, Forall("b", OfType(Var("b")), PredApp("P", TVar("b")))),
        )
        assert render_text(formula).endswith("∀b00:b. (P b00)")


class TestRenderLatex:
    def test_bool_golden(self):
        assert render_latex(principle_for(corpus.BOOL).formula) == (
            "\\forall P:Bool \\rightarrow {\\mathbb{B}}. "
            "((P\\; T) \\wedge (P\\; F)) \\Rightarrow \\forall b:Bool. (P\\; b)"
        )

    def test_subscripts(self):
        latex = render_latex(principle_for(corpus.NAT).formula)
        assert "\\forall n_1:Nat. " in latex
        assert "(P\\; (S\\; n_1))" in latex

    def test_multi_digit_subscript_is_braced(self):
        decl = parse_decl("data Wide = W " + " ".join(["Wide"] * 11))
        latex = render_latex(induction_principle(decl).formula)
        assert "w_{10}" in latex and "w_{11}" in latex

    def test_kind_star_binder(self):
        latex = render_latex(principle_for(corpus.LIST).formula)
        assert latex.startswith("\\forall a:*. \\forall P:(List\\; a) \\rightarrow {\\mathbb{B}}. ")

    def test_bottom(self):
        latex = render_latex(principle_for(corpus.BOOL, pointed=True).formula)
        assert "(P\\; \\bot)" in latex

    @pytest.mark.parametrize("name", sorted(corpus.ALL) + sorted(ONE_CONSTRUCTOR))
    def test_output_parses_back_to_the_same_formula(self, name):
        formula = principle_for({**corpus.ALL, **ONE_CONSTRUCTOR}[name]).formula
        assert parse_latex(render_latex(formula)) == formula

    def test_balanced_parens_and_braces(self):
        for source in corpus.ALL.values():
            for pointed in (False, True):
                latex = render_latex(principle_for(source, pointed=pointed).formula)
                assert latex.count("(") == latex.count(")")
                assert latex.count("{") == latex.count("}")


class TestSexpr:
    def test_truth(self):
        assert render_sexpr(Truth()) == "(true)"
        assert parse_sexpr("(true)") == Truth()

    def test_forall_shape(self):
        f = Forall("n", OfType(App("Nat")), PredApp("P", TVar("n")))
        s = render_sexpr(f)
        assert s == "(forall (n (ty (app Nat))) (pred P (var n)))"
        assert parse_sexpr(s) == f

    def test_sort_forms(self):
        f = Forall("a", OF_KIND_STAR, Forall("P", PredOver(Var("a")), Truth()))
        s = render_sexpr(f)
        assert "(kind-star)" in s and "(pred-over (var a))" in s
        assert parse_sexpr(s) == f

    def test_arrow_and_tuple_types(self):
        f = Forall(
            "x",
            OfType(Arrow(Var("a"), TupleType((Var("a"), App("Nat"))))),
            PredApp("P", Bottom()),
        )
        s = render_sexpr(f)
        assert "(arrow (var a) (tuple (var a) (app Nat)))" in s
        assert "(bottom)" in s
        assert parse_sexpr(s) == f

    def test_comments_skipped(self):
        assert parse_sexpr("; a comment\n(true) ; trailing") == Truth()

    def test_no_renaming(self):
        formula = principle_for("data B a b = MkB a (B a b)").formula
        s = render_sexpr(formula)
        assert "(forall (b (ty (app B (var a) (var b))))" in s
        assert parse_sexpr(s) == formula

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "expected '('"),
            ("(maybe x)", "unknown formula form"),
            ("(pred P)", "expected '('"),
            ("(and (true))", "expected '('"),
            ("(true) (true)", "expected end of input"),
            ("(forall (x (ty (tuple (var a)))) (true))", "tuple type"),
            ("(true", "expected ')'"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_sexpr(text)
        assert fragment in err.value.message

    def test_error_position(self):
        cases = [
            ("(and (true)\n  (oops))", 2, 4),
            ("(forall (x (nope)) (true))", 1, 13),
            ("(forall (x (ty (nope))) (true))", 1, 17),
            ("(forall (x (ty (tuple (var a)))) (true))", 1, 17),
            ("(pred P (nope))", 1, 10),
            ("(true) (true)", 1, 8),
        ]
        for text, line, column in cases:
            with pytest.raises(ParseError) as err:
                parse_sexpr(text)
            assert (err.value.pos.line, err.value.pos.column) == (line, column), text

    @given(strategies.formulas())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, f):
        assert parse_sexpr(render_sexpr(f)) == f

    @pytest.mark.parametrize("name", sorted(corpus.ALL))
    @pytest.mark.parametrize("pointed", [False, True])
    def test_roundtrip_on_corpus(self, name, pointed):
        formula = principle_for(corpus.ALL[name], pointed=pointed).formula
        assert parse_sexpr(render_sexpr(formula)) == formula


class TestDeclSource:
    def test_nat(self):
        decl = parse_decl(corpus.NAT)
        assert render_decl_source(decl) == "data Nat = Z | S Nat"

    def test_applied_types_parenthesized(self):
        decl = parse_decl(corpus.LIST)
        assert render_decl_source(decl) == "data List a = Nil | Cons a (List a)"

    def test_tuple_and_arrow(self):
        source = "data T a b = C (a, b) (a -> b)"
        assert render_decl_source(parse_decl(source)) == source

    def test_nested_arrow_domain(self):
        source = "data T a = C ((a -> a) -> a)"
        assert render_decl_source(parse_decl(source)) == source

    def test_nested_application(self):
        source = "data Rose a = Rose a (List (Rose a))"
        assert render_decl_source(parse_decl(source)) == source

    @given(strategies.data_decls())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, decl):
        assert parse_decl(render_decl_source(decl)) == decl

    def test_type_source_forms(self):
        assert type_source(Var("a")) == "a"
        assert type_source(App("List", (Var("a"),))) == "List a"
        assert type_source(Arrow(Arrow(Var("a"), Var("b")), Var("c"))) == "(a -> b) -> c"
