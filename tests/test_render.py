"""Text, LaTeX, s-expression, and declaration-source rendering."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    free_vars,
)
from structind import render
from structind.generator import GenOptions, induction_principle
from structind.parser import MAX_TYPE_NESTING, ParseError, parse_decl
from structind.render import (
    MAX_SEXPR_NESTING,
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


def _regex_ident(name):
    """A LaTeX name by definition: every "_" escaped, then trailing decimal
    digits subscripted, braced when there are several."""
    name = name.replace("_", "\\_")
    m = re.match(r"(.+?)(\d+)\Z", name)
    if not m:
        return name
    stem, digits = m.groups()
    return f"{stem}_{digits}" if len(digits) == 1 else f"{stem}_{{{digits}}}"


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

    @pytest.mark.parametrize("pointed", [False, True])
    def test_names_with_underscores(self, pointed):
        formula = principle_for("data T a_1 a1 = C a_1 a1 | My_D (T a_1 a1)", pointed).formula
        latex = render_latex(formula)
        # "_" in a name is escaped, so the only bare "_" opens a subscript.
        assert "__" not in latex.replace("\\_", "")
        assert "\\forall a\\__1:*. \\forall a_1:*. " in latex and "My\\_D" in latex
        binders = re.findall(r"\\forall (\S+?):", latex)
        assert len(set(binders)) == len(binders) == 7
        assert parse_latex(latex) == formula

    @pytest.mark.parametrize(
        "name, latex",
        [("x_1", "x\\__1"), ("x12", "x_{12}"), ("a\u0663", "a_\u0663"), ("t\u00b2", "t\u00b2"),
         ("x", "x"), ("_", "\\_"), ("", ""), ("x1\n", "x1\n")],
    )
    def test_ident(self, name, latex):
        assert render._ident(name, render._LATEX) == latex == _regex_ident(name)

    @given(st.text(alphabet="aZ_'1\u0663\u00b2\n") | st.text())
    @settings(max_examples=500, deadline=None)
    def test_ident_matches_the_regex_definition(self, name):
        assert render._ident(name, render._LATEX) == _regex_ident(name)

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


def _chain(form, depth, leaf="(true)"):
    """`depth` copies of `form`, each holding the next as its last operand."""
    return form * depth + leaf + ")" * depth


class TestSexprNesting:
    """Formula chains of any length read back, render and give their free
    variables; types and terms nest at most MAX_SEXPR_NESTING forms deep.
    Results deeper than the interpreter's recursion limit are walked with
    loops, never compared with ==."""

    @pytest.mark.parametrize(
        "form, node",
        [
            ("(and (true) ", And),
            ("(implies (pred P (var x)) ", Implies),
            ("(forall (x (ty (var a))) ", Forall),
        ],
    )
    def test_long_chains_read_back(self, form, node):
        f = parse_sexpr(_chain(form, 1200))
        for _ in range(1200):
            assert isinstance(f, node)
            f = f.consequent if node is Implies else f.body if node is Forall else f.right
        assert f == Truth()

    @pytest.mark.parametrize(
        "form, free",
        [
            ("(and (true) ", set()),
            ("(implies (pred P (var x)) ", {"P", "x"}),
            ("(forall (x (ty (var a))) ", {"a"}),
        ],
    )
    def test_long_chains_render_and_analyse(self, form, free):
        text = _chain(form, 1200)
        f = parse_sexpr(text)
        assert render_sexpr(f) == text
        assert free_vars(f) == free
        assert render_text(f) and render_latex(f)

    def test_long_and_chain_text_and_latex(self):
        f = parse_sexpr(_chain("(and (true) ", 1200))
        assert render_text(f) == "⊤ ∧ (" * 1199 + "⊤ ∧ ⊤" + ")" * 1199
        assert render_latex(f) == "\\top \\wedge (" * 1199 + "\\top \\wedge \\top" + ")" * 1199

    def test_left_nested_chain_reads_back(self):
        f = parse_sexpr("(and " * 1200 + "(true)" + " (true))" * 1200)
        for _ in range(1200):
            assert isinstance(f, And) and f.right == Truth()
            f = f.left
        assert f == Truth()

    def test_errors_inside_a_long_chain_keep_their_position(self):
        with pytest.raises(ParseError) as err:
            parse_sexpr("(and (true)\n" * 1200 + "(oops))")
        assert (err.value.pos.line, err.value.pos.column) == (1201, 2)
        assert err.value.message == "unknown formula form 'oops'"

    @pytest.mark.parametrize(
        "form, leaf",
        [("(app L ", "(var a)"), ("(arrow (var a) ", "(var a)"), ("(tuple (var a) ", "(var a)")],
    )
    def test_types_at_the_cap_read_back(self, form, leaf):
        ty = _chain(form, MAX_SEXPR_NESTING - 1, leaf)
        assert parse_sexpr(f"(forall (x (ty {ty})) (true))") is not None

    def test_terms_at_the_cap_read_back(self):
        assert parse_sexpr(f"(pred P {_chain('(app S ', MAX_SEXPR_NESTING - 1, '(var x)')})")

    @pytest.mark.parametrize(
        "prefix, form, leaf, suffix",
        [
            ("(forall (x (ty ", "(app L ", "(var a)", ")) (true))"),
            ("(forall (P (pred-over ", "(app L ", "(var a)", ")) (true))"),
            ("(pred P ", "(app S ", "(var x)", ")"),
        ],
    )
    def test_deeper_types_and_terms_are_positioned_errors(self, prefix, form, leaf, suffix):
        with pytest.raises(ParseError) as err:
            parse_sexpr(prefix + _chain(form, 1200, leaf) + suffix)
        assert err.value.message == (
            f"type or term nested more than {MAX_SEXPR_NESTING} levels deep"
        )
        # The first form past the cap opens after the prefix and the cap's forms.
        offset = len(prefix) + len(form) * MAX_SEXPR_NESTING
        assert (err.value.pos.line, err.value.pos.column) == (1, offset + 1)

    def test_the_deepest_generated_type_reads_back(self):
        # Each declaration level adds an arrow, an application and a tuple.
        ty = "H a"
        for _ in range(MAX_TYPE_NESTING - 1):
            ty = f"H ({ty}, a) -> a"
        text = render_sexpr(principle_for(f"data D a = D ({ty})").formula)
        assert render_sexpr(parse_sexpr(text)) == text


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


class TestNotAType:
    """Where a type belongs, anything else is a TypeError that names it."""

    SORT = OfType(App("Nat", ()))  # a sort, not a type

    @pytest.mark.parametrize("render", [render_text, render_latex, render_sexpr])
    @pytest.mark.parametrize("ty", [SORT, App("List", (SORT,)), TupleType((Var("a"), SORT))])
    def test_in_a_binder_sort(self, render, ty):
        with pytest.raises(TypeError, match=re.escape(f"not a type: {self.SORT!r}")):
            render(Forall("x", OfType(ty), Truth()))

    @pytest.mark.parametrize("ty", [SORT, App("List", (SORT,)), Arrow(Var("a"), SORT)])
    def test_in_type_source(self, ty):
        with pytest.raises(TypeError, match=re.escape(f"not a type: {self.SORT!r}")):
            type_source(ty)
