"""Text, LaTeX, s-expression, and declaration-source rendering."""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import reference_source
import strategies
from formula_shape import alternating_chain, subformulas
from latex_reader import parse_latex
from line_count import lines_run
from structind.core import (
    And,
    App,
    Arrow,
    BOTTOM,
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
    Var,
    alpha_eq,
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


# Arrow and tuple argument types. The binder sort of C's third argument is
# `(a → b → (T a b))`, while declaration syntax leaves the application bare:
# the one place where the two print a type differently.
ARROWS_AND_TUPLES = {
    "Fun": "data T a b = C (a, b) (a -> b) (a -> b -> T a b) (T a b)",
    "Higher": "data T a = C ((a -> a) -> a)",
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

    def test_quantified_antecedent_is_parenthesized(self):
        assert render_text(principle_for(ONE_CONSTRUCTOR["Box"]).formula) == (
            "∀P:Box → \U0001d539. (∀b1:Box. ((P b1) ⇒ (P (Box b1)))) ⇒ ∀b:Box. (P b)"
        )

    def test_arrow_and_tuple_sorts(self):
        assert render_text(principle_for(ARROWS_AND_TUPLES["Fun"]).formula) == (
            "∀a:*. ∀b:*. ∀P:(T a b) → \U0001d539. (∀x1:(a, b). ∀x2:(a → b). "
            "∀x3:(a → b → (T a b)). ∀t4:(T a b). ((P t4) ⇒ (P (C x1 x2 x3 t4)))) "
            "⇒ ∀t:(T a b). (P t)"
        )
        assert render_text(principle_for(ARROWS_AND_TUPLES["Higher"]).formula) == (
            "∀a:*. ∀P:(T a) → \U0001d539. (∀x1:((a → a) → a). (P (C x1))) "
            "⇒ ∀t:(T a). (P t)"
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

    @pytest.mark.parametrize("n", [2_500, 5_000])
    @pytest.mark.parametrize("term", ["x", "a"])
    def test_an_alternating_chain_is_rendered_in_linear_work(self, term, n):
        # At most 100 lines of the renderer run per pair of binders: a type
        # binder, or a term binder renamed because it shadows one, joins the
        # scope without walking the binders before it.
        call = functools.partial(render_text, alternating_chain(n, term))
        text = lines_run({render.__file__}, call, 100 * n)
        assert text.startswith("∀a1:*. ∀") and text.count(":*. ") == text.count("(P ") == n


# Declarations whose term binders shadow type parameters, with each renamed
# binder and the name it is shown with, in binder order.
SHADOWING = {
    "data T x1 = C" + " x1" * 10: [("x1", "x100")],
    "data T x1 x10 = C" + " x1" * 10: [("x1", "x100"), ("x10", "x1000")],
    "data B a b = MkB a (B a b)": [("b", "b0")],
}


class TestDisplayNames:
    """A renamed binder is shown with a name that no other variable of the
    formula has or is shown with, so the text denotes the formula."""

    FORMULAS = {
        **{source: principle_for(source).formula for source in SHADOWING},
        "alternating chain": alternating_chain(10, "a"),
        # A predicate binder and a term binder of one name, both shadowing a type variable.
        "one name in two namespaces": Forall(
            "a",
            OF_KIND_STAR,
            Forall("a", PredOver(Var("a")), Forall("a", OfType(Var("a")), PredApp("a", TVar("a")))),
        ),
        **{
            f"{name}{' pointed' * pointed}": principle_for(source, pointed).formula
            for name, source in corpus.ALL.items()
            for pointed in (False, True)
        },
    }

    @pytest.mark.parametrize("source, renamed", SHADOWING.items())
    def test_a_renamed_binder_is_shown_with_a_new_name(self, source, renamed):
        formula = principle_for(source).formula
        binders = [g.var for g in subformulas(formula) if isinstance(g, Forall)]
        shown = re.findall(r"∀(\S+?):", render_text(formula))
        assert [(b, s) for b, s in zip(binders, shown) if b != s] == renamed

    @pytest.mark.parametrize("name", FORMULAS)
    def test_latex_reads_back_to_the_formula(self, name):
        # Braced subscripts are rewritten as perfbench/run.py rewrites them: x_{12} as x_12.
        latex = re.sub(r"_\{(\d+)\}", r"_\1", render_latex(self.FORMULAS[name]))
        assert alpha_eq(parse_latex(latex), self.FORMULAS[name])

    def test_no_term_binder_of_a_chain_is_shown_with_a_type_binder_name(self):
        text = render_text(alternating_chain(10, "a"))
        types, terms = re.findall(r"∀(\S+?):\*", text), re.findall(r"∀(\S+?):a", text)
        assert len(types) == len(terms) == 10 and not set(types) & set(terms)


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

    def test_arrow_and_tuple_sorts(self):
        assert render_latex(principle_for(ARROWS_AND_TUPLES["Fun"]).formula) == (
            "\\forall a:*. \\forall b:*. \\forall P:(T\\; a\\; b) \\rightarrow {\\mathbb{B}}. "
            "(\\forall x_1:(a, b). \\forall x_2:(a \\rightarrow b). "
            "\\forall x_3:(a \\rightarrow b \\rightarrow (T\\; a\\; b)). "
            "\\forall t_4:(T\\; a\\; b). "
            "((P\\; t_4) \\Rightarrow (P\\; (C\\; x_1\\; x_2\\; x_3\\; t_4)))) "
            "\\Rightarrow \\forall t:(T\\; a\\; b). (P\\; t)"
        )
        assert render_latex(principle_for(ARROWS_AND_TUPLES["Higher"]).formula) == (
            "\\forall a:*. \\forall P:(T\\; a) \\rightarrow {\\mathbb{B}}. "
            "(\\forall x_1:((a \\rightarrow a) \\rightarrow a). (P\\; (C\\; x_1))) "
            "\\Rightarrow \\forall t:(T\\; a). (P\\; t)"
        )

    SOURCES = {**corpus.ALL, **ONE_CONSTRUCTOR, **ARROWS_AND_TUPLES}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_output_parses_back_to_the_same_formula(self, name):
        formula = principle_for(self.SOURCES[name]).formula
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


# A closed leaf that names no binder of these tests, and its s-expression.
LEAF = PredApp("Q", BOTTOM)
SX_LEAF = "(pred Q (bottom))"


class TestSexpr:
    def test_forall_shape(self):
        f = Forall("n", OfType(App("Nat")), PredApp("P", TVar("n")))
        s = render_sexpr(f)
        assert s == "(forall (n (ty (app Nat))) (pred P (var n)))"
        assert parse_sexpr(s) == f

    def test_sort_forms(self):
        f = Forall("a", OF_KIND_STAR, Forall("P", PredOver(Var("a")), LEAF))
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
        assert parse_sexpr(f"; a comment\n{SX_LEAF} ; trailing") == LEAF

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
            ("(true)", "unknown formula form 'true'"),
            (f"(and {SX_LEAF})", "expected '('"),
            (f"{SX_LEAF} {SX_LEAF}", "expected end of input"),
            ("(forall (x (ty (tuple (var a)))) (true))", "tuple type"),  # refused before the leaf
            ("(pred Q (bottom)", "expected ')'"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_sexpr(text)
        assert fragment in err.value.message

    def test_error_position(self):
        cases = [
            ("(true)", 1, 2),
            (f"(and {SX_LEAF}\n  (oops))", 2, 4),
            (f"(forall (x (nope)) {SX_LEAF})", 1, 13),
            (f"(forall (x (ty (nope))) {SX_LEAF})", 1, 17),
            (f"(forall (x (ty (tuple (var a)))) {SX_LEAF})", 1, 17),
            ("(pred P (nope))", 1, 10),
            (f"{SX_LEAF} {SX_LEAF}", 1, 19),
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


def _chain(form, depth, leaf=SX_LEAF):
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
            (f"(and {SX_LEAF} ", And),
            ("(implies (pred P (var x)) ", Implies),
            ("(forall (x (ty (var a))) ", Forall),
        ],
    )
    def test_long_chains_read_back(self, form, node):
        f = parse_sexpr(_chain(form, 1200))
        for _ in range(1200):
            assert isinstance(f, node)
            f = f.consequent if node is Implies else f.body if node is Forall else f.right
        assert f == LEAF

    @pytest.mark.parametrize(
        "form, free",
        [
            (f"(and {SX_LEAF} ", {"Q"}),
            ("(implies (pred P (var x)) ", {"P", "Q", "x"}),
            ("(forall (x (ty (var a))) ", {"Q", "a"}),
        ],
    )
    def test_long_chains_render_and_analyse(self, form, free):
        text = _chain(form, 1200)
        f = parse_sexpr(text)
        assert render_sexpr(f) == text
        assert free_vars(f) == free
        assert render_text(f) and render_latex(f)

    def test_long_and_chain_text_and_latex(self):
        f = parse_sexpr(_chain(f"(and {SX_LEAF} ", 1200))
        assert render_text(f) == "(Q ⊥) ∧ (" * 1199 + "(Q ⊥) ∧ (Q ⊥)" + ")" * 1199
        leaf = "(Q\\; \\bot)"
        assert render_latex(f) == f"{leaf} \\wedge (" * 1199 + f"{leaf} \\wedge {leaf}" + ")" * 1199

    def test_left_nested_chain_reads_back(self):
        f = parse_sexpr("(and " * 1200 + SX_LEAF + f" {SX_LEAF})" * 1200)
        for _ in range(1200):
            assert isinstance(f, And) and f.right == LEAF
            f = f.left
        assert f == LEAF

    def test_errors_inside_a_long_chain_keep_their_position(self):
        with pytest.raises(ParseError) as err:
            parse_sexpr(f"(and {SX_LEAF}\n" * 1200 + "(oops))")
        assert (err.value.pos.line, err.value.pos.column) == (1201, 2)
        assert err.value.message == "unknown formula form 'oops'"

    @pytest.mark.parametrize(
        "form, leaf",
        [("(app L ", "(var a)"), ("(arrow (var a) ", "(var a)"), ("(tuple (var a) ", "(var a)")],
    )
    def test_types_at_the_cap_read_back(self, form, leaf):
        ty = _chain(form, MAX_SEXPR_NESTING - 1, leaf)
        assert parse_sexpr(f"(forall (x (ty {ty})) {SX_LEAF})") is not None

    def test_terms_at_the_cap_read_back(self):
        assert parse_sexpr(f"(pred P {_chain('(app S ', MAX_SEXPR_NESTING - 1, '(var x)')})")

    @pytest.mark.parametrize(
        "prefix, form, leaf, suffix",
        [
            ("(forall (x (ty ", "(app L ", "(var a)", f")) {SX_LEAF})"),
            ("(forall (P (pred-over ", "(app L ", "(var a)", f")) {SX_LEAF})"),
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
        source = render_decl_source(decl)
        assert parse_decl(source) == decl
        assert source == reference_source.render_decl_source(decl)

    def test_type_source_forms(self):
        assert type_source(Var("a")) == "a"
        assert type_source(App("List", (Var("a"),))) == "List a"
        assert type_source(Arrow(Arrow(Var("a"), Var("b")), Var("c"))) == "(a -> b) -> c"
        fun = parse_decl(ARROWS_AND_TUPLES["Fun"]).constructors[0].arg_types[2]
        assert type_source(fun) == "a -> b -> T a b"

    @given(strategies.type_exprs())
    @settings(max_examples=300, deadline=None)
    def test_type_source_matches_the_reference(self, ty):
        assert type_source(ty) == reference_source.type_source(ty)


class TestNotAType:
    """Where a type belongs, anything else is a TypeError that names it."""

    SORT = OfType(App("Nat", ()))  # a sort, not a type

    @pytest.mark.parametrize("render", [render_text, render_latex, render_sexpr])
    @pytest.mark.parametrize("ty", [SORT, App("List", (SORT,)), TupleType((Var("a"), SORT))])
    def test_in_a_binder_sort(self, render, ty):
        with pytest.raises(TypeError, match=re.escape(f"not a type: {self.SORT!r}")):
            render(Forall("x", OfType(ty), LEAF))

    @pytest.mark.parametrize("ty", [SORT, App("List", (SORT,)), Arrow(Var("a"), SORT)])
    def test_in_type_source(self, ty):
        with pytest.raises(TypeError, match=re.escape(f"not a type: {self.SORT!r}")):
            type_source(ty)
