"""The names the `structind` package exports. An export that appears or
vanishes must change this list in the same diff."""

import types

import structind

PUBLIC_NAMES = {
    # core
    "And",
    "App",
    "Arrow",
    "BOTTOM",
    "Bottom",
    "ConstructorDecl",
    "DataDecl",
    "Forall",
    "Formula",
    "Implies",
    "OF_KIND_STAR",
    "OfKindStar",
    "OfType",
    "PredApp",
    "PredOver",
    "Principle",
    "Sort",
    "TApp",
    "TVar",
    "Term",
    "TupleType",
    "TypeExpr",
    "Var",
    "alpha_eq",
    "free_vars",
    "prefix_perm_eq",
    # generator
    "GenOptions",
    "induction_principle",
    "nested_recursion_warnings",
    # parser
    "ParseError",
    "SourcePos",
    "parse_decl",
    "parse_program",
    # render
    "parse_sexpr",
    "render_decl_source",
    "render_latex",
    "render_sexpr",
    "render_text",
    # semantics
    "Atom",
    "DEFAULT_SEED",
    "Exhaustive",
    "GroundEnv",
    "GroundTerm",
    "Node",
    "Sampled",
    "SoundnessReport",
    "UnsupportedTypeError",
    "check_principle",
    "enumerate_terms",
    "universe_size",
}


def test_public_names_are_pinned():
    # Submodules become attributes of the package once imported, so they
    # do not count as exports.
    exported = {
        name
        for name, value in vars(structind).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
