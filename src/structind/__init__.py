"""Structural induction principles for algebraic data type declarations.

Parse Haskell-style `data` declarations, generate the corresponding
structural induction principle as a first-order formula, render it as
text, LaTeX, or s-expressions, and validate it with a finite-model
soundness check.
"""

from .core import (
    And,
    App,
    Arrow,
    BOTTOM,
    Bottom,
    ConstructorDecl,
    DataDecl,
    Forall,
    Formula,
    Implies,
    OF_KIND_STAR,
    OfKindStar,
    OfType,
    PredApp,
    PredOver,
    Principle,
    Sort,
    TApp,
    TVar,
    Term,
    TupleType,
    TypeExpr,
    Var,
    alpha_eq,
    free_vars,
    prefix_perm_eq,
)
from .generator import (
    GenOptions,
    induction_principle,
    nested_recursion_warnings,
)
from .parser import ParseError, SourcePos, parse_decl, parse_program
from .render import (
    parse_sexpr,
    render_decl_source,
    render_latex,
    render_sexpr,
    render_text,
)
from .semantics import (
    Atom,
    DEFAULT_SEED,
    Exhaustive,
    GroundEnv,
    GroundTerm,
    Node,
    Sampled,
    SoundnessReport,
    UnsupportedTypeError,
    check_principle,
    enumerate_terms,
    universe_size,
)

__version__ = "0.1.0"
