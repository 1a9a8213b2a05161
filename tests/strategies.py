"""Hypothesis strategies for declarations, types, terms, and formulas."""

from hypothesis import strategies as st

from structind.core import (
    And,
    App,
    Arrow,
    Bottom,
    ConstructorDecl,
    DataDecl,
    Forall,
    Implies,
    OF_KIND_STAR,
    OfType,
    PredApp,
    PredOver,
    TApp,
    TVar,
    TupleType,
    Var,
)
from structind.generator import GenOptions

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_TAIL = _LOWER + _UPPER + "0123456789_'"

_tail = st.text(alphabet=_TAIL, max_size=3)


def gen_options():
    return st.booleans().map(lambda pointed: GenOptions(pointed=pointed))


def st_depths():
    return st.integers(1, 3)


def lower_names():
    return (
        st.builds(lambda h, t: h + t, st.sampled_from(_LOWER), _tail)
        .filter(lambda s: s not in ("data", "deriving"))
    )


def upper_names():
    return st.builds(lambda h, t: h + t, st.sampled_from(_UPPER), _tail)


@st.composite
def data_decls(draw, max_params=3, max_ctors=5, max_arity=3, supported_only=False):
    """Valid declarations; `supported_only` keeps argument types inside the
    fragment the soundness oracle can enumerate."""
    type_name = draw(upper_names())
    n_params = draw(st.integers(0, max_params))
    params = draw(
        st.lists(lower_names(), min_size=n_params, max_size=n_params, unique=True)
    )
    recursive = App(type_name, tuple(Var(p) for p in params))

    simple_args = []
    if params:
        simple_args.append(st.sampled_from(params).map(Var))
    simple_args.append(upper_names().filter(lambda n: n != type_name).map(lambda n: App(n, ())))
    simple = st.one_of(simple_args)

    options = [st.just(recursive)]
    if params:
        options.append(st.sampled_from(params).map(Var))
        if len(params) >= 2:
            options.append(
                st.permutations(params).map(
                    lambda ps: App(type_name, tuple(Var(p) for p in ps))
                )
            )
    if not supported_only:
        options.append(simple)
        options.append(
            st.lists(simple, min_size=2, max_size=3).map(lambda es: TupleType(tuple(es)))
        )
        options.append(st.builds(Arrow, simple, simple))
        if params:
            options.append(
                st.builds(
                    lambda h, a: App(h, (a,)),
                    upper_names().filter(lambda n: n != type_name),
                    st.sampled_from(params).map(Var),
                )
            )
    arg_type = st.one_of(options)

    n_ctors = draw(st.integers(1, max_ctors))
    names = draw(
        st.lists(upper_names(), min_size=n_ctors, max_size=n_ctors, unique=True)
    )
    ctors = []
    for name in names:
        args = draw(st.lists(arg_type, max_size=max_arity))
        ctors.append(ConstructorDecl(name, tuple(args)))
    return DataDecl(type_name, tuple(params), tuple(ctors))


def type_exprs():
    base = st.one_of(
        lower_names().map(Var),
        upper_names().map(lambda n: App(n, ())),
    )
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(
                lambda h, args: App(h, tuple(args)),
                upper_names(),
                st.lists(sub, min_size=1, max_size=2),
            ),
            st.lists(sub, min_size=2, max_size=3).map(lambda es: TupleType(tuple(es))),
            st.builds(Arrow, sub, sub),
        ),
        max_leaves=6,
    )


def terms():
    base = st.one_of(
        lower_names().map(TVar),
        upper_names().map(lambda n: TApp(n, ())),
        st.just(Bottom()),
    )
    return st.recursive(
        base,
        lambda sub: st.builds(
            lambda c, args: TApp(c, tuple(args)),
            upper_names(),
            st.lists(sub, min_size=1, max_size=3),
        ),
        max_leaves=5,
    )


def sorts():
    return st.one_of(
        st.just(OF_KIND_STAR),
        type_exprs().map(OfType),
        type_exprs().map(PredOver),
    )


_PREDS = st.sampled_from(["P", "Q", "R"])
_BINDERS = st.one_of(lower_names(), _PREDS)


def formulas():
    return st.recursive(
        st.builds(PredApp, _PREDS, terms()),
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Forall, _BINDERS, sorts(), sub),
        ),
        max_leaves=8,
    )
