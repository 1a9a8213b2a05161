"""The declaration-syntax type printer that `structind.render` used before
declaration syntax became a style of its shared type printer, kept as a
test oracle. The code is copied unchanged.
"""

from __future__ import annotations

from structind.core import App, Arrow, DataDecl, TupleType, TypeExpr, Var


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
