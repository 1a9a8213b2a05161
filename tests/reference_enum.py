"""Product-then-filter ground-term enumeration, used as a differential oracle.

This is the direct reading of the canonical order: at each depth d, take
the full product of every argument's choices (carrier atoms for parameter
positions, the whole universe so far for recursive ones) and keep the
combinations whose deepest recursive child has depth d - 1. It does far
more work than `semantics.enumerate_terms`, which builds each layer only
from combinations that reach the newest layer, and it must produce the
same list. `immediate_subterms` and `term_depth` read the depth of a
ground term back from the term itself.
"""

from itertools import product

from structind.core import BOTTOM, Var
from structind.semantics import Atom, GroundTerm, Node


def reference_terms(decl, env, depth_bound, pointed=False):
    """The universe of `decl` up to `depth_bound`; the declaration must lie in
    the enumerable fragment (type parameters and the declared type only)."""
    atoms = {p: [Atom(label) for label in env.carrier(p)] for p in decl.type_params}
    universe = []
    depth_of = {}
    for d in range(1, depth_bound + 1):
        layer = []
        if pointed and d == 1:
            layer.append(BOTTOM)
        for ctor in decl.constructors:
            choices = []
            recursive = []
            for ty in ctor.arg_types:
                if isinstance(ty, Var):
                    choices.append(atoms[ty.name])
                    recursive.append(False)
                else:
                    choices.append(list(universe))
                    recursive.append(True)
            for combo in product(*choices):
                rec_depth = max(
                    (depth_of[c] for c, r in zip(combo, recursive) if r), default=0
                )
                if rec_depth + 1 == d:
                    layer.append(Node(ctor.name, combo))
        for t in layer:
            depth_of[t] = d
            universe.append(t)
    return universe


def immediate_subterms(t: GroundTerm) -> list[GroundTerm]:
    """Children of the declared type; atoms never count and the bottom has none."""
    if isinstance(t, Node):
        return [c for c in t.children if not isinstance(c, Atom)]
    return []


def term_depth(t: GroundTerm) -> int:
    subs = immediate_subterms(t)
    return 1 + (max(map(term_depth, subs)) if subs else 0)
