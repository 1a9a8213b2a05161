"""Independent checks on the program's outputs.

None of this code calls structind. Ground terms are enumerated here in
the checker's canonical order (by depth; the bottom term first, then
constructors in declaration order; children lexicographically by
universe position, atoms in carrier order) from the declaration model in
`inputs.py`, and the least model of a clause set is computed directly.
"""

from __future__ import annotations

import re
from itertools import product

from inputs import is_recursive

BOTTOM = "⊥"


def atoms(param: str, atoms_per_param: int = 2) -> list[str]:
    return [f"{param}{i}" for i in range(1, atoms_per_param + 1)]


def enumerate_universe(decl, depth: int, pointed: bool) -> list:
    """The universe in canonical order: `(ctor, children)` tuples, atom labels and BOTTOM."""
    terms: list = []
    depth_of: dict = {}
    for d in range(1, depth + 1):
        layer = [BOTTOM] if pointed and d == 1 else []
        for ctor, arg_types in decl[2]:
            recursive = [is_recursive(decl, t) for t in arg_types]
            choices = [list(terms) if r else atoms(t[1]) for t, r in zip(arg_types, recursive)]
            for combo in product(*choices):
                child_depth = max((depth_of[c] for c, r in zip(combo, recursive) if r), default=0)
                if child_depth + 1 == d:
                    layer.append((ctor, combo))
        for t in layer:
            depth_of[t] = d
        terms.extend(layer)
    return terms


def least_model(decl, terms, pointed: bool, kept: set[str]) -> set:
    """Smallest set of terms closed under the kept clauses, relative to `terms`."""
    model: set = set()
    for t in terms:  # children always precede their parents
        if t == BOTTOM:
            if pointed:
                model.add(t)
            continue
        ctor, children = t
        if ctor not in kept:
            continue
        arg_types = dict(decl[2])[ctor]
        if all(c in model for c, ty in zip(children, arg_types) if is_recursive(decl, ty)):
            model.add(t)
    return model


def predicates_to_least_model(terms, model) -> int:
    """Predicates the brute-force checker tries before it reaches `model`.

    Predicates are tried in counting order of their bit masks (bit i is
    universe term i). Every model contains the least model, so its mask
    is numerically no smaller: the least model is the first model found.
    """
    return 1 + sum(1 << i for i, t in enumerate(terms) if t in model)


def witness_errors(decl, depth: int, pointed: bool, kept: set[str], predicate, missed) -> list[str]:
    """Reasons the counterexample `(predicate, missed)` is not a valid refutation.

    The missed term must lie in the universe and outside the predicate,
    and the predicate must be a subset of the universe that is closed
    under the kept clauses (so it satisfies every hypothesis of the
    mutated principle while missing a term).
    """
    terms = enumerate_universe(decl, depth, pointed)
    universe = set(terms)
    pred = set(predicate)
    errors = []
    if missed not in universe:
        errors.append("missed term is not in the universe")
    if missed in pred:
        errors.append("missed term is inside the predicate")
    if not pred <= universe:
        errors.append("predicate leaves the universe")
    for t in terms:
        if t in pred:
            continue
        if t == BOTTOM and pointed:
            errors.append("predicate lacks ⊥")
            break
        if t != BOTTOM and t[0] in kept:
            arg_types = dict(decl[2])[t[0]]
            if all(c in pred for c, ty in zip(t[1], arg_types) if is_recursive(decl, ty)):
                errors.append("predicate is not closed under the kept clauses")
                break
    return errors


# --- reading the command line's output ----------------------------------------------

SUMMARY = re.compile(
    r"^-- (\S+): pass \(universe (\d+), "
    r"(?:exhaustive (\d+) predicates|sampled (\d+) predicates, seed (\d+))\)$"
)


def check_summary_errors(text: str, name: str, size: int, samples: int, sample_seed: int) -> list[str]:
    """Reasons the `--check` output for one declaration is not a correct pass."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 4 or lines[0] != f"-- {name}":
        return ["output does not start with the declaration's header"]
    m = SUMMARY.match(lines[-1])
    if not m:
        return [f"no pass summary: {lines[-1]!r}"]
    got_name, got_size, exhaustive, sampled, seed = m.groups()
    errors = []
    if got_name != name:
        errors.append(f"summary names {got_name}, expected {name}")
    if int(got_size) != size:
        errors.append(f"universe {got_size}, expected {size}")
    if samples == 0:
        if exhaustive is None or int(exhaustive) != 1 << size:
            errors.append("expected an exhaustive check over every predicate")
    elif sampled is None or int(sampled) != samples or int(seed) != sample_seed:
        errors.append(f"expected {samples} sampled predicates with seed {sample_seed}")
    return errors


_LATEX_TO_TEXT = [
    ("\\forall ", "∀"),
    (" \\wedge ", " ∧ "),
    (" \\Rightarrow ", " ⇒ "),
    (" \\rightarrow ", " → "),
    ("{\\mathbb{B}}", "\U0001d539"),
    ("\\bot", "⊥"),
    ("\\top", "⊤"),
    ("\\; ", " "),
]
_SUBSCRIPT = re.compile(r"_\{(\d+)\}|_(\d)")


def latex_as_text(latex: str) -> str:
    """The plain-text rendering that corresponds to a LaTeX rendering."""
    for a, b in _LATEX_TO_TEXT:
        latex = latex.replace(a, b)
    return _SUBSCRIPT.sub(lambda m: m.group(1) or m.group(2), latex)
