#!/usr/bin/env python3
"""Model-check generated principles, then confirm clause deletions get caught.

The first table checks each generated principle over a bounded universe of
ground terms, exhaustively over all predicates when the universe is small
enough and by sampling otherwise. The second deletes one constructor clause
at a time and reports the shallowest depth at which the damaged principle
is refuted.
"""

import argparse

from structind.core import Principle
from structind.generator import GenOptions, assemble, induction_principle
from structind.parser import parse_decl
from structind.semantics import (
    DEFAULT_SEED,
    EXHAUSTIVE_LIMIT,
    Exhaustive,
    GroundEnv,
    Sampled,
    check_principle,
    format_ground_term,
    universe_size,
)

SWEEP = [
    ("data Nat = Z | S Nat", {}, 4),
    ("data Bool = T | F", {}, 3),
    ("data List a = Nil | Cons a (List a)", {"a": ("a1", "a2")}, 3),
    ("data Tsil a = Snoc (Tsil a) a | Lin", {"a": ("a1", "a2")}, 3),
    ("data BTree a = Leaf a | Fork (BTree a) (BTree a)", {"a": ("u",)}, 3),
    (
        "data SwapTree a b = Leaf | Node a (SwapTree b a) (SwapTree b a)",
        {"a": ("u",), "b": ("v",)},
        3,
    ),
]

MUTATED = ["Nat", "List", "BTree"]
MAX_KILL_DEPTH = 4


def mode_for(size, samples, seed):
    if size <= EXHAUSTIVE_LIMIT:
        return Exhaustive(), f"exhaustive {1 << size} predicates"
    return Sampled(samples, seed), f"sampled {samples} predicates"


def run_sweep(samples, seed):
    print("== soundness sweep ==")
    for source, carriers, depth in SWEEP:
        decl = parse_decl(source)
        env = GroundEnv(carriers)
        for pointed in (False, True):
            principle = induction_principle(decl, GenOptions(pointed=pointed))
            size = universe_size(decl, env, depth, pointed)
            mode, how = mode_for(size, samples, seed)
            report = check_principle(principle, env, depth, mode)
            label = f"{decl.type_name}{' pointed' if pointed else ''}"
            verdict = "pass" if report.passed else "FAIL"
            print(f"  {label:<18} depth {depth}  universe {size:>4}  {how:<28} {verdict}")
    print()


def delete_clause(decl, index):
    kept = [
        (name, clause)
        for i, (name, clause) in enumerate(induction_principle(decl).clauses)
        if i != index
    ]
    formula = assemble(decl, False, [clause for _, clause in kept])
    return Principle(decl, False, formula, tuple(kept))


def run_mutations(samples, seed):
    print("== clause-deletion mutants ==")
    by_name = {parse_decl(s).type_name: (s, c) for s, c, _ in SWEEP}
    for name in MUTATED:
        source, carriers = by_name[name]
        decl = parse_decl(source)
        env = GroundEnv(carriers)
        for index, ctor in enumerate(decl.constructors):
            mutant = delete_clause(decl, index)
            outcome = "SURVIVED"
            for depth in range(1, MAX_KILL_DEPTH + 1):
                size = universe_size(decl, env, depth)
                mode, _ = mode_for(size, samples, seed)
                report = check_principle(mutant, env, depth, mode)
                if not report.passed:
                    predicate, failing = report.counterexample
                    outcome = (
                        f"killed at depth {depth}: predicate of size "
                        f"{len(predicate)} misses {format_ground_term(failing)}"
                    )
                    break
            print(f"  {name} without {ctor.name}: {outcome}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200, metavar="N")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N")
    args = ap.parse_args()
    run_sweep(args.samples, args.seed)
    run_mutations(args.samples, args.seed)


if __name__ == "__main__":
    main()
