"""Acceptance checks for the whole pipeline, one criterion per test.

Each test prints a single pass/fail line; run with -s (or read the
captured output) to see the tally. Nothing here is approximate: a
criterion that cannot be met fails loudly.
"""

import time

from hypothesis import HealthCheck, given, settings

import corpus
import reference_gen
import strategies
from known_principles import KNOWN
from formula_shape import clause_parts, mind_check, subformulas
from structind.core import (
    Bottom,
    Forall,
    Implies,
    PredApp,
    Principle,
    free_vars,
    prefix_perm_eq,
)
from structind.generator import (
    GenOptions,
    assemble,
    conjuncts,
    induction_principle,
    is_recursive_arg,
)
from structind.parser import parse_decl
from structind.render import parse_sexpr, render_decl_source, render_sexpr
from structind.semantics import (
    DEFAULT_SEED,
    EXHAUSTIVE_LIMIT,
    Exhaustive,
    GroundEnv,
    Sampled,
    check_principle,
    universe_size,
)

SWEEP_BUDGET_SECONDS = 60.0


def report(number, ok, description, detail=""):
    line = f"criterion {number}: {'pass' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def pick_mode(size, samples=200):
    if size <= EXHAUSTIVE_LIMIT:
        return Exhaustive()
    return Sampled(samples, DEFAULT_SEED)


def antecedent_of(formula):
    while isinstance(formula, Forall):
        formula = formula.body
    assert isinstance(formula, Implies)
    return formula.antecedent


def test_criterion_1_textbook_principles():
    mismatched = []
    for name, source in corpus.CLASSIC.items():
        generated = induction_principle(parse_decl(source)).formula
        if not prefix_perm_eq(generated, KNOWN[name]):
            mismatched.append(name)
    report(
        1,
        not mismatched,
        "seven classic principles match hand-built fixtures up to binder-run order",
        ", ".join(mismatched) if mismatched else f"{len(corpus.CLASSIC)} checked",
    )


def test_criterion_2_exam_examples():
    expected = {"STree": [0, 2], "Lambda": [0, 0, 2, 1]}
    problems = []
    for name, counts in expected.items():
        decl = parse_decl(corpus.ALL[name])
        principle = induction_principle(decl)
        got = [len(clause_parts(clause)[1]) for _, clause in principle.clauses]
        if got != counts:
            problems.append(f"{name} hypothesis counts {got}, want {counts}")
        if principle.formula != reference_gen.reference_principle(decl):
            problems.append(f"{name} disagrees with the reference build")
    report(2, not problems, "exam examples have the right hypotheses", "; ".join(problems))


def test_criterion_3_mind_check():
    ok = mind_check(induction_principle(parse_decl(corpus.NAT)))
    report(3, ok, "the Nat principle is recognizably mathematical induction")


def test_criterion_4_no_vacuous_hypotheses():
    offenders = []
    for name in ("Bool", "Maybe"):
        principle = induction_principle(parse_decl(corpus.CLASSIC[name]))
        for ctor, clause in principle.clauses:
            if any(isinstance(s, Implies) for s in subformulas(clause)):
                offenders.append(f"{name}.{ctor}")
    report(4, not offenders, "non-recursive types get implication-free clauses", ", ".join(offenders))


def test_criterion_5_pointed_bottom_clause():
    principle = induction_principle(parse_decl(corpus.NAT), GenOptions(pointed=True))
    parts = conjuncts(antecedent_of(principle.formula))
    ok = len(parts) == 3 and parts[0] == PredApp("P", Bottom())
    report(5, ok, "pointed Nat has three conjuncts led by the undefinedness clause",
           f"{len(parts)} conjuncts")


SWEEP = [
    ("Nat", corpus.NAT, None, 4),
    ("Bool", corpus.BOOL, None, 3),
    ("List", corpus.LIST, {"a": ("a1", "a2")}, 3),
    ("BTree", corpus.BTREE, {"a": ("u",)}, 3),
    ("SwapTree", corpus.SWAPTREE, {"a": ("u",), "b": ("v",)}, 3),
    ("Tsil", corpus.TSIL, {"a": ("a1", "a2")}, 3),
]


def test_criterion_6_soundness_sweep():
    started = time.perf_counter()
    failures = []
    runs = 0
    for name, source, carriers, depth in SWEEP:
        decl = parse_decl(source)
        env = GroundEnv(carriers or {})
        for pointed in (False, True):
            principle = induction_principle(decl, GenOptions(pointed=pointed))
            size = universe_size(decl, env, depth, pointed)
            result = check_principle(principle, env, depth, pick_mode(size))
            runs += 1
            if not result.passed:
                failures.append(f"{name} pointed={pointed}")
    elapsed = time.perf_counter() - started
    if elapsed >= SWEEP_BUDGET_SECONDS:
        failures.append(f"sweep took {elapsed:.1f}s")
    report(6, not failures, "soundness sweep passes within the time budget",
           "; ".join(failures) if failures else f"{runs} checks in {elapsed:.1f}s")


def test_criterion_7_mutation_kills():
    configs = [
        ("Nat", corpus.NAT, None),
        ("List", corpus.LIST, {"a": ("a1", "a2")}),
        ("BTree", corpus.BTREE, {"a": ("u",)}),
    ]
    survivors = []
    for name, source, carriers in configs:
        decl = parse_decl(source)
        env = GroundEnv(carriers or {})
        clauses = list(induction_principle(decl).clauses)
        for index, (ctor, _) in enumerate(clauses):
            kept = [f for i, (_, f) in enumerate(clauses) if i != index]
            mutant = Principle(
                decl, False, assemble(decl, False, kept),
                tuple(c for i, c in enumerate(clauses) if i != index),
            )
            killed_at = None
            for depth in range(1, 5):
                size = universe_size(decl, env, depth)
                if not check_principle(mutant, env, depth, pick_mode(size)).passed:
                    killed_at = depth
                    break
            if killed_at is None:
                survivors.append(f"{name} without {ctor}")
    report(7, not survivors, "every clause deletion is caught by depth 4",
           "; ".join(survivors) if survivors else "all mutants killed")


def test_criterion_8_roundtrips():
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.data_decls())
    def decl_roundtrip(decl):
        assert parse_decl(render_decl_source(decl)) == decl

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.formulas())
    def sexpr_roundtrip(formula):
        assert parse_sexpr(render_sexpr(formula)) == formula

    ok, detail = True, "500 declarations + 500 formulas"
    try:
        decl_roundtrip()
        sexpr_roundtrip()
    except AssertionError as e:
        ok, detail = False, str(e).splitlines()[0] if str(e) else "roundtrip mismatch"
    report(8, ok, "printing then parsing is the identity", detail)


def test_criterion_9_generator_invariants():
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.data_decls(), strategies.gen_options())
    def invariants(decl, opts):
        principle = induction_principle(decl, opts)
        parts = conjuncts(antecedent_of(principle.formula))
        assert len(parts) == len(decl.constructors) + (1 if opts.pointed else 0)
        for ctor, clause in principle.clauses:
            cdecl = next(c for c in decl.constructors if c.name == ctor)
            binders, hyps, _ = clause_parts(clause)
            assert len(binders) == cdecl.arity
            assert len(hyps) == sum(
                1 for t in cdecl.arg_types if is_recursive_arg(decl, t)
            )
        assert free_vars(principle.formula) == set()

    ok, detail = True, "500 random declarations, both modes"
    try:
        invariants()
    except AssertionError as e:
        ok, detail = False, str(e).splitlines()[0] if str(e) else "invariant violated"
    report(9, ok, "structural invariants hold on random declarations", detail)
