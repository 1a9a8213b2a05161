"""perfbench/tracing.py patches structind's functions by name; each name it
patches must still exist, and a traced check must go through them."""

import importlib.util
from pathlib import Path

import corpus
from structind import cli, semantics
from structind.generator import GenOptions, induction_principle
from structind.parser import parse_decl
from structind.semantics import Exhaustive, GroundEnv

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_check_records_every_layer(tmp_path, capsys):
    tracing = load_tracing()
    source = tmp_path / "nat.hs"
    source.write_text(corpus.NAT, encoding="utf-8")
    principle = induction_principle(parse_decl(corpus.NAT), GenOptions())
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert cli.main(["--check", "--depth", "3", str(source)]) == 0
        assert semantics.check_principle(principle, GroundEnv({}), 3, Exhaustive()).passed
    capsys.readouterr()
    names = {name for name, *_ in tracer.spans}
    assert {"cli", "parser", "generator", "render.text", "semantics.check"} <= names
    # Both checks were counted: 8 predicates each over Nat's 3 terms.
    assert tracer.counts["semantics.check.calls"] == 2
    assert tracer.counts["semantics.check.predicates"] == 16
