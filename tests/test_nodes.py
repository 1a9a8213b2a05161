"""The contract of the AST node classes of `structind.core`: built from
their fields, by position or by keyword, they compare, hash, print and
pickle by those fields, refuse assignment, and look like frozen
dataclasses to `dataclasses`, to `vars` and to the benchmark's node count."""

import dataclasses
import importlib.util
import pickle
from pathlib import Path

import pytest

import corpus
from structind import core
from structind.core import (
    And,
    App,
    Arrow,
    Bottom,
    ConstructorDecl,
    DataDecl,
    Forall,
    Implies,
    OfKindStar,
    OfType,
    PredApp,
    PredOver,
    Principle,
    TApp,
    TupleType,
    TVar,
    Var,
)
from structind.generator import GenOptions, induction_principle
from structind.parser import parse_decl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

_NAT_DECL = DataDecl("Nat", (), (ConstructorDecl("Z"), ConstructorDecl("S", (App("Nat"),))))
_NAT_DECL_REPR = (
    "DataDecl(type_name='Nat', type_params=(), constructors=(ConstructorDecl(name='Z', "
    "arg_types=()), ConstructorDecl(name='S', arg_types=(App(head='Nat', args=()),))))"
)

# A closed formula leaf, and its repr.
_LEAF = PredApp("Q", core.BOTTOM)
_LEAF_REPR = "PredApp(pred='Q', arg=Bottom())"

# Per node class: the fields of one node, in order, and that node's repr.
NODES = {
    Var: ({"name": "a"}, "Var(name='a')"),
    App: ({"head": "List", "args": (Var("a"),)}, "App(head='List', args=(Var(name='a'),))"),
    TupleType: (
        {"elems": (Var("a"), App("B"))},
        "TupleType(elems=(Var(name='a'), App(head='B', args=())))",
    ),
    Arrow: (
        {"domain": Var("a"), "codomain": Var("b")},
        "Arrow(domain=Var(name='a'), codomain=Var(name='b'))",
    ),
    ConstructorDecl: (
        {"name": "Cons", "arg_types": (Var("a"),)},
        "ConstructorDecl(name='Cons', arg_types=(Var(name='a'),))",
    ),
    DataDecl: (
        {"type_name": "Nat", "type_params": (), "constructors": _NAT_DECL.constructors},
        _NAT_DECL_REPR,
    ),
    TVar: ({"name": "x1"}, "TVar(name='x1')"),
    TApp: (
        {"ctor": "S", "args": (TVar("n1"),)},
        "TApp(ctor='S', args=(TVar(name='n1'),))",
    ),
    Bottom: ({}, "Bottom()"),
    OfKindStar: ({}, "OfKindStar()"),
    OfType: ({"ty": Var("a")}, "OfType(ty=Var(name='a'))"),
    PredOver: ({"ty": App("Nat")}, "PredOver(ty=App(head='Nat', args=()))"),
    PredApp: ({"pred": "P", "arg": TVar("x")}, "PredApp(pred='P', arg=TVar(name='x'))"),
    And: ({"left": _LEAF, "right": _LEAF}, f"And(left={_LEAF_REPR}, right={_LEAF_REPR})"),
    Implies: (
        {"antecedent": _LEAF, "consequent": PredApp("P", core.BOTTOM)},
        f"Implies(antecedent={_LEAF_REPR}, consequent=PredApp(pred='P', arg=Bottom()))",
    ),
    Forall: (
        {"var": "a", "sort": core.OF_KIND_STAR, "body": _LEAF},
        f"Forall(var='a', sort=OfKindStar(), body={_LEAF_REPR})",
    ),
    Principle: (
        {"decl": _NAT_DECL, "pointed": False, "formula": _LEAF, "clauses": (("Z", _LEAF),)},
        f"Principle(decl={_NAT_DECL_REPR}, pointed=False, formula={_LEAF_REPR}, "
        f"clauses=(('Z', {_LEAF_REPR}),))",
    ),
}


def test_every_node_class_is_covered():
    node_classes = {
        value
        for value in vars(core).values()
        if isinstance(value, type) and issubclass(value, core._Node) and value is not core._Node
    }
    assert node_classes == set(NODES)


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
class TestNodeContract:
    def test_equal_builds_are_equal_and_hash_alike(self, cls):
        fields, _ = NODES[cls]
        a, b = cls(*fields.values()), cls(**fields)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))

    def test_repr_is_pinned(self, cls):
        fields, text = NODES[cls]
        assert repr(cls(**fields)) == text

    def test_assignment_and_deletion_raise(self, cls):
        node = cls(**NODES[cls][0])
        for name in [*NODES[cls][0], "other"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert vars(node) == NODES[cls][0]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, cls, protocol):
        node = cls(**NODES[cls][0])
        copy = pickle.loads(pickle.dumps(node, protocol))
        assert type(copy) is cls and copy == node and hash(copy) == hash(node)

    def test_vars_and_dataclass_fields_are_the_fields(self, cls):
        fields, _ = NODES[cls]
        node = cls(**fields)
        assert vars(node) == fields
        assert dataclasses.is_dataclass(node)
        assert [f.name for f in dataclasses.fields(cls)] == list(fields) == list(cls.__match_args__)
        assert dataclasses.replace(node) == node

    def test_slotted(self, cls):
        # Instances keep their fields in slots alone: no dictionary, no weak references.
        assert cls.__dictoffset__ == 0 and cls.__weakrefoffset__ == 0


def test_equality_needs_the_same_class():
    assert Var("a") != TVar("a") and App("T") != TApp("T")
    assert Bottom() == Bottom() and OfKindStar() != Bottom()


def test_field_defaults_and_types_are_those_of_the_signature():
    head, args = dataclasses.fields(App)
    assert (head.type, head.default) == ("str", dataclasses.MISSING)
    assert (args.type, args.default) == ("tuple[TypeExpr, ...]", ())
    assert dataclasses.fields(ConstructorDecl)[1].default == ()
    assert dataclasses.fields(TApp)[1].default == ()


def test_checks_run_on_construction_but_not_in_unchecked():
    with pytest.raises(ValueError, match="at least two components"):
        TupleType((Var("a"),))
    with pytest.raises(ValueError, match="must start uppercase"):
        ConstructorDecl("cons")
    with pytest.raises(ValueError, match="declares no constructors"):
        DataDecl("T", (), ())
    unchecked = core._unchecked(DataDecl, "T", ("a",), (ConstructorDecl("C", (Var("b"),)),))
    assert vars(unchecked) == {
        "type_name": "T",
        "type_params": ("a",),
        "constructors": (ConstructorDecl("C", (Var("b"),)),),
    }


def _fields_walk(node) -> int:
    """The nodes under `node`, found through the field names of `NODES`."""
    count, stack = 0, [node]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif type(x) in NODES:
            count += 1
            stack.extend(getattr(x, name) for name in NODES[type(x)][0])
    return count


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("name", corpus.ALL)
def test_benchmark_node_count_agrees_with_a_walk_of_the_fields(name, pointed):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    principle = induction_principle(parse_decl(corpus.ALL[name]), GenOptions(pointed=pointed))
    assert tracing.ast_nodes(principle.formula) == _fields_walk(principle.formula) > 1
    assert tracing.ast_nodes(principle) == _fields_walk(principle)
