"""The package's nine record classes behave as the frozen (or, for escalator
nodes and trees, mutable) dataclasses they once were: construction, repr,
equality, hashing, refused assignment, copies, pickling and pattern
matching.  The reprs are literals, so the shared __repr__ cannot drift; a
subclass that adds nothing prints, compares and copies as its own class."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from mgonal import (
    ConformanceRow,
    Density,
    EscalatorNode,
    EscalatorTree,
    GuyForm,
    GuyReport,
    JordanDecomposition,
    PolygonalForm,
    ShiftedDiagonalLattice,
)

LEAF_FORM = PolygonalForm(5, (1, 4))


def _node():
    leaf = EscalatorNode(LEAF_FORM, None)
    return EscalatorNode(PolygonalForm(5, (1,)), 4, children=[leaf]), leaf


NODE_REPR = (
    "EscalatorNode(form=PolygonalForm(m=5, coeffs=(1,)), truant=4, children=["
    "EscalatorNode(form=PolygonalForm(m=5, coeffs=(1, 4)), truant=None, children=[])])"
)

# (class, positional fields, repr); the escalator records' fields are built
# fresh per use, since they are mutable
RECORDS = [
    (PolygonalForm, lambda: (5, (1, 2)), "PolygonalForm(m=5, coeffs=(1, 2))"),
    (PolygonalForm, lambda: (3, ()), "PolygonalForm(m=3, coeffs=())"),
    (EscalatorNode, lambda: (LEAF_FORM, None),
     "EscalatorNode(form=PolygonalForm(m=5, coeffs=(1, 4)), truant=None, children=[])"),
    (EscalatorTree, lambda: (5, 10, 2, list(_node())),
     f"EscalatorTree(m=5, bound=10, max_depth=2, nodes=[{NODE_REPR}, "
     "EscalatorNode(form=PolygonalForm(m=5, coeffs=(1, 4)), truant=None, children=[])])"),
    (ShiftedDiagonalLattice, lambda: ((1, 2), 1, 3), "ShiftedDiagonalLattice(gram=(1, 2), c=1, N=3)"),
    (JordanDecomposition, lambda: (3, ((0, 1), (1, 2))),
     "JordanDecomposition(p=3, entries=((0, 1), (1, 2)))"),
    (Density, lambda: (Fraction(1, 5), "closed_form", None, None),
     "Density(value=Fraction(1, 5), method='closed_form', t=None, stabilized=None)"),
    (Density, lambda: (Fraction(3, 2), "oracle", 4, True),
     "Density(value=Fraction(3, 2), method='oracle', t=4, stabilized=True)"),
    (ConformanceRow,
     lambda: (3, (1, 1, 1, 1), 3, 1, Fraction(2, 3), "yang_odd", Fraction(1), None, None),
     "ConformanceRow(p=3, gram=(1, 1, 1, 1), N=3, c=1, h=Fraction(2, 3), method='yang_odd', "
     "value=Fraction(1, 1), reference=None, passed=None)"),
    (GuyForm, lambda: (6, 1, PolygonalForm(6, (2, 2, 3))),
     "GuyForm(m=6, ell=1, form=PolygonalForm(m=6, coeffs=(2, 2, 3)))"),
    (GuyReport, lambda: (6, 1, 20, (1,), True),
     "GuyReport(m=6, ell=1, bound=20, missing=(1,), passed=True)"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(RECORDS)]
MUTABLE = (EscalatorNode, EscalatorTree)
MATCH_ARGS = {
    PolygonalForm: ("m", "coeffs"),
    EscalatorNode: ("form", "truant"),
    EscalatorTree: ("m", "bound", "max_depth", "nodes"),
    ShiftedDiagonalLattice: ("gram", "c", "N"),
    JordanDecomposition: ("p", "entries"),
    Density: ("value", "method", "t", "stabilized"),
    ConformanceRow: ("p", "gram", "N", "c", "h", "method", "value", "reference", "passed"),
    GuyForm: ("m", "ell", "form"),
    GuyReport: ("m", "ell", "bound", "missing", "passed"),
}


def _sub(cls):
    return type("Sub", (cls,), {})


def _fields(record):
    names = MATCH_ARGS[type(record)] + (("children",) if type(record) is EscalatorNode else ())
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_construction_repr_and_match_args(cls, fields, text):
    record = cls(*fields())
    assert repr(record) == text
    assert cls.__match_args__ == MATCH_ARGS[cls]
    assert record == cls(**dict(zip(cls.__match_args__, fields())))  # by keyword
    assert _fields(record)[: len(fields())] == fields()
    assert not dataclasses.is_dataclass(record)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_is_by_class_and_fields(cls, fields, text):
    record = cls(*fields())
    assert record == cls(*fields()) and not record != cls(*fields())
    values = _fields(record)
    for other in (values, list(values), None, object(), text):
        assert record != other and other != record
        assert record.__eq__(other) is NotImplemented
    # a subclass with the same fields is another class, and prints its name
    sub = _sub(cls)
    assert record.__eq__(sub(*fields())) is NotImplemented and record != sub(*fields())
    assert repr(sub(*fields())) == "Sub" + text[len(cls.__name__):]


@pytest.mark.parametrize(
    "unequal",
    [
        (PolygonalForm(5, (1, 2)), PolygonalForm(6, (1, 2)), PolygonalForm(5, (1, 3))),
        (EscalatorNode(LEAF_FORM, 3), EscalatorNode(LEAF_FORM, None),
         EscalatorNode(LEAF_FORM, 3, children=[EscalatorNode(LEAF_FORM, None)])),
        (EscalatorTree(5, 10, 2, []), EscalatorTree(5, 10, 3, []), EscalatorTree(5, 11, 2, [])),
        (ShiftedDiagonalLattice((1, 2), 1, 3), ShiftedDiagonalLattice((1, 2), 2, 3)),
        (JordanDecomposition(3, ((0, 1),)), JordanDecomposition(5, ((0, 1),))),
        (Density(Fraction(1), "oracle", 2, True), Density(Fraction(1), "oracle", 2, False),
         Density(Fraction(1), "oracle")),
        (ConformanceRow(2, (1,), 1, 0, None, "m", None, None, None),
         ConformanceRow(2, (1,), 1, 0, None, "m", None, None, True)),
        (GuyForm(6, 1, PolygonalForm(6, ())), GuyForm(6, 2, PolygonalForm(6, ()))),
        (GuyReport(6, 1, 20, (1,), True), GuyReport(6, 1, 20, (), True)),
    ],
    ids=lambda records: type(records[0]).__name__,
)
def test_records_differing_in_a_field_are_unequal(unequal):
    for i, a in enumerate(unequal):
        for b in unequal[i + 1:]:
            assert a != b and not a == b


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_frozen_records_hash_as_their_field_tuple_and_mutable_ones_do_not(cls, fields, text):
    record = cls(*fields())
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
    else:
        assert hash(record) == hash(_fields(record)) == hash(cls(*fields()))
        assert {record, cls(*fields())} == {record}


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, fields, text):
    record = cls(*fields())
    if cls in MUTABLE:
        return
    for name in cls.__match_args__ + ("x",):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert _fields(record) == fields()


def test_escalator_records_are_mutable_and_nodes_hold_slots():
    node, leaf = _node()
    node.truant = None
    node.children.clear()
    assert node == EscalatorNode(PolygonalForm(5, (1,)), None)
    with pytest.raises(AttributeError):
        node.x = 1
    tree = EscalatorTree(5, 10, 2, [node])
    tree.bound = 20
    assert tree == EscalatorTree(5, 20, 2, [node])
    assert PolygonalForm.__slots__ == ("m", "coeffs")
    assert EscalatorNode.__slots__ == ("form", "truant", "children")


def test_each_node_gets_a_fresh_children_list():
    a, b = EscalatorNode(LEAF_FORM, 1), EscalatorNode(LEAF_FORM, 1)
    assert a.children == [] and a.children is not b.children
    kids = [b]
    assert EscalatorNode(LEAF_FORM, 1, children=kids).children is kids
    with pytest.raises(TypeError):
        EscalatorNode(LEAF_FORM, 1, [])  # children is keyword-only
    with pytest.raises(TypeError):
        EscalatorNode(LEAF_FORM)


def test_density_defaults():
    d = Density(Fraction(1, 5), "closed_form")
    assert (d.t, d.stabilized) == (None, None)
    assert d == Density(Fraction(1, 5), "closed_form", None, None)
    with pytest.raises(TypeError):
        Density(Fraction(1, 5))


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_copies_and_pickles_round_trip(cls, fields, text):
    record = cls(*fields())
    # pickling a slotted mutable node needs protocol 2, as it did as a dataclass
    first = 2 if cls in MUTABLE else 0
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, proto))
               for proto in range(first, pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == record and repr(twin) == text
    # a subclass's copies are of the subclass
    sub = _sub(cls)(*fields())
    for twin in (copy.copy(sub), copy.deepcopy(sub)):
        assert type(twin) is type(sub) and twin == sub


def test_deep_copies_of_a_tree_keep_its_shared_nodes_shared():
    tree = EscalatorTree(5, 10, 2, list(_node()))
    for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        node, leaf = twin.nodes
        assert node.children[0] is leaf and leaf is not tree.nodes[1]


def test_pattern_matching_reads_the_match_args():
    node, _ = _node()
    match node:
        case EscalatorNode(PolygonalForm(m, (a,)), truant):
            assert (m, a, truant) == (5, 1, 4)
        case _:
            pytest.fail("no match")
    match Density(Fraction(1, 2), "oracle", 3, True):
        case Density(value, "oracle", t, True):
            assert (value, t) == (Fraction(1, 2), 3)
        case _:
            pytest.fail("no match")
    match GuyReport(6, 1, 20, (1,), True):
        case GuyReport(_, ell, _, (gap,), passed):
            assert gap == ell and passed
        case _:
            pytest.fail("no match")
