"""Value semantics of the records: every class built on resip.record.Record.

Equal fields give equal objects with equal hashes (or, when a field is a
dict, the same TypeError a tuple holding it gives); an object of another
class with the same fields is never equal; assigning or deleting a field
raises AttributeError, except on the mutable ReportEntry; the repr is
``Name(field=value, ...)``; copies and pickles rebuild equal objects.
"""

import copy
import pickle

import pytest

import resip.cli  # noqa: F401  imports every module that defines a record
from resip.braid import BraidWord, CoverGraph
from resip.caps import Caps
from resip.classify import BSReport, BSSpec, ObstructionResult, PrimeSet, Verdict
from resip.cli import ReportEntry, Task, TaskFile
from resip.extension import (
    BilinearCocycle,
    CheckReport,
    CircleBundleSpec,
    CocycleCheck,
    ExtensionElement,
    TableCocycle,
)
from resip.freegrp import FreeEndo, FreeWord, MappingTorusElement, MappingTorusSpec
from resip.intlin import IntMatrix, LatticeChainInvariants, ModMatrix, UnipotenceResult
from resip.record import Record
from resip.witness import PGroupQuotient, VerificationReport, WitnessOutcome


def _z2_table():
    add = {(g, h): (g + h) % 2 for g in (0, 1) for h in (0, 1)}
    return TableCocycle((0, 1), add, {0: 0, 1: 1}, 0, {k: 0 for k in add}, 2)


# each factory builds a new object with the same fields on every call; its
# key is the name it builds by (VerificationReport is CheckReport by its
# witness name)
FACTORIES = {
    "BraidWord": lambda: BraidWord(3, (1, -2)),
    "CoverGraph": lambda: CoverGraph(2, 2, (1, 0)),
    "Caps": lambda: Caps(9, 4),
    "Verdict": lambda: Verdict(3, "Undecided", reason="open"),
    "PrimeSet": lambda: PrimeSet(False, (2, 3), 6),
    "BSSpec": lambda: BSSpec(5),
    "BSReport": lambda: BSReport(5, PrimeSet(False, (2,), 4), True, False),
    "ObstructionResult": lambda: ObstructionResult(False, None, 4),
    "Task": lambda: Task("t", "bs", {"q": 3}),
    "TaskFile": lambda: TaskFile(1, (Task("t", "bs", {"q": 3}),)),
    "ReportEntry": lambda: ReportEntry("t", "bs", "ok", {"q": 3}),
    "BilinearCocycle": lambda: BilinearCocycle(((0, 1), (0, 0))),
    "TableCocycle": _z2_table,
    "CocycleCheck": lambda: CocycleCheck(False, (0, 1, 1)),
    "ExtensionElement": lambda: ExtensionElement(1, (0, 1)),
    "CheckReport": lambda: CheckReport((("ok", True),)),
    "CircleBundleSpec": lambda: CircleBundleSpec(2, 3),
    "FreeWord": lambda: FreeWord(2, (1, -2)),
    "FreeEndo": lambda: FreeEndo.identity(2),
    "MappingTorusSpec": lambda: MappingTorusSpec(FreeEndo.identity(2), "identity"),
    "MappingTorusElement": lambda: MappingTorusElement(1, FreeWord(2, (1,))),
    "IntMatrix": lambda: IntMatrix(((1, 2), (3, 4))),
    "ModMatrix": lambda: ModMatrix(5, ((1, 2), (3, 4))),
    "UnipotenceResult": lambda: UnipotenceResult(True, 2),
    "LatticeChainInvariants": lambda: LatticeChainInvariants(2, 5, True),
    "PGroupQuotient": lambda: PGroupQuotient(3, "stable_letter", 2, ("x2", "x1"), ("x2", "x1"), 1, "1"),
    "WitnessOutcome": lambda: WitnessOutcome("undecided", reason="no survivor"),
    "VerificationReport": lambda: VerificationReport((("ok", True),)),
}
RECORDS = [pytest.param(f, id=name) for name, f in FACTORIES.items()]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_record_class_is_covered():
    assert {type(f()) for f in FACTORIES.values()} == set(Record.__subclasses__())
    assert len(FACTORIES) == 28
    assert VerificationReport is CheckReport  # one check-report record, two names


@pytest.mark.parametrize("make", RECORDS)
def test_equal_fields_give_equal_objects_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    values = tuple(getattr(a, name) for name in a._fields)
    if type(a) is ReportEntry:
        with pytest.raises(TypeError, match="unhashable type: 'ReportEntry'"):
            hash(a)
    else:  # the hash of the field tuple, or its TypeError on a dict field
        assert _hash_or_error(a) == _hash_or_error(b) == _hash_or_error(values)
    assert a != values


@pytest.mark.parametrize("make", RECORDS)
def test_another_class_with_the_same_fields_is_not_equal(make):
    a = make()
    twin_class = type(type(a).__name__, (type(a),), {"__slots__": ()})
    twin = twin_class(*(getattr(a, name) for name in a._fields))
    assert twin._fields == a._fields
    assert a != twin and twin != a


@pytest.mark.parametrize("make", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(make):
    a = make()
    name = a._fields[0]
    value = getattr(a, name)
    if type(a) is ReportEntry:  # the one mutable record
        a.status = "error"
        assert a.status == "error"
        return
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, name) is value


@pytest.mark.parametrize("make", RECORDS)
def test_repr_names_class_and_fields(make):
    a = make()
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in a._fields)
    assert repr(a) == f"{type(a).__name__}({fields})"


@pytest.mark.parametrize("make", RECORDS)
def test_copies_and_pickles_are_equal(make):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a


def test_reprs_and_fields_in_declaration_order():
    assert repr(Caps()) == (
        "Caps(magnus_degree=8, max_rank=6, group_order=100000, sieve_bound=100000, "
        "subgroup_count=10000, genus=500, cover_rank=101)"
    )
    assert repr(FreeWord(2, (1, -2))) == "FreeWord(rank=2, letters=(1, -2))"
    assert repr(ReportEntry("t", "bs", "ok")) == (
        "ReportEntry(id='t', kind='bs', status='ok', result=None, error=None, elapsed_ms=None)"
    )
    assert PGroupQuotient(3, "magnus", 2, (), (), 0, "1").data == {}
    assert FreeEndo._fields == ("rank", "images", "certified_inverse")


def test_cached_properties_leave_equality_alone():
    endo, cover = FreeEndo.identity(2), CoverGraph(2, 2, (1, 0))
    assert endo.letter_table == [[], [1], [2], [-2], [-1]]
    assert cover.schreier_edges() == [(0, 2), (1, 1), (1, 2)]
    assert endo == FreeEndo.identity(2) and hash(endo) == hash(FreeEndo.identity(2))
    assert cover == CoverGraph(2, 2, (1, 0))
