"""The contract of the package's record classes, pinned one instance each.

Five records are immutable (the clause atoms, ``Clause`` and
``DroppedEdge``): hashable by their fields, closed to assignment.  Eight are
mutable result and model records: open to assignment, unhashable.  For all
thirteen, ``repr`` spells ``Name(field=value, ...)``, ``==`` holds only
between records of one class with equal fields, and a pickle or deep copy
comes back equal.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from fuzzyosf import (
    Clause,
    DroppedEdge,
    EqualityConstraint,
    FeatureConstraint,
    Inconsistent,
    Morphism,
    Normalized,
    OsfGraph,
    SortConstraint,
    SubsumptionWitness,
    TheoremReport,
    Term,
    UnifyResult,
)
from fuzzyosf.semantics import CheckResult

SORT = SortConstraint("X", "movie")
FEATURE = FeatureConstraint("X", "genre", "Y")
EQUALITY = EqualityConstraint("Y", "Z")
CLAUSE = Clause((SORT, FEATURE, EQUALITY), root="X")
CHECK = CheckResult("sample", 2, ["one failed"])

FROZEN = [
    (SORT, "SortConstraint(tag='X', sort='movie')", "X:movie", ("X", "movie"), "sort"),
    (FEATURE, "FeatureConstraint(tag='X', feature='genre', target='Y')", "X.genre ≐ Y", ("X", "genre", "Y"), "target"),
    (EQUALITY, "EqualityConstraint(left='Y', right='Z')", "Y ≐ Z", ("Y", "Z"), "left"),
    (
        CLAUSE,
        "Clause(constraints=(SortConstraint(tag='X', sort='movie'), "
        "FeatureConstraint(tag='X', feature='genre', target='Y'), "
        "EqualityConstraint(left='Y', right='Z')), root='X')",
        "X:movie & X.genre ≐ Y & Y ≐ Z",
        ((SORT, FEATURE, EQUALITY), "X"),
        "root",
    ),
    (
        DroppedEdge("a", "b", 0.5, "cycle"),
        "DroppedEdge(sub='a', sup='b', degree=0.5, reason='cycle')",
        None,
        ("a", "b", 0.5, "cycle"),
        "degree",
    ),
]

MUTABLE = [
    (
        OsfGraph("X", {"X": "movie", "Y": "top"}, {"X": (("genre", "Y"),), "Y": ()}),
        "OsfGraph(root='X', sorts={'X': 'movie', 'Y': 'top'}, out={'X': (('genre', 'Y'),), 'Y': ()})",
        "root",
    ),
    (Inconsistent("X", ["inconsistent-sort: X is bot"]), "Inconsistent(tag='X', trace=['inconsistent-sort: X is bot'])", "tag"),
    (
        Normalized(Clause((SORT,), "X"), (("Y", "Z"),)),
        "Normalized(solved=Clause(constraints=(SortConstraint(tag='X', sort='movie'),), root='X'), "
        "equalities=(('Y', 'Z'),), trace=[])",
        "equalities",
    ),
    (
        UnifyResult(Term("_Z0", "movie"), 1.0, 0.5, 0.5, {"_Z0": ("X", "Y")}, {"X": "X_"}),
        "UnifyResult(unifier=Term(_Z0:movie, 0 args), beta1=1.0, beta2=0.5, beta=0.5, "
        "tag_classes={'_Z0': ('X', 'Y')}, renamed={'X': 'X_'})",
        "beta",
    ),
    (
        SubsumptionWitness({"Y": "X"}, 0.8, {"Y": ("slasher", "thriller", 0.8)}),
        "SubsumptionWitness(mapping={'Y': 'X'}, degree=0.8, per_tag={'Y': ('slasher', 'thriller', 0.8)})",
        "degree",
    ),
    (Morphism({"a": "b"}, 0.5), "Morphism(mapping={'a': 'b'}, max_beta=0.5)", "max_beta"),
    (CHECK, "CheckResult(name='sample', cases=2, failures=['one failed'])", "cases"),
    (
        TheoremReport([CHECK], 7),
        "TheoremReport(checks=[CheckResult(name='sample', cases=2, failures=['one failed'])], seed=7)",
        "seed",
    ),
]


def _round_trips(record) -> None:
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert copied.__class__ is record.__class__
        assert copied == record
        assert not copied != record
        assert repr(copied) == repr(record)


@pytest.mark.parametrize("record, text, printed, fields, field", FROZEN, ids=[type(r[0]).__name__ for r in FROZEN])
def test_frozen_record_contract(record, text, printed, fields, field):
    assert repr(record) == text
    assert str(record) == (text if printed is None else printed)
    assert record == type(record)(*fields)
    assert hash(record) == hash(fields)
    # Equal only to its own class, in both operand orders.
    assert record != fields and fields != record
    assert not record == fields and not fields == record
    with pytest.raises(AttributeError):
        setattr(record, field, "W")
    with pytest.raises(AttributeError):
        record.extra = 1
    _round_trips(record)


@pytest.mark.parametrize("record, text, field", MUTABLE, ids=[type(r[0]).__name__ for r in MUTABLE])
def test_mutable_record_contract(record, text, field):
    assert repr(record) == text
    assert str(record) == text
    twin = copy.deepcopy(record)
    assert twin == record and not twin != record
    assert record != object() and record != repr(record)
    with pytest.raises(TypeError):
        hash(record)
    _round_trips(record)
    setattr(twin, field, "changed")
    assert getattr(twin, field) == "changed"
    assert twin != record


def test_clause_atoms_of_two_classes_are_never_equal():
    assert SortConstraint("X", "a") != EqualityConstraint("X", "a")
    assert EqualityConstraint("X", "a") != SortConstraint("X", "a")
    assert len({SortConstraint("X", "a"), EqualityConstraint("X", "a"), ("X", "a")}) == 3


def test_records_build_by_keyword_and_by_default():
    assert Clause(constraints=(SORT,)) == Clause((SORT,), None)
    assert Clause((SORT,)).root is None
    assert FeatureConstraint(tag="X", feature="f", target="Y") == FeatureConstraint("X", "f", "Y")
    assert DroppedEdge(sub="a", sup="b", degree=1.0, reason="self") == DroppedEdge("a", "b", 1.0, "self")
    assert Inconsistent(tag="X") == Inconsistent("X", [])
    assert Normalized(solved=CLAUSE, equalities=()).trace == []
    assert CheckResult("c") == CheckResult("c", 0, [])
    assert TheoremReport() == TheoremReport([], 0)
    # Each default list is a fresh one.
    first, second = Inconsistent("X"), Inconsistent("X")
    first.trace.append("line")
    assert second.trace == []
    assert CheckResult("a").failures is not CheckResult("a").failures
    assert TheoremReport().checks is not TheoremReport().checks
