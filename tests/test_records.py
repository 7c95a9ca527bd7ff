"""The package's records: RestrictedPair, IntermediatePath, BijectionTrace,
PathClass, Mismatch and VerificationReport.

Claims covered:
    - each refusal of a validated record (RestrictedPair, IntermediatePath,
      PathClass) raises ValueError with its own message, whether the record
      is built by its constructor, by `_make` or by `_replace`
    - no field of any record can be assigned, and no attribute added
    - the records are named tuples: they compare equal to, hash like,
      unpack like and order like plain tuples of their fields
    - run_identity records a clamped order in the report's notes after the
      check's own notes, and reports the order that ran
"""

import pytest

from supercat import (BijectionTrace, IntermediatePath, Mismatch, Path,
                      PathClass, RestrictedPair, VerificationReport,
                      run_identity, trace)

# one valid record of each validated kind, its fields in order
VALID = {
    RestrictedPair: {"p": Path("UUDD"), "q": Path("UD")},
    # levels 0 1 2 3 2: F2 starts at level 2 (index 2) and holds the top
    IntermediatePath: {"path": Path("UUUD"), "boundary": 2},
    PathClass: {"end_level": 1, "max_height": 3, "exact_height": None},
}

# (record, fields changed from VALID, message)
REFUSALS = [
    (RestrictedPair, {"p": Path("")}, "p must be nonempty"),
    (RestrictedPair, {"p": Path("UU")}, "p is not a Dyck path"),
    (RestrictedPair, {"q": Path("DU")}, "q is not a Dyck path"),
    (RestrictedPair, {"p": Path("UUUDDD")},
     "height condition h(p) <= h(q) + 1 violated"),
    (IntermediatePath, {"path": Path("UUUU")},
     "intermediate path must be nonnegative and end at level 2"),
    (IntermediatePath, {"path": Path("DUUU")},
     "intermediate path must be nonnegative and end at level 2"),
    (IntermediatePath, {"boundary": 0}, "boundary index outside path"),
    (IntermediatePath, {"boundary": 5}, "boundary index outside path"),
    (IntermediatePath, {"boundary": 3}, "boundary point must have level 2"),
    (IntermediatePath, {"boundary": 4},
     "first portion must stay strictly below the second"),
    (PathClass, {"end_level": -1}, "end_level must be nonnegative"),
    (PathClass, {"exact_height": 2},
     "max_height and exact_height are mutually exclusive"),
]


def _fields(record, changes):
    return VALID[record] | changes


@pytest.mark.parametrize("record, changes, message", REFUSALS)
def test_constructor_refuses_invalid_fields(record, changes, message):
    with pytest.raises(ValueError) as exc:
        record(**_fields(record, changes))
    assert str(exc.value) == message


@pytest.mark.parametrize("record, changes, message", REFUSALS)
def test_make_refuses_invalid_fields(record, changes, message):
    with pytest.raises(ValueError) as exc:
        record._make(_fields(record, changes).values())
    assert str(exc.value) == message


@pytest.mark.parametrize("record, changes, message", REFUSALS)
def test_replace_refuses_invalid_fields(record, changes, message):
    valid = record(**VALID[record])
    with pytest.raises(ValueError) as exc:
        valid._replace(**changes)
    assert str(exc.value) == message


@pytest.mark.parametrize("record", list(VALID))
def test_make_and_replace_keep_valid_records(record):
    valid = record(**VALID[record])
    assert record._make(VALID[record].values()) == valid
    assert type(valid._replace()) is record and valid._replace() == valid


def _one_of_each():
    pair = RestrictedPair(Path("UUDD"), Path("UD"))
    return [pair, IntermediatePath(Path("UUUD"), 2), trace(pair), PathClass(),
            Mismatch(3, 1, 2), run_identity("e2", 2)]


@pytest.mark.parametrize("record", _one_of_each(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[1])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_are_tuples():
    p, q = Path("UUDD"), Path("UD")
    pair = RestrictedPair(p, q)
    assert pair == (p, q) and hash(pair) == hash((p, q))
    assert trace(pair)[:2] == (pair, IntermediatePath(Path("UUDUUD"), 4))
    assert PathClass() == (0, None, None) and PathClass(2)[0] == 2
    power, lhs, rhs = Mismatch((1, 2), 3, 4)
    assert (power, lhs, rhs) == ((1, 2), 3, 4)
    assert sorted([Mismatch(2, 0, 0), Mismatch(1, 5, 5)]) == [(1, 5, 5), (2, 0, 0)]
    assert BijectionTrace._fields == ("pair", "intermediate", "u", "v", "v_prime",
                                      "x", "y", "y_prime", "output")


def test_report_replace_keeps_every_other_field():
    report = run_identity("e2", 2)
    noted = report._replace(notes=report.notes + ("extra",))
    assert type(noted) is VerificationReport
    assert noted[:-1] == report[:-1] and noted.notes == (*report.notes, "extra")


def test_clamp_note_reaches_the_report():
    clamped, direct = run_identity("e-mo", 1), run_identity("e-mo", 2)
    assert clamped.passed and clamped.order == 2
    assert clamped.notes == (*direct.notes,
                             "total degree raised to 2 (minimum meaningful degree)")
