"""The pair-to-path bijection: surgeries, landmarks, exhaustive roundtrips.

Claims covered:
    - RestrictedPair and IntermediatePath validate their defining conditions
    - forward maps the hand-worked examples correctly and preserves semilength
    - inverse recovers the pair from the two landmarks (rightmost highest
      point, rightmost level-1 point)
    - both roundtrips hold exhaustively and the image is exactly the set of
      Dyck paths, for total semilength up to 7, and trace's validated
      intermediate path and landmarks accept every pair and give forward's image
    - traces expose the boundary and marked points, including the edge case
      where the second portion carries no steps
    - the forward string core refuses a pair with h(P) = h(Q) + 2 on its
      own, and the Dyck words lemma-main reads are those of each
      semilength 0..n, with their heights and first peaks
    - a round trip forward(inverse(Path(d))) builds four Paths, d, p, q and
      the output, and makes one level pass and one range pass for each
"""

import pytest

from supercat import (IntermediatePath, Path, RestrictedPair, bijection,
                      enumerate_dyck, enumerate_restricted_pairs, forward,
                      inverse, lattice_paths, trace)


def test_restricted_pair_validation():
    with pytest.raises(ValueError, match="nonempty"):
        RestrictedPair(Path(""), Path("UD"))
    with pytest.raises(ValueError, match="Dyck"):
        RestrictedPair(Path("UU"), Path(""))
    with pytest.raises(ValueError, match="Dyck"):
        RestrictedPair(Path("UD"), Path("DU"))
    with pytest.raises(ValueError, match="height condition"):
        RestrictedPair(Path("UUDD"), Path(""))
    pair = RestrictedPair(Path("UUDD"), Path("UD"))
    assert (pair.p.steps, pair.q.steps) == ("UUDD", "UD")
    assert len(forward(pair)) == 2 * 3


def test_intermediate_path_validation():
    IntermediatePath(Path("UUUD"), 2)
    with pytest.raises(ValueError, match="level 2"):
        IntermediatePath(Path("UU"), 1)
    with pytest.raises(ValueError, match="strictly below"):
        # first portion reaches the global maximum
        IntermediatePath(Path("UUUDDUUD"), 6)
    with pytest.raises(ValueError, match="strictly below"):
        # F1 ties F2's top only at its last point before the boundary
        IntermediatePath(Path("UUUDUD"), 4)
    with pytest.raises(ValueError, match="end at level 2"):
        IntermediatePath(Path("UD"), 1)


def test_forward_examples():
    assert forward(RestrictedPair(Path("UD"), Path(""))) == Path("UD")
    assert forward(RestrictedPair(Path("UD"), Path("UD"))) == Path("UUDD")
    assert forward(RestrictedPair(Path("UDUD"), Path(""))) == Path("UDUD")


def test_inverse_examples():
    assert inverse(Path("UD")) == RestrictedPair(Path("UD"), Path(""))
    assert inverse(Path("UUDD")) == RestrictedPair(Path("UD"), Path("UD"))


def test_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        inverse(Path(""))
    with pytest.raises(ValueError):
        inverse(Path("UDU"))


def test_trace_marks_the_surgery_points():
    record = trace(RestrictedPair(Path("UD"), Path("UD")))
    assert record.intermediate.path == Path("UUUD")
    assert record.intermediate.boundary == 2
    # u -> v is p's final down step, and v' its replacement's end in F
    assert (record.u, record.v, record.v_prime) == (1, 2, 2)
    assert record.y == 3
    assert record.intermediate.path.levels[record.y] == 3
    assert record.x == record.y - 1
    assert record.output == Path("UUDD")
    assert record.pair == RestrictedPair(Path("UD"), Path("UD"))


def test_trace_with_stepless_second_portion():
    # Q empty: the boundary point is the endpoint of F and is still part of F2
    record = trace(RestrictedPair(Path("UD"), Path("")))
    assert record.intermediate.path == Path("UU")
    assert record.intermediate.boundary == 2 == len(record.intermediate.path)
    assert record.y == 2
    assert record.output == Path("UD")


def test_trace_rejects_invalid_pairs():
    with pytest.raises(ValueError):
        trace(RestrictedPair(Path("UUDD"), Path("")))
    # the string core refuses h(p) = h(q) + 2 without the pair's check: F's
    # leftmost highest point would lie in F1
    with pytest.raises(RuntimeError, match="must lie in F2"):
        bijection._forward_core("UUDD", "", 2, 0, 0)


def test_dyck_words_are_the_dyck_paths_of_each_semilength():
    assert bijection._dyck_words(6) == [
        [(d.steps, d.height, d.levels.index(d.height)) for d in enumerate_dyck(a)]
        for a in range(7)]


def test_exhaustive_roundtrips():
    for n in range(1, 8):
        pairs = enumerate_restricted_pairs(n)
        dycks = enumerate_dyck(n)
        assert len(pairs) == len(dycks)
        images = set()
        for pair in pairs:
            image = forward(pair)
            assert len(image) == 2 * n
            assert trace(pair).output == image
            assert inverse(image) == pair
            images.add(image)
        assert len(images) == len(pairs)
        assert images == set(dycks)
        for d in dycks:
            assert forward(inverse(d)) == d


def test_roundtrip_makes_one_level_and_one_range_pass_per_path(monkeypatch):
    calls = {"_levels": 0, "_level_range": 0}
    for name in calls:
        def counted(arg, real=getattr(lattice_paths, name), name=name):
            calls[name] += 1
            return real(arg)
        monkeypatch.setattr(lattice_paths, name, counted)
    # q is empty for UD and UDUD and not for the others; the last is 1000 steps
    for d in ["UD", "UUDD", "UDUD", "UUDUDD", "UUUDDUDDUD", "U" * 500 + "D" * 500]:
        for name in calls:
            calls[name] = 0
        assert forward(inverse(Path(d))).steps == d
        assert calls == {"_levels": 4, "_level_range": 4}, d


def test_enumerate_restricted_pairs_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_restricted_pairs(-1)
