"""Path representation, predicates, factorization, and enumeration.

Claims covered:
    - Path parses/encodes strings over {U, D}; levels move by one per step
    - height and end-level bookkeeping, including the empty path
    - factor_dyck splits as U·P·D·Q at the first return and is a bijection
      onto pairs of smaller total semilength
    - enumerate_dyck matches the Catalan formula and is lexicographic (U < D)
    - enumerate_ballot respects parity, height bounds, and end level;
      exact-height classes are the set difference of two bounded classes
    - negative height bounds denote the empty class
    - enumeration needs no recursion per step: the single zigzag under cap 1
      and the single all-up path come out at 2000 and 5000 steps, as many
      as count_ballot_dp counts, with their height and first peak
"""

import random
from math import comb

import pytest

from supercat import (DOWN, UP, Path, PathClass, count_ballot_dp,
                      enumerate_ballot, enumerate_dyck, factor_dyck)
from supercat.lattice_paths import _ballot_words


def lex_key(p: Path) -> str:
    # lexicographic with U before D ("U" > "D" in ASCII, so remap)
    return p.steps.replace(UP, "0").replace(DOWN, "1")


def test_path_parses_and_encodes():
    p = Path("UUDD")
    assert p.steps == "UUDD"
    assert p.levels == (0, 1, 2, 1, 0)
    assert len(p) == 4
    assert str(p) == "UUDD"
    assert repr(p) == "Path('UUDD')"


def test_path_rejects_bad_steps():
    with pytest.raises(ValueError):
        Path("UDX")


def test_empty_path_conventions():
    empty = Path("")
    assert len(empty) == 0
    assert empty.height == 0
    assert empty.end_level == 0
    assert empty.is_dyck() and empty.is_ballot()
    assert not empty


def test_dyck_and_ballot_predicates():
    assert Path("UUDD").is_dyck()
    assert not Path("UDDU").is_dyck()  # dips below level 0
    assert Path("UUD").is_ballot() and not Path("UUD").is_dyck()
    assert not Path("DU").is_ballot()


def test_path_invariants_random_strings():
    rng = random.Random(20240817)
    for _ in range(300):
        steps = "".join(rng.choice((UP, DOWN)) for _ in range(rng.randrange(0, 30)))
        p = Path(steps)
        assert all(abs(a - b) == 1 for a, b in zip(p.levels, p.levels[1:]))
        assert p.height >= max(0, p.end_level)
        assert (p.height == 0) == all(level <= 0 for level in p.levels)
        assert (p.end_level - len(p)) % 2 == 0
        assert p.is_ballot() == (min(p.levels) >= 0)


def test_concatenation_levels():
    left, right = Path("UUD"), Path("UDD")
    combined = left + right
    assert combined.steps == "UUDUDD"
    assert combined.levels[3] == left.end_level


def test_factor_dyck_examples():
    assert factor_dyck(Path("UD")) == (Path(""), Path(""))
    assert factor_dyck(Path("UUDD")) == (Path("UD"), Path(""))
    assert factor_dyck(Path("UDUD")) == (Path(""), Path("UD"))


@pytest.mark.parametrize("bad", ["", "UU", "UDDU"])
def test_factor_dyck_rejects_non_dyck(bad):
    # the empty path is Dyck, so the length check must name it too
    with pytest.raises(ValueError, match="^factorization requires a nonempty Dyck path$"):
        factor_dyck(Path(bad))


def test_factor_dyck_is_a_bijection():
    for n in range(1, 9):
        seen = set()
        for d in enumerate_dyck(n):
            p, q = factor_dyck(d)
            assert Path(UP) + p + Path(DOWN) + q == d
            assert (p, q) not in seen
            seen.add((p, q))
        all_pairs = {(p, q)
                     for a in range(n)
                     for p in enumerate_dyck(a)
                     for q in enumerate_dyck(n - 1 - a)}
        assert seen == all_pairs


def test_enumerate_dyck_counts_match_formula():
    for n in range(9):
        paths = enumerate_dyck(n)
        assert len(paths) == comb(2 * n, n) // (n + 1)
        assert all(p.is_dyck() and len(p) == 2 * n for p in paths)
        assert len(set(paths)) == len(paths)


def test_enumerate_dyck_order_and_base_case():
    assert enumerate_dyck(0) == [Path("")]
    three = enumerate_dyck(3)
    assert [p.steps for p in three] == sorted((p.steps for p in three),
                                              key=lambda s: s.replace("U", "0").replace("D", "1"))
    assert three[0].steps == "UUUDDD"
    with pytest.raises(ValueError):
        enumerate_dyck(-1)


def test_path_class_validation():
    with pytest.raises(ValueError):
        PathClass(end_level=-1)
    with pytest.raises(ValueError):
        PathClass(end_level=0, max_height=2, exact_height=2)
    assert PathClass(end_level=1, exact_height=3).height_bound == 3
    assert PathClass(end_level=1).height_bound is None


def test_enumerate_ballot_examples():
    assert enumerate_ballot(PathClass(end_level=2, exact_height=2), 2) == [Path("UU")]
    for n in range(7):
        only = enumerate_ballot(PathClass(end_level=0, max_height=1), 2 * n)
        assert only == [Path("UD" * n)]
    with pytest.raises(ValueError):
        enumerate_ballot(PathClass(), -1)


def test_enumerate_ballot_parity_and_vacuous_classes():
    assert enumerate_ballot(PathClass(end_level=1), 4) == []
    assert enumerate_ballot(PathClass(end_level=0, max_height=-1), 0) == []
    assert enumerate_ballot(PathClass(end_level=0, max_height=-2), 6) == []
    assert enumerate_ballot(PathClass(end_level=0, exact_height=3), 0) == []
    # the empty path belongs to every max-height class with end level 0
    assert enumerate_ballot(PathClass(end_level=0, max_height=0), 0) == [Path("")]


def test_enumerate_ballot_members_satisfy_class():
    for h in range(5):
        for end in range(4):
            for steps in range(0, 11):
                path_class = PathClass(end_level=end, max_height=h)
                for p in enumerate_ballot(path_class, steps):
                    assert path_class.contains(p)
                    assert len(p) == steps


def test_exact_height_is_bounded_difference():
    for h in range(7):
        for end in range(6):
            for steps in range(15):
                exact = set(enumerate_ballot(
                    PathClass(end_level=end, exact_height=h), steps))
                upper = set(enumerate_ballot(
                    PathClass(end_level=end, max_height=h), steps))
                lower = set(enumerate_ballot(
                    PathClass(end_level=end, max_height=h - 1), steps))
                assert exact == upper - lower


def test_enumerate_ballot_is_lexicographic_under_caps():
    for steps in range(11):
        for end in range(4):
            for path_class in (PathClass(end_level=end, max_height=3),
                               PathClass(end_level=end, exact_height=2)):
                paths = enumerate_ballot(path_class, steps)
                assert paths == sorted(paths, key=lex_key)


def test_long_single_path_classes_need_no_recursion():
    for steps in (2000, 5000):
        zigzag = PathClass(max_height=1)
        assert _ballot_words(zigzag, steps) == [("UD" * (steps // 2), 1, 1)]
        assert len(enumerate_ballot(zigzag, steps)) == count_ballot_dp(zigzag, steps) == 1
        rising = PathClass(end_level=steps)
        assert _ballot_words(rising, steps) == [(UP * steps, steps, steps)]
        assert len(enumerate_ballot(rising, steps)) == count_ballot_dp(rising, steps) == 1
