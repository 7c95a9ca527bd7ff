"""Exact counting functions against formulas and enumeration oracles.

Claims covered:
    - catalan and super_catalan reproduce the known value tables exactly
    - super_catalan_row, built by the ratio recurrence, equals the doubled
      factorial values and fails loudly on a wrong start value
    - both routes to T, the ratio rows and the factorials, equal von Szily's
      signed sum of binomial products for every m, n <= 40
    - super_catalan is symmetric and errors on the non-integral (0, 0) case,
      and a planted wrong factorial that leaves its quotient inexact raises
    - count_ballot_dp agrees with exhaustive enumeration for every class
    - count_paths_dp, a signed sum of reflected binomials taken from one
      forward walk along a row, equals the full rows of CountTable (odd
      and even rows, every cap, start and end level up to 60 steps, and caps
      0 and 1 at 10 000 steps) and the Catalan numbers, and an unreachable
      end level costs nothing
    - caps 0 and 1 are counted without a walk (0 and 1 once a path takes a
      step), equal to CountTable up to 300 steps from levels 0 and 1
    - a planted wrong reflection sum, the one statement behind count_paths_dp
      and the height table, disagrees with CountTable and fails pairsum and
      lemma-main
    - the walk along a row of 10 000 steps keeps one running sum for each
      of the two summed residue classes: its traced peak stays under 1 MB
      under caps 2, 3 and 2000
    - a wrong start value of that walk raises: an inexact one at its first
      inexact division, a multiple of the true one at the end check
      C(s, s) = 1
    - pair counts (height difference, restricted pairs) match their
      inclusion-exclusion relations
    - pair counts from the height table equal exhaustive pair enumeration
      for n <= 9 and keep their closed forms far beyond it
    - the reflection height table equals the transfer recurrence's counts
      for every n <= 40, one pass of pair counts gives the closed form at
      every n <= 30, and no count depends on the calls made before it
    - a pass over one semilength n gives the count of the pass over every
      n <= 40, for each band of that pass, and 0 below n
    - _convolve equals a naive double loop on random integer lists of any
      pair of lengths and any range of terms, and refuses a term past b
"""

import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb, factorial, inf

import pytest

from supercat import (CountTable, Mismatch, Path, PathClass, catalan,
                      count_ballot_dp, count_E_set, count_F_set,
                      count_pairs_height_diff, count_paths_dp, enumerate_ballot,
                      enumerate_dyck, enumerate_restricted_pairs, factor_dyck,
                      super_catalan, super_catalan_row, verify_lemma_main_count,
                      verify_pairsum)
from supercat import counting

CATALAN_ROW = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
SUPER_ROW_2 = [3, 2, 3, 6, 14, 36, 99, 286, 858, 2652, 8398]
SUPER_ROW_3 = [10, 5, 6, 10, 20, 45, 110, 286, 780, 2210, 6460]


def test_catalan_values():
    assert [catalan(n) for n in range(11)] == CATALAN_ROW
    for n in range(13):
        assert catalan(n) == factorial(2 * n) // (factorial(n) * factorial(n + 1))
    with pytest.raises(ValueError):
        catalan(-1)


def test_super_catalan_table_rows():
    assert [super_catalan(2, n) for n in range(11)] == SUPER_ROW_2
    assert [super_catalan(3, n) for n in range(11)] == SUPER_ROW_3


def test_super_catalan_low_rows():
    # m = 0 doubles to the middle binomial; m = 1 gives the Catalan numbers
    for n in range(1, 13):
        assert 2 * super_catalan(0, n) == comb(2 * n, n)
        assert super_catalan(1, n) == catalan(n)


def test_super_catalan_symmetry():
    for m in range(13):
        for n in range(13):
            if (m, n) != (0, 0):
                assert super_catalan(m, n) == super_catalan(n, m)


def test_super_catalan_half_integer_binomial_form():
    # T(m,n) = (1/2) (-1)^n 4^(m+n) binom(m - 1/2, m + n)
    def general_binom(top: Fraction, k: int) -> Fraction:
        value = Fraction(1)
        for i in range(k):
            value *= (top - i) / (i + 1)
        return value

    for m in range(6):
        for n in range(6):
            if (m, n) == (0, 0):
                continue
            closed = Fraction(1, 2) * (-1) ** n * 4 ** (m + n) \
                * general_binom(Fraction(2 * m - 1, 2), m + n)
            assert closed == super_catalan(m, n)


def test_super_catalan_errors():
    with pytest.raises(ValueError):
        super_catalan(0, 0)
    with pytest.raises(ValueError):
        super_catalan(-1, 2)


def test_super_catalan_refuses_a_non_integer_quotient(monkeypatch):
    # 4! planted as 25: (4! 10!) / (2 * 2! 5! 7!) reads 37.5 for T(2,5) = 18
    monkeypatch.setattr(counting, "factorial", lambda n: factorial(n) + (n == 4))
    with pytest.raises(RuntimeError, match=r"^T\(2,5\) is not an integer$"):
        super_catalan(2, 5)


def test_super_catalan_row_matches_factorials():
    assert super_catalan_row(0, 80) == [comb(2 * n, n) for n in range(81)]
    for m in range(1, 13):
        assert super_catalan_row(m, 80) == [2 * super_catalan(m, n) for n in range(81)]
    assert [value // 2 for value in super_catalan_row(2, 10)] == SUPER_ROW_2
    assert [value // 2 for value in super_catalan_row(3, 10)] == SUPER_ROW_3
    assert super_catalan_row(4, 0) == [comb(8, 4)]
    with pytest.raises(ValueError):
        super_catalan_row(-1, 3)
    with pytest.raises(ValueError):
        super_catalan_row(2, -1)


def test_both_super_catalan_routes_match_von_szily():
    # 2T(m, n) = sum_k (-1)^k C(2m, m+k) C(2n, n+k), von Szily's sum as
    # quoted in Gessel, "Super ballot numbers" (J. Symbolic Comput. 1992);
    # the sign stays an int, where (-1) ** k is a float for negative k
    for m in range(41):
        row = super_catalan_row(m, 40)
        for n in range(41):
            k_max = min(m, n)
            by_sum = sum((-1 if k % 2 else 1) * comb(2 * m, m + k) * comb(2 * n, n + k)
                         for k in range(-k_max, k_max + 1))
            assert row[n] == by_sum
            if m or n:
                assert by_sum == 2 * super_catalan(m, n)


def test_super_catalan_row_refuses_a_wrong_start_value(monkeypatch):
    monkeypatch.setattr(counting, "comb", lambda n, k: comb(n, k) + 1)
    # 2T(2,0) planted as 7: 7 * 2 / 3 is the first inexact step
    with pytest.raises(RuntimeError, match=r"2T\(2,1\) is not an integer"):
        super_catalan_row(2, 5)


def test_count_table_basics():
    table = CountTable(4, max_height=2)
    assert table.count(0, 0) == 1
    assert table.count(0, 1) == 0
    assert table.count(2, 0) == 1  # UD
    assert table.count(4, 0) == 2  # UUDD, UDUD
    with pytest.raises(ValueError):
        table.count(5, 0)
    with pytest.raises(ValueError):
        CountTable(-1)


def test_count_table_of_zero_steps():
    # the start row alone: one path of no steps, at the start level
    for cap, start in ((None, 0), (None, 3), (2, 1), (0, 0)):
        table = CountTable(0, cap, start_level=start)
        assert len(table.rows) == 1
        assert table.count(0, start) == 1
        assert table.column(start) == (1,)
        assert sum(table.rows[0]) == 1
    assert CountTable(0, 1, start_level=2).rows == [[0, 0]]


def test_count_ballot_dp_examples():
    assert count_ballot_dp(PathClass(end_level=0, max_height=2), 8) == 8
    assert count_ballot_dp(PathClass(end_level=0, max_height=0), 0) == 1
    assert count_ballot_dp(PathClass(end_level=2, exact_height=2), 4) == 2
    assert count_ballot_dp(PathClass(end_level=0, max_height=-1), 0) == 0
    with pytest.raises(ValueError):
        count_ballot_dp(PathClass(), -2)


def test_count_ballot_dp_matches_enumeration():
    for h in range(-1, 5):
        for end in range(4):
            for steps in range(11):
                for path_class in (PathClass(end_level=end, max_height=h),
                                   PathClass(end_level=end, exact_height=h)):
                    assert count_ballot_dp(path_class, steps) == \
                        len(enumerate_ballot(path_class, steps))


def test_count_ballot_dp_unbounded_is_ballot_count():
    for steps in range(11):
        for end in range(4):
            expected = len(enumerate_ballot(PathClass(end_level=end), steps))
            assert count_ballot_dp(PathClass(end_level=end), steps) == expected


def _paths_from_level(steps: int, start: int, end: int, cap) -> int:
    count = 0
    for word in product("UD", repeat=steps):
        level = start
        ok = True
        for ch in word:
            level += 1 if ch == "U" else -1
            if level < 0 or (cap is not None and level > cap):
                ok = False
                break
        if ok and level == end:
            count += 1
    return count


def test_count_paths_dp_with_start_level():
    for steps in range(8):
        for start in range(3):
            for end in range(3):
                for cap in (None, 2, 3):
                    assert count_paths_dp(steps, start, end, cap) == \
                        _paths_from_level(steps, start, end, cap)
    assert count_paths_dp(4, 1, 1, -1) == 0
    with pytest.raises(ValueError):
        count_paths_dp(3, -1, 0)


def test_trimmed_rows_match_the_full_recurrence():
    # count_paths_dp sums reflected binomials from one walk along a row;
    # CountTable runs the full step recurrence.  Odd and even rows,
    # caps up to past reach, end levels past reach, start levels past steps
    for start in (*range(9), 12, 31, 61):
        for cap in (None, *range(20), 28, 29, 30, 31, 35, 45, 60):
            table = CountTable(60, cap, start_level=start)
            for steps in range(61):
                for end in range(start + 62):
                    assert count_paths_dp(steps, start, end, cap) == \
                        table.count(steps, end), (steps, start, end, cap)
    # long paths under caps just below reach (150 at 300 steps) take many
    # reflections at both walls
    for start in (0, 3):
        for cap in (0, 1, 2, 3, 7, 40, 148, 149, 150, 151, None):
            last = CountTable(300, cap, start_level=start).rows[300]
            for end in range(start + 302):
                want = last[end] if end < len(last) else 0
                assert count_paths_dp(300, start, end, cap) == want
    # the narrowest strips at the steps limit: nothing fits under cap 0 and
    # one zigzag under cap 1
    for cap in (0, 1):
        for start, end in product(range(cap + 1), repeat=2):
            assert count_paths_dp(10_000, start, end, cap) == \
                CountTable(10_000, cap, start_level=start).count(10_000, end)
    assert count_paths_dp(10_000, 0, 0, 0) == 0
    assert count_paths_dp(10_000, 1, 1, 1) == count_paths_dp(10_001, 0, 1, 1) == 1
    for n in (*range(61), 1500, 5000):
        assert count_paths_dp(2 * n, 0, 0) == catalan(n)


def test_narrowest_strips_take_no_walk(monkeypatch):
    # caps 0 and 1 force every step, so their counts are 0 and 1 once a
    # path takes a step, without a walk along the row
    want = {(cap, start): CountTable(300, cap, start_level=start)
            for cap in (0, 1) for start in (0, 1)}
    monkeypatch.setattr(counting, "exact_div", None)
    for (cap, start), table in want.items():
        for steps in range(301):
            for end in (0, 1):
                assert count_paths_dp(steps, start, end, cap) == \
                    table.count(steps, end), (steps, start, end, cap)
    assert count_paths_dp(10_000, 0, 0, 0) == 0
    assert count_paths_dp(10_000, 1, 1, 1) == count_paths_dp(10_001, 0, 1, 1) == 1


def test_a_wrong_reflection_sum_fails_every_route_through_it(monkeypatch):
    # _strip_sum is the one statement of the reflection sum behind both
    # count_paths_dp and the height table of pair counts; CountTable and the
    # checks' other sides share nothing with it
    real = counting._strip_sum
    monkeypatch.setattr(counting, "_strip_sum", lambda *args: real(*args) + 1)
    assert count_paths_dp(10, 0, 2, 3) == CountTable(10, 3).count(10, 2) + 1
    report = verify_pairsum(12)
    assert report.passed is False
    assert report.notes == ("pair count disagrees at n=1",)
    assert report.first_mismatch == Mismatch(2, 2, 8)
    report = verify_lemma_main_count(5)
    assert report.passed is False
    assert report.notes == ("|E_1| != C_1",)
    assert report.first_mismatch == Mismatch(1, 2, 1)


def test_a_long_walk_keeps_only_the_summed_classes():
    # 10 000 steps: the walk keeps one running sum for each of two residue
    # classes mod cap + 2, where the whole row of binomials would peak at
    # about 9 MB, and the entries of both classes at about 5 MB under cap 2
    fib = [0, 1]  # the Dyck paths of semilength n under cap 3: F(2n - 1)
    while len(fib) < 10_000:
        fib.append(fib[-1] + fib[-2])
    # under cap 2 a path is a run of blocks U (UD)^k D, one run for each
    # composition of its semilength, 2^(n - 1); under cap 2000, reflected at
    # both walls: 5000 up steps, 4999 once reflected at -1
    expected = {
        2: 2 ** 4999,
        3: fib[9999],
        2000: (sum(comb(10_000, j) for j in range(5000 % 2002, 10_001, 2002))
               - sum(comb(10_000, j) for j in range(4999 % 2002, 10_001, 2002))),
    }
    for cap, count in expected.items():
        tracemalloc.start()
        try:
            assert count_paths_dp(10_000, 0, 0, cap) == count, cap
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (cap, peak)


def test_a_wrong_walk_start_raises(monkeypatch):
    monkeypatch.setattr(counting, "comb", lambda n, k: comb(n, k) + 1)
    # the walk starts at C(10, 1), planted as 11: 11 * 9 / 2 is inexact
    with pytest.raises(RuntimeError,
                       match=r"a binomial coefficient of row 10 is not an integer"):
        count_paths_dp(10, 0, 2, 3)
    # the walk starts at C(10, 0), planted as 2: every division stays exact
    # and the walk ends at 2
    with pytest.raises(RuntimeError, match=r"does not end at C\(10, 10\) = 1"):
        count_paths_dp(10, 0, 0, 3)


def test_unreachable_end_level_builds_no_rows():
    tracemalloc.start()
    try:
        assert count_paths_dp(10, 0, 8_000_000) == 0
        assert count_paths_dp(10, 8_000_000, 0) == 0
        assert count_paths_dp(10, 0, 5) == 0  # parity
        assert count_ballot_dp(PathClass(end_level=8_000_000), 10) == 0
        assert count_ballot_dp(PathClass(end_level=8_000_000, exact_height=9_000_000),
                               10) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        count_paths_dp(-1, 0, 8_000_000)
    with pytest.raises(ValueError, match="start_level must be nonnegative"):
        count_paths_dp(2, -1, 8_000_000)


def test_count_pairs_height_diff_examples():
    assert count_pairs_height_diff(1, 1) == 2
    assert count_pairs_height_diff(2, 1) == 3
    assert count_pairs_height_diff(4, 1) == 14
    with pytest.raises(ValueError):
        count_pairs_height_diff(-1, 1)


def test_count_pairs_height_diff_matches_table():
    for n in range(1, 7):
        assert count_pairs_height_diff(n, 1) == super_catalan(2, n)


def test_count_pairs_unrestricted_diff_gives_all_pairs():
    # heights never differ by more than n, so bound n counts all of B_n
    for n in range(7):
        assert count_pairs_height_diff(n, n) == catalan(n + 1)


def _exhaustive_pairs(n: int, keep) -> int:
    """Reference count: every ordered pair (P, Q) of Dyck paths of total
    semilength n, listed, with keep(P, Q)."""
    lists = [enumerate_dyck(a) for a in range(n + 1)]
    return sum(1 for a in range(n + 1) for p in lists[a] for q in lists[n - a]
               if keep(p, q))


def test_pair_counts_match_exhaustive_enumeration():
    for n in range(10):
        for d in sorted({0, 1, 2, n}):
            assert count_pairs_height_diff(n, d) == _exhaustive_pairs(
                n, lambda p, q: abs(p.height - q.height) <= d)
        assert count_E_set(n) == _exhaustive_pairs(
            n, lambda p, q: len(p) > 0 and p.height <= q.height + 1)
        assert count_F_set(n) == _exhaustive_pairs(
            n, lambda p, q: p.height <= q.height + 1)


def test_count_E_set_matches_restricted_pair_enumeration():
    for n in range(10):
        assert count_E_set(n) == len(enumerate_restricted_pairs(n))


def test_pair_counts_beyond_enumeration():
    for n in range(40, 0, -1):
        assert count_pairs_height_diff(n, 1) == super_catalan(2, n)
        assert count_pairs_height_diff(n, n) == catalan(n + 1)
        assert count_E_set(n) == catalan(n)
        assert count_F_set(n) == 2 * catalan(n)
    # a count for a smaller n after a larger one
    assert count_pairs_height_diff(11, 1) == 27132
    assert count_pairs_height_diff(11, 11) == 208012


def test_height_table_matches_the_transfer_recurrence():
    # B[a][h + 1] = CountTable(2a, h).count(2a, 0), read off one table per
    # cap h = -1..40 at 80 steps; h >= a gives C_a and h = -1 gives 0
    n_max = 40
    tables = [CountTable(2 * n_max, h) for h in range(-1, n_max + 1)]
    reference = [[table.count(2 * a, 0) for table in tables] for a in range(n_max + 1)]
    assert reference[0] == [0] + [1] * (n_max + 1)
    assert all(row[a + 1:] == [catalan(a)] * (n_max + 1 - a)
               for a, row in enumerate(reference))
    for n in range(n_max + 1):
        assert counting._height_table(n) == [row[:n + 2] for row in reference[:n + 1]]


def test_one_pass_counts_every_n():
    n_max = 30
    gap_1 = counting._pair_counts(range(n_max + 1), lambda hp: (hp - 1, hp + 1))
    gap_30 = counting._pair_counts(range(n_max + 1), lambda hp: (hp - 30, hp + 30))
    e_set = counting._pair_counts(range(n_max + 1), counting._e_band)
    f_set = counting._pair_counts(range(n_max + 1), lambda hp: (hp - 1, inf))
    n_all = range(1, n_max + 1)
    # n = 0: the one pair (empty, empty) of height 0, outside E
    assert [gap_1[0], gap_30[0], e_set[0], f_set[0]] == [1, 1, 0, 1]
    assert gap_1[1:] == [super_catalan(2, n) for n in n_all]
    assert gap_30 == [catalan(n + 1) for n in range(n_max + 1)]
    assert e_set[1:] == [catalan(n) for n in n_all]
    assert f_set[1:] == [2 * catalan(n) for n in n_all]


BANDS = (lambda hp: (hp - 1, hp + 1), lambda hp: (hp - 30, hp + 30),
         counting._e_band, lambda hp: (hp - 1, inf))


def test_a_range_of_semilengths_counts_only_those():
    full = [counting._pair_counts(range(41), band) for band in BANDS]
    for n in range(41):
        for band, every_n in zip(BANDS, full):
            one = counting._pair_counts(range(n, n + 1), band)
            assert one == [0] * n + [every_n[n]]
    some = counting._pair_counts(range(12, 20), BANDS[0])
    assert some == [0] * 12 + full[0][12:20]
    with pytest.raises(ValueError, match="n must be nonnegative"):
        counting._pair_counts(range(-1, 3), BANDS[0])


def _naive_product(a, b, ks):
    terms = []
    for k in ks:
        term = 0
        for i in range(len(a)):
            for j in range(len(b)):
                if i + j == k:
                    term += a[i] * b[j]
        terms.append(term)
    return terms


def test_convolve_equals_a_double_loop():
    rng = random.Random(19)
    for len_a, len_b in ((1, 1), (3, 9), (9, 3), (7, 7), (0, 4), (12, 5)):
        a = [rng.randint(-10**30, 10**30) for _ in range(len_a)]
        b = [rng.randint(-10**30, 10**30) for _ in range(len_b)]
        for ks in (range(0), range(len_b), range(2, len_b), range(len_b - 1, len_b),
                   range(3, 3), range(0, len_b, 2)):
            assert counting._convolve(a, b, ks) == _naive_product(a, b, ks)


def test_convolve_refuses_a_term_past_b():
    with pytest.raises(ValueError, match="term 3 is past the 3 coefficients of b"):
        counting._convolve([1, 2, 3, 4], [1, 1, 1], range(4))
    with pytest.raises(ValueError, match="term 5 is past"):
        counting._convolve([1], [1, 1, 1], range(5, 6))
    assert counting._convolve([1, 2, 3, 4], [1, 1, 1], range(3)) == [1, 3, 6]


def test_pair_counts_do_not_depend_on_call_order():
    before = count_E_set(5)
    assert count_pairs_height_diff(40, 1) == super_catalan(2, 40)
    assert count_E_set(5) == before == catalan(5)


def test_count_E_set_values():
    assert count_E_set(0) == 0
    assert count_E_set(1) == 1
    assert count_E_set(2) == 2
    assert count_E_set(6) == 132
    for n in range(1, 9):
        assert count_E_set(n) == catalan(n)
    with pytest.raises(ValueError):
        count_E_set(-1)


def test_count_F_set_values():
    assert count_F_set(0) == 1
    assert count_F_set(1) == 2
    assert count_F_set(3) == 10
    for n in range(1, 8):
        assert count_F_set(n) == 2 * catalan(n)


def test_inclusion_exclusion_replay():
    # |F| + |G| - |F u G| = pairs with |h(P)-h(Q)| <= 1, where G mirrors F
    # under swapping and F u G is everything
    for n in range(1, 8):
        f_size = count_F_set(n)
        g_size = sum(1 for a in range(n + 1)
                     for p in enumerate_dyck(a)
                     for q in enumerate_dyck(n - a)
                     if q.height <= p.height + 1)
        assert g_size == f_size
        union = catalan(n + 1)
        assert f_size + g_size - union == count_pairs_height_diff(n, 1)


def test_all_pairs_come_from_first_return_factorization():
    # |B_n| = C_{n+1}: factoring every Dyck path of semilength n+1 hits every
    # pair of total semilength n exactly once
    for n in range(7):
        factored = [factor_dyck(d) for d in enumerate_dyck(n + 1)]
        assert len(factored) == catalan(n + 1)
        assert len(set(factored)) == len(factored)
        total = sum(catalan(a) * catalan(n - a) for a in range(n + 1))
        assert len(factored) == total
