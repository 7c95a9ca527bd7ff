"""Polynomial quotients for height-restricted path generating functions.

Claims covered:
    - the p polynomials from the recurrence match the alternating binomial sum
    - an x-polynomial is an int tuple: _poly drops trailing zeros and
      refuses a non-int coefficient, _poly_add pads the shorter operand and
      _poly_mul makes the full product; a quotient built from bools stores
      plain ints
    - quotient normalization: even t-shifts fold into the numerator, the zero
      quotient is canonically 0/1 with shift 0, parity-mixed addition is
      rejected; the repr lists num and den
    - each builder returns a zero quotient of its own: rebinding the fields
      of one leaves the others zero
    - quotients compare by cross-multiplication and are unhashable, since
      no hash of num, den and shift agrees with that equality
    - a denominator must have constant term 1 or -1, so every expansion
      stays in the integers; any other constant term is refused
    - every expanded generating function agrees with transfer-table counts,
      with the right parity support and the right boundary zeros
    - height-exact functions combine over the denominator p_k * p_{k+1}
    - the Casoratian identity p_{k-j} p_k - p_{k-1-j} p_{k+1} = x^(k-j) p_j
      holds exactly, so the closed form of H_k^(j) equals G_k^(j) - G_{k-1}^(j)
    - the k-th t3-main triple product starts at exactly t^(6k-21), with
      coefficient 1 there
    - more height means more paths (coefficientwise monotonicity)
    - the quotients that no identity check reads, since firstsum, pairsum
      and t3-main sum in C, match transfer-table columns through t^120:
      dyck_gf(k) for k <= 61 and ballot_exact_gf(k, j) for each (k, j) of
      the t3-main triples through t^120; a planted extra path at k = 40
      is caught
    - expansion by the denominator's recurrence, times the denominator
      series, gives back the shifted numerator; that check multiplies only,
      so it stays independent of the division shared with TruncSeries.invert
"""

from fractions import Fraction
from math import comb

import pytest

from supercat import (CountTable, PathClass, PolyQuotient, TruncSeries,
                      ballot_between_gf, ballot_end_gf, ballot_exact_gf,
                      count_ballot_dp, count_paths_dp, dyck_gf, p_poly)
from supercat import height_gf


def p_poly_explicit(n: int) -> tuple[int, ...]:
    """p_n from the alternating binomial sum over k <= n/2 of (-1)^k C(n-k, k) x^k,
    the reference for p_poly's recurrence."""
    if n < -1:
        raise ValueError("defined for n >= -1")
    if n == -1:
        return ()
    return tuple((-1) ** k * comb(n - k, k) for k in range(n // 2 + 1))


P_FIRST = [(1,), (1,), (1, -1), (1, -2), (1, -3, 1), (1, -4, 3), (1, -5, 6, -1)]


def test_p_poly_first_values():
    for n, coeffs in enumerate(P_FIRST):
        assert p_poly(n) == coeffs
    assert p_poly(-1) == ()


def test_p_poly_eight_from_the_sum():
    assert p_poly_explicit(8) == (1, -7, 15, -10, 1)
    assert p_poly(8) == p_poly_explicit(8)


def test_p_poly_recurrence_matches_explicit_sum():
    for n in range(-1, 21):
        assert p_poly(n) == p_poly_explicit(n)
    with pytest.raises(ValueError):
        p_poly(-2)
    with pytest.raises(ValueError):
        p_poly_explicit(-3)


def test_x_polynomial_helpers():
    a, b = (1, 2), (0, 0, 3)
    assert height_gf._poly_add(a, b) == height_gf._poly_add(b, a) == (1, 2, 3)
    assert height_gf._poly_add(a, (-1, -2)) == ()
    assert height_gf._poly_add((), b) == b
    assert height_gf._poly_mul(a, b) == height_gf._poly_mul(b, a) == (0, 0, 3, 6)
    assert height_gf._poly_mul((1, -1), (1, 1, 1)) == (1, 0, 0, -1)
    assert height_gf._poly_mul((), b) == height_gf._poly_mul(a, ()) == ()
    assert height_gf._poly([0, 0, 1, 2, 0, 0]) == (0, 0, 1, 2)
    assert height_gf._poly([0, 0]) == ()
    for bad in ((1.5,), (1, 0.0), (Fraction(2),)):
        with pytest.raises(TypeError):
            height_gf._poly(bad)
    with pytest.raises(TypeError):
        PolyQuotient((1.5,))
    with pytest.raises(TypeError):
        PolyQuotient((1,), (1, Fraction(1)))


def test_quotient_stores_bool_coefficients_as_ints():
    flags = PolyQuotient((True, False, True), (True,))
    assert flags.num == (1, 0, 1) and flags.den == (1,)
    assert all(type(c) is int for c in flags.num + flags.den)


def test_quotient_normalization():
    q = PolyQuotient((1,), (1, -1), t_shift=4)
    assert q.t_shift == 0
    assert q.num == (0, 0, 1)
    zero = PolyQuotient((), (0, 1), t_shift=3)
    assert zero.is_zero and zero.t_shift == 0
    assert (zero.num, zero.den) == ((), (1,))
    assert repr(zero) == "PolyQuotient(num=[], den=[1], t_shift=0)"
    assert repr(q) == "PolyQuotient(num=[0, 0, 1], den=[1, -1], t_shift=0)"
    with pytest.raises(ValueError):
        PolyQuotient((1,), (0, 1))
    with pytest.raises(ZeroDivisionError):
        PolyQuotient((1,), ())


def test_quotient_parity_rules():
    even = ballot_end_gf(3, 2)
    odd = ballot_end_gf(3, 1)
    with pytest.raises(ValueError):
        even + odd
    assert (odd * odd).t_shift == 0
    assert (even + PolyQuotient(())) == even


def test_quotient_equality_by_cross_multiplication():
    a = PolyQuotient((1,), (1, -1))
    b = PolyQuotient((1, 1), (1, 0, -1))  # (1 + x) / (1 - x^2)
    c = PolyQuotient((-1,), (-1, 1))
    assert a == b == c
    assert a != PolyQuotient((1,), (1, -2))
    # no hash of num, den and shift agrees with this equality
    for quotient in (a, b, c):
        with pytest.raises(TypeError):
            hash(quotient)


def test_dyck_gf_small_cases():
    assert dyck_gf(-1).is_zero and dyck_gf(-2).is_zero
    with pytest.raises(ValueError):
        dyck_gf(-3)
    g0 = dyck_gf(0).expand(10)
    assert g0.coeffs[0] == 1 and all(c == 0 for c in g0.coeffs[1:])
    g1 = dyck_gf(1).expand(10)
    assert [g1.x_coefficient(k) for k in range(6)] == [1, 1, 1, 1, 1, 1]
    g2 = dyck_gf(2).expand(16)
    assert [g2.x_coefficient(k) for k in range(9)] == [1, 1, 2, 4, 8, 16, 32, 64, 128]


def test_each_empty_class_gets_its_own_zero_quotient():
    zeros = (lambda: dyck_gf(-1), lambda: dyck_gf(-2),
             lambda: ballot_end_gf(0, 5), lambda: ballot_exact_gf(1, 2))
    zeros[0]().num = (1,)
    assert [zero().is_zero for zero in zeros[1:]] == [True, True, True]


def test_expand_bookkeeping():
    assert dyck_gf(3).expand(25).order == 25
    assert dyck_gf(-1).expand(12).coeffs == (0,) * 13
    with pytest.raises(ValueError):
        dyck_gf(3).expand(-1)


def test_ballot_end_gf_boundaries():
    for k in range(9):
        assert ballot_end_gf(k, 0) == dyck_gf(k)
        assert ballot_end_gf(k, k + 1).is_zero
        assert ballot_end_gf(k, k + 5).is_zero
    assert ballot_end_gf(1, 2).is_zero
    with pytest.raises(ValueError):
        ballot_end_gf(2, -1)
    with pytest.raises(ValueError):
        ballot_end_gf(-1, 0)


def test_ballot_end_gf_counts_and_parity():
    for k in range(5):
        for j in range(k + 2):
            series = ballot_end_gf(k, j).expand(14)
            for s in range(15):
                expected = count_ballot_dp(
                    PathClass(end_level=j, max_height=k), s)
                assert series.coeffs[s] == expected
                if (s - j) % 2:
                    assert series.coeffs[s] == 0
    # the hand-checked case: height <= 2, end level 2, 4 steps
    assert ballot_end_gf(2, 2).expand(8).coefficient(4) == 2


def test_ballot_between_gf_reduces_and_symmetrizes():
    for k in range(5):
        for j in range(k + 2):
            assert ballot_between_gf(k, 0, j) == ballot_end_gf(k, j)
            for i in range(k + 2):
                assert ballot_between_gf(k, i, j) == ballot_between_gf(k, j, i)
    for i, j in ((0, 4), (4, 0)):
        with pytest.raises(ValueError, match=r"levels must lie in \[0, k \+ 1\]"):
            ballot_between_gf(2, i, j)


def test_ballot_between_gf_counts_from_start_level():
    series = ballot_between_gf(3, 1, 2).expand(14)
    assert [series.coeffs[s] for s in range(10)] == [0, 1, 0, 3, 0, 8, 0, 21, 0, 55]
    for s in range(15):
        assert series.coeffs[s] == count_paths_dp(s, 1, 2, 3)


def test_ballot_exact_gf_values():
    h22 = ballot_exact_gf(2, 2).expand(12)
    assert h22.coeffs[2] == 1 and all(h22.coeffs[s] == 0 for s in range(2))
    h10 = ballot_exact_gf(1, 0).expand(12)
    assert [h10.x_coefficient(k) for k in range(7)] == [0, 1, 1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        ballot_exact_gf(0, 0)


def test_ballot_exact_gf_denominator_and_counts():
    assert ballot_exact_gf(3, 1).den == height_gf._poly_mul(p_poly(3), p_poly(4))
    for k in range(1, 5):
        for j in range(k + 2):
            series = ballot_exact_gf(k, j).expand(14)
            for s in range(15):
                expected = count_ballot_dp(
                    PathClass(end_level=j, exact_height=k), s)
                assert series.coeffs[s] == expected


def test_casoratian_identity():
    mul = height_gf._poly_mul
    for k in range(1, 40):
        for j in range(k + 1):
            minus = tuple(-c for c in mul(p_poly(k - 1 - j), p_poly(k + 1)))
            assert (height_gf._poly_add(mul(p_poly(k - j), p_poly(k)), minus)
                    == (0,) * (k - j) + p_poly(j))


def test_ballot_exact_gf_is_the_difference_of_height_bounds():
    for k in range(1, 20):
        for j in range(k + 3):
            exact = ballot_exact_gf(k, j)
            assert exact == ballot_end_gf(k, j) - ballot_end_gf(k - 1, j)
            assert exact.is_zero is (j > k)


def test_t3_triple_product_starts_at_its_structural_power():
    # the lowest triple: paths of 2k - 4, 2k - 7 and 2k - 10 steps
    for k in range(6, 31):
        low = 6 * k - 21
        term = (ballot_exact_gf(k, 4) * ballot_exact_gf(k - 2, 3)
                * ballot_exact_gf(k - 4, 2)).expand(low)
        assert term.coeffs == (0,) * low + (1,)


# the quotients off every check's route, through t^120: dyck_gf(k) for the
# height bounds firstsum and pairsum read at x-order 60, and ballot_exact_gf
# for the triples (k, 4), (k - 2, 3), (k - 4, 2) with 6k - 21 <= 120
OFF_ROUTE_T_ORDER = 120
OFF_ROUTE_DYCK = range(62)
OFF_ROUTE_EXACT = sorted({(k - 2 * i, 4 - i) for k in range(6, (120 + 21) // 6 + 1)
                          for i in range(3)})


def _off_route_mismatches():
    """The (builder, k, j) of each off-route quotient whose expansion
    differs from its transfer-table column; exact height k is the cap-k
    column minus the cap-(k - 1) column."""
    columns = {}

    def column(cap, level):
        if cap not in columns:
            columns[cap] = CountTable(OFF_ROUTE_T_ORDER, cap)
        return columns[cap].column(level)

    wrong = [("dyck_gf", k, 0) for k in OFF_ROUTE_DYCK
             if height_gf.dyck_gf(k).expand(OFF_ROUTE_T_ORDER).coeffs != column(k, 0)]
    for k, j in OFF_ROUTE_EXACT:
        exact = tuple(a - b for a, b in zip(column(k, j), column(k - 1, j)))
        if height_gf.ballot_exact_gf(k, j).expand(OFF_ROUTE_T_ORDER).coeffs != exact:
            wrong.append(("ballot_exact_gf", k, j))
    return wrong


def test_off_route_quotients_match_the_transfer_tables():
    assert len(OFF_ROUTE_EXACT) == 3 * 18
    assert _off_route_mismatches() == []


def test_off_route_check_sees_a_wrong_height_bound_at_40(monkeypatch):
    # one more Dyck path of semilength 41 under height 40, where the one
    # path of height 41 is the first the bound leaves out
    real = height_gf.dyck_gf
    monkeypatch.setattr(height_gf, "dyck_gf", lambda k: real(k) + PolyQuotient(
        (0,) * 41 + (int(k == 40),)))
    assert _off_route_mismatches() == [("dyck_gf", 40, 0)]


def test_more_height_means_more_paths():
    for k in range(7):
        wider = dyck_gf(k + 1).expand(30)
        narrower = dyck_gf(k).expand(30)
        assert all(c >= 0 for c in (wider - narrower).coeffs)


def test_expand_times_denominator_is_the_shifted_numerator():
    quotients = [dyck_gf(k) for k in range(8)]
    quotients += [ballot_between_gf(5, i, j) for i in range(7) for j in range(i, 7)]
    quotients += [ballot_exact_gf(4, 3) * ballot_exact_gf(2, 1),
                  PolyQuotient((3, 1), (-1, -1, 5), 1),
                  PolyQuotient((1,), (-1, 4))]
    for quotient in quotients:
        for t_order in (0, 1, 2, 7, 30):
            num = TruncSeries.from_x_coeffs(quotient.num, t_order)
            numerator = TruncSeries([0] * quotient.t_shift + list(num.coeffs),
                                    t_order)
            den = TruncSeries.from_x_coeffs(quotient.den, t_order)
            assert quotient.expand(t_order) * den == numerator


def test_quotient_refuses_a_non_unit_constant_term():
    # t / (2 - x) = t/2 + t^3/4 + ... leaves the integers at its first term
    for a0 in (2, -3, 0):
        with pytest.raises(ValueError, match=f"constant term must be 1 or -1, not {a0}"):
            PolyQuotient((1,), (a0, -1), 1)
    series = PolyQuotient((1,), (-1, 1), 1).expand(7)
    assert series.coeffs == (0, -1, 0, -1, 0, -1, 0, -1)
