"""The identity verification suite: every registered check, reduced orders.

Claims covered:
    - every registered verifier passes and reports structured results
    - the mismatch machinery pinpoints the first differing coefficient
    - a planted wrong pair count fails pairsum and lemma-main at that n, and
      so does a planted wrong entry of the height table behind both
    - a planted wrong inverse core fails the lemma-main round trip, on the
      image of the last pair of E_8 and of the first of its second chunk
      too; a planted forward core that is not one-to-one, one with an image
      outside D_4 and a pair streamed twice in place of another each fail
      the image check, which takes each image's height out of D_4's map;
      lemma-main makes one level pass per chunk of pairs, 31 at order 10,
      and its forward core never runs more than one chunk ahead of its
      inverse core
    - a height off by one on the first, sixth or last enumerated word of
      D_4 fails lemma-main at n = 4, as a report even where the inverse
      core raises on it
    - a planted wrong Catalan number fails e2 and t3-closed, a wrong height
      bound in C firstsum and pairsum at a C-exponent, a doubled k = 6 term
      in C or a wrong constant term t3-main and a wrong p_n p-bridge, each
      at a stated coefficient
    - firstsum, pairsum and t3-main sum in C: a planted wrong running sum,
      the division by 1 - C^a they share, fails each at a stated
      coefficient, and a planted wrong crossing to x fails pairsum at its
      table row, t3-main at its main identity and e52; a planted wrong
      polynomial in C fails e52 and t3-main's k-sum closed form, which read
      one cleared side; the crossing by Lagrange inversion equals
      substitution of the Catalan series, by series products, and
      coefficient lists of unequal lengths are refused
    - e52's cleared left side, built in C through
      sqrt(1 - 4x) = (1 - C) / (1 + C) and carried to x by Lagrange
      inversion, equals the generalized binomial expansion of
      (1 - 4x)^(5/2) in exact fractions through x^204
    - a planted wrong coefficient in the division shared by expand and
      invert fails g-forms at its path-count check; p-bridge divides
      nothing, and a planted wrong Catalan number fails it, and g-forms, at
      the tie C = x (1 + C)^2
    - t3-main is cross-checked against path counts at every coefficient
      through its order: a planted wrong table count above x^9 fails it at
      x^10, and the path counts need no series kernel or generating function
    - a planted wrong super Catalan number in a row of super_catalan_row
      fails e-mo and e8 at its index, a planted wrong height bound fails
      g-forms; e-mo and g-forms pass at order 40, and e8, e-mo and
      lemma-main at order 60
    - a row scaled by a wrong start value, every division still exact, fails
      e8 and e-mo at the row's anchor, with halved values in the report
    - e8 and e-mo call super_catalan once per row; g-forms and p-bridge
      make no series product, since the (1 + C)^2 of the C tie is one
      integer convolution, and g-forms builds one table column per
      (k, i, j) and expands each of those quotients once: 219 of each
    - e-mo, checked as L = 1 + A L, gives the report of the dense inverse of
      1 - A at every degree 2..20, clean and under planted wrong super
      Catalan and Catalan numbers; an odd doubled row entry, a non-integer
      T, is refused by both routes at its halving
    - a planted wrong end-level or between-levels quotient, a wrong height
      bound, or a quotient of the wrong t-parity fails its g-forms
      polynomial identity in C, reported at a C-exponent; a planted wrong
      table count fails g-forms with the same note and coefficient as before
      the closed forms became polynomial identities; a planted wrong
      quotient in ballot_between_gf, the one builder behind dyck_gf and
      ballot_end_gf, fails g-forms as G_k^(j) at i = 0; a planted wrong
      Catalan number at C_2 fails the g-forms tie C = x (1 + C)^2
    - t3-main refuses a displayed tail built one C-power short
    - a planted wrong T(2, 5) fails pairsum's table-row comparison, a
      planted wrong displayed tail t3-main's k-sum closed form, and a pair
      missing from the stream of E_4 lemma-main's enumeration count, each
      with its full report pinned
    - every term of the integer convolution, the product kernel of the
      series and polynomials too, planted one too large fails e-mo,
      g-forms, lemma-main, p-bridge, pairsum and t3-main at their default
      orders
    - a report's elapsed_ms lies within the time its call took
    - the dispatcher validates ids and orders, applies per-identity defaults,
      and clamps enumeration-bound checks with a recorded note
    - the registry's default orders are the README values, and `verify all`
      with no --order runs every check at them; every registry id runs under
      its own id
    - reports serialize to the documented JSON dict with integer coefficients
    - the README catalogue lists exactly the registered identity ids, and
      the registry lists them sorted, the order of `verify all`
"""

import json
import re
from itertools import islice
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from supercat import (IDENTITIES, BiTrunc, CountTable, Mismatch, PolyQuotient,
                      TruncSeries, catalan, catalan_series,
                      enumerate_dyck, enumerate_restricted_pairs, forward,
                      inverse, report_to_dict, run_identity, super_catalan)
from supercat import counting, height_gf, identities, series
from supercat.cli import main
from supercat.counting import exact_div


def _assert_clean_pass(report, identity):
    assert report.identity == identity
    assert report.passed
    assert report.first_mismatch is None
    assert report.elapsed_ms >= 0


def test_t2_closed_form():
    _assert_clean_pass(run_identity("e2", 12), "e2")


def test_t3_closed_form():
    _assert_clean_pass(run_identity("t3-closed", 12), "t3-closed")


def _plant(monkeypatch, name, wrong):
    """Replace identities.<name> by wrong(real)."""
    monkeypatch.setattr(identities, name, wrong(getattr(identities, name)))


@pytest.mark.parametrize("identity, n, lhs, delta", [
    # C_7 is C_{n+1} first at n = 6 in 4C_n - C_{n+1}
    ("e2", 6, super_catalan(2, 6), -1),
    # and C_{n+2} first at n = 5 in 16C_n - 8C_{n+1} + C_{n+2}
    ("t3-closed", 5, super_catalan(3, 5), 1),
])
def test_closed_forms_fail_on_a_wrong_catalan(monkeypatch, identity, n, lhs, delta):
    _plant(monkeypatch, "catalan", lambda real: lambda k: real(k) + (k == 7))
    report = run_identity(identity, 12)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(n, lhs, lhs + delta)


def test_e8():
    report = run_identity("e8", 6)
    _assert_clean_pass(report, "e8")
    assert any("doubled" in note for note in report.notes)


def _plant_row_entry(monkeypatch, at, wrong):
    """Make identities.super_catalan_row give 2 * wrong(T(m, n)) at the
    entry (m, n) = at, whenever a row reaches it: the checks that read T off
    doubled rows then see wrong(T(m, n))."""
    real = identities.super_catalan_row
    m_at, n_at = at

    def planted(m, n_max):
        row = real(m, n_max)
        if m == m_at and n_at <= n_max:
            row[n_at] = 2 * wrong(row[n_at] // 2)
        return row
    monkeypatch.setattr(identities, "super_catalan_row", planted)


def test_e8_fails_on_a_wrong_super_catalan(monkeypatch):
    # T(2, 5) first appears as the right side T(m, m + p) at (m, p) = (2, 3);
    # on the left it would need n = 5 <= p // 2, past p <= 6
    _plant_row_entry(monkeypatch, (2, 5), lambda v: v + 1)
    report = run_identity("e8", 6)
    assert report.passed is False
    assert report.first_mismatch == Mismatch((2, 3), super_catalan(2, 5),
                                             super_catalan(2, 5) + 1)


def test_a_scaled_row_fails_e8_and_e_mo_at_its_anchor(monkeypatch):
    # row 3 from the start value 2 * C(6, 3): the ratio recurrence is linear,
    # so every entry doubles and every division stays exact.  e8 is linear in
    # a row and passes such a row; only its anchor, the last entry against
    # super_catalan, sees it.  Both reports carry halved values, 2T against T
    real = identities.super_catalan_row
    monkeypatch.setattr(identities, "super_catalan_row", lambda m, n_max: [
        2 * value if m == 3 else value for value in real(m, n_max)])
    report = run_identity("e8", 6)
    assert report.passed is False
    assert report.first_mismatch == Mismatch((3, 6), 2 * super_catalan(3, 9),
                                             super_catalan(3, 9))
    report = run_identity("e-mo", 12)
    assert report.passed is False
    assert report.first_mismatch == Mismatch((3, 9), 2 * super_catalan(3, 9),
                                             super_catalan(3, 9))


def test_row_checks_call_super_catalan_once_per_row(monkeypatch):
    # the factorial route anchors each row once: rows m = 0..10 of e8 at
    # order 10, rows m = 1..11 of e-mo at degree 12 (row 12 of A is zero)
    calls = []
    real = identities.super_catalan
    monkeypatch.setattr(identities, "super_catalan",
                        lambda m, n: calls.append((m, n)) or real(m, n))
    assert run_identity("e8", 10).passed
    assert calls == [(m, m + 10) for m in range(11)]
    calls.clear()
    assert run_identity("e-mo", 12).passed
    assert calls == [(m, 12 - m) for m in range(1, 12)]


def test_g_closed_forms_make_no_series_product(monkeypatch):
    # the (1 + C)^2 of the C tie is one integer convolution, and the closed
    # forms are polynomial identities in C, which take no series product
    calls = []
    real = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__",
                        lambda self, other: calls.append(1) or real(self, other))
    assert run_identity("g-forms", 12).passed
    assert run_identity("p-bridge", 12).passed
    assert calls == []


def test_g_closed_forms_expand_each_quotient_once(monkeypatch):
    # the 219 G_k^(i,j), each against its table column; at i = 0, G_k^(j) is
    # G_k^(0,j), and G_k is G_k^(0), one quotient.  G_-1 = 0 has no column
    calls = []
    real = PolyQuotient.expand
    monkeypatch.setattr(PolyQuotient, "expand",
                        lambda self, t_order: calls.append(1) or real(self, t_order))
    assert run_identity("g-forms", 12).passed
    assert len(calls) == 219


def test_g_closed_forms_build_each_table_column_once(monkeypatch):
    # one column per (k, i, j) with 0 <= i <= j <= k + 1, for k = 0..8:
    # G_k^(j) and G_k^(0,j) share the column of level j
    levels = []
    real = CountTable.column
    monkeypatch.setattr(CountTable, "column",
                        lambda self, level: levels.append(level) or real(self, level))
    assert run_identity("g-forms", 12).passed
    assert len(levels) == sum((k + 2) * (k + 3) // 2 for k in range(9)) == 219


@pytest.mark.parametrize("identity", ["e8", "e-mo"])
def test_deep_order(identity):
    _assert_clean_pass(run_identity(identity, 60), identity)


def test_e_mo():
    _assert_clean_pass(run_identity("e-mo", 8), "e-mo")


def test_e_mo_fails_on_a_wrong_super_catalan(monkeypatch):
    _plant_row_entry(monkeypatch, (3, 4), lambda v: v + 1)
    report = run_identity("e-mo", 20)
    assert report.passed is False
    assert report.first_mismatch.power == (3, 4)


def test_e_mo_passes_deep():
    _assert_clean_pass(run_identity("e-mo", 40), "e-mo")


def _e_mo_by_inverse(degree):
    """(passed, first_mismatch, notes) of e-mo by the dense inverse of 1 - A,
    reading catalan and the rows of super_catalan_row through the identities
    module, each entry halved by exact division as e-mo halves it, so a
    planted defect reaches both routes."""
    one = BiTrunc.one(degree)
    pairs = [(m, n) for m in range(1, degree) for n in range(1, degree - m + 1)]
    rows = {m: identities.super_catalan_row(m, degree - m) for m in range(1, degree)}
    lhs = one + BiTrunc({(m, n): identities.catalan(m) * identities.catalan(n)
                         for m, n in pairs}, degree)
    rhs = (one - BiTrunc({(m, n): exact_div(rows[m][n], 2, f"T({m},{n})")
                          for m, n in pairs}, degree)).invert()
    for d in range(degree + 1):
        for i in range(d + 1):
            if lhs.get(i, d - i) != rhs.get(i, d - i):
                return False, Mismatch((i, d - i), lhs.get(i, d - i), rhs.get(i, d - i)), ()
    return True, None, ()


def _same_as_inverse(degree):
    """The e-mo report, asserted equal to the dense inverse's; None when the
    halving of a row refuses a non-integer T, which must then stop both
    routes with the same error."""
    try:
        expected = _e_mo_by_inverse(degree)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=re.escape(str(exc))):
            run_identity("e-mo", degree)
        return None
    report = run_identity("e-mo", degree)
    assert (report.passed, report.first_mismatch, report.notes) == expected
    return report


@pytest.mark.parametrize("degree", range(2, 21))
def test_e_mo_matches_the_dense_inverse(degree):
    assert _same_as_inverse(degree).passed


@pytest.mark.parametrize("name, at, wrong", [
    ("super_catalan", (3, 4), lambda v: v + 1),
    ("super_catalan", (1, 1), lambda v: v - 1),
    ("super_catalan", (1, 18), lambda v: 2 * v),
    ("super_catalan", (9, 9), lambda v: v + 5),
    ("super_catalan", (2, 2), lambda v: v + 3),
    ("super_catalan", (12, 3), lambda v: 0),
    ("catalan", (6,), lambda v: v + 1),
    ("catalan", (1,), lambda v: v + 1),
    ("catalan", (19,), lambda v: v - 3),
    ("catalan", (10,), lambda v: -v),
    ("catalan", (3,), lambda v: 2 * v),
    ("super_catalan_row", (2, 2), lambda v: v + 1),
])
def test_e_mo_failures_match_the_dense_inverse(monkeypatch, name, at, wrong):
    # a wrong T is planted in its doubled row entry; super_catalan_row plants
    # the doubled entry itself, and 2T(2,2) + 1 is odd, a non-integer T that
    # both routes refuse at its halving
    if name == "super_catalan":
        _plant_row_entry(monkeypatch, at, wrong)
    elif name == "super_catalan_row":
        _plant(monkeypatch, name, lambda real: lambda m, n_max: [
            wrong(v) if (m, n) == at else v for n, v in enumerate(real(m, n_max))])
    else:
        _plant(monkeypatch, name, lambda real: lambda *args:
               wrong(real(*args)) if args == at else real(*args))
    for degree in (8, 12, 20):
        report = _same_as_inverse(degree)
    assert report is None or not report.passed


@pytest.mark.parametrize("name, at, mismatch", [
    ("super_catalan", (3, 4), Mismatch((3, 4), 70, 71)),
    ("catalan", (6,), Mismatch((1, 6), 133, 132)),
])
def test_e_mo_failure_reports(monkeypatch, name, at, mismatch):
    if name == "super_catalan":
        _plant_row_entry(monkeypatch, at, lambda v: v + 1)
    else:
        _plant(monkeypatch, name,
               lambda real: lambda *args: real(*args) + (args == at))
    assert run_identity("e-mo", 20).first_mismatch == mismatch


def test_firstsum():
    _assert_clean_pass(run_identity("firstsum", 12), "firstsum")


def _plant_strides(monkeypatch, at, strides):
    """identities._c_quotient with `strides` in place of the strides of the
    quotient C^e / prod (1 - C^a) whose (e, strides) is `at`."""
    _plant(monkeypatch, "_c_quotient", lambda real: lambda e, got, length: real(
        e, strides if (e, tuple(got)) == at else got, length))


def test_firstsum_fails_on_a_wrong_height_bound(monkeypatch):
    # the n = 3 summand C^3 / ((1 - C^4)(1 - C^6)) built with 1 - C^7 for
    # 1 - C^6, the C-form of G_5 in place of G_4: it changes by
    # C^3 (C^7 - C^6) / ((1 - C^4)(1 - C^6)(1 - C^7)), which starts at -C^9,
    # and (1 - C^2)^2 keeps that lowest term
    _plant_strides(monkeypatch, (3, (4, 6)), (4, 7))
    report = run_identity("firstsum", 12)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(9, -1, 0)
    assert report.notes == ("sum in C vs 1 + 2C, power is the C-exponent",)


def test_pairsum():
    report = run_identity("pairsum", 12)
    _assert_clean_pass(report, "pairsum")
    assert report.notes == (
        "summed in C through C^12, carried to x by Lagrange inversion",
        "coefficients x^1..x^12 cross-checked against pair counts from the "
        "height table")


def test_pairsum_fails_on_a_wrong_pair_count(monkeypatch):
    # n = 11 lies past the old enumeration cap of 9
    real = identities._pair_counts
    monkeypatch.setattr(identities, "_pair_counts", lambda n_max, band: [
        count + (n == 11) for n, count in enumerate(real(n_max, band))])
    report = run_identity("pairsum", 12)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(22, super_catalan(2, 11),
                                             super_catalan(2, 11) + 1)
    assert "pair count disagrees at n=11" in report.notes


def test_pairsum_fails_on_a_wrong_t2(monkeypatch):
    # T(2, 5) planted as 37 for 36: the series sum still equals 1 + 2C - C^2
    # and meets the table row at x^5
    _plant(monkeypatch, "super_catalan",
           lambda real: lambda m, n: real(m, n) + ((m, n) == (2, 5)))
    report = run_identity("pairsum", 12)
    assert (report.identity, report.order, report.passed) == ("pairsum", 12, False)
    assert report.first_mismatch == Mismatch(10, 36, 37)
    assert report.notes == ("series sum vs 1 + sum T(2,n) x^n",)


def _plant_height_table_defect(monkeypatch):
    """B[6][3], the Dyck paths of semilength 6 and height at most 2, one too
    many: a path of height 3 counted as one of height 2."""
    real = counting._height_table

    def wrong(n):
        table = real(n)
        if n >= 6:
            table[6][3] += 1
        return table
    monkeypatch.setattr(counting, "_height_table", wrong)


def test_pairsum_fails_on_a_wrong_height_table_entry(monkeypatch):
    # the extra height-2 path of semilength 6 gains a partner within height
    # gap 1 only at n = 7: UD, on either side of the pair.  At n = 6 its one
    # partner is the empty path, two heights below it
    _plant_height_table_defect(monkeypatch)
    report = run_identity("pairsum", 30)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(14, 286, 288)  # T(2, 7) = 286
    assert "pair count disagrees at n=7" in report.notes


def test_pairsum_fails_on_a_wrong_height_bound(monkeypatch):
    # d_4 = C^4 / ((1 - C^5)(1 - C^6)) built with 1 - C^7 for 1 - C^6
    # changes by -C^10 + ...; it is a neighbour in the products n = 3, 4, 5,
    # which multiply it by C^n, so the change starts at -C^13, from n = 3
    _plant_strides(monkeypatch, (4, (5, 6)), (5, 7))
    report = run_identity("pairsum", 30)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(13, -1, 0)
    assert report.notes == ("sum in C vs 1 + 2C - C^2, power is the C-exponent",)


def test_a_wrong_crossing_to_x_fails_pairsum_and_t3_main(monkeypatch):
    # one more at x^7 of every series carried from C to x: pairsum meets
    # the table row there, T(2, 7) = 286, and t3-main its left side,
    # T(3, 8) = 780; the C stages before it still pass
    _plant(monkeypatch, "_c_to_x", lambda real: lambda cs: [
        c + (n == 7) for n, c in enumerate(real(cs))])
    report = run_identity("pairsum", 12)
    assert report.first_mismatch == Mismatch(14, 287, 286)
    assert report.notes == ("series sum vs 1 + sum T(2,n) x^n",)
    report = run_identity("t3-main", 10)
    assert report.first_mismatch == Mismatch(14, 780, 781)
    assert report.notes == ("main series identity",)


@pytest.mark.parametrize("cs", [
    [1], [0, 1], [5, 0, 0, 1], [1, 2, -1, 0, 0, 0], [3, -7, 11, 0, 2, -5, 13, 1],
    list(range(-20, 21, 2))])
def test_crossing_to_x_is_substitution_of_the_catalan_series(cs):
    # sum_k cs[k] C^k with C = c(x) - 1, by series products
    order = 2 * (len(cs) - 1)
    C = catalan_series(len(cs) - 1) - TruncSeries.one(order)
    total, power = TruncSeries.zero(order), TruncSeries.one(order)
    for c in cs:
        total, power = total + c * power, power * C
    assert identities._c_to_x(cs) == list(total.coeffs[::2])


def test_c_lists_of_unequal_lengths_are_refused():
    with pytest.raises(RuntimeError,
                       match="cannot compare coefficient lists of lengths 3 and 2"):
        identities._first_mismatch([1, 2, 3], [1, 2])
    assert identities._first_mismatch([1, 2, 3], [1, 2, 4]) == Mismatch(2, 3, 4)
    assert identities._first_mismatch([1, 2, 3], [1, 2, 3]) is None


def test_e52():
    _assert_clean_pass(run_identity("e52", 12), "e52")


def test_e52_fails_on_a_wrong_crossing_to_x(monkeypatch):
    # one more at x^7 of the cleared side divided by 2x^4 once it is carried
    # from C to x: 2T(3, 8) + 1 at x^11 of the cleared side, t^22
    _plant(monkeypatch, "_c_to_x", lambda real: lambda cs: [
        c + (n == 7) for n, c in enumerate(real(cs))])
    report = run_identity("e52", 12)
    assert (report.identity, report.order, report.passed) == ("e52", 12, False)
    assert report.first_mismatch == Mismatch(22, 2 * super_catalan(3, 8) + 1,
                                             2 * super_catalan(3, 8))
    assert report.notes == (
        "compared after clearing denominators (multiplied by 2x^4)",)


def test_e52_fails_on_a_wrong_polynomial_in_c(monkeypatch):
    # one more at C^8 of 1 - 10x + 30x^2 - 20x^3 times (1 + C)^8: the
    # cleared side gains 1·C^8 = 2C^4 · C^4 / 2, which is 1·x^4 + ... in x
    # after the C^4, so 2T(3, 5) + 1 at x^8 of the cleared side, t^16.
    # t3-main's k-sum closed form reads the same cleared side and fails at
    # the same C^8
    _plant(monkeypatch, "_in_c", lambda real: lambda poly, degree: [
        c + (degree == r == 8) for r, c in enumerate(real(poly, degree))])
    assert identities._e52_cleared_in_c() == [0, 0, 0, 0, 10, 12, -4, -4, 3]
    report = run_identity("e52", 12)
    assert (report.identity, report.order, report.passed) == ("e52", 12, False)
    assert report.first_mismatch == Mismatch(16, 2 * super_catalan(3, 5) + 1,
                                             2 * super_catalan(3, 5))
    assert report.notes == (
        "compared after clearing denominators (multiplied by 2x^4)",)
    report = run_identity("t3-main", 10)
    assert report.first_mismatch == Mismatch(8, 0, 1)
    assert report.notes == ("k-sum vs displayed closed rational expression, "
                            "power is the C-exponent",)


@pytest.mark.parametrize("x_order", [1, 30, 200])
def test_e52_cleared_lhs_is_the_binomial_expansion(x_order):
    # (1 - 4x)^(5/2) = sum_k binom(5/2, k) (-4x)^k, each generalized binomial
    # in exact fractions, against e52's route: the cleared side in C, whose
    # part past C^4 goes to x by Lagrange inversion
    big = x_order + 4
    power = [Fraction(1)]
    for k in range(1, big + 1):
        power.append(power[-1] * (Fraction(5, 2) - k + 1) / k * -4)
    assert all(c.denominator == 1 for c in power)
    expected = [a - int(c) for a, c in zip([1, -10, 30, -20] + [0] * big, power)]
    cleared = identities._e52_cleared_in_c()
    assert cleared == [0, 0, 0, 0, 10, 12, -4, -4, 2]
    assert cleared[:4] + identities._c_to_x(
        (cleared[4:] + [0] * x_order)[:x_order + 1]) == expected


def test_t3_main():
    report = run_identity("t3-main", 10)
    _assert_clean_pass(report, "t3-main")
    assert report.notes == (
        "k-sum checked in C against its displayed closed rational form",
        "coefficients x^0..x^10 cross-checked against triple path counts")
    # the oracle covers every coefficient through the order checked
    for order in (4, 1):
        assert (f"coefficients x^0..x^{order} cross-checked against triple "
                "path counts" in run_identity("t3-main", order).notes)


def test_t3_main_fails_on_a_wrong_exact_height_gf(monkeypatch):
    # the k = 6 term of the k-sum in C, C^8 / ((1 - C^3) ... (1 - C^8)),
    # doubled: the triple of exact-height paths, counted twice.  Its lowest
    # term, 1·C^8, is 1·x^8 = t^16 in x
    _plant(monkeypatch, "_c_quotient", lambda real: lambda e, strides, length: [
        (1 + (e == 8)) * c for c in real(e, strides, length)])
    report = run_identity("t3-main", 10)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(16, super_catalan(3, 9),
                                             super_catalan(3, 9) + 1)
    assert "main series identity" in report.notes


def test_t3_main_fails_on_a_wrong_constant_term(monkeypatch):
    # the left side's constant term is 1 + T(3, 1), planted as 7 for 6
    real = identities.super_catalan
    monkeypatch.setattr(identities, "super_catalan",
                        lambda m, n: real(m, n) + ((m, n) == (3, 1)))
    report = run_identity("t3-main", 10)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(0, 7, 6)
    assert report.notes == ("main series identity",)


def test_t3_main_fails_on_a_wrong_displayed_tail(monkeypatch):
    # one more C^3 in the displayed tail, doubled and shifted by C^4, leaves
    # the main identity standing and fails the k-sum's closed form at C^7
    _plant(monkeypatch, "_displayed_t3_tail", lambda real: lambda length: [
        c + (n == 3) for n, c in enumerate(real(length))])
    report = run_identity("t3-main", 20)
    assert (report.identity, report.order, report.passed) == ("t3-main", 20, False)
    assert report.first_mismatch == Mismatch(7, 0, 2)
    assert report.notes == ("k-sum vs displayed closed rational expression, "
                            "power is the C-exponent",)


def test_t3_main_oracle_sees_a_wrong_count_above_x9(monkeypatch):
    # one more cap-6 path of 12 steps ending at level 4 is one more path of
    # exact height 6 there (and one fewer of exact height 7, which no triple
    # of 19 steps uses), so the k = 6 triples of 12 + 5 + 2 steps gain one
    # at x^10; the series side is untouched
    monkeypatch.setattr(_TableWithOneWrongCount, "planted", (6, 0, 12, 4))
    monkeypatch.setattr(identities, "CountTable", _TableWithOneWrongCount)
    report = run_identity("t3-main", 20)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(20, 19380, 19381)
    assert "triple path counts disagree at n=10" in report.notes
    _assert_clean_pass(run_identity("t3-main", 9), "t3-main")


def test_t3_path_counts_use_no_series_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the t3-main oracle used a series route")
    monkeypatch.setattr(TruncSeries, "__mul__", refuse)
    monkeypatch.setattr(PolyQuotient, "expand", refuse)
    for module in (identities, height_gf):
        for name in ("dyck_gf", "p_poly"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(height_gf, "ballot_exact_gf", refuse)
    for name in ("_c_quotient", "_over_one_minus", "_c_to_x", "_in_c"):
        monkeypatch.setattr(identities, name, refuse)
    assert identities._t3_path_counts(30) == (
        [1 + super_catalan(3, 1)] + [super_catalan(3, n + 1) for n in range(1, 31)])


def test_g_closed_forms():
    report = run_identity("g-forms", 10)
    _assert_clean_pass(report, "g-forms")
    assert report.notes == (
        "C = x (1 + C)^2 through t^20",
        "220 closed forms, k <= 8, checked as polynomial identities in C",
        "219 quotient expansions cross-checked against path counts through t^20")


def test_g_closed_forms_fail_on_a_wrong_height_bound(monkeypatch):
    # G_2 = G_2^(0) built as G_3^(0): p_3 / p_4 against the C-form of height 2
    real = identities.ballot_end_gf
    monkeypatch.setattr(identities, "ballot_end_gf", lambda k, j: real(k + (k == 2), j))
    report = run_identity("g-forms", 12)
    assert report.passed is False
    assert report.notes == (
        "G_2^(0): polynomial identity fails, power is the C-exponent",)
    assert report.first_mismatch == Mismatch(3, 0, -1)


def _with_t_parity_flipped(quotient):
    return PolyQuotient(quotient.num, quotient.den, 1 - quotient.t_shift)


def _bump(k, delta):
    """The quotient x^k (t^k when delta is 1, odd k), added to a planted
    series; zero when delta is 0."""
    return PolyQuotient((0,) * (k // 2) + (delta,), t_shift=k % 2)


class _TableWithOneWrongCount(CountTable):
    """A CountTable whose count at (steps, level) is one too high for one
    height bound and start level."""
    planted = None  # (max_height, start_level, steps, level)

    def __init__(self, steps, max_height=None, start_level=0):
        super().__init__(steps, max_height, start_level)
        h, start, s, level = self.planted
        if (max_height, start_level) == (h, start):
            self.rows[s][level] += 1


# (note, power, lhs, rhs).  A wrong quotient fails its polynomial identity in
# C, where the power is a C-exponent; the table reports are the ones recorded
# before the closed forms shared their factors and the table comparison read
# whole columns
_POLYNOMIAL = ": polynomial identity fails, power is the C-exponent"


@pytest.mark.parametrize("plant, expected", [
    (("ballot_end_gf", (4, 2), 6), ("G_4^(2)" + _POLYNOMIAL, 3, 16, 15)),
    (("ballot_end_gf", (2, 1), 5), ("G_2^(1)" + _POLYNOMIAL, 2, 10, 9)),
    (("ballot_between_gf", (5, 1, 3), 8), ("G_5^(1,3)" + _POLYNOMIAL, 4, 120, 119)),
    ((3, 0, 7, 3), ("G_3^(3): series vs path count at t^7", 7, 8, 9)),
    ((6, 2, 10, 4), ("G_6^(2,4): series vs path count at t^10", 10, 190, 191)),
    ((8, 0, 24, 0), ("G_8^(0): series vs path count at t^24", 24, 206516, 206517)),
    ((8, 3, 24, 5), ("G_8^(3,5): series vs path count at t^24", 24, 1805984, 1805985)),
    ((1, 1, 0, 1), ("G_1^(1,1): series vs path count at t^0", 0, 1, 2)),
    # G_5^(1,3) = t^2 p_1 p_2 / p_6 with its t-power made odd: (1 + C) is not
    # a rational function of x, so no quotient of that parity meets the C-form
    (("ballot_between_gf", (5, 1, 3), None), ("G_5^(1,3)" + _POLYNOMIAL, 2, 0, 1)),
])
def test_g_closed_forms_failure_reports(monkeypatch, plant, expected):
    if plant[2] is None:
        name, at, _ = plant
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args: real(*args) if args != at
                            else _with_t_parity_flipped(real(*args)))
    elif isinstance(plant[0], str):
        name, at, power = plant
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args: real(*args) + _bump(
            power, int(args == at)))
    else:
        monkeypatch.setattr(_TableWithOneWrongCount, "planted", plant)
        monkeypatch.setattr(identities, "CountTable", _TableWithOneWrongCount)
    report = run_identity("g-forms", 12)
    note, power, lhs, rhs = expected
    assert report.passed is False
    assert report.notes == (note,)
    assert report.first_mismatch == Mismatch(power, lhs, rhs)


def _plant_between(monkeypatch, at, power):
    """height_gf.ballot_between_gf, the one builder of the quotient, one more
    at t^power for the levels `at` = (k, i, j)."""
    real = height_gf.ballot_between_gf
    monkeypatch.setattr(height_gf, "ballot_between_gf", lambda *args: real(*args)
                        + _bump(power, int(args == at)))


def test_g_closed_forms_fail_on_a_wrong_shared_quotient(monkeypatch):
    # ballot_end_gf(4, 2) is ballot_between_gf(4, 0, 2), reported as G_4^(2)
    _plant_between(monkeypatch, (4, 0, 2), 6)
    report = run_identity("g-forms", 12)
    assert report.passed is False
    assert report.notes == ("G_4^(2)" + _POLYNOMIAL,)
    assert report.first_mismatch == Mismatch(3, 16, 15)


def test_firstsum_fails_on_a_wrong_shared_quotient(monkeypatch):
    # the running sum behind every division by 1 - C^a in C, shared by
    # firstsum, pairsum and t3-main, starting one block late at a = 5: a
    # quotient with 1 - C^5 in its denominator loses C^5 times its terms
    # below C^5
    def wrong(cs, strides):
        cs = list(cs)
        for a in strides:
            for lo in range(a + a * (a == 5), len(cs), a):
                cs[lo:lo + a] = [u + v for u, v in zip(cs[lo:lo + a], cs[lo - a:lo])]
        return cs
    monkeypatch.setattr(identities, "_over_one_minus", wrong)
    for identity, mismatch, note in (
            # the n = 2 summand C^2 / ((1 - C^3)(1 - C^5)) loses C^7
            ("firstsum", Mismatch(7, -1, 0),
             "sum in C vs 1 + 2C, power is the C-exponent"),
            # d_3 = C^3 / ((1 - C^4)(1 - C^5)) loses C^8, a neighbour in the
            # n = 2 product, which multiplies it by C^2
            ("pairsum", Mismatch(10, -1, 0),
             "sum in C vs 1 + 2C - C^2, power is the C-exponent"),
            # G_3 = (1 + C)(1 - C^4) / (1 - C^5) loses C^5, which is x^5
            ("t3-main", Mismatch(10, 110, 109), "main series identity")):
        report = run_identity(identity, 30)
        assert report.passed is False
        assert report.first_mismatch == mismatch
        assert report.notes == (note,)


def test_g_closed_forms_fail_on_a_wrong_c_series(monkeypatch):
    # one more x^2 in C, 3 for C_2 = 2: the tie C = x (1 + C)^2 reads C only
    # below x^2 there, where its right side is 2 C_1 = 2.  This tie is also
    # what makes sqrt(C) = t (1 + C), which g-forms no longer compares
    _plant(monkeypatch, "catalan", lambda real: lambda n: real(n) + (n == 2))
    report = run_identity("g-forms", 12)
    assert report.passed is False
    assert report.notes == ("C vs x (1 + C)^2",)
    assert report.first_mismatch == Mismatch(4, 3, 2)


def test_g_closed_forms_fail_on_a_wrong_catalan(monkeypatch):
    # the C tie comes before every closed form and table column
    _plant_wrong_c12(monkeypatch)
    report = run_identity("g-forms", 12)
    assert report.passed is False
    assert report.notes == ("C vs x (1 + C)^2",)
    assert report.first_mismatch == Mismatch(24, 208013, 208012)


def test_g_closed_forms_pass_deep():
    _assert_clean_pass(run_identity("g-forms", 40), "g-forms")


def test_p_bridge():
    report = run_identity("p-bridge", 12)
    _assert_clean_pass(report, "p-bridge")
    assert report.notes == (
        "C = x (1 + C)^2 through t^24",
        "checked n = 0..12 as P_n (1 - C) = 1 - C^(n+1), P_n = p_n (1 + C)^n")
    # n stops at the x-order below 12, and at 12 above it
    for order, n_max in ((5, 5), (30, 12)):
        assert (f"checked n = 0..{n_max} as P_n (1 - C) = 1 - C^(n+1), "
                "P_n = p_n (1 + C)^n") in run_identity("p-bridge", order).notes


def test_p_bridge_fails_on_a_wrong_polynomial(monkeypatch):
    # p_4 = 1 - 3x + x^2 in place of p_3 = 1 - 2x: P_4 = 1 + C + ... + C^4,
    # homogenised one degree past 3, so P_4 (1 - C) = 1 - C^5 meets
    # (1 - C^4)(1 + C) = 1 + C - C^4 - C^5
    _plant(monkeypatch, "p_poly", lambda real: lambda n: real(n + (n == 3)))
    report = run_identity("p-bridge", 12)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(1, 0, 1)
    assert report.notes == ("first failure at n=3, power is the C-exponent",)


def _plant_division_defect(monkeypatch):
    """One more at output coefficient 12 of every division long enough, so at
    x^12 = t^24 of an even expansion or inverse at order 12."""
    real = series._divide

    def wrong(num, den, length):
        out = real(num, den, length)
        if length > 12:
            out[12] += 1
        return out
    for module in (series, height_gf):
        monkeypatch.setattr(module, "_divide", wrong)


def _plant_wrong_c12(monkeypatch):
    """C_12 one too many in the Catalan numbers of the C tie, so at
    x^12 = t^24 of C."""
    _plant(monkeypatch, "catalan", lambda real: lambda n: real(n) + (n == 12))


@pytest.mark.parametrize("identity, note, mismatch", [
    # the closed forms are polynomial identities in C, which divide nothing,
    # so only the height table sees the extra path of G_0 = 1 at t^24
    ("g-forms", "G_0^(0): series vs path count at t^24", Mismatch(24, 1, 0)),
    # p-bridge no longer divides: its case is a wrong C_12, which its tie
    # C = x (1 + C)^2 sees at x^12, where the right side reads C below x^12
    ("p-bridge", "C vs x (1 + C)^2", Mismatch(24, 208013, 208012)),
])
def test_division_defect_fails_g_forms_and_p_bridge(monkeypatch, identity, note,
                                                    mismatch):
    if identity == "p-bridge":
        _plant_wrong_c12(monkeypatch)
    else:
        _plant_division_defect(monkeypatch)
    report = run_identity(identity, 12)
    assert report.passed is False
    assert report.notes == (note,)
    assert report.first_mismatch == mismatch


def test_lemma_main_count():
    report = run_identity("lemma-main", 5)
    _assert_clean_pass(report, "lemma-main")
    assert any("roundtrips" in note for note in report.notes)


def test_lemma_main_fails_on_a_wrong_pair_count(monkeypatch):
    real = identities._pair_counts
    monkeypatch.setattr(identities, "_pair_counts", lambda n_max, band: [
        count + (n == 4) for n, count in enumerate(real(n_max, band))])
    report = run_identity("lemma-main", 5)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(4, catalan(4) + 1, catalan(4))
    assert "|E_4| != C_4" in report.notes


def test_lemma_main_fails_on_a_wrong_height_table_entry(monkeypatch):
    _plant_height_table_defect(monkeypatch)
    report = run_identity("lemma-main", 8)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(7, 430, 429)
    assert "|E_7| != C_7" in report.notes


def test_lemma_main_fails_on_a_missing_pair(monkeypatch):
    # the first pair of E_4 never streams: 13 pairs against |E_4| = 14
    _plant(monkeypatch, "_restricted_words", lambda real: lambda n, words: (
        islice(real(n, words), n == 4, None)))
    report = run_identity("lemma-main", 5)
    assert (report.identity, report.order, report.passed) == ("lemma-main", 5, False)
    assert report.first_mismatch == Mismatch(4, 13, 14)
    assert report.notes == ("pair enumeration at n=4 disagrees with count",)


@pytest.mark.parametrize("identity, mismatch, note", [
    ("e-mo", Mismatch((0, 1), 0, 1), None),  # (A L - A)[0][1] is 1, not 0
    ("lemma-main", Mismatch(1, 3, 1), "|E_1| != C_1"),
    ("pairsum", Mismatch(2, 2, 4), "pair count disagrees at n=1"),
    ("t3-main", Mismatch(16, 2210, 2212), "triple path counts disagree at n=8"),
    # these two read it only through a series or polynomial product
    ("g-forms", Mismatch(2, 1, 2), "C vs x (1 + C)^2"),
    ("p-bridge", Mismatch(2, 1, 2), "C vs x (1 + C)^2"),
])
def test_a_wrong_convolution_fails_each_count_check(monkeypatch, identity,
                                                     mismatch, note):
    # every term of every integer convolution one too large, in each module
    # that calls it: the series and polynomial products go through it too.
    # Each check runs at its default order
    real = counting._convolve
    for module in (counting, identities, series, height_gf):
        monkeypatch.setattr(module, "_convolve",
                            lambda a, b, ks: [term + 1 for term in real(a, b, ks)])
    report = run_identity(identity)
    assert report.passed is False
    assert report.first_mismatch == mismatch
    assert note is None or note in report.notes


def test_lemma_main_fails_on_a_wrong_inverse(monkeypatch):
    real = identities._inverse_core
    d, other = enumerate_dyck(4)[:2]
    wrong = inverse(other)
    monkeypatch.setattr(identities, "_inverse_core",
                        lambda word, levels, h: (wrong.p.steps, wrong.q.steps)
                        if word == d.steps else real(word, levels, h))
    report = run_identity("lemma-main", 5)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(4, 1, 0)
    assert "1 roundtrip failures at n=4" in report.notes


@pytest.mark.parametrize("index", [
    # the last pair of E_8, and the first of its second chunk of pairs
    -1, identities._INVERSE_CHUNK])
def test_lemma_main_inverts_every_chunk_of_words(monkeypatch, index):
    # |E_8| = C_8 = 1430 pairs: one full chunk of 1024, then 406
    real = identities._inverse_core
    pairs = enumerate_restricted_pairs(8)
    d, wrong = forward(pairs[index]).steps, pairs[0]
    monkeypatch.setattr(identities, "_inverse_core",
                        lambda word, levels, h: (wrong.p.steps, wrong.q.steps)
                        if word == d else real(word, levels, h))
    report = run_identity("lemma-main", 8)
    assert report.passed is False
    assert report.first_mismatch == Mismatch(8, 1, 0)
    assert "1 roundtrip failures at n=8" in report.notes


def test_lemma_main_inverts_each_chunk_before_mapping_the_next(monkeypatch):
    # forward runs at most one chunk of pairs ahead of inverse, and each
    # runs once per pair of E_1..E_9: C_9 = 4862 makes five chunks
    ahead = [0]  # forward calls minus inverse calls, after each call
    for name, step in (("_forward_core", 1), ("_inverse_core", -1)):
        def core(*args, real=getattr(identities, name), step=step):
            ahead.append(ahead[-1] + step)
            return real(*args)
        monkeypatch.setattr(identities, name, core)
    assert run_identity("lemma-main", 9).passed
    assert max(ahead) == identities._INVERSE_CHUNK
    assert ahead[-1] == 0
    assert len(ahead) == 1 + 2 * sum(catalan(n) for n in range(1, 10))


def test_lemma_main_makes_one_level_pass_per_chunk(monkeypatch):
    # ceil(C_n / 1024) chunks: one for each n <= 7, then 2, 5 and 17
    calls = []
    _plant(monkeypatch, "_levels",
           lambda real: lambda steps: calls.append(1) or real(steps))
    assert run_identity("lemma-main", 10).passed
    assert len(calls) == 7 + 2 + 5 + 17 == 31


@pytest.mark.parametrize("index, delta, mismatch, note", [
    # the inverse core trusts the enumerated height, and raises or returns
    # another pair on a wrong one; a wrong height can also move the word
    # into or out of E_4 as P, with Q empty
    (0, -1, Mismatch(4, 1, 0), "1 roundtrip failures at n=4"),
    (0, 1, Mismatch(4, 1, 0), "1 roundtrip failures at n=4"),
    (5, -1, Mismatch(4, 15, 14), "pair enumeration at n=4 disagrees with count"),
    (5, 1, Mismatch(4, 1, 0), "1 roundtrip failures at n=4"),
    (-1, -1, Mismatch(4, 1, 0), "1 roundtrip failures at n=4"),
    (-1, 1, Mismatch(4, 13, 14), "pair enumeration at n=4 disagrees with count"),
])
def test_lemma_main_fails_on_a_wrong_enumerated_height(monkeypatch, index, delta,
                                                       mismatch, note):
    # the first, sixth or last word of D_4 carries its height off by one
    def plant(real):
        def words(n_max):
            out = real(n_max)
            d, h, peak = out[4][index]
            out[4][index] = (d, h + delta, peak)
            return out
        return words
    _plant(monkeypatch, "_dyck_words", plant)
    report = run_identity("lemma-main", 5)
    assert report.passed is False
    assert report.first_mismatch == mismatch
    assert report.notes == (note,)


def test_lemma_main_fails_on_a_forward_that_merges_two_pairs(monkeypatch):
    real = identities._forward_core
    first, second = enumerate_restricted_pairs(4)[:2]
    merged = forward(first).steps
    monkeypatch.setattr(identities, "_forward_core",
                        lambda p, q, *landmarks: merged
                        if (p, q) == (second.p.steps, second.q.steps)
                        else real(p, q, *landmarks))
    report = run_identity("lemma-main", 5)
    assert report.passed is False
    # the image of the second pair was the first's, and finds no height
    assert report.first_mismatch == Mismatch(4, 1, 0)
    assert report.notes == ("1 images of E_4 outside D_4 or repeated",)


def test_lemma_main_fails_on_a_pair_streamed_twice(monkeypatch):
    # the first pair of E_4 streams again in place of the second: 14 pairs,
    # every image a Dyck word and every round trip its own pair
    def plant(real):
        def stream(n, words):
            pairs = list(real(n, words))
            if n == 4:
                pairs[1] = pairs[0]
            return iter(pairs)
        return stream
    _plant(monkeypatch, "_restricted_words", plant)
    report = run_identity("lemma-main", 5)
    assert (report.identity, report.order, report.passed) == ("lemma-main", 5, False)
    assert report.first_mismatch == Mismatch(4, 1, 0)
    assert report.notes == ("1 images of E_4 outside D_4 or repeated",)


def test_lemma_main_fails_on_a_forward_image_outside_d_n(monkeypatch):
    # the sixth pair of E_4 maps to a word that is not a Dyck path; the
    # other 13 images still invert to their pairs
    real = identities._forward_core
    sixth = enumerate_restricted_pairs(4)[5]
    monkeypatch.setattr(identities, "_forward_core",
                        lambda p, q, *landmarks: "DU" * 4
                        if (p, q) == (sixth.p.steps, sixth.q.steps)
                        else real(p, q, *landmarks))
    report = run_identity("lemma-main", 5)
    assert (report.identity, report.order, report.passed) == ("lemma-main", 5, False)
    assert report.first_mismatch == Mismatch(4, 1, 0)
    assert report.notes == ("1 images of E_4 outside D_4 or repeated",)


def test_t3_main_refuses_a_shortened_displayed_tail(monkeypatch):
    # the tail built one C-power short leaves the sub-identity's right side
    # through C^23; it is refused, not compared through C^23
    _plant(monkeypatch, "_displayed_t3_tail",
           lambda real: lambda length: real(length - 1))
    with pytest.raises(RuntimeError,
                       match="cannot compare coefficient lists of lengths 25 and 24"):
        run_identity("t3-main", 20)


# the default orders of the README catalogue
README_DEFAULT_ORDERS = {
    "e-mo": 12, "e2": 30, "e52": 30, "e8": 10, "firstsum": 30, "g-forms": 30,
    "lemma-main": 8, "p-bridge": 30, "pairsum": 30, "t3-closed": 30,
    "t3-main": 20,
}


def test_default_orders(capsys, monkeypatch):
    defaults = {identity: check.default_order
                for identity, check in IDENTITIES.items()}
    assert defaults == README_DEFAULT_ORDERS
    monkeypatch.delenv("SUPERCAT_ORDER", raising=False)
    assert main(["verify", "all", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert {r["identity"]: r["order"] for r in reports} == README_DEFAULT_ORDERS


@pytest.mark.parametrize("identity", list(IDENTITIES))
def test_every_registered_check_reports_its_id(identity):
    assert run_identity(identity, 2).identity == identity


def test_run_identity_dispatch():
    report = run_identity("e2", 6)
    assert report.order == 6 and report.passed
    with pytest.raises(ValueError, match="valid ids"):
        run_identity("nope")
    with pytest.raises(ValueError):
        run_identity("e2", 0)


def test_run_identity_clamps_enumeration_bounds():
    # lemma-main at the deep order 60 runs clamped to n <= 10
    report = run_identity("lemma-main", 60)
    assert report.passed
    assert report.order == 10
    assert any("clamped" in note for note in report.notes)


def test_run_identity_raises_tiny_e_mo_degree():
    report = run_identity("e-mo", 1)
    assert report.passed and report.order == 2
    assert any("raised" in note for note in report.notes)


def test_elapsed_ms_is_the_time_the_check_took():
    start = perf_counter()
    report = run_identity("t3-main", 10)
    outside_ms = (perf_counter() - start) * 1000
    assert 0 <= report.elapsed_ms <= outside_ms


def test_report_to_dict_schema():
    report = run_identity("e2", 5)
    data = report_to_dict(report)
    assert list(data) == ["identity", "order", "passed", "first_mismatch",
                          "elapsed_ms", "notes"]
    assert data["first_mismatch"] is None
    assert data["passed"] is True


def test_report_to_dict_serializes_exact_coefficients():
    from supercat import VerificationReport
    report = VerificationReport(
        identity="e2", order=3, passed=False,
        first_mismatch=Mismatch((2, 3), -1, 10 ** 30),
        elapsed_ms=1, notes=("example",))
    data = report_to_dict(report)
    assert data["first_mismatch"] == {"power": [2, 3], "lhs": -1, "rhs": 10 ** 30}
    assert json.loads(json.dumps(data)) == data
    assert data["notes"] == ["example"]


def test_readme_catalogue_lists_every_identity():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Identity catalogue", 1)[1].split("\n## ", 1)[0]
    ids = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(ids) == list(IDENTITIES)
