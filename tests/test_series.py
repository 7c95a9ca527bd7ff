"""Truncated t-series arithmetic (x = t^2) and the bivariate layer.

Claims covered:
    - exact arithmetic with explicit truncation-order bookkeeping: results
      carry the minimum operand order, nothing is lost silently; negation
      flips every coefficient, and the repr shows the first six nonzero
      terms
    - inversion and square root against independent oracles (geometric
      series, composition enumeration)
    - the Catalan series satisfies c = 1 + x c^2 and matches its radical
      form, 2x c = 1 - sqrt(1 - 4x)
    - the substitution identities x = C/(1+C)^2 and sqrt(C) = t(1+C)
    - bivariate multiplication/inversion on total-degree-truncated series,
      a product keeping its terms of the top total degree;
      the dense inverse equals the dict-scan reference on seeded random
      sparse and dense inputs, with constant term 1 and -1
    - one coefficient rule: every coefficient is a plain int (a bool
      becomes one), and Fractions, floats or other types are refused,
      anywhere in the input, past the truncation order too
    - no result leaves the integers: a constant term other than 1 or -1 is
      refused by invert and BiTrunc.invert, and sqrt halves exactly and
      refuses an odd coefficient
"""

import random
from fractions import Fraction
from math import prod

import pytest

from supercat import (BiTrunc, PolyQuotient, TruncSeries, catalan,
                      catalan_series, dyck_gf, super_catalan)


def t_power(s: int, order: int) -> TruncSeries:
    """The monomial t**s, truncated at `order`."""
    return TruncSeries([0] * s + [1], order)


def shifted_catalan(x_order: int) -> TruncSeries:
    """C = c(x) - 1 = x c(x)^2, the substitution variable of the closed
    forms, through x**x_order."""
    return catalan_series(x_order) - TruncSeries.one(2 * x_order)


def over_x(s: TruncSeries) -> TruncSeries:
    """s / x = s / t**2, two orders lower; s must have no t**0 or t**1
    term."""
    assert not any(s.coeffs[:2])
    return TruncSeries(s.coeffs[2:], s.order - 2)


def test_construction_pads_and_truncates():
    s = TruncSeries([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert TruncSeries([1, 2, 3], 1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        TruncSeries([1], -1)


def test_monomials_and_coefficient_access():
    x = t_power(2, 6)
    assert x.coefficient(2) == 1 and x.coefficient(3) == 0
    assert x.x_coefficient(1) == 1
    with pytest.raises(ValueError):
        x.coefficient(7)


def test_basic_products():
    t = t_power(1, 8)
    assert t * t == t_power(2, 8)
    one = TruncSeries.one(8)
    assert (one + t) * (one - t) == one - t_power(2, 8)


def test_negation_flips_every_coefficient():
    assert (-TruncSeries([1, -2, 0, 3], 3)).coeffs == (-1, 2, 0, -3)


def test_order_bookkeeping():
    a = TruncSeries.one(10)
    b = TruncSeries.one(6)
    assert (a * b).order == 6
    assert (a + b).order == 6
    assert (a - b).order == 6


def test_repr_shows_the_first_six_terms():
    s = TruncSeries(range(1, 9), 7)
    assert repr(s) == ("TruncSeries(1*t^0 + 2*t^1 + 3*t^2 + 4*t^3 + 5*t^4 "
                       "+ 6*t^5 + O(t^8))")
    assert repr(TruncSeries.zero(3)) == "TruncSeries(0 + O(t^4))"


def test_invert_geometric():
    one = TruncSeries.one(6)
    t = t_power(1, 6)
    assert (one - t).invert() == TruncSeries([1] * 7, 6)
    with pytest.raises(ZeroDivisionError):
        t.invert()


def test_catalan_series_functional_equation():
    c = catalan_series(15)
    x = t_power(2, 30)
    assert x * c * c + TruncSeries.one(30) == c
    assert c * c.invert() == TruncSeries.one(30)


def test_catalan_series_matches_radical_form():
    # 2x c(x) = 1 - (1-4x)^(1/2), the square root taken by the series kernel
    n = 16
    radical = TruncSeries.from_x_coeffs([1, -4], 2 * n).sqrt()
    lhs = over_x(TruncSeries.one(2 * n) - radical)
    assert lhs == 2 * catalan_series(n - 1)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_invert_one_minus_catalan_against_composition_oracle():
    # [x^n] 1/(1-C) sums prod(C_part) over compositions of n
    oracle = [sum(prod(catalan(part) for part in comp) for comp in _compositions(n))
              for n in range(9)]
    assert oracle == [1, 1, 3, 10, 35, 126, 462, 1716, 6435]
    C = shifted_catalan(8)
    inv = (TruncSeries.one(16) - C).invert()
    assert [inv.x_coefficient(n) for n in range(9)] == oracle


def test_substitution_identities():
    order = 12
    C = shifted_catalan(order)
    one = TruncSeries.one(2 * order)
    x = t_power(2, 2 * order)
    one_plus = one + C
    assert x == C * (one_plus * one_plus).invert()
    # sqrt(C)/t has constant term 1 and equals 1 + C
    assert over_x(C).sqrt() == TruncSeries(one_plus.coeffs, 2 * order - 2)


def test_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError):
        (2 * TruncSeries.one(4)).sqrt()


def test_half_step_parity_of_even_series():
    C = shifted_catalan(10)
    assert all(C.coeffs[s] == 0 for s in range(1, C.order + 1, 2))


def test_bi_trunc_geometric_inverse():
    order = 8
    one = BiTrunc.one(order)
    xy = BiTrunc({(1, 1): 1}, order)
    inv = (one - xy).invert()
    expected = BiTrunc({(k, k): 1 for k in range(order // 2 + 1)}, order)
    assert inv == expected
    assert (one - xy) * inv == one


def test_bi_trunc_product_keeps_the_top_total_degree():
    x, y = BiTrunc({(1, 0): 1}, 2), BiTrunc({(0, 1): 1}, 2)
    assert (x * y).coeffs == {(1, 1): 1}
    assert (x * y * x).coeffs == {}


def _dict_scan_invert(s):
    """The reference inverse: each output coefficient scans every term of s."""
    inv0 = s.get(0, 0)  # 1 or -1, its own inverse
    out = {(0, 0): inv0}
    rest = [(key, c) for key, c in s.coeffs.items() if key != (0, 0)]
    for d in range(1, s.order + 1):
        for i in range(d + 1):
            j = d - i
            acc = 0
            for (k, l), c in rest:
                if k <= i and l <= j:
                    b = out.get((i - k, j - l))
                    if b:
                        acc += c * b
            if acc:
                out[(i, j)] = -inv0 * acc
    return BiTrunc(out, s.order)


@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("density", [0.15, 1.0])
def test_bi_trunc_invert_matches_dict_scan(negative, density):
    rng = random.Random(20041)
    for order in range(13):
        for _ in range(3):
            terms = {(i, d - i): rng.randint(-9, 9)
                     for d in range(1, order + 1) for i in range(d + 1)
                     if rng.random() < density}
            terms[(0, 0)] = -1 if negative else 1
            s = BiTrunc(terms, order)
            inv = s.invert()
            assert inv == _dict_scan_invert(s)
            assert all(type(c) is int for c in inv.coeffs.values())


def test_bi_trunc_mul_commutes():
    order = 7
    a = BiTrunc({(0, 0): 2, (1, 2): -3, (3, 0): -1}, order)
    b = BiTrunc({(0, 0): 1, (2, 1): 5, (0, 4): 7}, order)
    assert a * b == b * a


def test_bi_trunc_drops_terms_beyond_total_degree():
    s = BiTrunc({(2, 2): 9, (5, 5): 1}, 4)
    assert s.get(2, 2) == 9
    assert s.get(5, 5) == 0
    with pytest.raises(ZeroDivisionError):
        BiTrunc({(1, 0): 1}, 3).invert()


def test_inexact_coefficients_are_refused():
    with pytest.raises(TypeError):
        TruncSeries([0.5], 3)
    with pytest.raises(TypeError):
        TruncSeries(["1"], 3)
    # anywhere, past the truncation order too, and an integral Fraction too
    for bad in (0.5, "1", Fraction(1, 2), Fraction(2)):
        for coeffs in ([bad, 1, 2], [1, bad, 2], [1, 2, bad], (1, 2, 3, bad)):
            with pytest.raises(TypeError):
                TruncSeries(coeffs, 1)
            with pytest.raises(TypeError):
                PolyQuotient(coeffs)
        for terms in ({(0, 0): bad}, {(0, 0): 1, (2, 1): bad}):
            with pytest.raises(TypeError):
                BiTrunc(terms, 2)
        with pytest.raises(TypeError):
            TruncSeries.one(3) * bad
        with pytest.raises(TypeError):
            bad * TruncSeries.one(3)


def test_integral_coefficients_are_plain_ints():
    C = shifted_catalan(20)
    one = TruncSeries.one(40)
    degree = 20
    inner = BiTrunc({(m, n): super_catalan(m, n)
                     for m in range(1, degree) for n in range(1, degree - m + 1)},
                    degree)
    e_mo_rhs = (BiTrunc.one(degree) - inner).invert()
    for coeffs in (dyck_gf(4).expand(40).coeffs, catalan_series(30).coeffs,
                   (one - C).invert().coeffs, over_x(C).sqrt().coeffs,
                   TruncSeries([True, 2], 2).coeffs,
                   (TruncSeries([1, 2], 2) * True).coeffs,
                   PolyQuotient([True, False, 2]).num,
                   tuple(BiTrunc({(0, 0): True}, 1).coeffs.values()),
                   tuple(e_mo_rhs.coeffs.values())):
        assert all(type(c) is int for c in coeffs)


def test_non_unit_constant_term_is_refused():
    # 1 / (2 + t) = 1/2 - t/4 + ... leaves the integers at its first term
    for a0 in (2, -3):
        with pytest.raises(ValueError, match=f"constant term must be 1 or -1, not {a0}"):
            TruncSeries([a0, 1], 4).invert()
        with pytest.raises(ValueError, match=f"constant term must be 1 or -1, not {a0}"):
            BiTrunc({(0, 0): a0, (1, 0): 1}, 4).invert()
    assert TruncSeries([-1, 1], 4).invert().coeffs == (-1, -1, -1, -1, -1)
    assert BiTrunc({(0, 0): -1, (1, 0): 1}, 2).invert() == BiTrunc(
        {(0, 0): -1, (1, 0): -1, (2, 0): -1}, 2)


def test_sqrt_halves_exactly():
    # (1 + t)^(1/2) = 1 + t/2 - ... has a half at t^1; (1 + 2t)^(1/2) first
    # leaves the integers at t^2, -1/2
    with pytest.raises(ValueError, match="t\\^1 coefficient of the square root"):
        TruncSeries([1, 1], 4).sqrt()
    with pytest.raises(ValueError, match="t\\^2 coefficient of the square root"):
        TruncSeries([1, 2], 4).sqrt()
    root = TruncSeries([1, 2, 3, 4, 5], 8)
    assert (root * root).sqrt() == root
    assert all(type(c) is int for c in (root * root).sqrt().coeffs)
