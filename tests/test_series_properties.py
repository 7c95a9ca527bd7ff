"""Property tests of the TruncSeries kernel, with hypothesis.

Claims covered:
    - the product equals a plain double-loop convolution for operands with
      mixed parity, one parity on one side only, one parity on both sides,
      zero operands and unequal orders, with int and Fraction coefficients
    - a product of Fraction operands that is integral is stored as ints, and
      so are integral sums, differences, shifts and truncations
    - the ring laws: associativity and distributivity of the product, and
      invert and sqrt against multiplication
    - a float operand is refused
"""

from fractions import Fraction

import pytest

from supercat import TruncSeries

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SHAPES = ("mixed", "even", "odd", "zero")
INTS = st.integers(min_value=-9, max_value=9)
EXACT = st.one_of(INTS, st.fractions(min_value=-9, max_value=9, max_denominator=6))
ORDERS = st.integers(min_value=0, max_value=14)


@st.composite
def series(draw, shape=None, coeff=EXACT, order=None):
    """A series whose nonzero terms follow `shape`: both parities, even or
    odd t-powers only, or none."""
    shape = draw(st.sampled_from(SHAPES)) if shape is None else shape
    order = draw(ORDERS) if order is None else order
    cs = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    keep = {"mixed": (0, 1), "even": (0,), "odd": (1,), "zero": ()}[shape]
    return TruncSeries([c if i % 2 in keep else 0 for i, c in enumerate(cs)], order)


def reference_product(a, b):
    """The truncated product by a plain double loop over every term pair."""
    order = min(a.order, b.order)
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out


def assert_stored_exactly(s):
    for c in s.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("shape_a, shape_b", [
    ("mixed", "mixed"), ("even", "mixed"), ("mixed", "odd"), ("even", "even"),
    ("odd", "odd"), ("even", "odd"), ("odd", "even"), ("zero", "mixed"),
    ("odd", "zero"), ("zero", "zero"),
])
@settings(max_examples=25)
@given(data=st.data())
def test_product_matches_reference_convolution(shape_a, shape_b, data):
    a = data.draw(series(shape_a))
    b = data.draw(series(shape_b))
    product = a * b
    assert product.order == min(a.order, b.order)
    assert list(product.coeffs) == reference_product(a, b)
    assert_stored_exactly(product)


@settings(max_examples=50)
@given(series(coeff=INTS), series(coeff=INTS),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
def test_integral_product_of_fractions_is_stored_as_ints(a, b, p, q):
    # a * p/q times b * q/p is the integer series a * b
    product = (a * Fraction(p, q)) * (b * Fraction(q, p))
    assert list(product.coeffs) == reference_product(a, b)
    assert all(type(c) is int for c in product.coeffs)


@settings(max_examples=50)
@given(series(coeff=INTS), st.integers(min_value=2, max_value=7))
def test_integral_kernel_outputs_of_fractions_are_ints(a, q):
    third = a * Fraction(1, q)
    rest = a * Fraction(q - 1, q)
    for s in (third + rest, a - third - third * (q - 1), (third * q).shift(3),
              (third * q).truncate(a.order // 2), -(third * q)):
        assert all(type(c) is int for c in s.coeffs)
    assert third + rest == a


@settings(max_examples=40)
@given(series(), series(), series())
def test_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40)
@given(series(), series(), series())
def test_product_distributes_over_sum(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (b - c) * a == b * a - c * a


@settings(max_examples=50)
@given(series(), EXACT.filter(bool))
def test_invert_times_series_is_one(s, a0):
    s = TruncSeries((a0,) + s.coeffs[1:], s.order)
    inverse = s.invert()
    assert inverse * s == TruncSeries.one(s.order)
    assert_stored_exactly(inverse)


@settings(max_examples=50)
@given(series())
def test_sqrt_squared_is_the_series(s):
    s = TruncSeries((1,) + s.coeffs[1:], s.order)
    root = s.sqrt()
    assert root * root == s
    assert_stored_exactly(root)


@settings(max_examples=50)
@given(series())
def test_float_operand_is_refused(s):
    with pytest.raises(TypeError):
        s * 0.5
    with pytest.raises(TypeError):
        0.5 * s
    with pytest.raises(TypeError):
        s * TruncSeries([1.0], s.order)
