"""Property tests of the TruncSeries kernel, with hypothesis.

Claims covered:
    - the product equals a plain double-loop convolution for operands with
      mixed parity, one parity on one side only, one parity on both sides,
      zero operands and unequal orders, and stores plain ints
    - the ring laws: associativity and distributivity of the product, and
      invert and sqrt against multiplication: invert of a series with
      constant term 1 or -1, and sqrt of a square with constant term 1
      gives back its root
    - a float or Fraction operand is refused
"""

from fractions import Fraction

import pytest

from supercat import TruncSeries

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SHAPES = ("mixed", "even", "odd", "zero")
INTS = st.integers(min_value=-9, max_value=9)
ORDERS = st.integers(min_value=0, max_value=14)


@st.composite
def series(draw, shape=None, coeff=INTS, order=None):
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


def assert_plain_ints(s):
    assert all(type(c) is int for c in s.coeffs)


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
    assert_plain_ints(product)


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
@given(series(), st.sampled_from((1, -1)))
def test_invert_times_series_is_one(s, a0):
    s = TruncSeries((a0,) + s.coeffs[1:], s.order)
    inverse = s.invert()
    assert inverse * s == TruncSeries.one(s.order)
    assert_plain_ints(inverse)


@settings(max_examples=50)
@given(series())
def test_sqrt_squared_is_the_series(s):
    # the square root with constant term 1 is unique, so sqrt returns r
    r = TruncSeries((1,) + s.coeffs[1:], s.order)
    square = r * r
    root = square.sqrt()
    assert root == r
    assert root * root == square
    assert_plain_ints(root)


@settings(max_examples=50)
@given(series())
def test_float_operand_is_refused(s):
    with pytest.raises(TypeError):
        s * 0.5
    with pytest.raises(TypeError):
        0.5 * s
    with pytest.raises(TypeError):
        s * TruncSeries([1.0], s.order)
    with pytest.raises(TypeError):
        s * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(2) * s
