"""Truncated power series with integer coefficients.

The working variable is t with the convention x = t**2, so the half-integer
x-powers that weight odd-length paths are ordinary monomials here.  A series
of order N is exact modulo t**(N+1) and always stores N+1 coefficients.
Arithmetic never loses precision silently: results carry the minimum operand
order (raised by the amount of any multiplication by a power of t).

Coefficients follow one rule: every coefficient is a plain int.  An int
subclass such as bool is stored as int, and any other type (Fraction, float,
...) raises TypeError.  Every series in the identity catalogue has integer
coefficients, and no operation leaves the integers: a quotient divides by a
constant term of 1 or -1 only, any other raises ValueError, and the square
root halves exactly and raises ValueError on an odd coefficient.  The rule
is `_int`, and `_ints` applies it to a sequence: it keeps an all-int input
as it is and sends any other input through `_int`.  Every series, results
included, is built by the constructor, which stores its coefficients through
`_ints`; so are the x-polynomials of `height_gf`.

A product is `counting._convolve`, the one product kernel of the package,
and a quotient is `_divide`, its one quotient kernel.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Iterable, Sequence

from .counting import _convolve, catalan


def _int(value) -> int:
    """The stored form of a coefficient: an int, with int subclasses such as
    bool made plain; any other type raises TypeError."""
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"coefficients must be integers, not {type(value).__name__}")


def _ints(values) -> list[int]:
    """The stored form of a coefficient sequence: a new list, each value by
    the rule of `_int`.  An all-int input is copied as it is, with no call
    per value."""
    cs = list(values)
    return cs if {int}.issuperset(map(type, cs)) else list(map(_int, cs))


def _unit(a0: int) -> int:
    """1 / a0 for a constant term of 1 or -1, each its own inverse; any other
    raises ValueError, since dividing by it would leave the integers."""
    if a0 not in (1, -1):
        raise ValueError(f"constant term must be 1 or -1, not {a0}")
    return a0


def _divide(num: Sequence[int], den: Sequence[int], length: int) -> list:
    """The first `length` coefficients of num / den (den[0] = 1 or -1, num
    padded with zeros): out[k] = (num[k] - sum_{i>=1} den[i] out[k-i]) / den[0],
    one dot product of den's tail with out reversed per coefficient.  The one
    quotient kernel: `TruncSeries.invert` divides 1 by a t-series with it,
    `PolyQuotient.expand` divides x-polynomials, and
    `identities._displayed_t3_tail` divides polynomials in C."""
    inv0 = _unit(den[0])
    tail = den[1:]
    out = []
    for k in range(length):
        acc = num[k] if k < len(num) else 0
        out.append((acc - sum(map(mul, tail, reversed(out[-len(tail):])))) * inv0)
    return out


class TruncSeries:
    """Immutable truncated series in t with int coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[int], order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = _ints(coeffs)
        del cs[order + 1:]
        cs.extend([0] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls((1,), order)

    @classmethod
    def from_x_coeffs(cls, x_coeffs: Iterable[int], order: int) -> "TruncSeries":
        """Series with the k-th given coefficient attached to x**k = t**(2k)."""
        cs = [0] * (order + 1)
        for k, c in enumerate(x_coeffs):
            if 2 * k > order:
                break
            cs[2 * k] = c
        return cls(cs, order)

    def coefficient(self, s: int) -> int:
        """Coefficient of t**s; s must not exceed the truncation order."""
        if not 0 <= s <= self.order:
            raise ValueError(f"t^{s} is beyond truncation order {self.order}")
        return self.coeffs[s]

    def x_coefficient(self, k: int) -> int:
        """Coefficient of x**k = t**(2k)."""
        return self.coefficient(2 * k)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        order = min(self.order, other.order)
        return TruncSeries(list(map(add, self.coeffs, other.coeffs)), order)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        order = min(self.order, other.order)
        return TruncSeries(list(map(sub, self.coeffs, other.coeffs)), order)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other) -> "TruncSeries":
        """The truncated product, one `_convolve` term per coefficient."""
        if isinstance(other, int):
            return TruncSeries([c * other for c in self.coeffs], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncSeries(_convolve(self.coeffs, other.coeffs, range(order + 1)),
                           order)

    __rmul__ = __mul__

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires a constant term of 1 or -1."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        return TruncSeries(_divide((1,), self.coeffs, len(self.coeffs)), self.order)

    def sqrt(self) -> "TruncSeries":
        """Square root of a series with constant term 1, the one with
        constant term 1.  Each coefficient is half of an integer, halved
        exactly; an odd one raises ValueError."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        out = [1] + [0] * self.order
        for k in range(1, self.order + 1):
            acc = self.coeffs[k] - sum(map(mul, out[1:k], out[k - 1:0:-1]))
            out[k], odd = divmod(acc, 2)
            if odd:
                raise ValueError(f"the t^{k} coefficient of the square root "
                                 "is not an integer")
        return TruncSeries(out, self.order)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        terms = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c][:6]
        body = " + ".join(terms) if terms else "0"
        return f"TruncSeries({body} + O(t^{self.order + 1}))"


def catalan_series(x_order: int) -> TruncSeries:
    """The Catalan generating function c(x) = sum C_n x^n through x**x_order."""
    if x_order < 0:
        raise ValueError("x_order must be nonnegative")
    return TruncSeries.from_x_coeffs(
        [catalan(n) for n in range(x_order + 1)], 2 * x_order)


class BiTrunc:
    """Bivariate series with int coefficients, truncated by total degree.

    Coefficients are stored sparsely by (x-power, y-power); entries beyond the
    total-degree bound are absent by construction.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, terms, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError("powers must be nonnegative")
            if type(c) is not int:
                c = _int(c)
            if c and i + j <= order:
                coeffs[(i, j)] = c
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "BiTrunc":
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> "BiTrunc":
        return cls({(0, 0): 1}, order)

    def get(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def __add__(self, other: "BiTrunc") -> "BiTrunc":
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return BiTrunc(out, order)

    def __sub__(self, other: "BiTrunc") -> "BiTrunc":
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) - c
        return BiTrunc(out, order)

    def __mul__(self, other: "BiTrunc") -> "BiTrunc":
        if not isinstance(other, BiTrunc):
            return NotImplemented
        order = min(self.order, other.order)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j <= order:
                    key = (i, j)
                    out[key] = out.get(key, 0) + a * b
        return BiTrunc(out, order)

    def invert(self) -> "BiTrunc":
        """Multiplicative inverse; requires a constant term of 1 or -1.

        Works on dense triangular arrays, a[i][j] for i + j <= order: the
        (i, j) coefficient of the inverse is -a00 (a00 = 1 or -1 is its own
        inverse) times the sum of a[k][l] * out[i-k][j-l] over
        (k, l) != (0, 0), one slice product per nonzero row k of a.
        """
        a00 = self.get(0, 0)
        if a00 == 0:
            raise ZeroDivisionError("bivariate series with zero constant term is not invertible")
        inv0 = _unit(a00)
        order = self.order
        a = [[0] * (order + 1 - i) for i in range(order + 1)]
        for (i, j), c in self.coeffs.items():
            a[i][j] = c
        a[0][0] = 0  # (k, l) = (0, 0) is not in the sum
        rows = [k for k, row in enumerate(a) if any(row)]
        out = [[0] * (order + 1 - i) for i in range(order + 1)]
        out[0][0] = inv0
        for d in range(1, order + 1):
            for i in range(d + 1):
                j = d - i
                acc = 0
                for k in rows:
                    if k > i:
                        break
                    acc += sum(map(mul, a[k][:j + 1], out[i - k][j::-1]))
                out[i][j] = -inv0 * acc
        return BiTrunc({(i, j): c for i, row in enumerate(out)
                        for j, c in enumerate(row)}, order)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BiTrunc)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((frozenset(self.coeffs.items()), self.order))

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"BiTrunc({n} terms, total degree <= {self.order})"
