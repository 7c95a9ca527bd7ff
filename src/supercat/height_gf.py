"""Closed forms for height-restricted path generating functions.

Every generating function here is a quotient of integer polynomials in x,
carried together with an explicit power of t for the x**(j/2) weight of paths
ending at odd levels (x = t**2).  A polynomial in x is a tuple of ints,
lowest power first, with no trailing zeros, so () is zero; `_poly` makes one
under the coefficient rule of `series`.  The denominators are the
Fibonacci-like polynomials p_n with p_0 = p_1 = 1 and
p_n = p_{n-1} - x*p_{n-2}; p_{-1} = 0 so that boundary cases vanish from the
same formulas.
"""

from __future__ import annotations

from itertools import zip_longest

from .counting import _convolve
from .series import TruncSeries, _divide, _ints, _unit


def _poly(coeffs) -> tuple[int, ...]:
    """The stored form of an x-polynomial: plain ints by `series._ints`
    (a bool becomes an int, any other type raises TypeError), trailing
    zeros dropped."""
    cs = _ints(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a + b, padded with zeros to the longer one."""
    return _poly(map(sum, zip_longest(a, b, fillvalue=0)))


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a * b, one `_convolve` over b padded to the length of the product."""
    return _poly(_convolve(a, b + (0,) * (len(a) - 1), range(len(a) + len(b) - 1)))


_P_CACHE = [(1,), (1,)]  # p_0, p_1


def p_poly(n: int) -> tuple[int, ...]:
    """p_n from the recurrence p_n = p_{n-1} - x*p_{n-2}; p_{-1} = 0."""
    if n < -1:
        raise ValueError("defined for n >= -1")
    if n == -1:
        return ()
    while len(_P_CACHE) <= n:
        k = len(_P_CACHE)
        _P_CACHE.append(_poly_add(_P_CACHE[k - 1],
                                  _poly_mul((0, -1), _P_CACHE[k - 2])))
    return _P_CACHE[n]


class PolyQuotient:
    """t**t_shift * num(x) / den(x), expandable as a t-series.

    num and den are given as int sequences, lowest power first, and stored
    as x-polynomials, int tuples made by `_poly`.  The zero quotient is
    canonically 0/1 with shift 0; otherwise the denominator must have
    constant term 1 or -1, so that the expansion stays in the integers, and
    even parts of the shift fold into the numerator as powers of x, leaving
    t_shift in {0, 1}.  Every p_n has constant term 1, and so has every
    product of them.

    The arithmetic (+, -, * and == by cross-multiplication) is library API:
    perfbench/tracer.py wraps __add__, __sub__ and __mul__ by name.  No
    builder here uses it; each returns one quotient in closed form.
    """

    __slots__ = ("num", "den", "t_shift")

    def __init__(self, num, den=(1,), t_shift: int = 0):
        if t_shift < 0:
            raise ValueError("t_shift must be nonnegative")
        num, den = _poly(num), _poly(den)
        if not num:
            den, t_shift = (1,), 0
        else:
            if not den:
                raise ZeroDivisionError("zero denominator")
            _unit(den[0])  # raises unless 1 or -1
            num = (0,) * (t_shift // 2) + num
            t_shift %= 2
        self.num = num
        self.den = den
        self.t_shift = t_shift

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "PolyQuotient") -> "PolyQuotient":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.t_shift != other.t_shift:
            raise ValueError("cannot add quotients of different t-parity")
        return PolyQuotient(_poly_add(_poly_mul(self.num, other.den),
                                      _poly_mul(other.num, self.den)),
                            _poly_mul(self.den, other.den), self.t_shift)

    def __sub__(self, other: "PolyQuotient") -> "PolyQuotient":
        return self + (-other)

    def __neg__(self) -> "PolyQuotient":
        return PolyQuotient([-c for c in self.num], self.den, self.t_shift)

    def __mul__(self, other) -> "PolyQuotient":
        if isinstance(other, int):
            return PolyQuotient([c * other for c in self.num], self.den,
                                self.t_shift)
        if not isinstance(other, PolyQuotient):
            return NotImplemented
        return PolyQuotient(_poly_mul(self.num, other.num),
                            _poly_mul(self.den, other.den),
                            self.t_shift + other.t_shift)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyQuotient):
            return NotImplemented
        return (self.t_shift == other.t_shift
                and _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den))

    def expand(self, t_order: int) -> TruncSeries:
        """Series expansion truncated to exactly `t_order`.

        The x-coefficients of num/den come from den's linear recurrence
        (`_divide`, the one quotient kernel), which costs O(N * deg den);
        the odd t-powers are never divided, since num/den is a series in x."""
        if t_order < 0:
            raise ValueError("t_order must be nonnegative")
        if self.is_zero:
            return TruncSeries.zero(t_order)
        cs = [0] * (t_order + 1)
        cs[self.t_shift::2] = _divide(self.num, self.den,
                                      (t_order - self.t_shift) // 2 + 1)
        return TruncSeries(cs, t_order)

    def __repr__(self) -> str:
        return (f"PolyQuotient(num={list(self.num)}, den={list(self.den)}, "
                f"t_shift={self.t_shift})")


def dyck_gf(k: int) -> PolyQuotient:
    """Dyck paths of height <= k, weight x per semilength: G_k = G_k^(0,0)
    = p_k / p_{k+1}, from `ballot_between_gf`.

    k = -1 and k = -2 denote the empty class (the zero quotient).
    """
    if k < -2:
        raise ValueError("height bound must be >= -2")
    if k < 0:
        return PolyQuotient(())
    return ballot_between_gf(k, 0, 0)


def ballot_end_gf(k: int, j: int) -> PolyQuotient:
    """Ballot paths of height <= k ending at level j, weight t per step:
    G_k^(j) = G_k^(0,j) = t**j * p_{k-j} / p_{k+1}, from `ballot_between_gf`.

    Vanishes for j > k + 1, and for j = k + 1 through p_{-1} = 0.
    """
    if k < 0:
        raise ValueError("height bound must be >= 0")
    if j < 0:
        raise ValueError("end level must be >= 0")
    if j > k + 1:
        return PolyQuotient(())
    return ballot_between_gf(k, 0, j)


def ballot_between_gf(k: int, i: int, j: int) -> PolyQuotient:
    """Nonnegative paths from level i to level j of height <= k.

    Equals t**(j-i) * p_i * p_{k-j} / p_{k+1} for i <= j, and is symmetric in
    (i, j).  The one builder of this quotient: dyck_gf and ballot_end_gf
    are its cases i = 0, where p_0 = 1.
    """
    if k < 0:
        raise ValueError("height bound must be >= 0")
    if not (0 <= i <= k + 1 and 0 <= j <= k + 1):
        raise ValueError("levels must lie in [0, k + 1]")
    if i > j:
        i, j = j, i
    return PolyQuotient(_poly_mul(p_poly(i), p_poly(k - j)), p_poly(k + 1), j - i)


def ballot_exact_gf(k: int, j: int) -> PolyQuotient:
    """Ballot paths of height exactly k ending at level j:
    H_k^(j) = t**(2k-j) * p_j / (p_k * p_{k+1}), zero for j > k.

    Such a path splits at its first visit to level k.  Before it lies a
    first passage to k: a path of height <= k-1 to level k-1 and one up
    step, t * G_{k-1}^(k-1) = t**k / p_k.  After it lies a path from k down
    to j of height <= k, G_k^(j,k) = t**(k-j) * p_j / p_{k+1}.  The form
    equals G_k^(j) - G_{k-1}^(j) by the Casoratian identity
    p_{k-j} p_k - p_{k-1-j} p_{k+1} = x**(k-j) p_j.
    """
    if k < 1:
        raise ValueError("exact height must be >= 1")
    if j < 0:
        raise ValueError("end level must be >= 0")
    if j > k:
        return PolyQuotient(())
    return PolyQuotient(p_poly(j), _poly_mul(p_poly(k), p_poly(k + 1)), 2 * k - j)
