"""Mechanical verification of the super Catalan identity catalogue.

Every check runs in exact arithmetic and produces a VerificationReport: the
identity id, the order it was checked to, pass/fail, and the first mismatching
coefficient on failure.  Series checks compare coefficients of the half-step
variable t (x = t**2); `first_mismatch.power` is the t-exponent there.  It is
the C-exponent, and the note says so, for what is checked in C under
x = C / (1 + C)^2: the polynomial identities of g-forms and p-bridge, the
sums of firstsum and pairsum and t3-main's k-sum sub-identity.  The sums in
C and e52's cleared left side reach x by Lagrange inversion, and pairsum,
t3-main and e52 compare them there, at t-exponents.  For integer and
bivariate checks the power is an index (or index tuple).  Identities with a
combinatorial meaning are additionally cross-checked against path counts or
path enumeration, so a defect on either route fails the report.
"""

from __future__ import annotations

from itertools import count, islice
from math import comb
from operator import add, mul, sub
from time import perf_counter
from typing import Callable, NamedTuple

from .bijection import (_dyck_words, _forward_core, _inverse_core,
                        _restricted_words)
from .counting import (CountTable, _convolve, _e_band, _pair_counts, catalan,
                       exact_div, super_catalan, super_catalan_row)
from .height_gf import ballot_between_gf, ballot_end_gf, dyck_gf, p_poly
from .lattice_paths import _levels
from .series import _divide

# g-forms covers the height bounds k <= 8, p-bridge the polynomials p_n, n <= 12
_G_FORMS_K_MAX = 8
_P_BRIDGE_N_MAX = 12
# lemma-main maps and inverts the pairs of each E_n with one level pass per
# chunk of this many pairs
_INVERSE_CHUNK = 1024


class Mismatch(NamedTuple):
    power: int | tuple[int, ...]
    lhs: int
    rhs: int


class VerificationReport(NamedTuple):
    identity: str
    order: int
    passed: bool
    first_mismatch: Mismatch | None
    elapsed_ms: int
    notes: tuple[str, ...] = ()


def report_to_dict(report: VerificationReport) -> dict:
    """JSON-ready dict with canonical key order."""
    fm = None
    if report.first_mismatch is not None:
        power = report.first_mismatch.power
        fm = {
            "power": list(power) if isinstance(power, tuple) else power,
            "lhs": report.first_mismatch.lhs,
            "rhs": report.first_mismatch.rhs,
        }
    return {
        "identity": report.identity,
        "order": report.order,
        "passed": report.passed,
        "first_mismatch": fm,
        "elapsed_ms": report.elapsed_ms,
        "notes": list(report.notes),
    }


def _run(identity: str, order: int, body) -> VerificationReport:
    notes: list[str] = []
    start = perf_counter()
    mismatch = body(notes)
    elapsed_ms = int((perf_counter() - start) * 1000)
    return VerificationReport(identity=identity, order=order,
                              passed=mismatch is None, first_mismatch=mismatch,
                              elapsed_ms=elapsed_ms, notes=tuple(notes))


def _first_mismatch(lhs, rhs) -> Mismatch | None:
    """The first index where two coefficient sequences of one length differ.
    Sequences of unequal lengths are refused: a comparison never shortens
    itself."""
    if len(lhs) != len(rhs):
        raise RuntimeError("cannot compare coefficient lists of lengths "
                           f"{len(lhs)} and {len(rhs)}")
    if lhs == rhs:
        return None
    return next((Mismatch(s, a, b) for s, (a, b) in enumerate(zip(lhs, rhs))
                 if a != b), None)


def _closed_form_row(identity: str, m: int, n_max: int, closed) -> VerificationReport:
    """T(m,n) = closed(n) for 1 <= n <= n_max."""
    def body(notes):
        for n in range(1, n_max + 1):
            lhs, rhs = super_catalan(m, n), closed(n)
            if lhs != rhs:
                return Mismatch(n, lhs, rhs)
        return None
    return _run(identity, n_max, body)


def verify_t2_closed_form(n_max: int) -> VerificationReport:
    """T(2,n) = 4*C_n - C_{n+1} for 1 <= n <= n_max."""
    return _closed_form_row("e2", 2, n_max, lambda n: 4 * catalan(n) - catalan(n + 1))


def verify_t3_closed_form(n_max: int) -> VerificationReport:
    """T(3,n) = 16*C_n - 8*C_{n+1} + C_{n+2} for 1 <= n <= n_max."""
    return _closed_form_row(
        "t3-closed", 3, n_max,
        lambda n: 16 * catalan(n) - 8 * catalan(n + 1) + catalan(n + 2))


def verify_e8(order: int) -> VerificationReport:
    """sum_n 2^(p-2n) C(p,2n) T(m,n) = T(m, m+p) for all m, p <= order.

    Checked on the doubled rows 2T(m, n), n <= m + order, of
    `super_catalan_row`: one small product and one exact division per entry,
    no factorials.  At m = 0 the doubled identity is the one stated, since
    T(0, 0) = 1/2: the summand becomes the middle binomial coefficient and
    the right side C(2p, p).  For m >= 1 a failure reports halved values,
    T(m, n) and not 2T(m, n).

    The identity is linear in a row, so a row scaled by a wrong start value
    would still satisfy it.  Each row is therefore anchored: its last entry,
    2T(m, m + order), is compared with super_catalan once, before the row is
    used, and a wrong one fails at (m, order) with the row's value on the
    left.  The weights 2^(p-2n) C(p,2n) are built once.
    """
    def body(notes):
        notes.append(f"checked 0 <= m <= {order}, 0 <= p <= {order}")
        notes.append("m=0 row checked as the doubled identity "
                     "(middle binomial coefficients)")
        weights = [[2 ** (p - 2 * n) * comb(p, 2 * n) for n in range(p // 2 + 1)]
                   for p in range(order + 1)]

        def mismatch(m, p, lhs, rhs):  # m = 0 keeps the doubled identity
            if m:
                lhs, rhs = (exact_div(v, 2, f"half of an e8 side at ({m}, {p})")
                            for v in (lhs, rhs))
            return Mismatch((m, p), lhs, rhs)

        for m in range(order + 1):
            row = super_catalan_row(m, m + order)
            if m + order:  # at order 0 the row is its start, C(0, 0) = 1
                anchor = 2 * super_catalan(m, m + order)
                if row[-1] != anchor:
                    return mismatch(m, order, row[-1], anchor)
            for p, weight in enumerate(weights):
                lhs = sum(map(mul, weight, row))  # n <= p // 2, the weights' length
                rhs = row[m + p]
                if lhs != rhs:
                    return mismatch(m, p, lhs, rhs)
        return None
    return _run("e8", order, body)


def verify_e_mo(degree: int) -> VerificationReport:
    """1 + sum C_m C_n x^m y^n = (1 - sum T(m,n) x^m y^n)^(-1), m,n >= 1,
    compared through the given total degree.

    The left side is L = 1 + u(x) u(y) with u = c - 1, so the check runs as
    L = 1 + A L with A = sum T(m,n) x^m y^n, and needs no inverse:
    A L - A = u(x) W with W = A u(y), two integer convolutions by
    `_convolve`, each row of A by u(y) and then each column of W by u(x).
    Every term of A has total degree >= 2, so at the first coefficient (by
    total degree, then i) where L and 1 + A L differ, 1 + A L equals the
    inverse's coefficient.

    Row m of A is read off `super_catalan_row(m, degree - m)`, each entry
    halved with an exact division.  Each row is anchored as in e8: its last
    entry is compared with super_catalan once, before any coefficient, and
    a wrong one fails at (m, degree - m) with the row's value on the left.
    Here the identity alone would also catch a row scaled by a wrong start
    value, since L fixes A = 1 - L^(-1), but only at that row's first
    entry; the anchor ties both checks to super_catalan by the same rule."""
    if degree < 2:
        raise ValueError("degree must be >= 2")
    def body(notes):
        u = [0] + [catalan(n) for n in range(1, degree + 1)]  # u[n], n <= degree
        # a[k][l] = T(k, l) for k, l >= 1, k + l <= degree; rows 0 and
        # degree are zero
        a = [[0] * (degree + 1)]
        for m in range(1, degree):
            row = super_catalan_row(m, degree - m)
            a.append([0] + [exact_div(value, 2, f"T({m},{n})")
                            for n, value in enumerate(row[1:], 1)])
            anchor = super_catalan(m, degree - m)
            if a[m][-1] != anchor:
                return Mismatch((m, degree - m), a[m][-1], anchor)
        a.append([0])
        # w[k][j] = sum_l a[k][l] u[j-l], and al[j][i] = (A L - A)[i][j]
        # = sum_k u[i-k] w[k][j], over the column j of w, k <= degree - j
        w = [_convolve(row, u, range(len(row))) for row in a]
        al = [_convolve([w[k][j] for k in range(degree - j + 1)], u,
                        range(degree - j + 1)) for j in range(degree + 1)]
        for d in range(1, degree + 1):  # at (0, 0) both sides are 1
            for i in range(d + 1):
                j = d - i
                lhs = u[i] * u[j]  # u[0] = 0
                rhs = a[i][j] + al[j][i]
                if lhs != rhs:
                    return Mismatch((i, j), lhs, rhs)
        return None
    return _run("e-mo", degree, body)


def _in_c(poly: tuple[int, ...], degree: int) -> list[int]:
    """poly(x) (1 + C)^degree under x = C / (1 + C)^2, as the coefficients of
    a polynomial in C when degree >= 2 deg poly: the term a x^e becomes
    a C^e (1 + C)^(degree - 2e)."""
    out = [0] * (degree + 1)
    for e, a in enumerate(poly):
        n = degree - 2 * e
        out[e:e + n + 1] = map(add, out[e:e + n + 1],
                               [a * comb(n, r) for r in range(n + 1)])
    return out


def _times_one_minus(cs: list[int], ms: tuple[int, ...]) -> list[int]:
    """cs times (1 - C^m) for each m in ms; m = 0 gives zeros."""
    for m in ms:
        cs = list(map(sub, cs + [0] * m, [0] * m + cs))
    return cs


def _over_one_minus(cs: list[int], strides) -> list[int]:
    """cs / prod (1 - C^a) over a in strides, through the length of cs: for
    each a a running sum at stride a, one slice addition per block of a
    coefficients."""
    cs = list(cs)
    for a in strides:
        for lo in range(a, len(cs), a):
            cs[lo:lo + a] = map(add, cs[lo:lo + a], cs[lo - a:lo])
    return cs


def _c_quotient(e: int, strides, length: int) -> list[int]:
    """C^e / prod (1 - C^a) over a in strides, through C^(length - 1)."""
    return _over_one_minus([0] * e + [1] + [0] * (length - e - 1), strides)[:length]


def _c_to_x(cs: list[int]) -> list[int]:
    """The x-coefficients of F = sum_k cs[k] C^k through x^(len(cs) - 1),
    C = c(x) - 1, by Lagrange inversion from C = x (1 + C)^2:
    [x^n] C^k = (k/n) C(2n, n - k) for n >= 1, so [x^n] F is
    sum_(k=1..n) k cs[k] C(2n, n - k), divided exactly by n.  One pass over
    the even rows of Pascal's triangle.  Since C = x + O(x^2), a series in C
    through C^N fixes the one in x through x^N, and the other way round."""
    weighted = list(map(mul, range(len(cs)), cs))
    out = cs[:1]
    row = [1]  # row 2n of Pascal's triangle
    for n in range(1, len(cs)):
        for _ in range(2):
            row = list(map(add, row + [0], [0] + row))
        # k = 1..n: map stops at C(2n, 0), the last of the reversed row
        out.append(exact_div(sum(map(mul, weighted[1:], row[n - 1::-1])), n,
                             f"the x^{n} coefficient of a series in C"))
    return out


def _x_mismatch(lhs: list[int], rhs: list[int]) -> Mismatch | None:
    """The first x-power where two coefficient lists differ, reported at its
    t-power, 2n for x^n."""
    mismatch = _first_mismatch(lhs, rhs)
    return None if mismatch is None else mismatch._replace(power=2 * mismatch.power)


def _g_in_c(n: int, length: int) -> list[int]:
    """G_n = (1 + C)(1 - C^(n+1)) / (1 - C^(n+2)) through C^(length - 1)."""
    one_plus_c = ([1, 1] + [0] * length)[:length]
    return _over_one_minus(_times_one_minus(one_plus_c, (n + 1,))[:length], (n + 2,))


def verify_firstsum(x_order: int) -> VerificationReport:
    """sum_n (G_n - G_{n-1}) G_{n+1} = 1 + 2C, summed in C through
    C^x_order.

    Under x = C / (1 + C)^2 the height-bounded Dyck paths have
    G_n = (1 + C)(1 - C^(n+1)) / (1 - C^(n+2)) (de Bruijn, Knuth and Rice),
    so G_n - G_{n-1} = (1 + C)(1 - C)^2 C^n / ((1 - C^(n+1))(1 - C^(n+2))),
    G_{-1} = 0, and the identity reads
        (1 - C^2)^2 sum_n C^n / ((1 - C^(n+1))(1 - C^(n+3))) = 1 + 2C,
    on small integers: dividing by 1 - C^a is a running sum.  The n-th
    summand starts at C^n.  Since C = x + O(x^2), a series in C through
    C^N fixes the one in x through x^N, so the identity holds in x through
    x^x_order.  A mismatch reports a C-exponent.

    The route reads these C-forms, not the quotients p_n / p_(n+1) of
    dyck_gf: g-forms checks the quotients against their C-forms for n <= 8,
    and tests compare dyck_gf(n) with path counts for larger n."""
    def body(notes):
        length = x_order + 1
        total = [0] * length
        for n in range(length):
            total = list(map(add, total, _c_quotient(n, (n + 1, n + 3), length)))
        mismatch = _first_mismatch(_times_one_minus(total, (2, 2))[:length],
                                   ([1, 2] + [0] * length)[:length])
        if mismatch:
            notes.append("sum in C vs 1 + 2C, power is the C-exponent")
            return mismatch
        notes.append(f"summed in C through C^{x_order}")
        return None
    return _run("firstsum", x_order, body)


def verify_pairsum(x_order: int) -> VerificationReport:
    """sum_n (G_n - G_{n-1})(G_{n+1} - G_{n-2}) = 1 + 2C - C^2
    = 1 + sum T(2,n) x^n, every coefficient cross-checked against pair counts.

    Summed in C, as firstsum is: with d_m = C^m / ((1 - C^(m+1))(1 - C^(m+2))),
    d_(-1) = 0, each difference G_m - G_(m-1) is (1 + C)(1 - C)^2 d_m, and the
    sum is (1 + C)^2 (1 - C)^4 sum_n d_n (d_(n-1) + d_n + d_(n+1)), checked
    against 1 + 2C - C^2 through C^x_order, a mismatch at a C-exponent.  The
    n-th product is C^n (d_(n-1) + d_n + d_(n+1)) divided by the two factors
    of d_n, two running sums, and starts at C^(2n-1).

    The sum goes to x by Lagrange inversion (`_c_to_x`), and its
    coefficients are compared with the table row T(2, n) and with one
    `_pair_counts` pass, which shares nothing with the sum in C and counts
    the pairs of height gap at most 1 for every n."""
    def body(notes):
        length = x_order + 1
        # d[m + 1] = d_m for every m that a product below reads
        d = [[0] * length] + [_c_quotient(m, (m + 1, m + 2), length)
                              for m in range(length // 2 + 2)]
        total = [0] * length
        for n in range(length // 2 + 1):  # the n-th product starts at C^(2n-1)
            near = map(add, map(add, d[n], d[n + 1]), d[n + 2])
            term = _over_one_minus(([0] * n + list(near))[:length], (n + 1, n + 2))
            total = list(map(add, total, term))
        total = _times_one_minus(total, (1, 1, 2, 2))[:length]
        mismatch = _first_mismatch(total, ([1, 2, -1] + [0] * length)[:length])
        if mismatch:
            notes.append("sum in C vs 1 + 2C - C^2, power is the C-exponent")
            return mismatch
        crossed = _c_to_x(total)
        mismatch = _x_mismatch(
            crossed, [1] + [super_catalan(2, n) for n in range(1, length)])
        if mismatch:
            notes.append("series sum vs 1 + sum T(2,n) x^n")
            return mismatch
        counts = _pair_counts(range(length), lambda hp: (hp - 1, hp + 1))
        # x^0 is the 1 of the sum, which the series check has just compared
        mismatch = _x_mismatch(crossed, [1] + counts[1:])
        if mismatch:
            notes.append(f"pair count disagrees at n={mismatch.power // 2}")
            return mismatch
        notes.append(f"summed in C through C^{x_order}, carried to x by "
                     "Lagrange inversion")
        notes.append(f"coefficients x^1..x^{x_order} cross-checked against "
                     "pair counts from the height table")
        return None
    return _run("pairsum", x_order, body)


def _e52_cleared_in_c() -> list[int]:
    """The e52 left side times 2x^4, 1 - 10x + 30x^2 - 20x^3 - (1-4x)^(5/2),
    times (1 + C)^8 under x = C / (1 + C)^2, as a polynomial in C:
    (1-4x)^(5/2) (1 + C)^8 = (1-4x)^2 (1 + C)^7 (1 - C) by
    sqrt(1-4x) = (1 - C) / (1 + C), whose square is 1 - 4x and whose
    constant term is +1, as the square root's is.  Each polynomial in x goes
    to C through `_in_c`.  Since 2x^4 (1 + C)^8 = 2C^4, it is 2C^4 times the
    e52 right side in C, 2C^4 (5 + 6C - 2C^2 - 2C^3 + C^4)."""
    return list(map(sub, _in_c((1, -10, 30, -20), 8),
                    _times_one_minus(_in_c((1, -8, 16), 7), (1,))))


def verify_e52(x_order: int) -> VerificationReport:
    """-(1-4x)^(5/2)/(2x^4) - 10/x + 15/x^2 - 5/x^3 + 1/(2x^4)
    = sum T(3,n+1) x^n.  Both sides are multiplied by 2x^4 first, which clears
    all negative powers and leaves an equality of genuine series.

    The left side is `_e52_cleared_in_c`, 2C^4 times a polynomial in C,
    which goes to x by Lagrange inversion (`_c_to_x`) after the C^4; a
    series in C and its series in x have their first nonzero coefficient at
    the same power with the same value, so the C^4 stays x^4.  A mismatch
    reports a t-exponent."""
    def body(notes):
        cleared = _e52_cleared_in_c()
        lhs = cleared[:4] + _c_to_x((cleared[4:] + [0] * x_order)[:x_order + 1])
        rhs = [0] * 4 + [2 * super_catalan(3, n + 1) for n in range(x_order + 1)]
        notes.append("compared after clearing denominators (multiplied by 2x^4)")
        return _x_mismatch(lhs, rhs)
    return _run("e52", x_order, body)


def _displayed_t3_tail(length: int) -> list[int]:
    """1 - 2/(1-x) - 2(1-x)/(1-2x) - (1-2x)/(1-3x+x^2)
    - (1-4x+3x^2)/(1-5x+6x^2-x^3) through C^(length - 1), with the quotients
    spelled literally.  Each goes to C through `_in_c`: num(x) / den(x) is
    num(x) (1 + C)^d over den(x) (1 + C)^d, d = 2 deg den, two polynomials in
    C, and the second has constant term 1."""
    terms = (
        (2, (1,), (1, -1)),
        (2, (1, -1), (1, -2)),
        (1, (1, -2), (1, -3, 1)),
        (1, (1, -4, 3), (1, -5, 6, -1)),
    )
    tail = ([1] + [0] * length)[:length]
    for mult, num, den in terms:
        d = 2 * (len(den) - 1)
        quotient = _divide(_in_c(num, d), _in_c(den, d), length)
        tail = [c - mult * q for c, q in zip(tail, quotient)]
    return tail


def _t3_k_sum_in_c(length: int) -> list[int]:
    """sqrt(x) sum_{k>=6} H_k^(4) H_{k-2}^(3) H_{k-4}^(2) through
    C^(length - 1).

    Under x = C / (1 + C)^2 and sqrt(x) = t = sqrt(C) / (1 + C), the
    exact-height quotient H_k^(j) = t^(2k-j) p_j / (p_k p_(k+1)) is
    C^(k - j/2) (1 + C)(1 - C)(1 - C^(j+1)) / ((1 - C^(k+1))(1 - C^(k+2))),
    so t times the k-th triple is C/(1 + C) (1 - C^2)^3 (1 - C^3)(1 - C^4)
    (1 - C^5) C^(3k-11) / prod_(a=k-3..k+2) (1 - C^a).  With
    (1 - C^2)^3 / (1 + C) = (1 - C)(1 - C^2)^2 the sum is
    (1 - C)(1 - C^2)^2 (1 - C^3)(1 - C^4)(1 - C^5) times
    sum_k C^(3k-10) / prod (1 - C^a), whose k-th term starts at exactly
    C^(3k-10): the sum stops at the last k with 3k - 10 < length."""
    total = [0] * length
    for k in range(6, (length + 9) // 3 + 1):
        total = list(map(add, total,
                         _c_quotient(3 * k - 10, range(k - 3, k + 3), length)))
    return _times_one_minus(total, (1, 2, 2, 3, 4, 5))[:length]


def _t3_path_counts(x_order: int) -> list[int]:
    """Path counts behind x^0..x^x_order of the path-sum side of t3-main:
    triples of exact-height ballot paths (heights k, k-2, k-4 ending at
    levels 4, 3, 2; the extra half step makes the total step count 2n - 1)
    plus height-bounded Dyck paths with multiplicities 2, 2, 1, 1.

    Every count is read off one CountTable per height bound, exact height h
    being the cap-h count minus the cap-(h-1) count.  Each exact-height
    column is read from its shortest length at every second step, and the
    three are multiplied by two integer convolutions (`_convolve`): the
    triple of lengths 2k-4+2a, 2k-7+2b and 2k-10+2c lands at
    x^(3k-10+a+b+c).  No series kernel or generating function is
    involved."""
    # k runs while its shortest triple, (2k - 4) + (2k - 7) + (2k - 10)
    # = 6k - 21 steps, fits: while it lands at x^(3k - 10) <= x^x_order
    heights = range(6, (x_order + 10) // 3 + 1)
    columns = {}  # cap h -> its columns at levels 0..4
    for h in range(1, max(heights, default=5) + 1):
        table = CountTable(2 * x_order, h)
        columns[h] = [table.column(level) for level in range(5)]

    def exact(h: int, level: int) -> list[int]:
        # from the shortest length, 2h - level steps: up to h, down to level
        shortest = 2 * h - level
        return list(map(sub, columns[h][level][shortest::2],
                        columns[h - 1][level][shortest::2]))

    counts = [2 * g1 + 2 * g2 + g3 + g5 for g1, g2, g3, g5
              in zip(*(columns[cap][0][::2] for cap in (1, 2, 3, 5)))]
    for k in heights:
        low = 3 * k - 10
        ks = range(x_order - low + 1)
        pairs = _convolve(exact(k, 4), exact(k - 2, 3), ks)
        counts[low:] = map(add, counts[low:], _convolve(pairs, exact(k - 4, 2), ks))
    return counts


def verify_t3_main(x_order: int) -> VerificationReport:
    """1 + sum T(3,n+1) x^n = sqrt(x) * sum_{k>=6} H_k^(4) H_{k-2}^(3) H_{k-4}^(2)
    + 2*G_1 + 2*G_2 + G_3 + G_5.

    The right side is built in C through C^x_order: the k-sum by
    `_t3_k_sum_in_c` and each G_n as (1 + C)(1 - C^(n+1)) / (1 - C^(n+2)).
    It goes to x by Lagrange inversion (`_c_to_x`) and meets the left side,
    a row of super_catalan, there; a mismatch reports a t-exponent.  The
    route reads these C-forms, not the quotients of ballot_exact_gf and
    dyck_gf, which tests compare with path counts.

    Also checks the k-sum alone against its displayed closed rational form,
    as a series in C through C^(x_order + 4) with both sides multiplied by
    2x^4 (1 + C)^8 = 2C^4, a mismatch at a C-exponent: the e52 left side
    becomes `_e52_cleared_in_c`, the polynomial in C that e52 reads.
    Last, every coefficient through x^x_order is compared with triple path
    counts.
    """
    def body(notes):
        length = x_order + 1
        lhs = ([1 + super_catalan(3, 1)]
               + [super_catalan(3, n + 1) for n in range(1, length)])
        k_sum = _t3_k_sum_in_c(length)
        rhs = [k + 2 * g1 + 2 * g2 + g3 + g5 for k, g1, g2, g3, g5
               in zip(k_sum, *(_g_in_c(n, length) for n in (1, 2, 3, 5)))]
        crossed = _c_to_x(rhs)
        mismatch = _x_mismatch(lhs, crossed)
        if mismatch:
            notes.append("main series identity")
            return mismatch

        cleared = _e52_cleared_in_c()
        lhs_sub = [0] * 4 + [2 * c for c in k_sum]
        tail = [0] * 4 + [2 * c for c in _displayed_t3_tail(length)]
        # the cleared side is a polynomial of degree 8; map stops at the tail
        rhs_sub = list(map(add, cleared + [0] * len(tail), tail))
        mismatch = _first_mismatch(lhs_sub, rhs_sub)
        if mismatch:
            notes.append("k-sum vs displayed closed rational expression, "
                         "power is the C-exponent")
            return mismatch
        notes.append("k-sum checked in C against its displayed closed "
                     "rational form")

        mismatch = _x_mismatch(crossed, _t3_path_counts(x_order))
        if mismatch:
            notes.append(f"triple path counts disagree at n={mismatch.power // 2}")
            return mismatch
        notes.append(f"coefficients x^0..x^{x_order} cross-checked "
                     "against triple path counts")
        return None
    return _run("t3-main", x_order, body)


def _c_mismatch(num: tuple[int, ...], den: tuple[int, ...], degrees: tuple[int, int],
                left: tuple[int, ...], right: tuple[int, ...],
                e: int = 0) -> Mismatch | None:
    """The first C-power at which num(x) / den(x) = (1 + C)^(dd - dn) C^e
    R / L fails under x = C / (1 + C)^2, with (dn, dd) = degrees and L and R
    the products of 1 - C^m over m in left and right.  It is checked
    cross-multiplied, num(x) (1 + C)^dn L = C^e R den(x) (1 + C)^dd, as
    polynomials in C.  Both sides are raised together by the least power of
    (1 + C) that makes them polynomials, which only a quotient of too high a
    degree needs."""
    dn, dd = degrees
    lift = max(0, 2 * (len(num) - 1) - dn, 2 * (len(den) - 1) - dd)
    lhs = _times_one_minus(_in_c(num, dn + lift), left)
    rhs = [0] * e + _times_one_minus(_in_c(den, dd + lift), right)
    width = max(len(lhs), len(rhs))
    return _first_mismatch(tuple(lhs + [0] * (width - len(lhs))),
                           tuple(rhs + [0] * (width - len(rhs))))


def _catalan_tie(x_order: int) -> Mismatch | None:
    """C = x (1 + C)^2 through x^x_order on int lists: c holds
    C = c(x) - 1, the Catalan numbers with c[0] = 0, and (1 + C)^2 is one
    `_convolve`.  Only one series solves it to that order, and it has no
    constant term: the coefficient of x^n on the right reads C only below
    x^n.  A mismatch reports its t-exponent, 2n for x^n."""
    c = [0] + [catalan(n) for n in range(1, x_order + 1)]
    one_plus_c = [1] + c[1:]
    return _x_mismatch(c, [0] + _convolve(one_plus_c, one_plus_c, range(x_order)))


def _g_cases():
    """(k, i, j, name, quotient) for every G that g-forms covers: G_-1 = 0,
    the empty class, and for 0 <= k <= 8 each G_k^(i,j), 0 <= i <= j <= k + 1.
    At i = 0 the one quotient is G_k^(j) = G_k^(0,j), and G_k = G_k^(0)."""
    yield -1, 0, 0, "G_-1", dyck_gf(-1)
    for k in range(_G_FORMS_K_MAX + 1):
        for i in range(k + 2):
            for j in range(i, k + 2):
                if i == 0:
                    yield k, i, j, f"G_{k}^({j})", ballot_end_gf(k, j)
                else:
                    yield k, i, j, f"G_{k}^({i},{j})", ballot_between_gf(k, i, j)


def verify_g_closed_forms(x_order: int) -> VerificationReport:
    """All closed forms for height-bounded path generating functions agree:
    the polynomial quotients, their forms in C, and the transfer-table
    counts, for G_-1 = 0 and G_k^(i,j), 0 <= i <= j <= k + 1, k <= 8.

    The C-form of G_k^(i,j) = t^s num(x) / den(x), s in {0, 1}, is
    sqrt(C)^(j-i) (1 + C) (1 - C^(i+1)) (1 - C^(k-j+1)) / ((1 - C)(1 - C^(k+2))).
    Under x = C / (1 + C)^2 and t = sqrt(C) / (1 + C) it is the polynomial
    identity in C
        num(x) (1 + C)^(k-s) (1 - C)(1 - C^(k+2))
            = C^e (1 - C^(i+1)) (1 - C^(k-j+1)) den(x) (1 + C)^(k+1),
    e = (j - i) // 2, which is P_i P_(k-j) (1 - C)(1 - C^(k+2)) =
    (1 - C^(i+1)) (1 - C^(k-j+1)) P_(k+1) times C^e, the x^e folded into num,
    with P_n = p_n(x) (1 + C)^n.  It is checked exactly, with num, den and s
    read off the very quotient that is expanded below; (1 + C) is not a
    rational function of x, so a quotient of the wrong t-parity fails too.
    A mismatch there reports a C-exponent.

    One comparison through x^x_order ties C to x: C = x (1 + C)^2, with C
    the list of Catalan numbers C_1, C_2, ... and (1 + C)^2 one
    `_convolve`.  It makes that series the one solution with no constant
    term, so x = C / (1 + C)^2 holds through t^(2 x_order).  So does
    t = sqrt(C) / (1 + C), with no comparison of its own:
    (t (1 + C))^2 = x (1 + C)^2 = C by the tie, and C has exactly one
    square root whose leading term is +t, since a square root r with
    r^2 = C = t^2 + O(t^4) is +t or -t at its lowest term and each choice
    fixes every later coefficient.  The polynomial identities
    then give every C-form as a series identity through that order.

    Each quotient expansion, G_-1 = 0 aside, is also compared with its
    transfer-table column: the path counts, which share nothing with the
    C route.
    """
    def body(notes):
        t_order = 2 * x_order
        mismatch = _catalan_tie(x_order)
        if mismatch:
            notes.append("C vs x (1 + C)^2")
            return mismatch

        forms = columns = 0
        for k, i, j, name, gf in _g_cases():
            mismatch = _c_mismatch(gf.num, gf.den, (k - gf.t_shift, k + 1),
                                   (1, k + 2), (i + 1, k - j + 1), (j - i) // 2)
            if mismatch:
                notes.append(f"{name}: polynomial identity fails, "
                             "power is the C-exponent")
                return mismatch
            forms += 1
            if k < 0:  # no path has height -1
                continue
            if j == i:
                table = CountTable(t_order, k, start_level=i)
            mismatch = _first_mismatch(gf.expand(t_order).coeffs, table.column(j))
            if mismatch:
                notes.append(f"{name}: series vs path count at t^{mismatch.power}")
                return mismatch
            columns += 1
        notes.append(f"C = x (1 + C)^2 through t^{t_order}")
        notes.append(f"{forms} closed forms, k <= {_G_FORMS_K_MAX}, checked as "
                     "polynomial identities in C")
        notes.append(f"{columns} quotient expansions cross-checked against path "
                     f"counts through t^{t_order}")
        return None
    return _run("g-forms", x_order, body)


def verify_p_bridge(x_order: int) -> VerificationReport:
    """p_n = (1 - C^(n+1)) / ((1 - C)(1 + C)^n) for n <= min(12, x_order).

    Under x = C / (1 + C)^2 this is the polynomial identity
    P_n (1 - C) = 1 - C^(n+1), P_n = p_n(x) (1 + C)^n, checked exactly; a
    mismatch there reports a C-exponent.  One comparison,
    C = x (1 + C)^2 through x^x_order on the list of Catalan numbers (see
    g-forms), ties C to x, and with it each polynomial identity gives the
    series identity through that order."""
    def body(notes):
        n_max = min(_P_BRIDGE_N_MAX, x_order)
        t_order = 2 * x_order
        mismatch = _catalan_tie(x_order)
        if mismatch:
            notes.append("C vs x (1 + C)^2")
            return mismatch
        for n in range(n_max + 1):
            mismatch = _c_mismatch(p_poly(n), (1,), (n, 0), (1,), (n + 1,))
            if mismatch:
                notes.append(f"first failure at n={n}, power is the C-exponent")
                return mismatch
        notes.append(f"C = x (1 + C)^2 through t^{t_order}")
        notes.append(f"checked n = 0..{n_max} as P_n (1 - C) = 1 - C^(n+1), "
                     "P_n = p_n (1 + C)^n")
        return None
    return _run("p-bridge", x_order, body)


def verify_lemma_main_count(n_max: int) -> VerificationReport:
    """|E_n| = C_n and the pair-to-path map is a bijection, exhaustively.

    E_n is the set of pairs (P, Q) of Dyck paths of total semilength n with P
    nonempty and h(P) <= h(Q) + 1.  For 1 <= n <= n_max this checks the count
    against the enumeration and against one `_pair_counts` pass over the
    height table, which counts every n at once, that the images are distinct
    words of the set D_n of Dyck paths, and that inverse(forward(pair)) ==
    pair on E_n.  Distinct images make the C_n streamed pairs distinct and
    forward one-to-one on them, and with |E_n| = C_n = |D_n| it maps E_n
    onto D_n, so forward(inverse(d)) = d follows and is not run.

    The Dyck paths of each semilength are enumerated once per check as
    (steps, height, first peak) words and shared by every n; no Path is
    built.  Each n is one pass over the pairs from `_restricted_words`, the
    generator behind `enumerate_restricted_pairs`, in chunks of
    `_INVERSE_CHUNK`: each pair goes through the forward string core, and
    its image takes its height out of the height map of D_n, so an image
    outside D_n or one made a second time finds none.  The images of the
    chunk go to the inverse core with one level pass over them joined into
    one word: every word of D_n starts and ends at level 0, so image i of a
    chunk has the levels at points 2n i to 2n (i + 1).  The core gets the
    height the enumeration carries for that word, as `_restricted_words`
    does; an error the core raises counts as a round-trip failure.  Once an
    image finds no height no more round trips run for that n: that note is
    reported first.
    """
    def body(notes):
        words = _dyck_words(n_max)
        counts = _pair_counts(range(n_max + 1), _e_band)
        for n in range(1, n_max + 1):
            expected = catalan(n)
            if counts[n] != expected:
                notes.append(f"|E_{n}| != C_{n}")
                return Mismatch(n, counts[n], expected)
            height = {d: h for d, h, _ in words[n]}
            pairs = outside = failures = 0
            stream = _restricted_words(n, words)
            while chunk := list(islice(stream, _INVERSE_CHUNK)):
                pairs += len(chunk)
                images = [_forward_core(*pair) for pair in chunk]
                heights = [height.pop(d, None) for d in images]
                outside += heights.count(None)
                if outside:
                    continue  # its note comes before any round-trip note
                levels = _levels("".join(images))
                for lo, d, h, pair in zip(count(0, 2 * n), images, heights, chunk):
                    try:
                        back = _inverse_core(d, levels[lo:lo + 2 * n + 1], h)
                    except (ValueError, IndexError, RuntimeError):
                        back = None  # the core refused a word of D_n
                    if back != pair[:2]:
                        failures += 1
            if pairs != expected:
                notes.append(f"pair enumeration at n={n} disagrees with count")
                return Mismatch(n, pairs, expected)
            if outside:
                notes.append(f"{outside} images of E_{n} outside D_{n} or repeated")
                return Mismatch(n, outside, 0)
            if failures:
                notes.append(f"{failures} roundtrip failures at n={n}")
                return Mismatch(n, failures, 0)
        notes.append(f"exhaustive roundtrips for n = 1..{n_max}")
        return None
    return _run("lemma-main", n_max, body)


class Check(NamedTuple):
    """A registered check: its default order, the function that runs it at
    one order, and the orders it accepts.  A requested order outside
    [min_order, max_order] runs clamped into that range, and the report
    records `clamp_note`, formatted with the order that ran."""
    default_order: int
    verify: Callable[[int], VerificationReport]
    min_order: int = 1
    max_order: int | None = None
    clamp_note: str = ""


# ids in sorted order, the order of `verify all`
IDENTITIES: dict[str, Check] = {
    "e-mo": Check(12, verify_e_mo, min_order=2, clamp_note=(
        "total degree raised to 2 (minimum meaningful degree)")),
    "e2": Check(30, verify_t2_closed_form),
    "e52": Check(30, verify_e52),
    "e8": Check(10, verify_e8),
    "firstsum": Check(30, verify_firstsum),
    "g-forms": Check(30, verify_g_closed_forms),
    # exhaustive enumeration stays feasible only at desk scale
    "lemma-main": Check(8, verify_lemma_main_count, max_order=10, clamp_note=(
        "n_max clamped to {}: exhaustive enumeration bound")),
    "p-bridge": Check(30, verify_p_bridge),
    "pairsum": Check(30, verify_pairsum),
    "t3-closed": Check(30, verify_t3_closed_form),
    "t3-main": Check(20, verify_t3_main),
}


def run_identity(identity: str, order: int | None = None) -> VerificationReport:
    """Run one registered identity check at the given (or default) order,
    clamped into the orders the check accepts; a clamp is recorded in the
    report notes."""
    check = IDENTITIES.get(identity)
    if check is None:
        valid = ", ".join(IDENTITIES)
        raise ValueError(f"unknown identity {identity!r}; valid ids: {valid}")
    if order is None:
        order = check.default_order
    if order < 1:
        raise ValueError("order must be >= 1")
    effective = max(order, check.min_order)
    if check.max_order is not None:
        effective = min(effective, check.max_order)
    report = check.verify(effective)
    if effective != order:
        note = check.clamp_note.format(effective)
        report = report._replace(notes=report.notes + (note,))
    return report
