"""Runtime checks that must hold under `python -O`, which strips asserts.

Claims covered:
    - every registered check at order 2, t3-main at 6, lemma-main at 8 and
      bijection round trips run and pass with optimization on
    - a planted wrong landmark in either bijection core still raises: u on a
      down step in the inverse, y after a down step in the forward
    - a doubled k = 6 term of t3-main's k-sum in C still fails t3-main at
      t^16, in its main series identity
    - a comparison of coefficient lists of unequal lengths still raises,
      here t3-main's sub-identity against a displayed tail built one
      C-power short
    - a planted wrong factorial that leaves super_catalan's quotient inexact
      still raises
    - a planted wrong start value of super_catalan_row, or of the walk along
      a row of Pascal's triangle in count_paths_dp, still raises at its first
      inexact division; a wrong start that is a multiple of the true one,
      which keeps every division exact, raises at the walk's end check
      C(s, s) = 1
    - the integer convolution behind the count cross-checks refuses a term
      past the end of its second operand
    - a planted wrong T(3,4) in its row of super_catalan_row fails e-mo at
      degree 12 at (3, 4)
    - a Fraction or float coefficient is refused by TruncSeries,
      PolyQuotient and BiTrunc; a constant term of 2 by TruncSeries.invert, BiTrunc.invert
      and PolyQuotient; and TruncSeries([1, 1], 4).sqrt(), whose t^1
      coefficient would be 1/2
    - Path refuses a bad step, inverse refuses a path that dips below 0, and
      RestrictedPair refuses h(p) > h(q) + 1 when both heights were read,
      and so kept, before the pair was built, and IntermediatePath refuses
      a first portion that reaches the top of the second
    - RestrictedPair refuses a q that dips below 0 whose floor was read,
      and so kept, before its height
    - RestrictedPair and PathClass refuse invalid fields through `_replace`,
      and IntermediatePath through `_make`
    - run_identity refuses a float or str order, and runs a bool order as
      the int it stands for
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = """
import sys
from fractions import Fraction
from math import comb
from supercat import (IDENTITIES, BiTrunc, IntermediatePath, Path, PathClass,
                      PolyQuotient, RestrictedPair, TruncSeries,
                      bijection, counting, enumerate_dyck,
                      enumerate_restricted_pairs, forward, identities, inverse,
                      run_identity)

print("optimize", sys.flags.optimize)
print("order 2", [i for i in IDENTITIES if not run_identity(i, 2).passed])
print("t3-main", run_identity("t3-main", 6).passed)
print("lemma-main", run_identity("lemma-main", 8).passed)
paths_ok = all(forward(inverse(d)) == d
               for n in range(1, 8) for d in enumerate_dyck(n))
pairs_ok = all(inverse(forward(pair)) == pair
               for n in range(1, 8) for pair in enumerate_restricted_pairs(n))
print("roundtrips", paths_ok and pairs_ok)
# level 0 at point 3 of UDUUDD moves u from 3 to 1, a down step
levels = list(Path("UDUUDD").levels)
levels[3] = 0
try:
    bijection._inverse_core("UDUUDD", levels, 2)
    print("planted u passed")
except RuntimeError as exc:
    print("planted u raised:", exc)
# q = UD peaks at 1, not 2: y lands after the down step of UUUD
try:
    bijection._forward_core("UD", "UD", 1, 1, 2)
    print("planted y passed")
except RuntimeError as exc:
    print("planted y raised:", exc)
# the k = 6 term of the k-sum in C, which starts at C^8, doubled
real_quotient = identities._c_quotient
identities._c_quotient = lambda e, strides, length: [
    (1 + (e == 8)) * c for c in real_quotient(e, strides, length)]
report = run_identity("t3-main", 10)
print("doubled k = 6 term", report.passed, report.first_mismatch.power,
      report.notes[-1])
identities._c_quotient = real_quotient
# T(3, 4) planted as 71 for 70 in its doubled row entry
real_row = identities.super_catalan_row
identities.super_catalan_row = lambda m, n_max: [
    value + 2 * ((m, n) == (3, 4)) for n, value in enumerate(real_row(m, n_max))]
print("planted e-mo", run_identity("e-mo", 12).first_mismatch)
identities.super_catalan_row = real_row
real_tail = identities._displayed_t3_tail
identities._displayed_t3_tail = lambda length: real_tail(length - 1)
try:
    run_identity("t3-main", 6)
    print("short tail passed")
except RuntimeError as exc:
    print("short tail raised:", exc)
identities._displayed_t3_tail = real_tail
for build in (lambda: TruncSeries([1, Fraction(1, 2)], 3),
              lambda: TruncSeries([0.5], 3),
              lambda: PolyQuotient([1, Fraction(2)]),
              lambda: PolyQuotient([1.0]),
              lambda: BiTrunc({(0, 0): Fraction(1, 2)}, 2),
              lambda: BiTrunc({(0, 0): 1, (1, 0): 1.5}, 2)):
    try:
        build()
        print("inexact coefficient passed")
    except TypeError as exc:
        print("inexact coefficient raised:", exc)
for build in (lambda: TruncSeries([2, 1], 4).invert(),
              lambda: BiTrunc({(0, 0): 2, (1, 0): 1}, 4).invert(),
              lambda: PolyQuotient((1,), (2, -1), 1),
              lambda: TruncSeries([1, 1], 4).sqrt()):
    try:
        build()
        print("non-integer result passed")
    except ValueError as exc:
        print("non-integer result raised:", exc)
counting.comb = lambda n, k: comb(n, k) + 1
try:
    counting.super_catalan_row(2, 5)
    print("planted start value passed")
except RuntimeError as exc:
    print("planted start value raised:", exc)
# C(10, 1) planted as 11: 11 * 9 / 2 is the first inexact step of the walk
try:
    counting.count_paths_dp(10, 0, 2, 3)
    print("planted walk start passed")
except RuntimeError as exc:
    print("planted walk start raised:", exc)
# C(10, 0) planted as 2 doubles every value of the walk and keeps each
# division exact; the walk ends at 2, not at C(10, 10) = 1
try:
    counting.count_paths_dp(10, 0, 0, 3)
    print("planted walk multiple passed")
except RuntimeError as exc:
    print("planted walk multiple raised:", exc)
try:
    counting._convolve([1, 2], [1, 1], range(3))
    print("term past b passed")
except ValueError as exc:
    print("term past b raised:", exc)
try:
    Path("UxD")
    print("bad step passed")
except ValueError as exc:
    print("bad step raised:", exc)
try:
    inverse(Path("DU"))
    print("inverse of DU passed")
except ValueError as exc:
    print("inverse of DU raised:", exc)
p, q = Path("UUUDDD"), Path("UD")
print("heights read", p.height, q.height)
try:
    RestrictedPair(p, q)
    print("kept heights passed")
except ValueError as exc:
    print("kept heights raised:", exc)
# UDD's floor is read first; the range pass it makes is the one the pair reads
q = Path("UDD")
print("floor read", q.is_ballot())
try:
    RestrictedPair(Path("UD"), q)
    print("kept floor passed")
except ValueError as exc:
    print("kept floor raised:", exc)
# F1, the points before index 6, reaches level 3, the top of F2
try:
    IntermediatePath(Path("UUUDDUUD"), 6)
    print("high F1 passed")
except ValueError as exc:
    print("high F1 raised:", exc)
for build in (lambda: RestrictedPair(Path("UD"), Path(""))._replace(p=Path("DU")),
              lambda: IntermediatePath._make((Path("UUUD"), 3)),
              lambda: PathClass(max_height=1)._replace(exact_height=1)):
    try:
        build()
        print("invalid record passed")
    except ValueError as exc:
        print("invalid record raised:", exc)
for order in (2.0, "3"):
    try:
        run_identity("e2", order)
        print("non-int order passed")
    except TypeError as exc:
        print("non-int order raised:", exc)
print("bool order", repr(run_identity("e2", True).order))
"""


def test_checks_survive_optimize_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "order 2 []",
        "t3-main True",
        "lemma-main True",
        "roundtrips True",
        "planted u raised: rightmost level-1 point of F must precede an up step",
        "planted y raised: leftmost highest point of F must follow an up step",
        "doubled k = 6 term False 16 main series identity",
        "planted e-mo Mismatch(power=(3, 4), lhs=70, rhs=71)",
        "short tail raised: cannot compare coefficient lists of lengths 11 and 10",
        "inexact coefficient raised: coefficients must be integers, not Fraction",
        "inexact coefficient raised: coefficients must be integers, not float",
        "inexact coefficient raised: coefficients must be integers, not Fraction",
        "inexact coefficient raised: coefficients must be integers, not float",
        "inexact coefficient raised: coefficients must be integers, not Fraction",
        "inexact coefficient raised: coefficients must be integers, not float",
        "non-integer result raised: constant term must be 1 or -1, not 2",
        "non-integer result raised: constant term must be 1 or -1, not 2",
        "non-integer result raised: constant term must be 1 or -1, not 2",
        "non-integer result raised: the t^1 coefficient of the square root is not an integer",
        "planted start value raised: 2T(2,1) is not an integer",
        "planted walk start raised: a binomial coefficient of row 10 is not an integer",
        "planted walk multiple raised: the walk along row 10 does not end at C(10, 10) = 1",
        "term past b raised: term 2 is past the 2 coefficients of b",
        "bad step raised: invalid step 'x': steps are 'U' or 'D'",
        "inverse of DU raised: input is not a Dyck path",
        "heights read 3 1",
        "kept heights raised: height condition h(p) <= h(q) + 1 violated",
        "floor read False",
        "kept floor raised: q is not a Dyck path",
        "high F1 raised: first portion must stay strictly below the second",
        "invalid record raised: p is not a Dyck path",
        "invalid record raised: boundary point must have level 2",
        "invalid record raised: max_height and exact_height are mutually exclusive",
        "non-int order raised: order must be an int, not float",
        "non-int order raised: order must be an int, not str",
        "bool order 1",
    ]


def test_super_catalan_guard_survives_optimize_flag():
    # 4! planted as 25 leaves (4! 10!) / (2 * 2! 5! 7!) inexact for T(2,5)
    script = """
from math import factorial
from supercat import counting
counting.factorial = lambda n: factorial(n) + (n == 4)
try:
    counting.super_catalan(2, 5)
    print("planted factorial passed")
except RuntimeError as exc:
    print("planted factorial raised:", exc)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "planted factorial raised: T(2,5) is not an integer\n"
