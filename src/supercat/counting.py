"""Exact integer counting: Catalan and super Catalan numbers, path tables from
one transfer recurrence, and single path counts and the height table of pair
counts by the reflection principle (André; de Bruijn, Knuth and Rice 1972)."""

from __future__ import annotations

from math import comb, factorial, inf
from operator import add, itemgetter, mul

from .lattice_paths import PathClass


def catalan(n: int) -> int:
    """(2n)!/(n!(n+1)!), the number of Dyck paths of semilength n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def super_catalan(m: int, n: int) -> int:
    """(2m)!(2n)! / (2 m! n! (m+n)!), an integer for every (m, n) != (0, 0)."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    if m == 0 and n == 0:
        raise ValueError("value at (0, 0) is 1/2, not an integer")
    num = factorial(2 * m) * factorial(2 * n)
    den = 2 * factorial(m) * factorial(n) * factorial(m + n)
    return exact_div(num, den, f"T({m},{n})")


def exact_div(num: int, den: int, what: str) -> int:
    """num // den, raising RuntimeError if den does not divide num."""
    quotient, rest = divmod(num, den)
    if rest:
        raise RuntimeError(f"{what} is not an integer")
    return quotient


def super_catalan_row(m: int, n_max: int) -> list[int]:
    """The doubled row 2T(m, n) for n = 0..n_max, an integer row even at
    m = 0, where T(0, 0) = 1/2.

    Built by the ratio recurrence 2T(m, 0) = C(2m, m),
    2T(m, n + 1) = 2T(m, n) * 2(2n + 1) / (m + n + 1): one big-integer by
    small-integer product and one exact division per entry, where
    super_catalan builds each value from factorials.  Every division is
    checked exact."""
    if m < 0 or n_max < 0:
        raise ValueError("m and n_max must be nonnegative")
    value = comb(2 * m, m)
    row = [value]
    for n in range(n_max):
        value = exact_div(value * (4 * n + 2), m + n + 1, f"2T({m},{n + 1})")
        row.append(value)
    return row


class CountTable:
    """Step-by-step counts of nonnegative paths under a height cap.

    rows[s][j] is the number of paths with s steps from `start_level` to level
    j that never leave [0, max_height] (no cap when max_height is None).
    """

    def __init__(self, steps: int, max_height: int | None = None, start_level: int = 0):
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        if start_level < 0:
            raise ValueError("start_level must be nonnegative")
        self.max_height = max_height
        self.start_level = start_level
        cap = max_height if max_height is not None else start_level + steps
        row = [0] * max(cap + 1, 0)
        if start_level < len(row):
            row[start_level] = 1
        self.rows = [row]
        for _ in range(steps):
            if row:
                row = list(map(add, [0] + row[:-1], row[1:] + [0]))
            self.rows.append(row)

    def count(self, step: int, level: int) -> int:
        if not 0 <= step < len(self.rows):
            raise ValueError(f"step {step} outside table")
        row = self.rows[step]
        return row[level] if 0 <= level < len(row) else 0

    def column(self, level: int) -> tuple[int, ...]:
        """count(s, level) for every step s of the table.  Every row has
        the length of the first."""
        if 0 <= level < len(self.rows[0]):
            return tuple(map(itemgetter(level), self.rows))
        return (0,) * len(self.rows)


def _strip_sum(row: list[int], up: int, down: int, period: int) -> int:
    """The sum of row[j] over j = up (mod period) minus the sum over
    j = down (mod period).  On a row of Pascal's triangle, whose entry j
    counts the free paths with j up steps, this is the reflection principle
    at both walls of a strip of period - 1 levels: the two classes hold the
    free paths reflected an even and an odd number of times."""
    return sum(row[up % period::period]) - sum(row[down % period::period])


def count_paths_dp(steps: int, start_level: int, end_level: int,
                   max_height: int | None = None) -> int:
    """Paths of `steps` up/down steps from start_level to end_level that never
    leave [0, max_height] (no cap when max_height is None).

    Counted by the reflection principle (André), applied again at each wall
    of the strip: with u = (steps + end_level - start_level) / 2 up steps
    and h = max_height, the count is `_strip_sum` of row `steps` of Pascal's
    triangle with residues u and u - end_level - 1 (mod h + 2).  One forward
    walk takes the row from C(steps, first), first the lower of the two
    residues, since no entry before it is summed, and adds each entry of the
    two summed residue classes into a running sum for its class, so that
    `_strip_sum` reads a row of one sum per residue.  Without a cap, or with
    one no path can reach, only j = u and j = u - end_level - 1 are in
    range.  The narrowest strips need no walk:
    a path that takes a step has none under cap 0 and one under cap 1.
    Every division is checked exact, and the walk must end at
    C(steps, steps) = 1."""
    for name, value in (("end_level", end_level), ("steps", steps),
                        ("start_level", start_level)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    if abs(end_level - start_level) > steps or (start_level + end_level + steps) % 2:
        return 0
    up = (steps + end_level - start_level) // 2
    down = up - end_level - 1  # up steps of the paths reflected at level -1
    # no path climbs above reach and still comes back down to end_level
    reach = (start_level + end_level + steps) // 2
    if max_height is None or max_height >= reach:
        return comb(steps, up) - (comb(steps, down) if down >= 0 else 0)
    if max_height < max(start_level, end_level):
        return 0
    if max_height < 2:
        # every step is forced: no step stays on the single level of cap 0,
        # and under cap 1 exactly one path zigzags between levels 0 and 1
        return max_height
    period = max_height + 2
    first = min(up % period, down % period)
    summed = {up % period, down % period}
    what = f"a binomial coefficient of row {steps}"
    value, sums = comb(steps, first), [0] * period
    for j in range(first, steps):
        if j % period in summed:
            sums[j % period] += value
        value = exact_div(value * (steps - j), j + 1, what)
    # a wrong start value that is a multiple of C(steps, first) keeps every
    # division exact, so the walk's last value is checked on its own
    if value != 1:
        raise RuntimeError(f"the walk along row {steps} does not end at "
                           f"C({steps}, {steps}) = 1")
    sums[steps % period] += value
    return _strip_sum(sums, up, down, period)


def count_ballot_dp(path_class: PathClass, steps: int) -> int:
    """|enumerate_ballot(path_class, steps)| without enumerating, by the
    reflection count of count_paths_dp.

    Exact-height classes are counted as (height <= h) - (height <= h-1).
    """
    end, h = path_class.end_level, path_class.exact_height
    if h is not None:
        return count_paths_dp(steps, 0, end, h) - count_paths_dp(steps, 0, end, h - 1)
    return count_paths_dp(steps, 0, end, path_class.max_height)


def _height_table(n: int) -> list[list[int]]:
    """B[a][h + 1] = Dyck paths of semilength a and height at most h, for a <= n
    and -1 <= h <= n, by reflection at both walls of the strip [0, h]:
    `_strip_sum` of row 2a of Pascal's triangle, built by addition alone,
    with residues a and a - 1 (mod h + 2)."""
    table, row = [], [1]
    for a in range(n + 1):
        table.append([0] + [_strip_sum(row, a, a - 1, h + 2) for h in range(n + 1)])
        for _ in range(2):
            row = list(map(add, [0] + row, row + [0]))
    return table


def _convolve(a: list[int], b: list[int], ks: range) -> list[int]:
    """Terms k in ks of the product of the int polynomials a and b, each one
    dot product of a with b reversed from b[k] down to b[0].  a may be
    shorter or longer than b, but every k must index b."""
    if max(ks, default=-1) >= len(b):
        raise ValueError(f"term {max(ks)} is past the {len(b)} coefficients of b")
    reverse, last = b[::-1], len(b) - 1
    return [sum(map(mul, a, reverse[last - k:])) for k in ks]


def _pair_counts(ns: range, band) -> list[int]:
    """Entry n, for every n in the range ns, counts the ordered pairs (P, Q)
    of Dyck paths of total semilength n with lo <= h(Q) <= hi,
    (lo, hi) = band(h(P)), where hi >= lo - 1 and hi may be inf.  Entries
    below ns.start are 0: a range of one n counts no other n.

    For each h(P), the exact-height column B[a][h(P) + 1] - B[a][h(P)] from
    a = h(P) meets the Q-height window column B[b][hi + 1] - B[b][lo] from
    b = lo in one `_convolve`, whose term k counts the pairs at
    n = h(P) + lo + k: one dot product per height of P and per n in ns."""
    if ns.start < 0:
        raise ValueError("n must be nonnegative")
    table = _height_table(ns.stop - 1)
    counts = [0] * ns.stop
    for hp in range(ns.stop):
        lo, hi = band(hp)
        lo, hi = max(lo, 0), min(hi + 1, ns.stop)  # as indices into a row of B
        exact = [row[hp + 1] - row[hp] for row in table[hp:]]
        window = [row[hi] - row[lo] for row in table[lo:]]
        first = max(ns.start, hp + lo)  # no pair at this h(P) below hp + lo
        terms = _convolve(exact, window, range(first - hp - lo, ns.stop - hp - lo))
        counts[first:] = map(add, counts[first:], terms)
    return counts


def _e_band(hp: int) -> tuple[int, float]:  # E has no pair with P empty
    return (hp - 1, inf) if hp else (0, -1)


def count_pairs_height_diff(n: int, d: int) -> int:
    """Ordered pairs (P, Q) of Dyck paths of total semilength n with
    |h(P) - h(Q)| <= d."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return _pair_counts(range(n, n + 1), lambda hp: (hp - d, hp + d))[n]


def count_E_set(n: int) -> int:
    """Pairs (P, Q) of Dyck paths of total semilength n with P nonempty (the
    empty path is the only one of height 0) and h(P) <= h(Q) + 1."""
    return _pair_counts(range(n, n + 1), _e_band)[n]


def count_F_set(n: int) -> int:
    """Like count_E_set but P may be empty."""
    return _pair_counts(range(n, n + 1), lambda hp: (hp - 1, inf))[n]
