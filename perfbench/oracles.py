"""Independent oracles for the benchmark's output checks.

Nothing here imports supercat: each value is computed by a route other than
the one the program takes (closed formulas and recurrences instead of
transfer tables, enumeration and factorials), so a defect in the program
cannot also hide in its check.
"""

from __future__ import annotations

import random
from math import comb


def catalan(n: int) -> int:
    """C_n = C(2n, n) - C(2n, n + 1)."""
    return comb(2 * n, n) - comb(2 * n, n + 1)


def _free_paths(steps: int, end: int) -> int:
    """Unconstrained +-1 paths of `steps` steps from 0 to `end`."""
    if abs(end) > steps or (steps + end) % 2:
        return 0
    return comb(steps, (steps + end) // 2)


def strip_count(steps: int, end: int, height: int | None = None) -> int:
    """Paths from 0 to `end` that stay in [0, height] ([0, oo) for None).

    Reflection principle: with walls at -1 and height + 1 the admissible
    paths are an alternating sum of free paths to the images of `end` under
    the reflection group, whose period is 2 * (height + 2).
    """
    if end < 0 or (height is not None and (height < 0 or end > height)):
        return 0
    if height is None:
        return _free_paths(steps, end) - _free_paths(steps, -2 - end)
    period = 2 * (height + 2)
    reach = steps // period + 2
    return sum(_free_paths(steps, end + k * period)
               - _free_paths(steps, -2 - end + k * period)
               for k in range(-reach, reach + 1))


def exact_height_count(steps: int, end: int, height: int) -> int:
    """Nonnegative paths from 0 to `end` whose highest level is `height`."""
    return strip_count(steps, end, height) - strip_count(steps, end, height - 1)


def super_catalan_row(m: int, n_max: int) -> list[int]:
    """[T(m, 0), ..., T(m, n_max)] from 2T(m,0) = C(2m,m) and
    2T(m,n+1) = 2T(m,n) * 2(2n+1) / (m+n+1); for m = 0 the doubled row."""
    doubled = comb(2 * m, m)
    row = [doubled]
    for n in range(n_max):
        doubled = doubled * 2 * (2 * n + 1) // (m + n + 1)
        row.append(doubled)
    return row if m == 0 else [value // 2 for value in row]


def pair_count(n: int, diff: int) -> int:
    """Ordered pairs of Dyck paths of total semilength n whose heights differ
    by at most `diff`, for the two gaps with a closed form."""
    if diff == 1:
        return 4 * catalan(n) - catalan(n + 1)
    if diff >= n:
        return catalan(n + 1)
    raise ValueError(f"no closed form for diff={diff} at n={n}")


def dyck_height(steps: str) -> int | None:
    """Height of a Dyck path over U/D, or None if it is not a Dyck path."""
    level = peak = 0
    for ch in steps:
        if ch == "U":
            level += 1
            if level > peak:
                peak = level
        elif ch == "D":
            level -= 1
            if level < 0:
                return None
        else:
            return None
    return peak if level == 0 else None


def is_restricted_pair(p: str, q: str) -> bool:
    """P nonempty, P and Q Dyck paths, h(P) <= h(Q) + 1."""
    hp, hq = dyck_height(p), dyck_height(q)
    return bool(p) and hp is not None and hq is not None and hp <= hq + 1


def random_dyck(rng: random.Random, n: int) -> str:
    """A uniform random Dyck path of semilength n, by the cycle lemma.

    Of the 2n + 1 rotations of a word with n U's and n + 1 D's exactly one is
    a Dyck path followed by D: the rotation that starts just after the first
    lowest point.  Every Dyck path arises from 2n + 1 words, so shuffling
    the word uniformly makes the path uniform.
    """
    word = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(word)
    level = low = cut = 0
    for i, ch in enumerate(word):
        level += 1 if ch == "U" else -1
        if level < low:
            low, cut = level, i + 1
    rotated = word[cut:] + word[:cut]
    return "".join(rotated[:-1])
