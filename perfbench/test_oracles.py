"""The benchmark's oracles against small brute-force counts."""

import random
from collections import Counter
from itertools import accumulate, product
from math import factorial

import pytest

import oracles


def _words(steps):
    return ("".join(w) for w in product("UD", repeat=steps))


def _levels(word):
    return [0] + list(accumulate(1 if ch == "U" else -1 for ch in word))


def _dyck_words(n):
    return [w for w in _words(2 * n)
            if min(_levels(w)) >= 0 and _levels(w)[-1] == 0]


@pytest.mark.parametrize("steps", range(0, 13))
def test_strip_count_matches_brute_force(steps):
    tally = Counter()
    for word in _words(steps):
        levels = _levels(word)
        if min(levels) >= 0:
            tally[levels[-1], max(levels)] += 1
    for end in range(steps + 2):
        unbounded = sum(c for (e, _), c in tally.items() if e == end)
        assert oracles.strip_count(steps, end) == unbounded
        for height in range(-1, 8):
            capped = sum(c for (e, h), c in tally.items() if e == end and h <= height)
            exact = tally[end, height]
            assert oracles.strip_count(steps, end, height) == capped
            assert oracles.exact_height_count(steps, end, height) == exact


def test_super_catalan_row_matches_factorials():
    for m in range(0, 12):
        row = oracles.super_catalan_row(m, 15)
        for n, value in enumerate(row):
            num = factorial(2 * m) * factorial(2 * n)
            den = factorial(m) * factorial(n) * factorial(m + n)
            assert value == (num // den if m == 0 else num // (2 * den))


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_count_matches_brute_force(n):
    heights = {a: [max(_levels(w)) for w in _dyck_words(a)] for a in range(n + 1)}
    for diff in (1, n, n + 3):
        brute = sum(1 for a in range(n + 1) for hp in heights[a]
                    for hq in heights[n - a] if abs(hp - hq) <= diff)
        assert oracles.pair_count(n, diff) == brute
    if n >= 3:
        with pytest.raises(ValueError):
            oracles.pair_count(n, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_height_scan_and_restriction(n):
    restricted = 0
    for a in range(1, n + 1):
        for p in _dyck_words(a):
            assert oracles.dyck_height(p) == max(_levels(p))
            for q in _dyck_words(n - a):
                ok = max(_levels(p)) <= max(_levels(q)) + 1
                assert oracles.is_restricted_pair(p, q) == ok
                restricted += ok
    assert restricted == oracles.catalan(n)
    dyck = set(_dyck_words(n))
    for word in _words(2 * n):
        if word not in dyck:
            assert oracles.dyck_height(word) is None
            assert not oracles.is_restricted_pair(word, "")


def test_random_dyck_is_uniform():
    rng = random.Random(7)
    n, draws = 4, 2800
    seen = Counter(oracles.random_dyck(rng, n) for _ in range(draws))
    assert set(seen) == set(_dyck_words(n))
    expected = draws / oracles.catalan(n)
    assert all(abs(c - expected) < 0.35 * expected for c in seen.values())
    assert oracles.dyck_height(oracles.random_dyck(rng, 1000)) is not None
