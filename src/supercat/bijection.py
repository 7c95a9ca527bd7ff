"""A constructive bijection between restricted Dyck-path pairs and Dyck paths.

The domain is the set of pairs (P, Q) of Dyck paths of total semilength n with
P nonempty and h(P) <= h(Q) + 1; the image is the set of Dyck paths of
semilength n.  The map performs two local surgeries:

  1. P's final down step u -> v is replaced by an up step u -> v', and Q is
     raised two levels and appended, giving F = F1·F2.  F ends at level 2 and
     stays nonnegative.  The junction point v' is attributed to F2 (even when
     F2 has no steps), so the portion holding the maximum of F is always F2.
  2. With y the leftmost highest point of F, the up step x -> y is replaced by
     a down step x -> y', lowering everything after it two levels.  The result
     is a Dyck path.

The inverse recovers the surgeries from two canonical landmarks: x is the
rightmost highest point of the output, and u is the rightmost level-1 point of
the intermediate path F.  Both directions validate these landmarks at runtime.

`forward` and `inverse` run the surgeries on step strings in two private
cores and build Path objects only for their input and output; `trace` takes
its output from the same forward core and builds and validates every
intermediate object around it, for diagrams and debugging.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .lattice_paths import (DOWN, UP, Path, PathClass, _ballot_words,
                            _checked_make)


class RestrictedPair(NamedTuple("RestrictedPair", [("p", Path), ("q", Path)])):
    """A pair (p, q) of Dyck paths with p nonempty and h(p) <= h(q) + 1."""

    __slots__ = ()

    def __new__(cls, p: Path, q: Path):
        if len(p) == 0:
            raise ValueError("p must be nonempty")
        if not p.is_dyck():
            raise ValueError("p is not a Dyck path")
        if not q.is_dyck():
            raise ValueError("q is not a Dyck path")
        if p.height > q.height + 1:
            raise ValueError("height condition h(p) <= h(q) + 1 violated")
        return super().__new__(cls, p, q)

    _make = _checked_make


class IntermediatePath(NamedTuple("IntermediatePath",
                                  [("path", Path), ("boundary", int)])):
    """F = F1·F2 with an explicit index for the first point of F2.

    The boundary point has level 2 and belongs to F2, so the F1 portion is the
    points strictly before it.  Keeping the index explicit disambiguates the
    case where F2 has no steps.
    """

    __slots__ = ()

    def __new__(cls, path: Path, boundary: int):
        if not path.is_ballot() or path.end_level != 2:
            raise ValueError("intermediate path must be nonnegative and end at level 2")
        if not 1 <= boundary <= len(path):
            raise ValueError("boundary index outside path")
        if path.levels[boundary] != 2:
            raise ValueError("boundary point must have level 2")
        # F1 stays strictly below F2 exactly when F's leftmost top is in F2
        if path.levels.index(path.height) < boundary:
            raise ValueError("first portion must stay strictly below the second")
        return super().__new__(cls, path, boundary)

    _make = _checked_make


class BijectionTrace(NamedTuple):
    """Full record of one application of the map, for diagrams and debugging.

    Point indices: u and v live in pair.p (u also indexes the same point of F);
    v_prime, x and y live in the intermediate path; x and y_prime also index
    the corresponding points of the output path.
    """

    pair: RestrictedPair
    intermediate: IntermediatePath
    u: int
    v: int
    v_prime: int
    x: int
    y: int
    y_prime: int
    output: Path


def trace(pair: RestrictedPair) -> BijectionTrace:
    """Apply both surgeries to `pair`, recording every landmark.

    The output comes from the same string core as `forward`; the intermediate
    path and the landmarks are built here and checked against it.
    """
    p, q = pair.p, pair.q
    output, q_peak = _forward_path(pair)
    f = Path(p.steps[:-1] + UP + q.steps)
    boundary = len(p)
    intermediate = IntermediatePath(f, boundary)

    y = f.levels.index(f.height)  # leftmost highest point
    if y != boundary + q_peak:
        raise RuntimeError("leftmost highest point of F must be the first peak of F2")

    return BijectionTrace(
        pair=pair,
        intermediate=intermediate,
        u=len(p) - 1,
        v=len(p),
        v_prime=boundary,
        x=y - 1,
        y=y,
        y_prime=y,
        output=output,
    )


def forward(pair: RestrictedPair) -> Path:
    """Map a restricted pair to a Dyck path of the same total semilength."""
    return _forward_path(pair)[0]


def _forward_path(pair: RestrictedPair) -> tuple[Path, int]:
    """forward's image as a checked Path, with q's leftmost highest point."""
    p, q = pair.p, pair.q
    hq = q.height
    q_peak = q.levels.index(hq)
    output = Path(_forward_core(p.steps, q.steps, p.height, hq, q_peak))
    if not output.is_dyck():
        raise RuntimeError("surgery 2 must yield a Dyck path")
    return output, q_peak


def _check_preimage(d: Path) -> None:
    """Refuse a path with no restricted pair mapping to it: the empty path
    and any path that is not Dyck."""
    if len(d) == 0:
        raise ValueError("the empty path has no preimage")
    if not d.is_dyck():
        raise ValueError("input is not a Dyck path")


def inverse(d: Path) -> RestrictedPair:
    """Recover the unique restricted pair that maps to the Dyck path `d`."""
    _check_preimage(d)
    p, q = _inverse_core(d.steps, d.levels, d.height)
    return RestrictedPair(Path(p), Path(q))


def _forward_core(p: str, q: str, hp: int, hq: int, q_peak: int) -> str:
    """Both surgeries on step strings: p nonempty Dyck of height hp, q Dyck
    of height hq whose leftmost highest point is q_peak.

    F = p[:-1]·U·q keeps p's points before v' (maximum hp) and raises q's by
    two (maximum hq + 2).  So the leftmost highest point y of F lies in F2
    exactly when hp <= hq + 1, and then y = len(p) + q_peak.  The output is
    then a Dyck path: its points from y on are q's, at q's own levels.
    """
    if p[-1] != DOWN:
        raise RuntimeError("a nonempty Dyck path must end with a down step")
    if hp > hq + 1:
        raise RuntimeError("leftmost highest point of F must lie in F2")
    f = p[:-1] + UP + q
    y = len(p) + q_peak
    if f[y - 1] != UP:
        raise RuntimeError("leftmost highest point of F must follow an up step")
    return f[:y - 1] + DOWN + f[y:]


def _inverse_core(d: str, levels: Sequence[int], h: int) -> tuple[str, str]:
    """Undo both surgeries on a nonempty Dyck step string d with the given
    levels and height h; returns the step strings of p and q.

    x is the rightmost highest point of d.  F = d[:x]·U·d[x+1:] has d's
    levels up to x and d's levels plus two after it, so F's rightmost
    level-1 point u is d's rightmost level-1 point at or before x.
    """
    x = len(levels) - 1 - levels[::-1].index(h)
    if d[x] != DOWN:
        raise RuntimeError("rightmost highest point must precede a down step")
    f = d[:x] + UP + d[x + 1:]
    u = x - levels[x::-1].index(1)
    if f[u] != UP:
        raise RuntimeError("rightmost level-1 point of F must precede an up step")
    return f[:u] + DOWN, f[u + 1:]


def enumerate_restricted_pairs(n: int) -> list[RestrictedPair]:
    """All restricted pairs of total semilength n, in `_restricted_words`
    order; each Dyck path is built once and shared by its pairs."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    words = _dyck_words(n)
    paths = {w: Path(w) for ws in words for w, _, _ in ws}
    return [RestrictedPair(paths[p], paths[q])
            for p, q, _, _, _ in _restricted_words(n, words)]


def _dyck_words(n_max: int) -> list[list[tuple[str, int, int]]]:
    """The Dyck words of semilengths 0..n_max as (steps, height, first peak).

    The words of semilength a all have 2a steps and start and end at level
    0, so lemma-main reads the levels of many of them from one level pass
    over their joined steps."""
    return [_ballot_words(PathClass(end_level=0), 2 * a) for a in range(n_max + 1)]


def _restricted_words(n: int, words: Sequence[Sequence[tuple[str, int, int]]]
                      ) -> Iterator[tuple[str, str, int, int, int]]:
    """The restricted pairs of total semilength n as (p, q, hp, hq, q_peak)
    step strings and landmarks, from `_dyck_words` of at least n.

    P runs over semilengths 1..n, then over the Dyck paths of that semilength,
    then Q over those of the rest; a pair is kept when hp <= hq + 1.
    """
    for a in range(1, n + 1):
        qs = words[n - a]
        for p, hp, _ in words[a]:
            for q, hq, q_peak in qs:
                if hp <= hq + 1:
                    yield p, q, hp, hq, q_peak
