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
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice_paths import DOWN, UP, Path, enumerate_dyck


@dataclass(frozen=True)
class RestrictedPair:
    """A pair (p, q) of Dyck paths with p nonempty and h(p) <= h(q) + 1."""

    p: Path
    q: Path

    def __post_init__(self):
        if len(self.p) == 0:
            raise ValueError("p must be nonempty")
        if not self.p.is_dyck():
            raise ValueError("p is not a Dyck path")
        if not self.q.is_dyck():
            raise ValueError("q is not a Dyck path")
        if self.p.height > self.q.height + 1:
            raise ValueError("height condition h(p) <= h(q) + 1 violated")

    @property
    def total_semilength(self) -> int:
        return (len(self.p) + len(self.q)) // 2


@dataclass(frozen=True)
class IntermediatePath:
    """F = F1·F2 with an explicit index for the first point of F2.

    The boundary point has level 2 and belongs to F2, so the F1 portion is the
    points strictly before it.  Keeping the index explicit disambiguates the
    case where F2 has no steps.
    """

    path: Path
    boundary: int

    def __post_init__(self):
        f = self.path
        if not f.is_ballot() or f.end_level != 2:
            raise ValueError("intermediate path must be nonnegative and end at level 2")
        if not 1 <= self.boundary <= len(f):
            raise ValueError("boundary index outside path")
        if f.levels[self.boundary] != 2:
            raise ValueError("boundary point must have level 2")
        if max(f.levels[:self.boundary]) >= max(f.levels[self.boundary:]):
            raise ValueError("first portion must stay strictly below the second")


@dataclass(frozen=True)
class BijectionTrace:
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

    def to_dict(self) -> dict:
        """JSON-ready form, consumed by the SVG renderer."""
        return {
            "pair": {"p": self.pair.p.steps, "q": self.pair.q.steps},
            "intermediate": {
                "path": self.intermediate.path.steps,
                "boundary": self.intermediate.boundary,
            },
            "points": {
                "u": self.u,
                "v": self.v,
                "v_prime": self.v_prime,
                "x": self.x,
                "y": self.y,
                "y_prime": self.y_prime,
            },
            "output": self.output.steps,
        }


def trace(pair: RestrictedPair) -> BijectionTrace:
    """Apply both surgeries to `pair`, recording every landmark."""
    p, q = pair.p, pair.q
    if p.steps[-1] != DOWN:
        raise RuntimeError("a nonempty Dyck path must end with a down step")
    f = Path(p.steps[:-1] + UP + q.steps)
    boundary = len(p)
    intermediate = IntermediatePath(f, boundary)

    y = f.levels.index(f.height)  # leftmost highest point
    if y < boundary:
        raise RuntimeError("leftmost highest point of F must lie in F2")
    if f.steps[y - 1] != UP:
        raise RuntimeError("leftmost highest point of F must follow an up step")
    output = Path(f.steps[:y - 1] + DOWN + f.steps[y:])
    if not output.is_dyck():
        raise RuntimeError("surgery 2 must yield a Dyck path")

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
    return trace(pair).output


def inverse(d: Path) -> RestrictedPair:
    """Recover the unique restricted pair that maps to the Dyck path `d`."""
    if len(d) == 0:
        raise ValueError("the empty path has no preimage")
    if not d.is_dyck():
        raise ValueError("input is not a Dyck path")

    # undo surgery 2: x is the rightmost highest point; re-raise the tail
    x = len(d.levels) - 1 - d.levels[::-1].index(d.height)
    if d.steps[x] != DOWN:
        raise RuntimeError("rightmost highest point must precede a down step")
    f = Path(d.steps[:x] + UP + d.steps[x + 1:])

    # undo surgery 1: u is the rightmost level-1 point of F
    u = len(f.levels) - 1 - f.levels[::-1].index(1)
    if f.steps[u] != UP:
        raise RuntimeError("rightmost level-1 point of F must precede an up step")
    boundary = u + 1
    p = Path(f.steps[:boundary - 1] + DOWN)
    q = Path(f.steps[boundary:])
    return RestrictedPair(p, q)


def enumerate_restricted_pairs(n: int) -> list[RestrictedPair]:
    """All restricted pairs of total semilength n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _restricted_pairs(n, [enumerate_dyck(a) for a in range(n + 1)])


def _restricted_pairs(n: int, dycks: list[list[Path]]) -> list[RestrictedPair]:
    """The restricted pairs of total semilength n, built from dycks[a], the
    Dyck paths of semilength a for every a <= n, so a caller covering many n
    enumerates each semilength once.  P runs over semilengths 1..n, then over
    dycks[a], then Q over dycks[n - a]."""
    out = []
    for a in range(1, n + 1):
        qs = [(q, q.height) for q in dycks[n - a]]
        for p in dycks[a]:
            hp = p.height
            for q, hq in qs:
                if hp <= hq + 1:
                    out.append(RestrictedPair(p, q))
    return out
