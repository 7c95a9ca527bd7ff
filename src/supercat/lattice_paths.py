"""Up/down lattice paths: representation, predicates, factorization, enumeration.

Paths take unit steps (1, 1) and (1, -1) and start at level 0.  The canonical
text encoding is a string over {U, D}; the empty string is the empty path.
A Path reads its levels off its own steps in one signed-byte pass; one range
pass over those levels, made when first needed and kept, gives both its
height and its floor, and it is nonnegative exactly when its floor is 0.
All values are immutable after construction and every function here is pure.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

UP = "U"
DOWN = "D"
# byte -> signed step as an unsigned byte: U -> 1, D -> -1 (0xff), else 0
_SIGNED = bytes(1 if b == ord(UP) else 0xFF if b == ord(DOWN) else 0
                for b in range(256))


def _levels(steps: str) -> tuple[int, ...]:
    """The level at every point of `steps`, starting with 0.

    The steps become signed bytes in one encode and one translate, one byte
    per character: a character outside ASCII, lone surrogates included,
    encodes as '?', and every byte but U and D translates to 0.  So one scan
    for 0 finds the first bad step, and the levels are one accumulate over
    the bytes read as signed, through a memoryview cast.
    """
    signed = steps.encode("ascii", "replace").translate(_SIGNED)
    if 0 in signed:
        raise ValueError(f"invalid step {steps[signed.index(0)]!r}: "
                         f"steps are {UP!r} or {DOWN!r}")
    # through a list: a tuple grown from an iterator is resized again and
    # again, which is slower on long paths and leaves more of the heap
    # fragmented (peak RSS)
    return tuple(list(accumulate(memoryview(signed).cast("b"), initial=0)))


def _level_range(levels: tuple[int, ...]) -> tuple[int, int]:
    """(lowest, highest) of `levels`, from one pass that gathers them in a set.

    Levels move by one, so the set holds at most height - floor + 1 small
    ints and min and max over it cost next to nothing; one pass over the
    levels gives both ends, where a max scan and a floor scan took two.
    """
    seen = set(levels)
    return min(seen), max(seen)


class Path:
    """A path of up/down unit steps starting at level 0.

    `levels` holds the level at every point of the path, so it always has one
    more entry than `steps` and starts with 0.  The lowest and highest levels
    come from one range pass over them, made the first time the height or
    either floor test is read and kept for the others.
    """

    __slots__ = ("steps", "levels", "_range")

    def __init__(self, steps: str = ""):
        self.levels = _levels(steps)
        self.steps = steps
        self._range = None

    def _bounds(self) -> tuple[int, int]:
        """(lowest, highest) level, from the kept range pass."""
        bounds = self._range
        if bounds is None:
            bounds = self._range = _level_range(self.levels)
        return bounds

    @property
    def height(self) -> int:
        """Highest level reached; 0 for the empty path."""
        return self._bounds()[1]

    @property
    def end_level(self) -> int:
        return self.levels[-1]

    def is_dyck(self) -> bool:
        """True iff the path never goes below level 0 and ends at level 0."""
        return self.levels[-1] == 0 and self.is_ballot()

    def is_ballot(self) -> bool:
        """True iff the path never goes below level 0 (any end level).

        The floor test reads the lowest level of the range pass, which scans
        every level, so a path that dips below 0 is scanned in full too.
        """
        return self._bounds()[0] >= 0

    def __len__(self) -> int:
        return len(self.steps)

    def __bool__(self) -> bool:
        return bool(self.steps)

    def __add__(self, other: "Path") -> "Path":
        return Path(self.steps + other.steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __str__(self) -> str:
        return self.steps

    def __repr__(self) -> str:
        return f"Path({self.steps!r})"


@classmethod
def _checked_make(cls, iterable):
    """The `_make` of a record that checks its fields in __new__: the
    inherited one, and so `_replace`, would skip the checks."""
    return cls(*iterable)


class PathClass(NamedTuple("PathClass", [("end_level", int),
                                          ("max_height", int | None),
                                          ("exact_height", int | None)])):
    """Constraint descriptor for nonnegative paths.

    Combines a required end level with an optional height bound.  `max_height`
    and `exact_height` are mutually exclusive.  A negative height bound denotes
    the empty class: nothing satisfies it, not even the empty path.  Vacuous
    combinations (e.g. end level above the bound) are representable and simply
    enumerate to nothing.
    """

    __slots__ = ()

    def __new__(cls, end_level: int = 0, max_height: int | None = None,
                exact_height: int | None = None):
        if end_level < 0:
            raise ValueError("end_level must be nonnegative")
        if max_height is not None and exact_height is not None:
            raise ValueError("max_height and exact_height are mutually exclusive")
        return super().__new__(cls, end_level, max_height, exact_height)

    _make = _checked_make

    @property
    def height_bound(self) -> int | None:
        """The level cap enumeration may not exceed (None = unbounded)."""
        return self.exact_height if self.exact_height is not None else self.max_height

    def contains(self, p: Path) -> bool:
        if not p.is_ballot() or p.end_level != self.end_level:
            return False
        if self.exact_height is not None:
            return p.height == self.exact_height
        if self.max_height is not None:
            return p.height <= self.max_height
        return True


def factor_dyck(p: Path) -> tuple[Path, Path]:
    """Split a nonempty Dyck path as U·P·D·Q, cutting at the first return to 0.

    The decomposition is unique: U is the opening up step and D the step of the
    first return to level 0; P and Q are Dyck paths.
    """
    if len(p) == 0 or not p.is_dyck():
        raise ValueError("factorization requires a nonempty Dyck path")
    first_return = p.levels.index(0, 1)
    return Path(p.steps[1:first_return - 1]), Path(p.steps[first_return:])


def enumerate_ballot(path_class: PathClass, steps: int) -> list[Path]:
    """All nonnegative paths with `steps` steps satisfying `path_class`.

    Lexicographic order with U before D.  Empty when steps and end level have
    different parity or when the class is vacuous.
    """
    return [Path(word) for word, _, _ in _ballot_words(path_class, steps)]


def _ballot_words(path_class: PathClass, steps: int) -> list[tuple[str, int, int]]:
    """enumerate_ballot as (steps, height, first peak) triples, no Path built.

    The first peak is the index of the leftmost highest point, so a caller
    needs no level pass to find either landmark.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    end = path_class.end_level
    bound = path_class.height_bound
    if (steps - end) % 2 != 0 or end > steps:
        return []
    if bound is not None and (bound < 0 or end > bound):
        return []

    exact = path_class.exact_height
    top = steps if bound is None else bound
    out: list[tuple[str, int, int]] = []
    # depth first by an explicit stack, so that a long path needs no
    # recursion: a word takes U while the end level stays reachable and the
    # cap allows, pushing each D it passes over as (prefix, level, peak,
    # first) to resume from, which keeps the words in lexicographic order.
    # Every step keeps |level - end| <= remaining, with the same parity, so
    # once level - end equals remaining only down steps are left
    stack = [("", 0, 0, 0)]
    push = stack.append
    while stack:
        prefix, level, peak, first = stack.pop()
        remaining = steps - len(prefix)
        while True:
            if level - end == remaining:
                if exact is None or peak == exact:
                    out.append((prefix + DOWN * remaining, peak, first))
                break
            remaining -= 1
            down = level and end - level < remaining
            if level < top:
                if down:
                    push((prefix + DOWN, level - 1, peak, first))
                if level == peak:  # a new highest point
                    peak, first = level + 1, len(prefix) + 1
                prefix += UP
                level += 1
            elif down:
                prefix += DOWN
                level -= 1
            else:
                break
    return out


def enumerate_dyck(n: int) -> list[Path]:
    """All Dyck paths of semilength n, lexicographic with U before D."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    return enumerate_ballot(PathClass(end_level=0), 2 * n)
