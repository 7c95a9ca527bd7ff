"""The bijection's string cores against the validating route and plain loops.

Claims covered:
    - on uniform random Dyck paths of semilength 10^2, 10^3 and 10^4, inverse
      and forward agree with trace(pair).output and with a plain-loop
      reference of the two surgeries, and the round trip returns the path
    - Path's signed-byte level pass, and the height and floor tests read
      off its one kept range pass, match a plain loop and a min(levels) >= 0
      reference on those Dyck paths, on them with a step added at either
      end, on strings that first dip to -1 at their last step, and on 20 000
      up steps, whose levels no signed byte holds
    - a bad step is named in the error, whether it is a NUL, a character
      outside ASCII, a lone surrogate or the step after 10^4 valid ones

The property tests, which need hypothesis, are in test_path_properties.py;
the sampler and the plain-loop references here are shared with them.
"""

import random
from itertools import accumulate

import pytest

from supercat import DOWN, UP, Path, forward, inverse, trace


def random_dyck(rng: random.Random, n: int) -> str:
    """A uniform random Dyck path of semilength n, by the cycle lemma.

    Exactly one rotation of a word with n U's and n + 1 D's is a Dyck path
    followed by D, the one that starts after the word's first lowest point;
    each Dyck path comes from 2n + 1 words.
    """
    word = rng.sample(UP * n + DOWN * (n + 1), 2 * n + 1)
    levels = list(accumulate(1 if ch == UP else -1 for ch in word))
    cut = levels.index(min(levels)) + 1
    return "".join(word[cut:] + word[:cut - 1])


def loop_levels(steps: str) -> list[int]:
    level, levels = 0, [0]
    for ch in steps:
        level += 1 if ch == UP else -1
        levels.append(level)
    return levels


def reference_forward(p: str, q: str) -> str:
    """Surgery 1, then surgery 2 at F's leftmost highest point."""
    f = p[:-1] + UP + q
    levels = loop_levels(f)
    y = levels.index(max(levels))
    return f[:y - 1] + DOWN + f[y:]


def reference_inverse(d: str) -> tuple[str, str]:
    """Undo surgery 2 at d's rightmost highest point, then surgery 1 at F's
    rightmost level-1 point."""
    levels = loop_levels(d)
    top = max(levels)
    x = max(i for i, level in enumerate(levels) if level == top)
    f = d[:x] + UP + d[x + 1:]
    u = max(i for i, level in enumerate(loop_levels(f)) if level == 1)
    return f[:u] + DOWN, f[u + 1:]


def test_sampler_gives_dyck_paths():
    rng = random.Random(3)
    for n in range(8):
        d = random_dyck(rng, n)
        assert len(d) == 2 * n and Path(d).is_dyck()
    # every Dyck path of semilength 3 turns up
    assert len({random_dyck(rng, 3) for _ in range(200)}) == 5


@pytest.mark.parametrize("semilength, count", [(100, 20), (1000, 5), (10_000, 2)])
def test_cores_match_trace_and_reference(semilength, count):
    rng = random.Random(semilength)
    for _ in range(count):
        d = random_dyck(rng, semilength)
        pair = inverse(Path(d))
        assert (pair.p.steps, pair.q.steps) == reference_inverse(d)
        image = forward(pair)
        assert image == trace(pair).output
        assert image.steps == reference_forward(pair.p.steps, pair.q.steps) == d


def _assert_levels_match_a_loop(steps: str) -> Path:
    p = Path(steps)
    levels = loop_levels(steps)
    assert p.levels == tuple(levels)
    for _ in range(2):  # the second read is the kept range
        assert p.height == max(levels)
    assert p.is_ballot() == (min(levels) >= 0)
    assert p.is_dyck() == (min(levels) >= 0 and levels[-1] == 0)
    return p


@pytest.mark.parametrize("semilength, count", [(100, 20), (1000, 5), (10_000, 2)])
def test_level_pass_matches_a_plain_loop(semilength, count):
    rng = random.Random(semilength)
    for _ in range(count):
        d = random_dyck(rng, semilength)
        for steps in (d, UP + d, DOWN + d, d + UP, d + DOWN):
            _assert_levels_match_a_loop(steps)


def test_level_pass_on_long_climbs_and_late_dips():
    _assert_levels_match_a_loop(UP * 20_000)
    # a first dip to -1 at the last step, after staying at 0..1 or climbing
    for steps in (DOWN, UP + DOWN * 2, (UP + DOWN) * 5000 + DOWN,
                  UP * 300 + DOWN * 301):
        p = _assert_levels_match_a_loop(steps)
        assert p.levels[-1] == -1 and not p.is_ballot() and not p.is_dyck()


@pytest.mark.parametrize("steps, bad", [
    ("\x00", "\x00"), ("é", "é"), ("\ud800", "\ud800"), ("UD\udfffD", "\udfff"),
    ("UDé\x00", "é"), ((UP + DOWN) * 5000 + "u", "u"), (UP * 10_000 + "\x00D", "\x00"),
], ids=["nul", "non-ascii", "lone-surrogate", "late-surrogate", "first-of-two",
        "after-10^4-steps", "nul-after-10^4-steps"])
def test_bad_step_is_named(steps, bad):
    with pytest.raises(ValueError) as info:
        Path(steps)
    assert str(info.value) == f"invalid step {bad!r}: steps are 'U' or 'D'"
