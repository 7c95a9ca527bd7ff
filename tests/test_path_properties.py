"""Property tests of Path and the bijection cores, with hypothesis.

Claims covered:
    - on a random Dyck path of any semilength up to 40, inverse and forward
      agree with a plain-loop reference of the two surgeries
    - Path.levels from one signed-byte pass, and the height, is_ballot,
      is_dyck and end_level read off them, match a plain loop on any U/D
      string, with the height, is_ballot or is_dyck read first, and on "",
      "D", "DU" and "UUDDD"
    - a Path makes one range pass, which gives both its height and its
      floor, however often and in whatever order they are read
    - a bad step is refused with a message that names it

The seeded tests that need no hypothesis are in test_string_cores.py.
"""

from itertools import permutations

import pytest

from supercat import DOWN, UP, Path, forward, inverse, lattice_paths

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from test_string_cores import (loop_levels, random_dyck,  # noqa: E402
                               reference_forward, reference_inverse)


@given(st.integers(min_value=1, max_value=40), st.randoms(use_true_random=False))
def test_small_roundtrips_match_reference(semilength, rng):
    d = random_dyck(rng, semilength)
    pair = inverse(Path(d))
    assert (pair.p.steps, pair.q.steps) == reference_inverse(d)
    assert forward(pair).steps == reference_forward(pair.p.steps, pair.q.steps) == d


READS = {
    "height": lambda p: p.height,
    "is_ballot": lambda p: p.is_ballot(),
    "is_dyck": lambda p: p.is_dyck(),
}


def check_every_read_order(steps):
    """A fresh Path per order of the three range reads, each read twice and
    then end_level, against a plain loop; one range pass per Path."""
    levels = loop_levels(steps)
    expected = {"height": max(levels), "is_ballot": min(levels) >= 0,
                "is_dyck": min(levels) >= 0 and levels[-1] == 0}
    real = lattice_paths._level_range
    passes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_paths, "_level_range",
                   lambda levels: passes.append(1) or real(levels))
        for order in permutations(READS):
            p = Path(steps)
            passes.clear()
            assert {name: READS[name](p) for name in order} == expected, order
            assert {name: READS[name](p) for name in order} == expected, order
            assert p.end_level == levels[-1]
            assert len(passes) == 1, order


@given(st.text(alphabet=UP + DOWN, max_size=200))
def test_path_levels_match_a_plain_loop(steps):
    assert Path(steps).levels == tuple(loop_levels(steps))
    check_every_read_order(steps)


@pytest.mark.parametrize("steps", ["", "D", "DU", "UUDDD"])
def test_every_read_order_on_seeded_paths(steps):
    # the empty path is Dyck; D and UUDDD end below 0; DU dips to -1 but
    # ends at 0, so is_dyck read first must make the range pass itself
    check_every_read_order(steps)


@given(st.text(alphabet=UP + DOWN, max_size=20),
       st.characters().filter(lambda ch: ch not in (UP, DOWN)),
       st.text(max_size=20))
def test_bad_step_message_is_unchanged(head, bad, tail):
    with pytest.raises(ValueError) as info:
        Path(head + bad + tail)
    assert str(info.value) == f"invalid step {bad!r}: steps are 'U' or 'D'"
