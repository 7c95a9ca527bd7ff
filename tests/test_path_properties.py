"""Property tests of Path and the bijection cores, with hypothesis.

Claims covered:
    - on a random Dyck path of any semilength up to 40, inverse and forward
      agree with a plain-loop reference of the two surgeries
    - Path.levels from one signed-byte pass, the height kept from it and
      the -1 floor test of is_ballot and is_dyck match a plain loop on any
      U/D string
    - a bad step is refused with a message that names it

The seeded tests that need no hypothesis are in test_string_cores.py.
"""

import pytest

from supercat import DOWN, UP, Path, forward, inverse

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


@given(st.text(alphabet=UP + DOWN, max_size=200))
def test_path_levels_match_a_plain_loop(steps):
    p = Path(steps)
    levels = loop_levels(steps)
    assert p.levels == tuple(levels)
    assert p.height == max(levels)
    assert p.end_level == levels[-1]
    assert p.is_ballot() == all(level >= 0 for level in levels)
    assert p.is_dyck() == (p.is_ballot() and levels[-1] == 0)


@given(st.text(alphabet=UP + DOWN, max_size=20),
       st.characters().filter(lambda ch: ch not in (UP, DOWN)),
       st.text(max_size=20))
def test_bad_step_message_is_unchanged(head, bad, tail):
    with pytest.raises(ValueError) as info:
        Path(head + bad + tail)
    assert str(info.value) == f"invalid step {bad!r}: steps are 'U' or 'D'"
