"""Every registered check reaches the order it reports.

Claims covered:
    - at its default order, every check fails on a defect planted at the
      last index it reports: e2 and t3-closed at n = order and at n = 1, e8
      at p = order through its weights, e-mo at total degree order,
      firstsum at C^order, pairsum at x^order in its crossing to x and its
      pair counts, e52 at its cleared top x^(order + 4), t3-main's main
      identity at x^order, in its left side and its crossing to x, and its
      k-sum sub-identity in C at its last coefficient, C^(order + 4),
      g-forms at the last step of a table column,
      p-bridge at n = min(12, order) and lemma-main at n = order; a
      registered id with no planted defect here fails by name
    - at order 1 every check reports the order it ran and its notes: e-mo
      alone raises its order, to total degree 2
    - e2, e52, firstsum, p-bridge and t3-closed pass at every order the CLI
      accepts, 1..200, and each report gives the order asked for; p-bridge
      makes the tie C = x (1 + C)^2 at each of them
"""

import pytest

from supercat import IDENTITIES, CountTable, run_identity
from supercat import identities
from supercat.cli import ORDER_MAX


def _plant(monkeypatch, name, wrong):
    """Replace identities.<name> by wrong(real)."""
    monkeypatch.setattr(identities, name, wrong(getattr(identities, name)))


def _plus_one_at(at):
    """wrong(real) for _plant: one more than real where the arguments are at."""
    return lambda real: lambda *args: real(*args) + (args == at)


def _list_plus_top(real):
    """A builder of coefficient lists whose result has one more at its top
    coefficient."""
    def wrong(*args):
        cs = real(*args)
        return cs[:-1] + [cs[-1] + 1]
    return wrong


def _count_plus_one_at(n):
    """wrong(real) for _pair_counts: one more pair at semilength n."""
    return lambda real: lambda ns, band: [count + (m == n)
                                          for m, count in enumerate(real(ns, band))]


class _TableWithOneWrongTopCount(CountTable):
    """Cap 8 from level 3: one more path of `steps` steps ending at level 5
    when the table ends at that step."""

    def __init__(self, steps, max_height=None, start_level=0):
        super().__init__(steps, max_height, start_level)
        if (max_height, start_level) == (8, 3):
            self.rows[steps][5] += 1


def _wrong_top_table(monkeypatch, order):
    monkeypatch.setattr(identities, "CountTable", _TableWithOneWrongTopCount)


# id -> [(plant(monkeypatch, order), power(order) or None, note(order) or None)]
TOP_ORDER_DEFECTS = {
    "e2": [
        (lambda mp, n: _plant(mp, "super_catalan", _plus_one_at((2, n))),
         lambda n: n, None),
        (lambda mp, n: _plant(mp, "super_catalan", _plus_one_at((2, 1))),
         lambda n: 1, None),
    ],
    "t3-closed": [
        (lambda mp, n: _plant(mp, "super_catalan", _plus_one_at((3, n))),
         lambda n: n, None),
        (lambda mp, n: _plant(mp, "super_catalan", _plus_one_at((3, 1))),
         lambda n: 1, None),
    ],
    # the weight 2^p C(p, 0) of T(m, 0) at p = order
    "e8": [(lambda mp, p: _plant(mp, "comb", _plus_one_at((p, 0))),
            lambda p: (0, p), None)],
    # C_(d-1) first meets C_1 at total degree d
    "e-mo": [(lambda mp, d: _plant(mp, "catalan", _plus_one_at((d - 1,))),
              lambda d: (1, d - 1), None)],
    # every quotient of the sum in C, one more at C^order
    "firstsum": [(lambda mp, n: _plant(mp, "_c_quotient", _list_plus_top),
                  lambda n: n, lambda n: "sum in C vs 1 + 2C")],
    "pairsum": [
        (lambda mp, n: _plant(mp, "_c_to_x", _list_plus_top),
         lambda n: 2 * n, lambda n: "series sum vs 1 + sum T(2,n) x^n"),
        (lambda mp, n: _plant(mp, "_pair_counts", _count_plus_one_at(n)),
         lambda n: 2 * n, lambda n: f"pair count disagrees at n={n}"),
    ],
    # T(3, n + 1) lands at x^(n + 4) after clearing by 2x^4
    "e52": [(lambda mp, n: _plant(mp, "super_catalan", _plus_one_at((3, n + 1))),
             lambda n: 2 * n + 8, None)],
    "t3-main": [
        (lambda mp, n: _plant(mp, "super_catalan", _plus_one_at((3, n + 1))),
         lambda n: 2 * n, lambda n: "main series identity"),
        (lambda mp, n: _plant(mp, "_c_to_x", _list_plus_top),
         lambda n: 2 * n, lambda n: "main series identity"),
        # the tail's top coefficient, C^n, shifted by C^4
        (lambda mp, n: _plant(mp, "_displayed_t3_tail", _list_plus_top),
         lambda n: n + 4,
         lambda n: "k-sum vs displayed closed rational expression"),
    ],
    "g-forms": [(_wrong_top_table, lambda n: 2 * n,
                 lambda n: f"G_8^(3,5): series vs path count at t^{2 * n}")],
    # p_13 in place of p_12
    "p-bridge": [(lambda mp, n: _plant(mp, "p_poly", lambda real: lambda k: real(
        k + (k == min(12, n)))), None,
        lambda n: f"first failure at n={min(12, n)}")],
    "lemma-main": [(lambda mp, n: _plant(mp, "_pair_counts", _count_plus_one_at(n)),
                    lambda n: n, lambda n: f"|E_{n}| != C_{n}")],
}


@pytest.mark.parametrize("identity", list(IDENTITIES))
def test_every_check_fails_at_its_top_order(monkeypatch, identity):
    if identity not in TOP_ORDER_DEFECTS:
        pytest.fail(f"no planted top-order defect for {identity}")
    order = IDENTITIES[identity].default_order
    for plant, power, note in TOP_ORDER_DEFECTS[identity]:
        with monkeypatch.context() as mp:
            plant(mp, order)
            report = run_identity(identity)
        assert (report.identity, report.order, report.passed) == (identity, order, False)
        if power is not None:
            assert report.first_mismatch.power == power(order)
        if note is not None:
            assert report.notes[0].startswith(note(order))


# the order-1 reports: (order, notes) per id
ORDER_ONE = {
    "e-mo": (2, ("total degree raised to 2 (minimum meaningful degree)",)),
    "e2": (1, ()),
    "e52": (1, ("compared after clearing denominators (multiplied by 2x^4)",)),
    "e8": (1, ("checked 0 <= m <= 1, 0 <= p <= 1",
               "m=0 row checked as the doubled identity "
               "(middle binomial coefficients)")),
    "firstsum": (1, ("summed in C through C^1",)),
    "g-forms": (1, ("C = x (1 + C)^2 through t^2",
                    "220 closed forms, k <= 8, checked as polynomial identities in C",
                    "219 quotient expansions cross-checked against path counts "
                    "through t^2")),
    "lemma-main": (1, ("exhaustive roundtrips for n = 1..1",)),
    "p-bridge": (1, ("C = x (1 + C)^2 through t^2",
                     "checked n = 0..1 as P_n (1 - C) = 1 - C^(n+1), "
                     "P_n = p_n (1 + C)^n")),
    "pairsum": (1, ("summed in C through C^1, carried to x by Lagrange "
                    "inversion",
                    "coefficients x^1..x^1 cross-checked against pair counts "
                    "from the height table")),
    "t3-closed": (1, ()),
    "t3-main": (1, ("k-sum checked in C against its displayed closed rational "
                    "form",
                    "coefficients x^0..x^1 cross-checked against triple path "
                    "counts")),
}


def test_every_check_at_order_one():
    assert list(ORDER_ONE) == list(IDENTITIES)
    for identity, (order, notes) in ORDER_ONE.items():
        report = run_identity(identity, 1)
        assert report.passed, identity
        assert (report.order, report.notes) == (order, notes), identity


@pytest.mark.parametrize("identity", ["e2", "e52", "firstsum", "p-bridge",
                                      "t3-closed"])
def test_cheap_checks_pass_at_every_accepted_order(identity):
    for order in range(1, ORDER_MAX + 1):
        report = run_identity(identity, order)
        assert (report.identity, report.order, report.passed) == (
            identity, order, True)
