"""The checks that the every-order test leaves out, at every tenth order.

Claims covered:
    - e-mo, e8, g-forms, pairsum and t3-main pass at orders 10, 20, ..., 190
      (60 and 200 are pinned in tests/test_pinned_reports.py), and each
      report gives the order asked for; g-forms, pairsum and t3-main also
      name it in their notes
    - lemma-main passes at orders 1..11 and reports the order it checked:
      the order asked for through 10, and 10 with its clamp note at 11, its
      first clamped order
"""

import pytest

from supercat import run_identity

SWEEP_ORDERS = [order for order in range(10, 200, 10) if order != 60]

# id -> the note that names the order n, for the checks whose notes do
ORDER_NOTE = {
    "g-forms": lambda n: f"C = x (1 + C)^2 through t^{2 * n}",
    "pairsum": lambda n: (f"summed in C through C^{n}, carried to x by Lagrange "
                          "inversion"),
    "t3-main": lambda n: (f"coefficients x^0..x^{n} cross-checked against "
                          "triple path counts"),
}


@pytest.mark.parametrize("identity", ["e-mo", "e8", "g-forms", "pairsum",
                                      "t3-main"])
def test_checks_pass_at_every_tenth_order(identity):
    for order in SWEEP_ORDERS:
        report = run_identity(identity, order)
        assert (report.identity, report.order, report.passed) == (
            identity, order, True)
        if identity in ORDER_NOTE:
            assert ORDER_NOTE[identity](order) in report.notes


def test_lemma_main_passes_through_its_first_clamped_order():
    for order in range(1, 12):
        report = run_identity("lemma-main", order)
        checked = min(order, 10)
        assert (report.order, report.passed) == (checked, True)
        assert report.notes[0] == f"exhaustive roundtrips for n = 1..{checked}"
        clamped = "n_max clamped to 10: exhaustive enumeration bound"
        assert (clamped in report.notes) is (order > 10)
