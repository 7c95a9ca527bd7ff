"""Acceptance suite: every criterion at its stated order and runtime bound.

All comparisons are exact (zero tolerance); every computation runs in integer
or rational arithmetic.  Each criterion prints one pass/fail line (run with
`pytest -s` or `-rA` to see them even on success).

    1. CLI table rows reproduce the reference rows byte for byte      (< 1 s)
    2. pair counts with height gap <= 1 equal T(2,n) for n <= 9       (< 10 s)
    3. exhaustive bijection roundtrips and |E_n| = C_n for n <= 8     (< 10 s)
    4. series/integer identities exact to order 30: e2, t3-closed,
       e8 (m,p <= 10), firstsum, pairsum, e52, p-bridge (n <= 12),
       g-forms (k <= 8, all i, j)                                 (< 5 s each)
    5. bivariate identity e-mo exact to total degree 12               (< 5 s)
    6. t3-main exact to x-order 20 with its closed-form sub-identity
       and the triple path-count oracle for n <= 20: 6a times the full
       check (< 5 s), 6b also asserts the oracle's note             (< 60 s)
    7. ballot counts equal exhaustive enumeration for every class
       with height bound <= 6, end level <= 5, steps <= 14           (< 30 s)
    8. ballot counts at the CLI limit of 10000 steps, from no cap to
       cap 0 and one exact-height class, all together                 (< 1 s)
    9. e8, e-mo and g-forms at the CLI ceiling --order 200, unclamped,
       all together                                                  (< 20 s)
   9b. firstsum, pairsum and t3-main at the CLI ceiling --order 200,
       each reporting order 200, all together                       (< 10 s)
   10. pair counts at the CLI limit n = 400, height gap 1 (T(2, 400)) and
       gap 400 (every pair, C_401), through the CLI, both together     (< 2 s)
"""

import time
from contextlib import redirect_stdout
from io import StringIO

from supercat import (IDENTITIES, PathClass, catalan, count_ballot_dp,
                      count_pairs_height_diff, count_paths_dp, enumerate_ballot,
                      super_catalan, verify_e8, verify_e52, verify_e_mo,
                      verify_firstsum, verify_g_closed_forms,
                      verify_lemma_main_count, verify_p_bridge, verify_pairsum,
                      run_identity, verify_t2_closed_form,
                      verify_t3_closed_form, verify_t3_main)
from supercat.cli import BALLOT_STEPS_MAX, ORDER_MAX, PAIRS_N_MAX, main

ROW_2 = "3 2 3 6 14 36 99 286 858 2652 8398"
ROW_3 = "10 5 6 10 20 45 110 286 780 2210 6460"


def check(label: str, limit_s: float, fn):
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {verdict} in {elapsed:.2f}s ({detail})")
    assert ok, f"{label}: {detail}"
    assert elapsed < limit_s, f"{label}: took {elapsed:.2f}s, limit {limit_s}s"


def _cli_line(argv) -> str:
    buffer = StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue().rstrip("\n")


def test_criterion_1_table_reproduction():
    def body():
        got_2 = _cli_line(["table", "--m", "2", "--nmax", "10"])
        got_3 = _cli_line(["table", "--m", "3", "--nmax", "10"])
        return (got_2 == ROW_2 and got_3 == ROW_3,
                f"rows {got_2!r} / {got_3!r}")
    check("criterion 1 (table rows m=2,3 through n=10)", 1.0, body)


def test_criterion_2_pair_counts_equal_t2():
    def body():
        for n in range(1, 10):
            counted = count_pairs_height_diff(n, 1)
            if counted != super_catalan(2, n):
                return False, f"n={n}: {counted} != {super_catalan(2, n)}"
        return True, "n = 1..9 from the height table"
    check("criterion 2 (pairs with height gap <= 1 count T(2,n))", 10.0, body)


def test_criterion_3_bijection_roundtrip():
    def body():
        report = verify_lemma_main_count(8)
        return report.passed, "; ".join(report.notes) or "exhaustive roundtrips"
    check("criterion 3 (bijection roundtrips, |E_n| = C_n, n <= 8)", 10.0, body)


def _series_criterion(label, fn):
    def body():
        report = fn()
        detail = f"order {report.order}"
        if not report.passed:
            detail += f", first mismatch {report.first_mismatch}"
        return report.passed, detail
    check(label, 5.0, body)


def test_criterion_4a_e2():
    _series_criterion("criterion 4a (e2 through n = 30)",
                      lambda: verify_t2_closed_form(30))


def test_criterion_4b_t3_closed():
    _series_criterion("criterion 4b (t3-closed through n = 30)",
                      lambda: verify_t3_closed_form(30))


def test_criterion_4c_e8():
    _series_criterion("criterion 4c (e8 for m, p <= 10)",
                      lambda: verify_e8(10))


def test_criterion_4d_firstsum():
    _series_criterion("criterion 4d (firstsum to x-order 30)",
                      lambda: verify_firstsum(30))


def test_criterion_4e_pairsum():
    _series_criterion("criterion 4e (pairsum to x-order 30)",
                      lambda: verify_pairsum(30))


def test_criterion_4f_e52():
    _series_criterion("criterion 4f (e52 to x-order 30)",
                      lambda: verify_e52(30))


def test_criterion_4g_p_bridge():
    _series_criterion("criterion 4g (p-bridge, n <= 12, x-order 30)",
                      lambda: verify_p_bridge(30))


def test_criterion_4h_g_forms():
    _series_criterion("criterion 4h (g-forms, k <= 8, all i and j, x-order 30)",
                      lambda: verify_g_closed_forms(30))


def test_criterion_5_e_mo():
    _series_criterion("criterion 5 (e-mo to total degree 12)",
                      lambda: verify_e_mo(12))


def test_criterion_6_t3_main_series():
    def body():
        report = verify_t3_main(20)
        sub_identity_ran = any("rational form" in note for note in report.notes)
        return (report.passed and sub_identity_ran,
                "series + closed-form sub-identity + path-count oracle")
    check("criterion 6a (t3-main to x-order 20)", 5.0, body)


def test_criterion_6_t3_main_oracle():
    def body():
        report = verify_t3_main(20)
        oracle_ran = ("coefficients x^0..x^20 cross-checked against triple path counts"
                      in report.notes)
        return report.passed and oracle_ran, "; ".join(report.notes)
    check("criterion 6b (t3-main triple path-count oracle, n <= 20)", 60.0, body)


def test_criterion_7_dp_equals_enumeration():
    def body():
        checked = 0
        for make in (lambda h, end: PathClass(end_level=end, max_height=h),
                     lambda h, end: PathClass(end_level=end, exact_height=h)):
            for h in range(-2, 7):
                for end in range(6):
                    for steps in range(15):
                        path_class = make(h, end)
                        counted = count_ballot_dp(path_class, steps)
                        listed = len(enumerate_ballot(path_class, steps))
                        if counted != listed:
                            return False, f"{path_class} steps={steps}: {counted} != {listed}"
                        checked += 1
        return True, f"{checked} classes compared"
    check("criterion 7 (ballot counts vs enumeration, bounds <= 6)", 30.0, body)


def test_criterion_8_ballot_counts_at_the_steps_limit():
    def body():
        steps = BALLOT_STEPS_MAX
        counts = {(end, cap): count_paths_dp(steps, 0, end, cap)
                  for end, cap in ((0, None), (0, 0), (0, 1), (0, 100),
                                   (6, 2000), (0, 4999))}
        exact = count_ballot_dp(PathClass(end_level=6, exact_height=2000), steps)
        # cap 4999 leaves out the one path of height 5000
        ok = (counts[0, None] == counts[0, 4999] + 1 == catalan(steps // 2)
              and counts[0, 0] == 0 and counts[0, 1] == 1
              and 0 < exact < counts[6, 2000])
        return ok, f"{len(counts) + 2} strip counts at {steps} steps"
    check("criterion 8 (ballot counts at the --steps limit)", 1.0, body)


def test_criterion_9_deep_checks_at_the_order_ceiling():
    def body():
        for identity in ("e8", "e-mo", "g-forms"):
            report = run_identity(identity, ORDER_MAX)
            clamp_note = IDENTITIES[identity].clamp_note.format(report.order)
            if (not report.passed or report.order != ORDER_MAX
                    or clamp_note in report.notes):
                return False, f"{identity}: {report}"
        return True, f"e8, e-mo and g-forms at order {ORDER_MAX}"
    check("criterion 9 (e8, e-mo, g-forms at --order 200)", 20.0, body)


def test_criterion_9b_height_sums_at_the_order_ceiling():
    def body():
        for identity in ("firstsum", "pairsum", "t3-main"):
            report = run_identity(identity, ORDER_MAX)
            if not report.passed or report.order != ORDER_MAX:
                return False, f"{identity}: {report}"
        return True, f"firstsum, pairsum and t3-main at order {ORDER_MAX}"
    check("criterion 9b (firstsum, pairsum, t3-main at --order 200)", 10.0, body)


def test_criterion_10_pair_counts_at_the_n_limit():
    def body():
        n = PAIRS_N_MAX
        counts = {d: int(_cli_line(["count", "pairs", "--n", str(n), "--diff", str(d)]))
                  for d in (1, n)}
        ok = counts[1] == super_catalan(2, n) and counts[n] == catalan(n + 1)
        return ok, f"height gaps 1 and {n} at n = {n}"
    check(f"criterion 10 (count pairs at the --n limit {PAIRS_N_MAX})", 2.0, body)
