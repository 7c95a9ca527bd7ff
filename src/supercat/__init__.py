"""Exact combinatorics of up/down lattice paths: enumeration and counting,
a height-sensitive pair bijection, truncated integer power series, closed
forms for height-restricted generating functions, and a mechanical
verification suite for super Catalan number identities."""

from .bijection import (BijectionTrace, IntermediatePath, RestrictedPair,
                        enumerate_restricted_pairs, forward, inverse, trace)
from .counting import (CountTable, catalan, count_ballot_dp, count_E_set,
                       count_F_set, count_pairs_height_diff, count_paths_dp,
                       super_catalan, super_catalan_row)
from .height_gf import (PolyQuotient, ballot_between_gf, ballot_end_gf,
                        ballot_exact_gf, dyck_gf, p_poly)
from .identities import (IDENTITIES, Mismatch, VerificationReport,
                         report_to_dict, run_identity, verify_e8, verify_e52,
                         verify_e_mo, verify_firstsum, verify_g_closed_forms,
                         verify_lemma_main_count, verify_p_bridge,
                         verify_pairsum, verify_t2_closed_form,
                         verify_t3_closed_form, verify_t3_main)
from .lattice_paths import (DOWN, UP, Path, PathClass, enumerate_ballot,
                            enumerate_dyck, factor_dyck)
from .series import BiTrunc, TruncSeries, catalan_series
from .svg import render_trace

__version__ = "0.1.0"

__all__ = [
    "BiTrunc", "BijectionTrace", "CountTable", "DOWN", "IDENTITIES",
    "IntermediatePath", "Mismatch", "Path", "PathClass", "PolyQuotient",
    "RestrictedPair", "TruncSeries", "UP", "VerificationReport",
    "ballot_between_gf", "ballot_end_gf", "ballot_exact_gf", "catalan",
    "catalan_series", "count_E_set", "count_F_set", "count_ballot_dp",
    "count_pairs_height_diff", "count_paths_dp", "dyck_gf", "enumerate_ballot",
    "enumerate_dyck", "enumerate_restricted_pairs", "factor_dyck", "forward",
    "inverse", "p_poly", "render_trace", "report_to_dict", "run_identity",
    "super_catalan", "super_catalan_row", "trace", "verify_e8", "verify_e52",
    "verify_e_mo", "verify_firstsum", "verify_g_closed_forms",
    "verify_lemma_main_count", "verify_p_bridge", "verify_pairsum",
    "verify_t2_closed_form", "verify_t3_closed_form", "verify_t3_main",
]
