"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The certification universe is the word-length <= 5 enumeration
with the standard sample grid and the default seed.
"""

import time

import pytest

from metaplectic.certify import ALGEBRA_CHECK_IDS, run_certification
from metaplectic.cover import CENTER_FLIP, LIFT_R, LIFT_S, LIFT_Z
from metaplectic.slash import Weight, admissible_reflection_scalars

FULL_SUITE_BUDGET_SECONDS = 180.0
ALGEBRA_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="module")
def certification():
    t0 = time.perf_counter()
    report = run_certification(max_word_len=5)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def _check(report, check_id):
    return next(c for c in report["checks"] if c["check_id"] == check_id)


def _line(n, ok, text):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}  {text}")
    assert ok


def test_criterion_01_exact_algebra_suite():
    t0 = time.perf_counter()
    report = run_certification(max_word_len=5, check_filter=ALGEBRA_CHECK_IDS)
    elapsed = time.perf_counter() - t0
    wanted = ("algebra_cocycle_triples", "algebra_reflection_sign_lemma",
              "algebra_conjugation_lemma", "algebra_generator_inversion",
              "algebra_product_bbb_lemma")
    ok = all(_check(report, cid)["pass"] for cid in wanted) and elapsed < ALGEBRA_BUDGET_SECONDS
    triples = _check(report, "algebra_cocycle_triples")["params"]["triples"]
    _line(1, ok, f"cocycle identity on {triples} triples and the four lemmas, "
                 f"zero exceptions, runtime {elapsed:.2f}s < {ALGEBRA_BUDGET_SECONDS:.0f}s")


def test_criterion_02_cover_structure(certification):
    report, _ = certification
    check = _check(report, "algebra_order_relations")
    s2 = check["params"]["s_tilde_squared_computed"]
    ok = check["pass"]
    ok = ok and (LIFT_S * LIFT_S) * (LIFT_S * LIFT_S) == CENTER_FLIP
    ok = ok and LIFT_Z * LIFT_Z == CENTER_FLIP and LIFT_R * LIFT_R == CENTER_FLIP
    ok = ok and LIFT_Z * LIFT_R != LIFT_R * LIFT_Z
    ok = ok and "s_tilde_squared_computed" in check["params"]
    _line(2, ok, f"S^4 = Z^2 = R^2 = [I,-1], [I,-1] central, ZR != RZ; "
                 f"computed S-lift squared reported verbatim: {s2}")


def test_criterion_03_section_consistency(certification):
    report, _ = certification
    check = _check(report, "phi_section_consistency")
    ok = check["pass"] and check["params"]["pairs"] == 500 and check["max_residual"] < 1e-10
    _line(3, ok, f"phi section consistency over 500 pairs x {check['params']['points']} points, "
                 f"max residual {check['max_residual']:.3e} < 1e-10")


def test_criterion_04_action_law(certification):
    report, _ = certification
    check = _check(report, "action_composition")
    combos = check["params"]["det_combinations"]
    ok = check["pass"] and check["max_residual"] < 1e-9
    ok = ok and set(combos) == {"(1,1)", "(1,-1)", "(-1,1)", "(-1,-1)"}
    ok = ok and all(count > 0 for count in combos.values())
    ok = ok and set(check["params"]["forms"]) == {"eta_hat (w=1)", "e4_even (w=8)"}
    _line(4, ok, f"action composition over {check['params']['pairs']} pairs, all det combinations, "
                 f"eta-hat and E4 forms, max residual {check['max_residual']:.3e} < 1e-9")


def test_criterion_05_lambda_uniqueness(certification):
    report, _ = certification
    ok = _check(report, "action_lambda_sets")["pass"]
    for w in (1, 3, 5, 7):
        ok = ok and set(admissible_reflection_scalars(Weight(w))) == {1j, -1j}
    _line(5, ok, "odd doubled weight admits exactly the two imaginary reflection scalars")


def test_criterion_06_eta_laws(certification):
    report, _ = certification
    shift = _check(report, "eta_shift_law")
    inv = _check(report, "eta_inversion_law")
    point = _check(report, "eta_point_value")
    uni = _check(report, "eta_multiplier_universe")
    ok = (shift["pass"] and shift["max_residual"] < 1e-12
          and inv["pass"] and inv["max_residual"] < 1e-10
          and point["pass"] and point["max_residual"] < 1e-12
          and uni["pass"] and uni["params"]["worst_snap"] < 1e-10)
    _line(6, ok, f"eta shift {shift['max_residual']:.2e} < 1e-12, inversion {inv['max_residual']:.2e} < 1e-10, "
                 f"eta(i) to 1e-12, multipliers within {uni['params']['worst_snap']:.2e} of 24th roots "
                 f"over {uni['params']['elements']} elements")


def test_criterion_07_eisenstein(certification):
    report, _ = certification
    lat = _check(report, "eisenstein_lattice_match")
    ext = _check(report, "eisenstein_even_extension")
    rels = [v["relative"] for key, v in lat["params"].items() if key.startswith("z=")]
    ok = lat["pass"] and len(rels) == 2 and all(r < 1e-12 for r in rels)
    ok = ok and ext["pass"] and ext["max_residual"] < 1e-9
    _line(7, ok, f"E4 q-series vs lattice sum (60 rows) relative {max(rels):.3e} < 1e-12 at both points; "
                 f"weight-4/6 even extensions GL-modular, residual {ext['max_residual']:.3e} < 1e-9")


def test_criterion_08_triangular_parity(certification):
    report, _ = certification
    check = _check(report, "triangular_parity")
    ok = check["pass"] and check["max_residual"] < 1e-12
    ok = ok and check["params"]["max_factors"] == 12 and check["params"]["points"] == 6
    _line(8, ok, f"mirror parity of the triangular products, N <= 12 at 6 points, "
                 f"residual {check['max_residual']:.3e} < 1e-12")


def test_criterion_09_eta_hat(certification):
    report, _ = certification
    hat = _check(report, "eta_hat_identities")
    ind = _check(report, "form_induction_round_trip")
    ok = hat["pass"] and hat["max_residual"] < 1e-10 and ind["pass"]
    _line(9, ok, f"eta-hat reflection law and matrix identity, residual {hat['max_residual']:.3e} < 1e-10; "
                 f"projection recovers (eta, 0) exactly")


def test_criterion_10_round_trips(certification):
    report, _ = certification
    res = _check(report, "form_restriction_round_trip")
    ind = _check(report, "form_induction_round_trip")
    ok = (res["pass"] and res["max_residual"] < 1e-10
          and ind["pass"] and ind["max_residual"] < 1e-10)
    _line(10, ok, f"restriction/extension round trips {res['max_residual']:.3e} and induction/projection "
                  f"round trips {ind['max_residual']:.3e}, both < 1e-10")


def test_full_suite_green_within_budget(certification):
    report, elapsed = certification
    ok = report["pass"] and elapsed < FULL_SUITE_BUDGET_SECONDS
    print(f"ACCEPTANCE -- {'PASS' if ok else 'FAIL'}  full certification: "
          f"{len(report['checks'])} checks, runtime {elapsed:.2f}s < {FULL_SUITE_BUDGET_SECONDS:.0f}s")
    assert ok
