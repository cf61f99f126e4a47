"""Negative controls: a fault in a sign rule must fail the certify checks that guard it.

Each mutant wraps the rule it breaks and is patched on every module that calls it, looked up by its module
path: the package re-exports the function ``slash`` under the module's name, so an attribute set on
``from metaplectic import slash`` would reach nothing.  A pinned set lists exactly the checks that fail at word
length 4 with the default seed, each on its own comparison: certify builds its named forms unchecked, so no
check fails inside a form's builder.
"""

import importlib

import numpy as np
import pytest

from metaplectic.certify import run_certification
from metaplectic.cover import LIFT_R, LIFT_S, LIFT_Z
from metaplectic.slash import HoloFn, Weight

automorphy_module, cover_module, certify_module, qseries_module, slash_module = (
    importlib.import_module(f"metaplectic.{name}") for name in ("automorphy", "cover", "certify", "qseries", "slash"))
_RULE = slash_module._case_exponents
_BIT = cover_module.cocycle_bit
_CZ_PLUS_D = automorphy_module.cz_plus_d
_S_STEP = qseries_module._eta_s_step


# their rebuilds certify with ``extend_form`` and ``induce_form``, so a refused rebuild is their own comparison
_REBUILDING_CHECKS = {"form_induction_round_trip", "form_restriction_round_trip"}


def _failed_checks() -> set[str]:
    """The checks that fail in a word-length-4 run at the default seed.  Each check's verdict is kept, and only
    the two round trips may fail on ``run_certification``'s "error" verdict for a raising check: every other
    check must reach its own comparison."""
    shown = {check["check_id"]: check["max_residual"] for check in run_certification(4)["checks"] if not check["pass"]}
    assert {name for name, residual in shown.items() if residual == "error"} <= _REBUILDING_CHECKS, shown
    return set(shown)


def _drop_b_on_det_plus_lower(w, det_neg, eps, c, d):
    """Det +1, lower half-plane without the reflection sign B: the upper exponent."""
    e_upper, e_lower = _RULE(w, det_neg, eps, c, d)
    return e_upper, e_lower + (1 - det_neg) * (e_upper - e_lower)


def _add_2w_on_det_minus_lower(w, det_neg, eps, c, d):
    e_upper, e_lower = _RULE(w, det_neg, eps, c, d)
    return e_upper, e_lower + 2 * w * det_neg


@pytest.mark.parametrize("mutant, moved, pinned", [
    (_drop_b_on_det_plus_lower, LIFT_Z, {"action_composition", "action_reflection_forms"}),
    (_add_2w_on_det_minus_lower, LIFT_R, {"action_composition", "action_reflection_forms", "eta_hat_identities",
                                          "form_induction_round_trip"}),
], ids=["B dropped on det +1, lower", "2w added on det -1, lower"])
def test_a_case_exponent_mutant_fails_its_pinned_checks(monkeypatch, mutant, moved, pinned):
    """``_case_exponents`` is the one rule of the scalar ``slash`` and of the batch route that certify
    evaluates: the mutant flips the sign of the scalar value of f|x at weight 1/2 for an element ``moved``
    of its case, and certify fails exactly the pinned checks."""
    f, z = HoloFn.from_scalar(upper=lambda z: z + 2, lower=lambda z: z + 2), 0.3 - 0.8j
    before = slash_module.slash(f, Weight(1), moved).at(z)
    monkeypatch.setattr(slash_module, "_case_exponents", mutant)
    assert np.array_equal(slash_module.slash(f, Weight(1), moved).at(z), -before)
    assert _failed_checks() == pinned


def _drop_the_det_symbol(da, db, sa, sb, sab):
    """The cocycle without its (det a, det b) Hilbert symbol."""
    return _BIT(da, db, sa, sb, sab) ^ (da & db)


def _leave_det_a_out_of_the_second_symbol(da, db, sa, sb, sab):
    """(chi(ab)/chi(a), chi(ab)/chi(b)) in place of (chi(ab)/chi(a), chi(ab)/(chi(b) det a))."""
    return _BIT(da, db, sa, sb, sab) ^ ((sab ^ sa) & da)


_BOTH_MUTANTS_FAIL = {"action_composition", "algebra_conjugation_lemma", "algebra_generator_inversion",
                      "algebra_order_relations", "algebra_reflection_sign_lemma", "form_induction_round_trip",
                      "rep_homomorphism", "rep_well_defined"}


@pytest.mark.parametrize("mutant, pinned", [
    (_drop_the_det_symbol, _BOTH_MUTANTS_FAIL | {"algebra_unit_values", "eta_hat_identities", "rep_induction_matrices",
                                                 "rep_twist_properties"}),
    (_leave_det_a_out_of_the_second_symbol, _BOTH_MUTANTS_FAIL | {"algebra_cocycle_triples"}),
], ids=["(det a, det b) dropped", "det a left out of the second symbol"])
def test_a_cocycle_bit_mutant_fails_its_pinned_checks(monkeypatch, mutant, pinned):
    """``cocycle_bit`` is the one sign rule of ``cover.cocycle``, the batch slash rows and the certify kernels.
    A dropped (det a, det b) symbol multiplies the cocycle by a Hilbert symbol, itself a cocycle, so the
    triple identity still holds and ``algebra_cocycle_triples`` passes: only the checks that pin values see it.
    Word lifts cached with the production cocycle are dropped before and after the run."""
    for module in (cover_module, slash_module, certify_module):
        monkeypatch.setattr(module, "cocycle_bit", mutant)
    automorphy_module._word_data.cache_clear()
    try:
        failed = _failed_checks()
    finally:
        automorphy_module._word_data.cache_clear()
    assert failed == pinned


def _scaled_argument(c, d, z):
    """c*z + d off by a relative 1e-7: every pullback image and square-root factor moves."""
    return _CZ_PLUS_D(c, d, z) * (1 + 1e-7)


def test_a_pullback_mutant_fails_its_pinned_checks(monkeypatch):
    """``cz_plus_d`` is the one automorphy argument of ``pullback``, the phi factors and the certify kernels, so
    a scaled argument moves the scalar f|x and the batch route alike; the checks that write c*z + d out as
    their independent side (``phi_squaring``, ``phi_branch_profile``) fail with the rest.  The det -1 routes
    that ``action_reflection_forms`` compares take the same pullback, so it passes."""
    f, z = HoloFn.from_scalar(upper=lambda z: z + 2, lower=lambda z: z + 2), 0.3 + 0.8j
    routes = (lambda: slash_module.slash(f, Weight(1), LIFT_S).at(z)[0],
              lambda: slash_module.slash_values(f, Weight(1), [z], [LIFT_S])[0, 0])
    before = [route() for route in routes]
    for module in (automorphy_module, certify_module):
        monkeypatch.setattr(module, "cz_plus_d", _scaled_argument)
    assert all(abs(route() - value) > 1e-9 * abs(value) for route, value in zip(routes, before))
    assert _failed_checks() == {"action_classical_match", "action_composition", "eisenstein_even_extension",
                                "eisenstein_lattice_match", "eta_hat_identities", "eta_multiplier_universe",
                                "eta_reduction_agreement", "form_induction_round_trip", "form_restriction_round_trip",
                                "phi_branch_profile", "phi_section_consistency", "phi_squaring", "phi_well_defined"}


def _drop_the_half_turn(a, c, d):
    """The S step without its 12 where c > 0 > a, so sqrt(g z) sqrt(c z + d) is taken for sqrt(a z + b)."""
    return _S_STEP(a, c, d) - 12 * ((c > 0) & (a < 0))


def test_an_eta_step_mutant_fails_exactly_its_pinned_checks(monkeypatch):
    """``_eta_s_step`` carries eta's multiplier through the scalar and the batch reduction alike, and the mutant
    flips the sign of both values at each S step a reduction takes from c > 0 > a.  Certify sees that through
    ``action_composition`` and ``eta_reduction_agreement``, whose raw series is an oracle independent of the
    rule: the set is pinned exactly."""
    z, cfg = np.array([0.3 + 0.003j, -0.41 + 0.002j]), qseries_module.CERTIFY_CONFIG
    routes = (lambda: qseries_module.eta_batch(z, cfg), lambda: [qseries_module.eta(p, cfg) for p in z.tolist()])
    before = [route() for route in routes]
    monkeypatch.setattr(qseries_module, "_eta_s_step", _drop_the_half_turn)
    assert all(np.allclose(route(), -np.array(value), rtol=1e-14, atol=0) for route, value in zip(routes, before))
    assert _failed_checks() == {"action_composition", "eta_reduction_agreement"}
