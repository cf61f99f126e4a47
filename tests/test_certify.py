import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metaplectic import certify, cover
from metaplectic.certify import ALGEBRA_CHECK_IDS, run_certification
from metaplectic.cli import _strict_json
from metaplectic.cover import S_MAT, T_MAT, Mat2, enumerate_cover
from metaplectic.errors import DomainError, ResourceLimitError
from metaplectic.qseries import CERTIFY_CONFIG
from metaplectic.sampling import full_grid
from metaplectic.slash import HoloFn, Weight, composition_residuals, slash, slash_values


def test_check_filter_refuses_unknown_ids():
    with pytest.raises(DomainError, match="unknown check ids: algebra_unit_valuez$"):
        run_certification(0, check_filter=["algebra_unit_values", "algebra_unit_valuez"])
    # a bare string is refused, not read as a sequence of one-letter ids
    with pytest.raises(DomainError, match="not the string 'algebra_unit_values'"):
        run_certification(0, check_filter="algebra_unit_values")


@pytest.mark.parametrize("golden, kwargs", [("certify_w5.json", {}),
                                             ("certify_w2_tol_1e-30.json", {"max_word_len": 2, "tol": 1e-30}),
                                             ("certify_w7.json", {"max_word_len": 7})])
def test_certify_report_matches_its_golden_file(golden, kwargs):
    """The report, as ``certify --json`` writes it, equals a checked-in golden file: word length 5 with
    the defaults (every check passes), word length 2 at tolerance 1e-30 (every numeric witness path) and
    word length 7 (the deep universe, where action_composition passes narrowly at 9.3e-10 against 1e-9).
    A golden file changes only together with a CHANGES.md line naming each value that moved."""
    want = (Path(__file__).parent / "data" / golden).read_text()
    assert _strict_json(run_certification(**kwargs)) + "\n" == want


def test_phi_branch_profile_surfaces_foreign_errors(monkeypatch):
    """Only a DomainError is a failed check: anything else, from the branch-sign pass or from the
    ``branch_profile`` that a matrix the pass cannot sign goes to, is a bug and propagates."""
    def broken(*args):
        raise TypeError("not a branch-profile failure")

    monkeypatch.setattr(certify, "branch_profile", broken)
    monkeypatch.setattr(certify, "branch_signs", lambda mats, points: np.zeros(len(mats), dtype=np.int64))
    with pytest.raises(TypeError, match="not a branch-profile failure"):
        run_certification(2, check_filter=["phi_branch_profile"])
    monkeypatch.setattr(certify, "branch_signs", broken)
    with pytest.raises(TypeError, match="not a branch-profile failure"):
        run_certification(2, check_filter=["phi_branch_profile"])


def test_branch_sign_is_computed_once_per_matrix_but_errors_are_not_kept(monkeypatch):
    """Both checks that need the branch sign read one ``branch_signs`` pass per run over every det +1
    matrix, and call ``branch_profile`` for none; a matrix the pass cannot sign goes to ``branch_profile``
    on each request, so its refusal is raised again, not remembered.  ``eta_multiplier_universe`` reports
    such a refusal as its own closed-form mismatch, with a numeric verdict, naming the first element and the
    refusal in place of its closed-form index."""
    passes, calls = [], []
    signs, profile = certify.branch_signs, certify.branch_profile
    monkeypatch.setattr(certify, "branch_signs", lambda mats, points: passes.append(list(mats)) or signs(mats, points))
    monkeypatch.setattr(certify, "branch_profile", lambda gamma, points: calls.append(gamma) or profile(gamma, points))
    assert run_certification(5, check_filter=["phi_branch_profile", "eta_multiplier_universe"])["pass"] is True
    assert passes == [enumerate_cover(5).sl_matrices()] and calls == []

    def refuses(gamma, points):
        calls.append(gamma)
        raise DomainError("not a constant sign")

    monkeypatch.setattr(certify, "branch_signs",
                        lambda mats, points: passes.append(list(mats)) or np.zeros(len(mats), dtype=np.int64))
    monkeypatch.setattr(certify, "branch_profile", refuses)
    env = certify._Env(1, None, None, certify.DEFAULT_SEED, 1, False, CERTIFY_CONFIG)
    passes.clear()
    for _ in range(2):
        with pytest.raises(DomainError, match="not a constant sign"):
            env.branch_sign(S_MAT)
    assert calls == [S_MAT, S_MAT] and passes == [enumerate_cover(1).sl_matrices()]
    report, = run_certification(1, check_filter=["eta_multiplier_universe"])["checks"]
    elements = enumerate_cover(1).sl_elements()
    assert report["pass"] is False and isinstance(report["max_residual"], float)
    assert report["params"]["closed_form_mismatches"] == len(elements)
    assert report["counterexample"] == {"x": str(elements[0]), "numeric_index": 0,
                                        "closed_form_index": "not a constant sign"}


def test_a_matrix_the_branch_pass_cannot_sign_fails_with_branch_profiles_message():
    """At 10^200 + i, a word that inverts the point early, such as (S, S, S) of S^-1 or (T, S) of T*S,
    steps onto the real axis, as Im(-1/z) underflows to 0: the pass leaves such a matrix unsigned, and the
    check reports ``branch_profile``'s own refusal for the first of them."""
    far = 1e200 + 1j
    mats = enumerate_cover(1).sl_matrices()
    assert certify.branch_signs(mats + [T_MAT * S_MAT], [far]).tolist() == [1, 1, 0, 1, 1, 0]
    with pytest.raises(DomainError, match="real axis") as refusal:
        certify.branch_profile(mats[2], [far])
    report = run_certification(1, points=[far], check_filter=["phi_branch_profile"])
    assert report["checks"][0]["counterexample"] == {"gamma": str(mats[2]), "error": str(refusal.value)}


def test_the_word_route_signs_every_matrix_far_from_the_origin():
    """At 10^6 + i the words' images come within 1e-12 of the axis (Im(-1/z) is 1e-12), and the section is
    holomorphic there all the same: the pass and ``branch_profile`` sign every det +1 matrix of word length
    6 alike, and ``phi_branch_profile`` passes at that point."""
    far = 1e6 + 1j
    mats = enumerate_cover(6).sl_matrices()
    signs = certify.branch_signs(mats, [far])
    assert 0 not in signs and signs.tolist() == [certify.branch_profile(g, [far]) for g in mats]
    assert run_certification(6, points=[far], check_filter=["phi_branch_profile"])["pass"] is True


def test_eta_multiplier_universe_names_the_element_that_fails_the_snap_gate(monkeypatch):
    """When the snap gate fails and the transform gate passes, the counterexample is the element of the
    worst snap distance."""
    elements = enumerate_cover(3).sl_elements()
    target, seen = len(elements) // 2, []
    snap = certify.snap_to_root_of_unity

    def far_at_target(value):
        root, index, dist = snap(value)
        seen.append(value)
        return root, index, 1.0 if len(seen) == target + 1 else dist

    monkeypatch.setattr(certify, "snap_to_root_of_unity", far_at_target)
    check = run_certification(3, check_filter=["eta_multiplier_universe"])["checks"][0]
    assert check["pass"] is False and check["params"]["worst_snap"] == 1.0
    assert check["params"]["worst_transform"] <= check["params"]["transform_tolerance"]
    assert check["counterexample"] == {"x": str(elements[target]), "snap_distance": 1.0}


def _sweep_of(cases):
    env = certify._Env(0, None, None, certify.DEFAULT_SEED, 1, False, CERTIFY_CONFIG)
    report = certify._sweep(env, {}, 1.0, cases)
    assert report["pass"] is False
    return report["max_residual"], report["counterexample"]


def test_worst_keeps_the_first_nan():
    """The first NaN witness wins, and a later larger number does not displace it: in ``_worst`` and
    in the ``_sweep`` verdict that every numeric check goes through."""
    cases = [(1.0, {"at": 1}), (float("nan"), {"at": 2}), (5.0, {"at": 3}), (float("nan"), {"at": 4})]
    for worst_of in (certify._worst, _sweep_of):
        value, witness = worst_of(cases)
        assert math.isnan(value) and witness == {"at": 2}, worst_of.__name__


def test_nan_residual_fails_its_check(monkeypatch):
    monkeypatch.setattr(certify, "composition_residuals", lambda f, weight, pairs, points: np.full(len(pairs), np.nan))
    report = run_certification(2, check_filter=["action_composition"])
    (check,) = report["checks"]
    assert check["pass"] is False and math.isnan(check["max_residual"])
    assert report["pass"] is False


def test_cocycle_triple_kernel_counts_a_broken_chi(monkeypatch):
    """A wrong chi sign (the lower-left entry's sign alone) breaks the cocycle identity; the kernel's
    count and first witness are pinned to those of the former per-slice loop."""
    monkeypatch.setattr(certify, "chi_negative", lambda c, d: c < 0)
    (check,) = run_certification(4, check_filter=["algebra_cocycle_triples"])["checks"]
    assert check["pass"] is False and check["max_residual"] == 27680
    assert check["counterexample"] == {"alpha": "[[-1,0],[0,-1]]", "beta": "[[0,-1],[1,0]]",
                                       "gamma": "[[0,-1],[1,0]]"}


def test_cocycle_triple_kernel_widens_its_dtype():
    """Triple products over T^40 and [[40,41],[39,40]] reach past int16 (4 * 41^3 > 2^15): the kernel
    holds them in int32 and still finds no violation."""
    t40, m = T_MAT, Mat2(40, 41, 39, 40)
    for _ in range(39):
        t40 = t40 * T_MAT
    small = enumerate_cover(2).matrices()
    mats = small + [t40, t40.inv(), m, m.inv(), m * S_MAT, S_MAT * m.inv()]
    assert certify._entry_rows(small, 3).dtype == np.int16
    assert certify._entry_rows(mats, 3).dtype == np.int32
    assert certify.cocycle_triple_violations(mats) == (0, None)


def test_cocycle_triple_kernel_refuses_rows_past_its_int64_key():
    """With S T^50000 the pair products reach the entry 50000^2, so the (x, y) row key x*span + y would
    pass int64 although the entries themselves fit: the kernel refuses instead of wrapping."""
    m = Mat2(0, -1, 1, 50000)
    assert certify._entry_rows([m, m.inv()], 3).dtype == np.int64
    with pytest.raises(ResourceLimitError, match="beyond an int64 key"):
        certify.cocycle_triple_violations([m, m.inv()])


def _cocycle_triple_loop(mats):
    """Scalar oracle for ``cocycle_triple_violations`` through ``cocycle``, in its order: c, then a, then b."""
    bad = [{"alpha": a, "beta": b, "gamma": c} for c in mats for a in mats for b in mats
           if cover.cocycle(a, b) * cover.cocycle(a * b, c) != cover.cocycle(a, b * c) * cover.cocycle(b, c)]
    return len(bad), (bad[0] if bad else None)


def _bbb_loop(mats):
    """Scalar oracle for ``bbb_violations``: the lemma pair by pair through ``cocycle`` and ``reflection_sign``."""
    bad = []
    for alpha in mats:
        for beta in mats:
            lhs = cover.cocycle(alpha, beta) * cover.cocycle(alpha.reflect_conjugate(), beta.reflect_conjugate())
            rhs = cover.reflection_sign(alpha) * cover.reflection_sign(beta) * cover.reflection_sign(alpha * beta)
            if lhs != rhs:
                bad.append({"alpha": alpha, "beta": beta, "lhs": lhs, "rhs": rhs})
    return len(bad), (bad[0] if bad else None)


def _flip_at(rule, c0, d0):
    """``rule`` with its bit flipped on the one bottom row (c0, d0), on ints and on arrays."""
    return lambda c, d: rule(c, d) ^ ((c == c0) & (d == d0))


@pytest.mark.parametrize("name, row", [(None, None), ("chi_negative", (1, 2)), ("chi_negative", (3, 2)),
                                       ("chi_negative", (-1, 0)), ("minus_t_row", (0, 1)),
                                       ("minus_t_row", (2, 1))])
def test_bbb_kernel_matches_the_scalar_loop(cover4, monkeypatch, name, row):
    """The pair kernel against the pair-by-pair loop on the det-one universe, as it stands and with one
    input bit flipped in both: the same number of failing pairs and the same first witness."""
    mats = cover4.sl_matrices()
    if name is not None:
        flipped = _flip_at(getattr(cover, name), *row)
        monkeypatch.setattr(cover, name, flipped)
        monkeypatch.setattr(certify, name, flipped)
    count, witness = certify.bbb_violations(mats)
    assert (count, witness) == _bbb_loop(mats)
    assert (count > 0) == (name is not None)


def test_bbb_report_shows_the_kernel_count(cover4, monkeypatch):
    """A failing B(a)B(b)B(ab) report shows how many pairs fail, not 1."""
    flipped = _flip_at(cover.chi_negative, 1, 2)
    monkeypatch.setattr(cover, "chi_negative", flipped)
    monkeypatch.setattr(certify, "chi_negative", flipped)
    (check,) = run_certification(4, check_filter=["algebra_product_bbb_lemma"])["checks"]
    assert check["pass"] is False
    assert check["max_residual"] == certify.bbb_violations(cover4.sl_matrices())[0] == 386


def test_conjugation_lemma_fails_without_the_reflection_sign(monkeypatch):
    """The closed form [RgR, B(g) eps] is stated only in the check, against the cover product: with B
    taken as +1 everywhere it disagrees on -T^n, and the check fails."""
    (check,) = run_certification(2, check_filter=["algebra_conjugation_lemma"])["checks"]
    assert check["pass"] is True and check["max_residual"] == "exact"
    monkeypatch.setattr(certify, "reflection_sign", lambda gamma: 1)
    (check,) = run_certification(2, check_filter=["algebra_conjugation_lemma"])["checks"]
    assert check["pass"] is False and check["max_residual"] == 1
    assert check["counterexample"]["products"] != check["counterexample"]["closed_form"]


def test_lattice_match_fails_on_a_relative_1e9_error_in_the_series(monkeypatch):
    """E4 scaled by 1 + 1e-9 keeps every series law inside its 1e-9 gate (each compares two scaled
    values), but the 60-row lattice oracle sees the error against its 1e-12 gate."""
    (check,) = run_certification(2, check_filter=["eisenstein_lattice_match"])["checks"]
    assert check["pass"] is True
    series = certify.eisenstein
    monkeypatch.setattr(certify, "eisenstein", lambda k, z, cfg: (1 + 1e-9) * series(k, z, cfg))
    (check,) = run_certification(2, check_filter=["eisenstein_lattice_match"])["checks"]
    assert check["pass"] is False and check["params"]["raw_series_laws"] < 1e-9
    assert check["max_residual"] == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("row", [None, (1, 0), (0, -1), (2, 1), "mutated_cocycle_bit"])
def test_cocycle_triple_kernel_matches_the_scalar_loop(monkeypatch, row):
    """The triple kernel against the triple-by-triple loop on the word-length-2 universe, as it stands, with
    chi flipped on one bottom row in both, and with a mutated ``cocycle_bit`` in both: the same count and the
    same first witness.  The mutation fails 584 triples over 21 matrices in 11 (det, bottom row) keys of up
    to 5 matrices each, so it pins the kernel's key weights and its witness in the original order."""
    mats = enumerate_cover(2).matrices()
    if row == "mutated_cocycle_bit":  # det a left out of the second Hilbert symbol
        name, rule = "cocycle_bit", lambda da, db, sa, sb, sab: (da & db) ^ ((sab ^ sa) & (sab ^ sb))
    elif row is not None:
        name, rule = "chi_negative", _flip_at(cover.chi_negative, *row)
    if row is not None:
        monkeypatch.setattr(cover, name, rule)
        monkeypatch.setattr(certify, name, rule)
    count, witness = certify.cocycle_triple_violations(mats)
    assert (count, witness) == _cocycle_triple_loop(mats)
    assert (count > 0) == (row is not None)
    assert row != "mutated_cocycle_bit" or count == 584


def _first_factor_kernel(mats):
    """Oracle for ``cocycle_triple_violations``: one slice per c, with one representative first factor a
    per (det, bottom row) key weighted by its multiplicity, and every c evaluated on its own."""
    chi_negative, cocycle_bit = certify.chi_negative, certify.cocycle_bit
    a, b, c, d = certify._entry_rows(mats, 3)
    det_neg, chi_neg = a * d - b * c < 0, chi_negative(c, d)
    pc, pd = c[:, None] * a + d[:, None] * c, c[:, None] * b + d[:, None] * d  # bottom rows of the pair products
    d_p, s_p = det_neg[:, None] ^ det_neg, chi_negative(pc, pd)
    a_p = cocycle_bit(det_neg[:, None], det_neg, chi_neg[:, None], chi_neg, s_p)
    _, first, inverse, counts = np.unique(np.stack([det_neg, c, d]), axis=1, return_index=True,
                                          return_inverse=True, return_counts=True)
    pc_r, pd_r, d_r, s_r, a_r = pc[first], pd[first], d_p[first], s_p[first], a_p[first]
    det_r, chi_r = det_neg[first, None], chi_neg[first, None]
    violations, witness = 0, None
    for k in range(len(mats)):
        s3 = chi_negative(pc_r * a[k] + pd_r * c[k], pc_r * b[k] + pd_r * d[k])  # chi bit of (ab)c = a(bc)
        bad = (a_r ^ cocycle_bit(d_r, det_neg[k], s_r, chi_neg[k], s3)
               ^ cocycle_bit(det_r, d_p[k], chi_r, s_p[:, k], s3) ^ a_p[:, k])
        count = int(counts @ np.count_nonzero(bad, axis=1))
        if count and witness is None:
            i, j = np.argwhere(bad[inverse])[0]
            witness = {"alpha": mats[i], "beta": mats[j], "gamma": mats[k]}
        violations += count
    return violations, witness


@pytest.mark.parametrize("word_len", [3, 4, 5, 6])
@pytest.mark.parametrize("name, rule, want_w4", [  # want_w4: violating triples at word length 4
    pytest.param(None, None, 0, id="production"),
    pytest.param("chi_negative", _flip_at(cover.chi_negative, 1, 0), 129718, id="chi flipped at (1,0)"),
    pytest.param("chi_negative", _flip_at(cover.chi_negative, 2, 1), 31568, id="chi flipped at (2,1)"),
    pytest.param("chi_negative", _flip_at(cover.chi_negative, 0, -1), 27680, id="chi flipped at (0,-1)"),
    pytest.param("chi_negative", lambda c, d: c < 0, 27680, id="chi as c<0"),
    pytest.param("chi_negative", lambda c, d: d < 0, 125832, id="chi as d<0"),
    pytest.param("cocycle_bit", lambda da, db, sa, sb, sab: (da & db) ^ ((sab ^ sa) & (sab ^ sb)), 88392,
                 id="det a left out of the second Hilbert symbol"),
])
def test_cocycle_triple_kernel_matches_the_first_factor_kernel(monkeypatch, word_len, name, rule, want_w4):
    """The grouped kernel against the one-slice-per-c kernel, with the production rules, under chi rules
    that are no half-plane rule and under a mutated ``cocycle_bit``: the same count and the same first
    witness (first c, then the first (a, b)).  The grouping is exact for any bottom-row chi rule, so
    every mutant agrees.  Word length 6 has 84 groups of c with the production rules, so the packed
    groups fill more than one word."""
    if name is not None:
        monkeypatch.setattr(certify, name, rule)
    mats = enumerate_cover(word_len).matrices()
    count, witness = certify.cocycle_triple_violations(mats)
    assert (count, witness) == _first_factor_kernel(mats)
    assert (count > 0) == (name is not None)
    assert word_len != 4 or count == want_w4


def test_cocycle_bit_on_packed_words_equals_it_on_bools():
    """``cocycle_bit`` is a formula in ``&`` and ``^``, so on uint64 words it evaluates each bit position on its
    own: all 32 patterns of its five input bits, packed twice into one word (bits 0-31 and 32-63) and also
    with each input spread to an all-zero or all-one word, give the bool values."""
    patterns = (np.arange(32)[:, None] >> np.arange(5) & 1 == 1).T  # [input, pattern]
    want = cover.cocycle_bit(*patterns)
    words = cover.cocycle_bit(*certify._packed_words(np.tile(patterns, 2)))
    assert np.array_equal(np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little"), np.tile(want, 2))
    spread = cover.cocycle_bit(*(certify._spread(bits) for bits in patterns))
    assert np.array_equal(spread[:, 0], np.where(want, certify._ALL_ONES, 0))


def test_algebra_checks_pass_on_the_deep_universe():
    """Word lengths 7 and 8: 544 and 900 matrices, all 161M and 729M cocycle triples and all 340^2 and
    560^2 det-one pairs."""
    for word_len, matrices, triples, pairs in ((7, 544, 160989184, 115600), (8, 900, 729000000, 313600)):
        report = run_certification(word_len, check_filter=ALGEBRA_CHECK_IDS)
        checks = {c["check_id"]: c for c in report["checks"]}
        assert set(checks) == set(ALGEBRA_CHECK_IDS) and report["pass"] is True
        assert checks["algebra_cocycle_triples"]["params"] == {"matrices": matrices, "triples": triples}
        assert checks["algebra_product_bbb_lemma"]["params"] == {"pairs": pairs}


@pytest.mark.parametrize("count, combos", [(7, {"(-1,-1)": 1, "(-1,1)": 2, "(1,-1)": 2, "(1,1)": 2}),
                                           (1, {"(1,1)": 1})])
def test_pair_draws_have_the_asked_count(monkeypatch, count, combos):
    """``--pairs N`` draws exactly N pairs for each pair-based check, also when 4 does not divide N; the
    first det combinations take the remainder."""
    sizes, draw = [], certify._Env.sample_pairs

    def spy(env, n):
        pairs = draw(env, n)
        sizes.append(len(pairs))
        return pairs

    monkeypatch.setattr(certify._Env, "sample_pairs", spy)
    report = run_certification(2, pair_count=count, check_filter=["action_composition", "rep_homomorphism"])
    composition, _ = report["checks"]
    assert composition["params"]["pairs"] == count and composition["params"]["det_combinations"] == combos
    assert sizes == [count, count]


def test_a_wrong_det_minus_one_phase_fails_the_reflection_check(monkeypatch):
    """Negative control for the batch pullback: negating the i-exponents of every det -1 element in
    ``slash._rows`` fails action_reflection_forms.  action_composition cannot see it, because both of its
    routes take the same pullback."""
    slash_module = importlib.import_module("metaplectic.slash")
    rows = slash_module._rows

    def wrong_phase(w, elts):
        out = rows(w, elts)
        out[5:, out[4] < 0] *= -1
        return out

    monkeypatch.setattr(slash_module, "_rows", wrong_phase)
    report = run_certification(5, check_filter=["action_composition", "action_reflection_forms"])
    composition, reflection = report["checks"]
    assert reflection["check_id"] == "action_reflection_forms" and reflection["pass"] is False
    assert reflection["max_residual"] > 1
    assert composition["check_id"] == "action_composition" and composition["pass"] is True


def test_batch_composition_matches_the_scalar_slash(monkeypatch):
    """At every pair and grid point of the word-length-5 action_composition sample, for both forms, the
    batch values of f|xy and (f|x)|y agree with ``slash(...).at(z)`` to 1e-12 relative to max(1, |v|)."""
    calls = []
    batch = certify.composition_residuals

    def spy(f, weight, pairs, points):
        calls.append((f, weight, pairs, points))
        return batch(f, weight, pairs, points)

    monkeypatch.setattr(certify, "composition_residuals", spy)
    assert run_certification(5)["pass"] is True
    assert len(calls) == 2
    for f, weight, pairs, points in calls:
        lhs = slash_values(f, weight, points, [x for x, _ in pairs], [y for _, y in pairs])
        rhs = slash_values(f, weight, points, [x * y for x, y in pairs])
        for i, (x, y) in enumerate(pairs):
            nested, direct = slash(slash(f, weight, x), weight, y), slash(f, weight, x * y)
            for j, z in enumerate(points):
                for got, want in ((lhs[i, j], nested.at(z)), (rhs[i, j], direct.at(z))):
                    assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) <= 1e-12, (str(x), str(y), z)


def test_batch_nan_reaches_the_pair_and_the_first_witness(cover4, composition_residual):
    """A NaN value makes exactly the pairs NaN that the scalar residual makes NaN, and ``_worst`` keeps the
    first of them, as action_composition feeds it."""
    def up(z):  # a point or an (n,) array; NaN right of Re z = 1
        return np.where(np.real(z) > 1, np.nan, np.exp(2j * np.pi * z / 5) + 0.3 * z)

    f, weight, points = HoloFn.from_scalar(upper=up, lower=up), Weight(3), full_grid()
    elts = cover4.elements()
    pairs = [(elts[i], elts[(7 * i + 3) % len(elts)]) for i in range(0, len(elts), 9)]
    got = composition_residuals(f, weight, pairs, points)
    want = np.array([composition_residual(f, weight, x, y, points) for x, y in pairs])
    assert np.array_equal(np.isnan(got), np.isnan(want)) and 0 < np.isnan(got).sum() < len(pairs)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)
    value, witness = certify._worst((r, {"x": x, "y": y}) for (x, y), r in zip(pairs, got))
    first = int(np.argmax(np.isnan(got)))
    assert math.isnan(value) and witness == {"x": pairs[first][0], "y": pairs[first][1]}


def test_importing_the_package_leaves_certify_unloaded():
    """``import metaplectic`` compiles no certification suite (a fresh process, so no test has loaded it);
    ``run_certification`` still resolves from the package, then from ``metaplectic.certify``."""
    code = ("import sys, metaplectic; assert 'metaplectic.certify' not in sys.modules; "
            "from metaplectic import run_certification; from metaplectic.certify import run_certification as r; "
            "assert run_certification is r is metaplectic.run_certification; "
            "assert 'run_certification' in metaplectic.__all__")
    env = {**os.environ, "PYTHONPATH": str(Path(certify.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
