import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from metaplectic import certify, cover
from metaplectic.certify import ALGEBRA_CHECK_IDS, run_certification
from metaplectic.cli import _strict_json
from metaplectic.cover import S_MAT, T_MAT, Mat2, enumerate_cover
from metaplectic.errors import DomainError, ResourceLimitError
from metaplectic.qseries import NAMED_FORMS
from metaplectic.reps import Rep, VVForm
from metaplectic.sampling import format_complex, full_grid, upper_grid
from metaplectic.slash import HoloFn, Weight, composition_residuals, holofn_values, slash, slash_values
from report_diff import _differences, _stream_differences, main as report_diff_main, moved_fields


def test_check_filter_refuses_unknown_ids():
    with pytest.raises(DomainError, match="unknown check ids: algebra_unit_valuez$"):
        run_certification(0, check_filter=["algebra_unit_values", "algebra_unit_valuez"])
    # a bare string is refused, not read as a sequence of one-letter ids
    with pytest.raises(DomainError, match="not the string 'algebra_unit_values'"):
        run_certification(0, check_filter="algebra_unit_values")


def test_check_filter_refuses_a_filter_of_no_check():
    """An empty filter would run every check; one of empty ids would be refused as an unknown id of no name."""
    for check_filter in ([], [""], ("", "")):
        with pytest.raises(DomainError, match="^check filter names no check$"):
            run_certification(0, check_filter=check_filter)


def test_a_bool_is_no_tolerance():
    with pytest.raises(DomainError, match="tolerance must be a finite number, got True"):
        certify.require_tolerance(True)
    assert certify.require_tolerance(0) == 0 and certify.require_tolerance(1e-9) == 1e-9
    # an int past the float range is refused like inf, not by math.isfinite's OverflowError
    for huge in (10 ** 400, -10 ** 400):
        with pytest.raises(DomainError, match=f"^tolerance must be a finite number, got {huge}$"):
            run_certification(0, tol=huge)
    assert certify.require_tolerance(10 ** 300) == 10 ** 300


@pytest.mark.parametrize("golden, kwargs", [("certify_w5.json", {}),
                                             ("certify_w2_tol_1e-30.json", {"max_word_len": 2, "tol": 1e-30}),
                                             ("certify_w7.json", {"max_word_len": 7})])
def test_certify_report_matches_its_golden_file(golden, kwargs):
    """The report, as ``certify --json`` writes it, equals a checked-in golden file: word length 5 with
    the defaults (every check passes), word length 2 at tolerance 1e-30 (every numeric witness path) and
    word length 7 (the deep universe, where action_composition passes narrowly at 9.3e-10 against 1e-9).
    A golden file changes only together with a CHANGES.md line naming each value that moved, which the
    failure message lists."""
    want = (Path(__file__).parent / "data" / golden).read_text()
    got = _strict_json(run_certification(**kwargs)) + "\n"
    assert got == want, "\n".join([f"{golden} moved, (check_id, field): golden -> now", *moved_fields(want, got)])


def test_moved_fields_name_each_value_that_moved():
    """The golden test's failure message: one line per moved leaf, nested fields by their dotted path."""
    want = json.dumps({"checks": [{"check_id": "a", "max_residual": 1.0, "params": {"x": 1, "y": [1, 2]}},
                                  {"check_id": "b", "pass": True}], "pass": True})
    got = json.dumps({"checks": [{"check_id": "a", "max_residual": 2.0, "params": {"x": 1, "y": [1, 3], "z": 0}},
                                 {"check_id": "b", "pass": True}], "pass": False})
    assert moved_fields(want, got) == ["('a', 'max_residual'): 1.0 -> 2.0", "('a', 'params.y'): [1, 2] -> [1, 3]",
                                        "('a', 'params.z'): '<absent>' -> 0", "(None, 'pass'): True -> False"]
    assert moved_fields(want, want) == []


def test_report_differences_name_each_part_that_moved(capsys):
    """``report_diff``'s comparison of two runs' (JSON, stdout, exit code), on hand-made triples and with no
    subprocess: equal runs give nothing; a moved field, a report only one run wrote, each changed stdout line and
    a changed exit code are each listed; and the tool refuses any argument count but two with exit code 2."""
    report = json.dumps({"checks": [{"check_id": "a", "max_residual": 1e-12, "pass": True}], "pass": True})
    run = (report, "PASS  a\nPASS  overall (1 checks)\n", 0)
    assert _differences(run, run) == []
    assert _differences(run, (report.replace("1e-12", "2e-12"), run[1], 0)) == ["('a', 'max_residual'): 1e-12 -> 2e-12"]
    assert _differences(run, ("", run[1], 0)) == ["json: only the old run wrote a report"]
    assert _differences(("", run[1], 0), run) == ["json: only the new run wrote a report"]
    assert _differences(run, (report.replace(": ", ":"), run[1], 0)) == ["json: the reports differ"]  # same fields
    assert _differences(run, (report, "FAIL  a\nFAIL  overall (1 checks)\nerror\n", 1)) == [
        "stdout: 'PASS  a' -> 'FAIL  a'", "stdout: 'PASS  overall (1 checks)' -> 'FAIL  overall (1 checks)'",
        "stdout: None -> 'error'", "exit code: 0 -> 1"]
    assert report_diff_main([]) == 2 and report_diff_main(["one-tree"]) == 2
    assert capsys.readouterr().err.startswith("Compare the certify reports of two source trees")


def test_stream_differences_name_each_part_that_moved():
    """``report_diff``'s comparison of two eval-stream replays, on hand-made replays: equal ones with nothing raised
    or mismatched give nothing; a failed replay, a raise, a mismatch and each bit-level change are each listed."""
    served = [["('eta', None, 0, 1j)", 0.7682, 0.0, 0.0, 0.0], ["('e4', None, 0, -1j)", 1.5, -2.0, 0.0, 0.0]]
    run = {"raised": 0, "mismatched": 0, "worst": 2e-10, "served": served}
    assert _stream_differences(run, run) == []
    assert _stream_differences(run, {"error": "the replay exited 1: ImportError"}) == [
        "new tree: the replay exited 1: ImportError"]
    moved = [served[0], [served[1][0], 1.5 + 2 ** -50, -2.0, 0.0, -0.0]]  # -0.0 alone would move it too
    assert _stream_differences(run, {**run, "served": moved}) == [
        f"1 of 2 requests moved, largest relative change {2 ** -50 / 2.5:.3g}",
        f"first moved: {served[1]} -> {moved[1]}"]
    raised = [served[0], [served[1][0], *[math.nan] * 4]]
    assert _stream_differences(run, {**run, "raised": 1, "mismatched": 1, "worst": 0.1, "served": raised}) == [
        "new tree: 1 raised, 1 mismatched (worst 0.1)", "1 of 2 requests moved, largest relative change inf",
        f"first moved: {served[1]} -> {raised[1]}"]
    assert _stream_differences({**run, "served": raised}, {**run, "served": raised}) == []  # NaN equals NaN
    assert _stream_differences(run, {**run, "served": served[:1]}) == [
        "1 of 2 requests moved, largest relative change inf", f"first moved: {served[1]} -> None"]


def test_every_verdict_input_is_in_the_setup():
    """Each ``run_certification`` parameter but ``force`` and ``check_filter``, which change no verdict, has a
    field in the report's ``setup``, so that a report names everything its verdicts depend on."""
    names = {"tol": "tolerance_override", "points": "sample_points"}
    params = set(inspect.signature(run_certification).parameters) - {"force", "check_filter"}
    setup = run_certification(0, check_filter=["algebra_unit_values"])["setup"]
    assert {names.get(name, name) for name in params} == set(setup)


@pytest.mark.parametrize("method, image, check_id, witness", [
    ("restrict", "T", "rep_induction_matrices", {"detail": "restricted T image"}),
    ("r_twist", "S", "rep_twist_properties", {"identity": "r_twist(trivial) = trivial", "key": "S"})])
def test_a_rep_check_names_the_identity_that_broke(monkeypatch, method, image, check_id, witness):
    """The two rep checks hand the sweep one named case per gap, not one folded worst: a restriction that negates
    the T image fails ``rep_induction_matrices`` on the restricted T image, and an r_twist that negates the S
    image fails ``rep_twist_properties`` first on the trivial twist at S, each by a gap of 2."""
    original = getattr(Rep, method)

    def negated(rep):
        out = original(rep)
        return Rep(out.group, out.dim, {**out.images, image: -out.images[image]})
    monkeypatch.setattr(Rep, method, negated)
    (check,) = run_certification(0, check_filter=[check_id])["checks"]
    assert not check["pass"] and check["max_residual"] == pytest.approx(2.0, abs=1e-15)
    assert check["counterexample"] == witness


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
    env = certify._Env(1, None, None, certify.DEFAULT_SEED, 1, False)
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


def test_the_phi_checks_read_one_table_of_phi_upper_per_run(monkeypatch):
    """The three phi checks call ``phi_upper`` once per det +1 matrix and upper point of the run, 120 x 12 times
    at word length 5, and read its table after that.  A refusal leaves no table: each check reports it, as it
    does alone, and a second read of the table calls ``phi_upper`` again."""
    calls, phi = [], certify.phi_upper
    phi_checks = ["phi_squaring", "phi_branch_profile", "phi_well_defined"]
    monkeypatch.setattr(certify, "phi_upper", lambda gamma, z: calls.append(gamma) or phi(gamma, z))
    assert run_certification(5, check_filter=phi_checks)["pass"] is True
    assert len(calls) == len(enumerate_cover(5).sl_matrices()) * len(upper_grid()) == 120 * 12

    def refuses(gamma, z):
        calls.append(gamma)
        if gamma == S_MAT:
            raise DomainError("not at S")
        return phi(gamma, z)

    monkeypatch.setattr(certify, "phi_upper", refuses)
    checks = run_certification(5, check_filter=phi_checks)["checks"]
    refusal = ("error", {"error": "DomainError: not at S"})
    assert [(check["max_residual"], check["counterexample"]) for check in checks] == [refusal] * 3
    env = certify._Env(1, None, None, certify.DEFAULT_SEED, 1, False)
    for _ in range(2):
        calls.clear()
        with pytest.raises(DomainError, match="not at S"):
            env.phi_plus[T_MAT]
        assert calls[-1] == S_MAT


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


def _scan(cases):
    """The verdict rule as a scan over pairs (residual, witness): a new record is a larger residual or the first
    NaN, and it takes its witness, None included."""
    value, kept = 0.0, None
    for r, witness in cases:
        if r > value or (math.isnan(r) and not math.isnan(value)):
            value, kept = r, witness
    return value, kept


def _array_rule(cases):
    return certify._worst(np.array([r for r, _ in cases]), lambda i: cases[i][1])


def _sweeps_of(cases):
    """The verdict of ``_sweep`` on the residual array and of its adapter ``_sweep_cases`` on the pairs."""
    env = certify._Env(0, None, None, certify.DEFAULT_SEED, 1, False)
    reports = (certify._sweep(env, {}, -1.0, [r for r, _ in cases], lambda i: cases[i][1]),
               certify._sweep_cases(env, {}, -1.0, iter(cases)))
    return [(report["max_residual"], report["counterexample"]) for report in reports]


def test_worst_keeps_the_first_nan():
    """The first NaN witness wins, and a later larger number does not displace it: in the array rule
    ``_worst``, in the ``_sweep`` verdict and in the ``_sweep_cases`` adapter that every numeric check goes
    through."""
    cases = [(1.0, {"at": 1}), (float("nan"), {"at": 2}), (5.0, {"at": 3}), (float("nan"), {"at": 4})]
    for value, witness in (_array_rule(cases), *_sweeps_of(cases)):
        assert math.isnan(value) and witness == {"at": 2}


def test_the_array_rule_is_the_scan():
    """On seeded cases with ties, NaNs, zeros and None witnesses, ``_worst`` on the residual array and both
    sweeps give the scan's value and witness: the first maximum or the first NaN, with its own witness even when
    that is None.  One argmax: only the worst index is asked for a witness, and none when every residual is 0.
    On a 2-d array the witness takes the unravelled index."""
    rng, pool = np.random.default_rng(40), [0.0, 1.0, 2.0, 3.0, float("nan")]
    for _ in range(300):
        cases = [(pool[rng.integers(0, 5)], None if rng.random() < 0.3 else {"at": i})
                 for i in range(int(rng.integers(0, 8)))]
        (value, witness), asked = _scan(cases), []
        shown = witness or {"detail": "no witness captured; see params"}  # what a failed verdict reports
        got = [certify._worst(np.array([r for r, _ in cases]), lambda i: asked.append(i) or cases[i][1])]
        for (got_value, got_witness), want in zip(got + _sweeps_of(cases), (witness, shown, shown)):
            assert got_witness == want and (got_value == value or math.isnan(got_value) and math.isnan(value))
        worst = [i for i, (r, _) in enumerate(cases) if r == value or math.isnan(r) and math.isnan(value)][:1]
        assert asked == ([] if value == 0.0 else worst)
    grid = np.array([[0.5, 2.0, 1.0], [2.0, float("nan"), 0.0]])
    value, witness = certify._worst(grid, lambda i, j: (i, j))
    assert math.isnan(value) and witness == (1, 1)
    assert certify._worst(np.nan_to_num(grid), lambda i, j: (i, j)) == (2.0, (0, 1))


def test_a_spike_in_action_composition_is_named_at_its_form_and_pair(monkeypatch):
    """Equal spikes at E4's pairs 7 and 9 and a smaller one at eta-hat's pair 12: the check's witness is the
    first maximum, built from the (form, pair) index of the residual array, one row per form of the one call."""
    residuals, calls = certify.composition_residuals, []

    def spiked(forms, pairs, points):
        out = residuals(forms, pairs, points)
        calls.append((forms, pairs))
        out[1, [7, 9]], out[0, 12] = 1.0, 0.5
        return out

    monkeypatch.setattr(certify, "composition_residuals", spiked)
    (check,) = run_certification(3, pair_count=40, check_filter=["action_composition"])["checks"]
    ((forms, pairs),) = calls
    assert [weight for _, weight in forms] == [Weight(1), Weight(8)] and [f.dim for f, _ in forms] == [2, 1]
    assert check["pass"] is False and check["max_residual"] == 1.0
    assert check["counterexample"] == {"form": "e4_even", "x": str(pairs[7][0]), "y": str(pairs[7][1])}


def test_a_spike_in_phi_section_consistency_is_named_at_its_pair_and_point(monkeypatch):
    """A spike in alpha's section root at (pair 5, point 3) is named by that pair, as the check drew it, and
    that point."""
    roots, cocycle, pairs, calls = certify.section_roots, certify.cocycle, [], []

    def spiked(c, d, j):
        out = roots(c, d, j)
        calls.append(out.shape)
        if len(calls) == 1:  # alpha's factor at the images of beta
            out[5, 3] += 1e3
        return out

    monkeypatch.setattr(certify, "section_roots", spiked)
    monkeypatch.setattr(certify, "cocycle", lambda a, b: pairs.append((a, b)) or cocycle(a, b))
    (check,) = run_certification(3, pair_count=20, check_filter=["phi_section_consistency"])["checks"]
    assert len(pairs) == 20 and calls == [(20, len(upper_grid()))] * 3
    assert check["pass"] is False and check["max_residual"] > 1.0
    assert check["counterexample"] == {"alpha": str(pairs[5][0]), "beta": str(pairs[5][1]),
                                       "z": format_complex(upper_grid()[3])}


def test_nan_residual_fails_its_check(monkeypatch):
    monkeypatch.setattr(certify, "composition_residuals",
                        lambda forms, pairs, points: np.full((len(forms), len(pairs)), np.nan))
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
    """E4 scaled by 1 + 1e-9, on the evaluator and on the unshifted series the T law reads, keeps every series
    law inside its 1e-9 gate (each compares two scaled values), but the 60-row lattice oracle sees the error
    against its 1e-12 gate."""
    (check,) = run_certification(2, check_filter=["eisenstein_lattice_match"])["checks"]
    assert check["pass"] is True
    for name in ("eisenstein", "_eisenstein_series"):
        series = getattr(certify, name)
        monkeypatch.setattr(certify, name, lambda k, z, cfg, series=series: (1 + 1e-9) * series(k, z, cfg))
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
def test_pair_draws_have_the_asked_count(count, combos):
    """``--pairs N`` draws exactly N pairs for each pair-based check, also when 4 does not divide N; the
    first det combinations take the remainder."""
    env = certify._Env(2, None, None, certify.DEFAULT_SEED, count, False)
    samples = (env.section_pairs, env.composition_pairs, env.rep_pairs, env.sl_pairs)
    assert [len(pairs) for pairs in samples] == [count] * 4
    for pairs in (env.composition_pairs, env.rep_pairs):
        assert Counter(f"({x.det()},{y.det()})" for x, y in pairs) == combos
    assert all(x.det() == y.det() == 1 for pairs in (env.section_pairs, env.sl_pairs) for x, y in pairs)
    report = run_certification(2, pair_count=count, check_filter=["action_composition", "rep_homomorphism"])
    composition, homomorphism = report["checks"]
    assert composition["params"]["pairs"] == count and composition["params"]["det_combinations"] == combos
    assert homomorphism["params"]["pairs_per_rep"] == count


def test_each_check_reports_alone_what_it_reports_in_the_full_run():
    """A check run alone by ``check_filter`` reports exactly its entry of the full run, as the setup draws every
    sample before any check runs: each check at word length 4, and the three sampling checks at word length 7,
    seed 4, where action_composition fails narrowly (1.3683e-9 against 1e-9)."""
    sampling_checks = ["phi_section_consistency", "action_composition", "rep_homomorphism"]
    for kwargs, ids in (({"max_word_len": 4}, [cid for cid, _ in certify.CHECKS]),
                        ({"max_word_len": 7, "seed": 4}, sampling_checks)):
        full = {check["check_id"]: check for check in run_certification(**kwargs)["checks"]}
        for cid in ids:
            assert run_certification(**kwargs, check_filter=[cid])["checks"] == [full[cid]], (kwargs, cid)
    assert (full["action_composition"]["pass"], full["action_composition"]["max_residual"]) == (
        False, 1.368337021742928e-09)
    assert full["rep_homomorphism"]["max_residual"] == 7.214954974277643e-15


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be at least 0, got -1"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": 4.0}, "seed must be an integer, got 4.0"),
    ({"pair_count": 2.5}, "pair count must be an integer, got 2.5"),
    ({"pair_count": True}, "pair count must be an integer, got True"),
    ({"pair_count": 0}, "pair count must be at least 1, got 0"),
    ({"max_word_len": True}, "word length bound must be an integer, got True"),
    ({"max_word_len": 2.5}, "word length bound must be an integer, got 2.5"),
    ({"max_word_len": -1}, "word length bound must be at least 0, got -1"),
    ({"points": []}, "the sample point set is empty"),
    ({"pair_count": 99999999999}, "pair count 99999999999 is above the cap 1000000"),
])
def test_the_setup_refuses_bad_arguments(kwargs, message):
    """A seed, pair count or word length bound that is a bool, no int or too small, and an empty point set, are
    refused before any check runs; ``points=None`` is the standard grid.  A pair count past the cap is refused
    as a resource limit before any sample is drawn."""
    kind = ResourceLimitError if "above the cap" in message else DomainError
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        run_certification(**{"max_word_len": 0, **kwargs})


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

    def spy(forms, pairs, points):
        calls.append((forms, pairs, points))
        return batch(forms, pairs, points)

    monkeypatch.setattr(certify, "composition_residuals", spy)
    assert run_certification(5)["pass"] is True
    ((forms, pairs, points),) = calls
    assert len(forms) == 2
    for f, weight in forms:
        lhs = slash_values(f, weight, points, [x for x, _ in pairs], [y for _, y in pairs])
        rhs = slash_values(f, weight, points, [x * y for x, y in pairs])
        for i, (x, y) in enumerate(pairs):
            nested, direct = slash(slash(f, weight, x), weight, y), slash(f, weight, x * y)
            for j, z in enumerate(points):
                for got, want in ((lhs[i, j], nested.at(z)), (rhs[i, j], direct.at(z))):
                    assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) <= 1e-12, (str(x), str(y), z)


@pytest.mark.parametrize("word_len, seed", [(5, certify.DEFAULT_SEED), (5, 4), (7, certify.DEFAULT_SEED), (7, 4)])
def test_composition_of_both_forms_at_once_is_the_per_form_route(word_len, seed, monkeypatch):
    """``composition_residuals`` of eta-hat and E4 together (one chain per chunk, f|xy summed once per distinct
    product matrix) is, bit for bit, each form's nested two-column ``slash_values`` less its one-column one, also
    when cut into chunks of 7 pairs."""
    env = certify._Env(word_len, None, None, seed, certify.DEFAULT_PAIR_COUNT, False)
    pairs, points = env.composition_pairs, env.grid
    forms = [(form.fn, form.weight) for form in (NAMED_FORMS[name](env.qcfg) for name in ("eta-hat", "e4"))]
    got = composition_residuals(forms, pairs, points)
    for (f, weight), row in zip(forms, got):
        lhs = slash_values(f, weight, points, [x for x, _ in pairs], [y for _, y in pairs])
        want = np.abs(lhs - slash_values(f, weight, points, [x * y for x, y in pairs])).max(axis=(1, 2), initial=0.0)
        assert np.array_equal(row.view(np.int64), want.view(np.int64))
    monkeypatch.setattr(importlib.import_module("metaplectic.slash"), "_CHUNK_POINTS", 7 * len(points))
    assert np.array_equal(composition_residuals(forms, pairs, points).view(np.int64), got.view(np.int64))


def _bits(value):
    return np.asarray(value).view(np.int64)


def test_the_value_tables_are_transparent():
    """Each form of a run returns, at the grid and at its S and T images, arrays bit for bit those of a fresh
    registry form, read-only and the stored one on a second call; points that differ only in the sign of a zero
    part are kept apart."""
    env = certify._Env(1, None, None, certify.DEFAULT_SEED, 1, False)
    points = env.grid + tuple(-1 / z for z in env.grid) + tuple(z + 1 for z in env.grid)
    signed = (complex(0.0, 0.8), complex(-0.0, 0.8), complex(0.0, -0.8), complex(-0.0, -0.8))
    for name, build in NAMED_FORMS.items():
        fresh, kept = build(env.qcfg).fn, env.forms[name].fn
        usable = [z for z in points + signed if kept.lower is not None or z.imag > 0]
        for z in usable:
            first, want = kept.at(z), fresh.at(z)
            assert np.array_equal(_bits(first), _bits(want)) and not first.flags.writeable
            assert kept.at(z) is first and np.array_equal(_bits(kept.at(np.complex128(z))), _bits(want))
        at = np.array(usable)  # an array call passes through the table
        assert np.array_equal(_bits(holofn_values(kept, at, at.imag > 0)), _bits(holofn_values(fresh, at, at.imag > 0)))
    seen = []
    kept = certify._with_value_tables(VVForm(HoloFn.from_scalar(upper=lambda z: seen.append(z) or math.copysign(1, z.real)),
                                             Weight(0), Rep.trivial("SL"))).fn
    assert [kept.at(z)[0] for z in signed[:2] * 2] == [1.0, -1.0] * 2 and len(seen) == 2


def _recorded_registry(monkeypatch) -> list:
    """Patch every ``NAMED_FORMS`` builder so that each half-plane evaluator it builds logs (form, side, point bits)
    for every scalar point it is given; returns the log."""
    log = []

    def recorded(name, side, evaluator):
        def at(z):
            if not isinstance(z, np.ndarray):
                log.append((name, side, complex(z).real.hex(), complex(z).imag.hex()))
            return evaluator(z)
        return evaluator and at

    for name, build in list(NAMED_FORMS.items()):
        def builder(cfg, name=name, build=build):
            form = build(cfg)
            fn = HoloFn(form.fn.dim, recorded(name, "upper", form.fn.upper), recorded(name, "lower", form.fn.lower))
            return VVForm(fn, form.weight, form.rep)
        monkeypatch.setitem(NAMED_FORMS, name, builder)
    return log


def test_no_form_evaluator_sees_a_point_twice_in_a_run_and_each_run_starts_empty(monkeypatch):
    """Across a whole run, every registry form's half-plane evaluators are handed each scalar point at most once;
    a second run asks for every point again, as its tables start empty."""
    log = _recorded_registry(monkeypatch)
    assert run_certification(4)["pass"] is True
    first = list(log)
    assert first and len(set(first)) == len(first)
    assert {name for name, *_ in first} == set(NAMED_FORMS)
    log.clear()
    run_certification(4)
    assert log == first


def test_action_composition_sums_each_series_once_per_lhs_pair_and_distinct_product(monkeypatch):
    """At word length 4 and the default seed, action_composition hands eta_batch (eta-hat's series) and
    eisenstein_batch (E4's) (lhs pairs + distinct product matrices) x grid points each: (500 + 236) x 24 = 17,664,
    where summing f|xy once per pair handed each 2 x 500 x 24 = 24,000."""
    qseries = importlib.import_module("metaplectic.qseries")
    counts = Counter()
    for name in ("eta_batch", "eisenstein_batch"):
        series = getattr(qseries, name)
        monkeypatch.setattr(qseries, name, lambda *args, name=name, series=series: counts.update(
            {name: args[-2].size}) or series(*args))
    (check,) = run_certification(4, check_filter=["action_composition"])["checks"]
    env = certify._Env(4, None, None, certify.DEFAULT_SEED, certify.DEFAULT_PAIR_COUNT, False)
    distinct = {(x * y).gamma for x, y in env.composition_pairs}
    assert check["pass"] is True and len(distinct) == 236 and len(env.grid) == 24
    assert counts == {"eta_batch": 17_664, "eisenstein_batch": 17_664}


def test_batch_nan_reaches_the_pair_and_the_first_witness(cover4, composition_residual):
    """A NaN value makes exactly the pairs NaN that the scalar residual makes NaN, and ``_worst`` keeps the
    first of them, as action_composition feeds it."""
    def up(z):  # a point or an (n,) array; NaN right of Re z = 1
        return np.where(np.real(z) > 1, np.nan, np.exp(2j * np.pi * z / 5) + 0.3 * z)

    f, weight, points = HoloFn.from_scalar(upper=up, lower=up), Weight(3), full_grid()
    elts = cover4.elements()
    pairs = [(elts[i], elts[(7 * i + 3) % len(elts)]) for i in range(0, len(elts), 9)]
    (got,) = composition_residuals([(f, weight)], pairs, points)
    want = np.array([composition_residual(f, weight, x, y, points) for x, y in pairs])
    assert np.array_equal(np.isnan(got), np.isnan(want)) and 0 < np.isnan(got).sum() < len(pairs)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)
    value, witness = certify._worst(got, lambda i: {"x": pairs[i][0], "y": pairs[i][1]})
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
