import cmath
import importlib
import json
import math
from functools import reduce

import numpy as np
import pytest

from metaplectic.automorphy import _word_data, i_power
from metaplectic.cover import CENTER_FLIP, LIFT_R, LIFT_S, LIFT_T, MetaElt
from metaplectic.errors import DomainError, ModularityError
from metaplectic.qseries import NAMED_FORMS, eta, eta_character, eta_fn, eta_form, eta_hat_form, eisenstein_form
from metaplectic.reps import (
    Rep,
    VVForm,
    extend_form,
    induce_form,
    modularity_residual,
    project_components,
    root24,
    snap_to_root_of_unity,
)
from metaplectic.sampling import full_grid, upper_grid
from metaplectic.slash import HoloFn, Weight, composition_residuals, slash

T24 = cmath.exp(1j * cmath.pi / 12)
reps_module = importlib.import_module("metaplectic.reps")


def test_rep_validation():
    eye = np.eye(1, dtype=complex)
    with pytest.raises(DomainError):
        Rep("XX", 1, {"S": eye, "T": eye})
    with pytest.raises(DomainError):
        Rep("SL", 1, {"S": eye})  # missing T
    with pytest.raises(DomainError):
        Rep("GL", 1, {"S": eye, "T": eye})  # missing R
    with pytest.raises(DomainError):
        Rep("SL", 2, {"S": eye, "T": eye})  # wrong shape
    with pytest.raises(DomainError):
        Rep("SL", 1, {"S": np.zeros((1, 1)), "T": eye})  # singular
    with pytest.raises(DomainError, match="image of S is not invertible"):
        Rep("SL", 2, {"S": [[1, 2], [2, 4]], "T": np.eye(2)})  # singular, but its cond is finite
    for value in (math.nan, math.inf):  # refused before the rank test, which cannot take a NaN
        with pytest.raises(DomainError, match="image of S is not finite"):
            Rep("SL", 1, {"S": [[value]], "T": eye})


def test_trivial_rep_evaluation(cover4):
    triv = Rep.trivial("GL")
    assert np.array_equal(triv.evaluate(MetaElt.identity()), np.eye(1))
    for x in cover4.elements()[:25]:
        assert triv.evaluate(x) == pytest.approx(np.eye(1))
    sl = Rep.trivial("SL")
    with pytest.raises(DomainError):
        sl.evaluate(LIFT_R)
    with pytest.raises(DomainError, match="no reflection image"):
        sl.word_images([("S", "R")])


def _pairwise_evaluate(rep: Rep, x: MetaElt) -> np.ndarray:
    """The fold that the stacked one replaced, as the oracle: ``reduce(np.matmul)`` of the images along
    x's generator word, the identity for none, times image(S)^4 where the lifted word has the other sign."""
    word, eps = _word_data(x.gamma)
    table = {**rep.images, "S^-1": np.linalg.inv(rep.images["S"]), "T^-1": np.linalg.inv(rep.images["T"])}
    out = reduce(np.matmul, map(table.__getitem__, word)) if word else np.eye(rep.dim, dtype=complex)
    return out @ np.linalg.matrix_power(rep.images["S"], 4) if eps != x.eps else out


def test_stacked_fold_equals_the_pairwise_fold(cover7):
    """One stacked matmul per token position gives the pairwise fold bit for bit on every element of the
    word-length-7 universe, central correction included, in a batch and one element at a time."""
    rho = eta_character()
    hat = rho.induce(Weight(1))
    sl, every = cover7.sl_elements(), cover7.elements()
    assert sum(_word_data(x.gamma)[1] != x.eps for x in sl) > 100  # the correction is exercised
    for rep, elts in ((rho, sl), (hat, every), (Rep.trivial("GL"), every)):
        images = rep.evaluate_batch(elts)
        assert images.shape == (len(elts), rep.dim, rep.dim)
        assert all(np.array_equal(image, _pairwise_evaluate(rep, x)) for image, x in zip(images, elts))
        assert all(np.array_equal(rep.evaluate(x), _pairwise_evaluate(rep, x)) for x in elts[::37])
    assert np.array_equal(hat.word_images([()])[0], np.eye(2))
    assert np.array_equal(rho.evaluate(MetaElt.identity()), np.eye(1))
    assert hat.word_images([]).shape == (0, 2, 2) and hat.evaluate_batch([]).shape == (0, 2, 2)
    with pytest.raises(DomainError, match="^SL-cover representation cannot take determinant -1 elements$"):
        rho.evaluate_batch([LIFT_T, LIFT_R])
    with pytest.raises(DomainError, match="^SL-cover representation has no reflection image$"):
        rho.word_images([("T",), ("S", "R")])


def test_snap_to_root():
    root, j, dist = snap_to_root_of_unity(T24 * (1 + 1e-13))
    assert j == 1 and dist < 1e-12


def test_snap_to_root_by_phase_equals_the_24_root_scan():
    """The root nearest in angle is the root nearest in distance: the rounded phase gives the scan's
    root, index and distance bit for bit, at seeded values near every root, on them and of moduli 1e-4 to
    1e2.  (Near 0 every root is about 1 away and the scan picks by the rounding of |root24(j)|.)"""
    rng = np.random.default_rng(24)
    values = list(rng.normal(size=2000) * np.exp(rng.uniform(-3, 3, 2000)) + 1j * rng.normal(size=2000))
    values += [root24(j) * (1 + complex(*rng.normal(scale=1e-9, size=2))) for j in range(24) for _ in range(10)]
    values += [root24(j) for j in range(24)] + [complex(-1.0, -0.0)]
    for v in values:
        j = min(range(24), key=lambda i: abs(v - root24(i)))
        assert snap_to_root_of_unity(v) == (root24(j), j, abs(v - root24(j)))


def test_eta_character_images():
    rho = eta_character()
    assert rho.group == "SL" and rho.dim == 1
    assert rho.images["T"][0, 0] == root24(1)
    assert rho.images["S"][0, 0] == root24(21)
    assert abs(rho.images["S"][0, 0] - cmath.exp(-1j * cmath.pi / 4)) < 1e-15


def test_eta_character_z0_independent(qcfg, raw_cfg):
    # numeric oracle: at any z0, (eta|[g,1])(z0) / eta(z0) is the character's image of g
    rho = eta_character()
    for cfg in (qcfg, raw_cfg):
        f = eta_fn(cfg)
        for z0 in (0.1 + 1.3j, -0.4 + 0.9j, 0.3 + 0.5j, -0.05 + 0.35j, 1.7 + 2.1j, 0.45 + 0.95j):
            base = f.at(z0)[0]
            for key, gen in (("S", LIFT_S), ("T", LIFT_T)):
                ratio = slash(f, Weight(1), gen).at(z0)[0] / base
                assert abs(ratio - rho.images[key][0, 0]) < 1e-12, (cfg.reduce, z0, key)


def test_rep_evaluate_examples():
    rho = eta_character()
    assert abs(rho.evaluate(LIFT_T)[0, 0] - T24) < 1e-15
    # central sign flip evaluates to (-1)^w for the weight-1/2 character
    assert abs(rho.evaluate(CENTER_FLIP)[0, 0] + 1) < 1e-14
    assert np.array_equal(rho.evaluate(MetaElt.identity()), np.eye(1))


def test_rep_homomorphism_sampled(cover4):
    rho = eta_character()
    rho_hat = rho.induce(Weight(1))
    rng = np.random.default_rng(17)
    elems = cover4.elements()
    sl = cover4.sl_elements()
    for _ in range(120):
        x, y = (elems[i] for i in rng.integers(0, len(elems), 2))
        assert rho_hat.evaluate(x * y) == pytest.approx(rho_hat.evaluate(x) @ rho_hat.evaluate(y), abs=1e-12)
        u, v = (sl[i] for i in rng.integers(0, len(sl), 2))
        assert rho.evaluate(u * v) == pytest.approx(rho.evaluate(u) @ rho.evaluate(v), abs=1e-13)


def test_rep_well_defined_on_alternate_words(cover4):
    rho_hat = eta_character().induce(Weight(1))
    for elt, w1, w2 in cover4.alternates:
        assert rho_hat.word_images([w1])[0] == pytest.approx(rho_hat.word_images([w2])[0], abs=1e-12)


def test_r_twist():
    rho = eta_character()
    twist = rho.r_twist()
    assert abs(twist.images["T"][0, 0] - T24.conjugate()) < 1e-14
    triv = Rep.trivial("SL")
    for key in ("S", "T"):
        assert triv.r_twist().images[key] == pytest.approx(triv.images[key])
        assert twist.r_twist().images[key] == pytest.approx(rho.images[key], abs=1e-13)
    with pytest.raises(DomainError):
        Rep.trivial("GL").r_twist()


def test_induce_and_restrict():
    rho = eta_character()
    hat = rho.induce(Weight(1))
    assert hat.group == "GL" and hat.dim == 2
    assert hat.images["R"] == pytest.approx(np.array([[0, 1], [-1, 0]], dtype=complex))
    assert hat.images["T"] == pytest.approx(np.diag([T24, T24.conjugate()]), abs=1e-14)
    res = hat.restrict()
    assert res.group == "SL" and res.dim == 2 == 2 * rho.dim
    assert res.images["T"] == pytest.approx(np.diag([T24, T24.conjugate()]), abs=1e-14)
    assert Rep.trivial("GL").restrict().images["S"].shape == (1, 1)
    with pytest.raises(DomainError):
        Rep.trivial("SL").restrict()
    # the center goes to (-1)^w times the identity
    assert hat.evaluate(CENTER_FLIP) == pytest.approx(-np.eye(2), abs=1e-13)
    even = Rep.trivial("SL").induce(Weight(8))
    assert even.images["R"] == pytest.approx(np.array([[0, 1], [1, 0]], dtype=complex))


def test_rep_serialisation_round_trip(tmp_path):
    hat = eta_character().induce(Weight(1))
    path = tmp_path / "rep.json"
    hat.save(path)
    loaded = Rep.load(path)
    assert loaded.group == hat.group and loaded.dim == hat.dim
    for key in ("S", "T", "R"):
        assert np.array_equal(loaded.images[key], hat.images[key])
    bad = tmp_path / "bad.json"
    bad.write_text("{\"group\": \"GL\"}")
    with pytest.raises(DomainError):
        Rep.load(bad)
    bad.write_text(json.dumps({"group": "SL", "dim": 1, "images": [1, 2]}))  # images not a mapping
    with pytest.raises(DomainError, match="bad representation serialisation"):
        Rep.load(bad)
    good = eta_character().to_json_dict()
    for dim in (1.9, "1", True):  # dim must be a JSON integer, not one that int() accepts
        bad.write_text(json.dumps({**good, "dim": dim}))
        with pytest.raises(DomainError, match="bad representation serialisation"):
            Rep.load(bad)
    # image entries must be JSON numbers: complex() would read true and false as 1 and 0
    for entry in ([True, False], [1.0, None], [10 ** 400, 0]):
        bad.write_text(json.dumps({**good, "images": {**good["images"], "S": [[entry]]}}))
        with pytest.raises(DomainError, match="bad representation serialisation"):
            Rep.load(bad)
    bad.write_text(json.dumps({**good, "images": {**good["images"], "S": [[[math.nan, 0.0]]]}}))
    with pytest.raises(DomainError, match="bad representation serialisation: image of S is not finite"):
        Rep.load(bad)


def test_extend_form_even_weight(qcfg):
    form = eisenstein_form(4, qcfg)
    # i^(2k) = 1 and the trivial reflection image make this the even extension
    for z in upper_grid()[:6]:
        assert form.at(-z)[0] == pytest.approx(form.at(z)[0], abs=1e-12)
    assert form.residual((LIFT_S, LIFT_T, LIFT_R), full_grid()[::4]) < 1e-9


def test_extend_form_zero():
    zero = HoloFn.zero(1)
    out = extend_form(HoloFn(1, zero.upper, None), Weight(3), Rep.trivial("GL"))
    for z in full_grid()[:4]:
        assert np.all(out.at(z) == 0)


def test_extend_form_rejects_eta(qcfg):
    with pytest.raises(ModularityError) as err:
        extend_form(eta_fn(qcfg), Weight(1), Rep.trivial("GL"))
    assert err.value.residual > 1e-3


def test_an_empty_point_set_skips_certification(monkeypatch, qcfg):
    """An empty point set builds without a check in both constructions, on inputs that the default grids
    refuse: z + 2 by scalar extension and as Ind(z + 2, 0) for eta's character, and eta by scalar extension."""
    rho, shifted = eta_character(), HoloFn.from_scalar(upper=lambda z: z + 2)
    f, g = VVForm(shifted, Weight(1), rho), VVForm.zero(Weight(1), rho.r_twist())
    with pytest.raises(ModularityError, match="induced form fails certification against the induced representation"):
        induce_form(f, g)
    with pytest.raises(ModularityError, match="upper function is not modular for the restricted representation"):
        extend_form(shifted, Weight(1), Rep.trivial("GL"))

    def refuses(*args):
        raise AssertionError("certified on an empty point set")

    monkeypatch.setattr(reps_module, "modularity_residual", refuses)
    assert np.array_equal(induce_form(f, g, points=()).at(-1 + 0.5j), [1 + 0.5j, 0])
    assert extend_form(shifted, Weight(1), Rep.trivial("GL"), points=[]).at(-1j)[0] == 1j * (2 + 1j)
    unchecked = extend_form(eta_fn(qcfg), Weight(1), Rep.trivial("GL"), points=())
    assert unchecked.at(-1j)[0] == 1j * eta(1j, qcfg)


def test_the_named_forms_are_built_unchecked(monkeypatch, qcfg):
    """The registry builds every form without certifying it: certify's checks certify them."""
    def refuses(*args):
        raise AssertionError("a named form was certified while it was built")

    monkeypatch.setattr(reps_module, "modularity_residual", refuses)
    for name, build in NAMED_FORMS.items():
        form = build(qcfg)
        assert form.at(0.2 + 0.9j).shape == (form.rep.dim,), name


def test_induce_form_eta_hat(qcfg):
    hat = eta_hat_form(qcfg)
    assert hat.fn.dim == 2
    for z in upper_grid()[:5]:
        vec = hat.at(z)
        assert vec[1] == 0
        assert vec[0] == pytest.approx(eta(z, qcfg))
        low = hat.at(-z)
        assert low[0] == 0
        assert low[1] == pytest.approx(1j * eta(z, qcfg))


def _induced_by_formula(f_up, g_up, w):
    """The induced form written out: (f, g) above, ((-i)^w g(-z), i^w f(-z)) below."""
    def value(z):
        if z.imag > 0:
            return np.concatenate([f_up(z), g_up(z)])
        return np.concatenate([i_power(3 * w) * g_up(-z), i_power(w) * f_up(-z)])
    return value


def test_induce_form_matches_formula_exactly(qcfg):
    eta_f = eta_form(qcfg)
    e4_up = HoloFn(1, eisenstein_form(4, qcfg).fn.upper, None)
    pairs = [
        (eta_f, VVForm.zero(Weight(1), eta_f.rep.r_twist())),
        (VVForm(e4_up, Weight(8), Rep.trivial("SL")), VVForm(e4_up.scale(0.5), Weight(8), Rep.trivial("SL"))),
    ]
    for f, g in pairs:
        induced = induce_form(f, g)
        want = _induced_by_formula(f.fn.upper, g.fn.upper, f.weight.w)
        for z in full_grid():
            assert np.array_equal(induced.at(z), want(z)), (f.weight, z)


def test_induce_form_checks_inputs(qcfg):
    f = eta_form(qcfg)
    wrong_weight = VVForm(f.fn, Weight(3), f.rep)
    with pytest.raises(DomainError):
        induce_form(f, wrong_weight)
    not_twisted = VVForm(HoloFn.zero(1), Weight(1), f.rep)  # rep, not rep^R
    with pytest.raises(DomainError):
        induce_form(f, not_twisted)
    other_dim = VVForm(HoloFn.zero(2), Weight(1), f.rep.r_twist().induce(Weight(1)).restrict())
    with pytest.raises(DomainError):
        induce_form(f, other_dim)


def test_induce_form_zero_pair():
    rho = eta_character()
    zero = induce_form(VVForm.zero(Weight(1), rho), VVForm.zero(Weight(1), rho.r_twist()))
    for z in full_grid()[:6]:
        assert np.all(zero.at(z) == 0)
    assert zero.fn.dim == 2


def test_projection_recovers_components(qcfg):
    hat = eta_hat_form(qcfg)
    first, second = project_components(hat)
    ef = eta_fn(qcfg)
    for z in upper_grid():
        assert first.at(z)[0] == ef.at(z)[0]
        assert second.at(z)[0] == 0
    with pytest.raises(DomainError):
        project_components(VVForm(HoloFn.zero(1), Weight(1), Rep.trivial("SL")))


def test_projections_keep_the_batch_contract(cover4, qcfg):
    """An (n,) array of points gives (n, dim) values through the projections, so Ind(eta, 0) rebuilt from
    eta-hat's two projections composes exactly as eta-hat does on batched pairs."""
    hat = eta_hat_form(qcfg)
    first, second = project_components(hat)
    z = np.array(upper_grid()[:3])
    assert first.upper(z).shape == second.upper(z).shape == (3, 1)
    rebuilt = induce_form(VVForm(first, Weight(1), eta_character()),
                          VVForm(second, Weight(1), eta_character().r_twist()))
    elts = cover4.elements()
    pairs = [(elts[i], elts[(7 * i + 3) % len(elts)]) for i in range(0, len(elts), 40)]
    got = composition_residuals(rebuilt.fn, Weight(1), pairs, full_grid())
    assert np.array_equal(got, composition_residuals(hat.fn, Weight(1), pairs, full_grid()))


def test_modularity_residual_eta(cover4, qcfg):
    f = eta_form(qcfg)
    elems = cover4.sl_elements()[:30]
    assert f.residual(elems, upper_grid()[:4]) < 1e-9


def test_vvform_dim_mismatch():
    with pytest.raises(DomainError):
        VVForm(HoloFn.zero(2), Weight(1), Rep.trivial("SL"))


def test_nan_form_is_not_modular():
    f = HoloFn.from_scalar(upper=lambda z: complex("nan"))
    assert math.isnan(modularity_residual(f, Weight(8), Rep.trivial("SL"), (LIFT_S, LIFT_T), upper_grid()))
    with pytest.raises(ModularityError, match="residual nan"):
        extend_form(f, Weight(8), Rep.trivial("GL"))
