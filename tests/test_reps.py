import cmath

import numpy as np
import pytest

from metaplectic.cover import CENTER_FLIP, LIFT_R, LIFT_S, LIFT_T, MetaElt
from metaplectic.errors import DomainError, ModularityError
from metaplectic.qseries import eta, eta_character, eta_fn, eta_form, eta_hat_form, eisenstein_form
from metaplectic.reps import (
    Rep,
    VVForm,
    character_of,
    extend_form,
    induce_form,
    project_components,
    snap_to_root_of_unity,
)
from metaplectic.sampling import full_grid, upper_grid
from metaplectic.slash import HoloFn, Weight

T24 = cmath.exp(1j * cmath.pi / 12)


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


def test_trivial_rep_evaluation(cover4):
    triv = Rep.trivial("GL")
    assert np.array_equal(triv.evaluate(MetaElt.identity()), np.eye(1))
    for x in cover4.elements()[:25]:
        assert triv.evaluate(x) == pytest.approx(np.eye(1))
    sl = Rep.trivial("SL")
    with pytest.raises(DomainError):
        sl.evaluate(LIFT_R)
    with pytest.raises(DomainError, match="no reflection image"):
        sl.word_image(("S", "R"))


def test_snap_to_root():
    root, j, dist = snap_to_root_of_unity(T24 * (1 + 1e-13), 24)
    assert j == 1 and dist < 1e-12
    with pytest.raises(DomainError):
        snap_to_root_of_unity(1.2 + 0.4j, 24, tol=1e-10)


def test_eta_character_images(qcfg):
    rho = eta_character(qcfg)
    assert rho.group == "SL" and rho.dim == 1
    assert abs(rho.images["T"][0, 0] - T24) < 1e-15
    assert abs(rho.images["S"][0, 0] - cmath.exp(-1j * cmath.pi / 4)) < 1e-15


def test_eta_character_z0_independent(qcfg):
    a = character_of(eta_fn(qcfg), Weight(1), z0=0.1 + 1.3j)
    b = character_of(eta_fn(qcfg), Weight(1), z0=-0.4 + 0.9j)
    for key in ("S", "T"):
        assert np.array_equal(a.images[key], b.images[key])  # snapped to exact roots


def test_rep_evaluate_examples(qcfg):
    rho = eta_character(qcfg)
    assert abs(rho.evaluate(LIFT_T)[0, 0] - T24) < 1e-15
    # central sign flip evaluates to (-1)^w for the weight-1/2 character
    assert abs(rho.evaluate(CENTER_FLIP)[0, 0] + 1) < 1e-14
    assert np.array_equal(rho.evaluate(MetaElt.identity()), np.eye(1))


def test_rep_homomorphism_sampled(cover4, qcfg):
    rho = eta_character(qcfg)
    rho_hat = rho.induce(Weight(1))
    rng = np.random.default_rng(17)
    elems = cover4.elements()
    sl = cover4.sl_elements()
    for _ in range(120):
        x, y = (elems[i] for i in rng.integers(0, len(elems), 2))
        assert rho_hat.evaluate(x * y) == pytest.approx(rho_hat.evaluate(x) @ rho_hat.evaluate(y), abs=1e-12)
        u, v = (sl[i] for i in rng.integers(0, len(sl), 2))
        assert rho.evaluate(u * v) == pytest.approx(rho.evaluate(u) @ rho.evaluate(v), abs=1e-13)


def test_rep_well_defined_on_alternate_words(cover4, qcfg):
    rho_hat = eta_character(qcfg).induce(Weight(1))
    for elt, w1, w2 in cover4.alternates:
        assert rho_hat.word_image(w1) == pytest.approx(rho_hat.word_image(w2), abs=1e-12)


def test_r_twist(qcfg):
    rho = eta_character(qcfg)
    twist = rho.r_twist()
    assert abs(twist.images["T"][0, 0] - T24.conjugate()) < 1e-14
    triv = Rep.trivial("SL")
    for key in ("S", "T"):
        assert triv.r_twist().images[key] == pytest.approx(triv.images[key])
        assert twist.r_twist().images[key] == pytest.approx(rho.images[key], abs=1e-13)
    with pytest.raises(DomainError):
        Rep.trivial("GL").r_twist()


def test_induce_and_restrict(qcfg):
    rho = eta_character(qcfg)
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


def test_rep_serialisation_round_trip(tmp_path, qcfg):
    hat = eta_character(qcfg).induce(Weight(1))
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


def test_induce_form_zero_pair(qcfg):
    rho = eta_character(qcfg)
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


def test_modularity_residual_eta(cover4, qcfg):
    f = eta_form(qcfg)
    elems = cover4.sl_elements()[:30]
    assert f.residual(elems, upper_grid()[:4]) < 1e-9


def test_vvform_dim_mismatch(qcfg):
    with pytest.raises(DomainError):
        VVForm(HoloFn.zero(2), Weight(1), Rep.trivial("SL"))
