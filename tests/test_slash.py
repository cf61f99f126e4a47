import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from metaplectic.automorphy import i_power, phi_upper
from metaplectic.cover import LIFT_R, LIFT_S, Mat2, MetaElt, CENTER_FLIP, R_MAT, cocycle, reflection_sign, word_lift
from metaplectic.errors import DomainError
from metaplectic.sampling import full_grid, upper_grid
from metaplectic.slash import (
    HoloFn,
    Weight,
    admissible_reflection_scalars,
    composition_residual,
    cpow_int,
    holomorphy_residual,
    mobius,
    slash,
    slash_via_reflection_rule,
    worst_residual,
)


def entire_fn() -> HoloFn:
    f = lambda z: cmath.exp(2j * cmath.pi * z / 5) + 0.3 * z
    return HoloFn.from_scalar(upper=f, lower=f)


def test_weight_semantics():
    w = Weight(1)
    assert w.k == Fraction(1, 2)
    assert Weight(8).k == 4
    assert "k=1/2" in str(w)
    with pytest.raises(DomainError):
        Weight(1.5)


def test_cpow_int():
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = complex(*rng.normal(size=2))
        n = int(rng.integers(-9, 10))
        if n < 0 and abs(base) < 1e-3:
            continue
        assert abs(cpow_int(base, n) - base ** n) < 1e-9 * max(1.0, abs(base) ** abs(n))
    assert cpow_int(2.0, 0) == 1
    assert cpow_int(2.0, -2) == 0.25


def test_mobius_examples():
    assert mobius(Mat2(1, 1, 0, 1), 2j) == 1 + 2j
    assert abs(mobius(Mat2(0, -1, 1, 0), 1j) - 1j) < 1e-15
    z = 0.7 + 0.4j
    assert mobius(Mat2(-1, 0, 0, 1), z) == -z  # the reflection is exact
    assert mobius(Mat2(-1, 0, 0, 1), 1j).imag < 0 or True
    # det +1 preserves the halves, det -1 swaps them
    assert mobius(Mat2(2, 1, 1, 1), 1j).imag > 0
    assert mobius(Mat2(-1, 0, 0, 1), 1j).imag < 0
    with pytest.raises(DomainError):
        mobius(Mat2(1, 1, 0, 1), 1.0)


def test_holofn_interface():
    f = entire_fn()
    assert f.dim == 1
    assert f.at(1j).shape == (1,)
    up_only = HoloFn(1, lambda z: np.array([z]), None)
    with pytest.raises(DomainError):
        up_only.at(-1j)
    with pytest.raises(DomainError):
        HoloFn(1, None, None)
    with pytest.raises(DomainError):
        HoloFn(0, lambda z: np.array([z]), None)
    bad_dim = HoloFn(2, lambda z: np.array([z]), None)
    with pytest.raises(DomainError):
        bad_dim.at(1j)
    # an evaluator returns an array of shape (dim,); a scalar is refused, not widened
    with pytest.raises(DomainError, match=r"shape \(\)"):
        HoloFn(1, lambda z: z, None).at(1j)
    assert np.all(HoloFn.zero(3).at(1j) == 0)
    assert HoloFn.zero(3).dim == 3
    scaled = f.scale(2j)
    assert scaled.at(1j) == pytest.approx(2j * f.at(1j))
    refl = f.compose_reflection()
    assert refl.at(1j) == pytest.approx(f.at(-1j))


def test_slash_identity_is_exact():
    f = entire_fn()
    out = slash(f, Weight(1), MetaElt.identity())
    for z in full_grid():
        assert out.at(z)[0] == f.at(z)[0]


def test_slash_center_flip_scalar():
    f = entire_fn()
    for w in (1, 2, 3, 8):
        out = slash(f, Weight(w), CENTER_FLIP)
        sign = (-1) ** w
        for z in full_grid()[:6]:
            assert out.at(z)[0] == sign * f.at(z)[0]


def test_slash_reflection_rule():
    f = entire_fn()
    for w in (1, 2, 3, 4):
        out = slash(f, Weight(w), LIFT_R)
        phase = 1j ** w
        for z in full_grid()[:8]:
            assert abs(out.at(z)[0] - phase * f.at(-z)[0]) < 1e-14


def test_slash_preserves_dim():
    f = HoloFn(2, lambda z: np.array([z, z * z]), lambda z: np.array([z, -z]))
    assert slash(f, Weight(3), LIFT_S).dim == 2
    assert slash(f, Weight(3), LIFT_R).dim == 2


def test_slash_matches_classical_formula(cover4):
    """det +1 on the upper half: f(gz) (eps phi)^(-2k), and for even doubled
    weight the root-free (cz+d)^(-k) route."""
    f = entire_fn()
    elts = cover4.sl_elements()[:30]
    for w in (1, 8):
        weight = Weight(w)
        for x in elts:
            acted = slash(f, weight, x)
            g = x.gamma
            for z in upper_grid()[:4]:
                phi = x.eps * phi_upper(g, z)
                manual = f.at(mobius(g, z))[0] * cpow_int(phi, -w)
                assert abs(acted.at(z)[0] - manual) < 1e-12
                if w == 8:
                    root_free = f.at(mobius(g, z))[0] / (g.c * z + g.d) ** 4
                    assert abs(acted.at(z)[0] - root_free) < 1e-12


def four_case_oracle(f: HoloFn, w: int, x: MetaElt, z: complex) -> np.ndarray:
    """The four-case action as written: phi+ of gamma, RgR, Rg or gR at z or -z."""
    g, eps = x.gamma, x.eps
    if g.det() == 1 and z.imag > 0:
        src, phi_mat, arg, sign, i_exp = f.upper, g, z, eps, 0
    elif g.det() == 1:
        src, phi_mat, arg, sign, i_exp = f.lower, g.reflect_conjugate(), -z, eps * reflection_sign(g), 0
    elif z.imag > 0:
        src, phi_mat, arg, sign, i_exp = f.lower, R_MAT * g, z, eps * cocycle(R_MAT, g), -w
    else:
        a_sign = cocycle(R_MAT, g)
        src, phi_mat, arg, sign, i_exp = f.upper, g * R_MAT, -z, eps * a_sign * reflection_sign(R_MAT * g), -w
    # i^(i_exp) sign^(-w), where sign^(-w) = -1 = i^2 exactly for sign -1 and odd w
    phase = i_power(i_exp + (2 if sign == -1 and w % 2 == 1 else 0))
    return src(mobius(g, z)) * (phase * cpow_int(phi_upper(phi_mat, arg), -w))


def test_slash_matches_four_case_oracle(cover4):
    """One shared c z + d for all four cases reproduces the per-case matrices bit for bit."""
    f = entire_fn()
    near_axis = tuple(x + s * 1e-6j for x in (-1.37, 0.23, 0.61, 2.09) for s in (1, -1))
    points = full_grid() + near_axis
    for w in (1, 2, 8):
        for x in cover4.elements():
            acted = slash(f, Weight(w), x)
            for z in points:
                assert acted.at(z) == four_case_oracle(f, w, x, z), (w, str(x), z)


def test_composition_trivial_cases():
    f = entire_fn()
    ident = MetaElt.identity()
    assert composition_residual(f, Weight(3), ident, ident, full_grid()) == 0.0
    assert composition_residual(f, Weight(3), LIFT_R, LIFT_R, full_grid()) < 1e-12


def test_composition_residual_keeps_nan():
    nan = lambda z: complex("nan")
    f = HoloFn.from_scalar(upper=nan, lower=nan)
    assert math.isnan(composition_residual(f, Weight(3), LIFT_S, LIFT_R, full_grid()))
    assert worst_residual([]) == 0.0
    assert worst_residual([0.5, 2.0, 1.0]) == 2.0
    for values in ([float("nan"), 2.0], [2.0, float("nan")], [0.0, float("nan"), 1.0]):
        assert math.isnan(worst_residual(values))


def test_composition_all_det_cases(cover4):
    f = entire_fn()
    rng = np.random.default_rng(5)
    plus = [e for e in cover4.elements() if e.det() == 1]
    minus = [e for e in cover4.elements() if e.det() == -1]
    for pool_x, pool_y in ((plus, plus), (plus, minus), (minus, plus), (minus, minus)):
        for _ in range(10):
            x = pool_x[rng.integers(0, len(pool_x))]
            y = pool_y[rng.integers(0, len(pool_y))]
            for w in (1, 4):
                assert composition_residual(f, Weight(w), x, y, full_grid()[::5]) < 1e-9


def test_reflection_route_variants(cover4):
    f = entire_fn()
    elts = [e for e in cover4.elements() if e.det() == -1][:15]
    for x in elts:
        direct = slash(f, Weight(1), x)
        for variant in ("direct", "inverse"):
            alt = slash_via_reflection_rule(f, Weight(1), x, variant)
            for z in full_grid()[::4]:
                assert abs(direct.at(z)[0] - alt.at(z)[0]) < 1e-12
    with pytest.raises(DomainError):
        slash_via_reflection_rule(f, Weight(1), LIFT_S)  # det +1
    with pytest.raises(DomainError):
        slash_via_reflection_rule(f, Weight(1), LIFT_R, "bogus")


def test_lambda_sets():
    assert set(admissible_reflection_scalars(Weight(1))) == {1j, -1j}
    assert set(admissible_reflection_scalars(Weight(3))) == {1j, -1j}
    assert set(admissible_reflection_scalars(Weight(2))) == {1, -1, 1j, -1j}
    assert set(admissible_reflection_scalars(Weight(8))) == {1, -1, 1j, -1j}
    # odd doubled weight leaves no room for a trivial reflection scalar
    assert 1 not in admissible_reflection_scalars(Weight(1))


def test_holomorphy_probe():
    fn = lambda z: np.array([cmath.exp(2j * cmath.pi * z / 7)])
    assert holomorphy_residual(fn, 0.3 + 1.1j) < 1e-9
    # a non-holomorphic function fails the probe loudly
    bad = lambda z: np.array([z.conjugate()])
    assert holomorphy_residual(bad, 0.3 + 1.1j) > 1.0


def test_word_lift_through_slash():
    # slashing by a product of generators equals slashing by the word product
    f = entire_fn()
    x = word_lift(("S", "T", "S^-1"))
    y = word_lift(("T^-1", "R"))
    assert composition_residual(f, Weight(5), x, y, full_grid()[::3]) < 1e-10
