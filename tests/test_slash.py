import cmath
import importlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from metaplectic.automorphy import AXIS_TOLERANCE, i_power, phi_upper
from metaplectic.cover import LIFT_R, LIFT_S, Mat2, MetaElt, CENTER_FLIP, R_MAT, cocycle, reflection_sign, word_lift
from metaplectic.errors import DomainError
from metaplectic.qseries import CERTIFY_CONFIG, eisenstein_form, eta_fn, eta_hat_form
from metaplectic.sampling import full_grid, upper_grid
from metaplectic.slash import (
    HoloFn,
    Weight,
    admissible_reflection_scalars,
    composition_residuals,
    cpow_int,
    holomorphy_residual,
    mobius,
    reflection_route,
    slash,
    slash_values,
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


def test_composition_trivial_cases(composition_residual):
    f = entire_fn()
    ident = MetaElt.identity()
    assert composition_residual(f, Weight(3), ident, ident, full_grid()) == 0.0
    assert composition_residual(f, Weight(3), LIFT_R, LIFT_R, full_grid()) < 1e-12


def test_composition_residual_keeps_nan(composition_residual):
    nan = lambda z: complex("nan")
    f = HoloFn.from_scalar(upper=nan, lower=nan)
    assert math.isnan(composition_residual(f, Weight(3), LIFT_S, LIFT_R, full_grid()))
    assert worst_residual([]) == 0.0
    assert worst_residual([0.5, 2.0, 1.0]) == 2.0
    for values in ([float("nan"), 2.0], [2.0, float("nan")], [0.0, float("nan"), 1.0]):
        assert math.isnan(worst_residual(values))


def test_composition_all_det_cases(cover4, composition_residual):
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
    for variant in ("direct", "inverse"):
        reflected, rests, phase = reflection_route(f, Weight(1), elts, variant)
        for x, rest in zip(elts, rests):
            direct, alt = slash(f, Weight(1), x), slash(reflected, Weight(1), rest).scale(phase)
            for z in full_grid()[::4]:
                assert abs(direct.at(z)[0] - alt.at(z)[0]) < 1e-12
    with pytest.raises(DomainError):
        reflection_route(f, Weight(1), [LIFT_S], "direct")  # det +1
    with pytest.raises(DomainError):
        reflection_route(f, Weight(1), [LIFT_R], "bogus")


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


def test_word_lift_through_slash(composition_residual):
    # slashing by a product of generators equals slashing by the word product
    f = entire_fn()
    x = word_lift(("S", "T", "S^-1"))
    y = word_lift(("T^-1", "R"))
    assert composition_residual(f, Weight(5), x, y, full_grid()[::3]) < 1e-10


def _composed(f, weight, pairs, points):
    """The batch values of (f|x)|y and f|xy over ``pairs``: ``slash_values`` with two columns and with one."""
    return (slash_values(f, weight, points, [x for x, _ in pairs], [y for _, y in pairs]),
            slash_values(f, weight, points, [x * y for x, y in pairs]))


@pytest.mark.parametrize("build", [eta_hat_form, lambda cfg: eisenstein_form(4, cfg)])
def test_batch_value_does_not_depend_on_its_chunk(cover4, build, monkeypatch):
    """A point's batch value is the same, bit for bit, alone, in another order, among other pairs, or in
    a batch cut into many chunks."""
    form = build(CERTIFY_CONFIG)
    plus = [e for e in cover4.elements() if e.det() == 1]
    minus = [e for e in cover4.elements() if e.det() == -1]
    pairs = [(px[7 * i % len(px)], py[11 * i % len(py)])
             for px, py in ((plus, plus), (plus, minus), (minus, plus), (minus, minus)) for i in range(1, 6)]
    points = np.array(full_grid() + (0.37 + 0.02j, -1.21 - 0.004j))
    lhs, rhs = _composed(form.fn, form.weight, pairs, points)
    assert lhs.shape == rhs.shape == (len(pairs), points.size, form.fn.dim)
    for i, pair in enumerate(pairs):
        alone = _composed(form.fn, form.weight, [pair], points[::-1])
        assert np.array_equal(alone[0][0], lhs[i, ::-1]) and np.array_equal(alone[1][0], rhs[i, ::-1])
        for j, z in enumerate(points[:3]):
            single = _composed(form.fn, form.weight, [pair], [z])
            assert np.array_equal(single[0][0, 0], lhs[i, j]) and np.array_equal(single[1][0, 0], rhs[i, j])
    swapped = _composed(form.fn, form.weight, pairs[::-1], points)
    assert np.array_equal(swapped[0][::-1], lhs) and np.array_equal(swapped[1][::-1], rhs)
    monkeypatch.setattr(importlib.import_module("metaplectic.slash"), "_CHUNK_POINTS", 3 * points.size)
    rechunked = _composed(form.fn, form.weight, pairs, points)
    assert np.array_equal(rechunked[0], lhs) and np.array_equal(rechunked[1], rhs)


def _oracle_cases(cover4):
    """(function, weight, elements, points): eta-hat and E4 on the whole cover and grid, raw-series eta on
    the SL elements and the upper grid."""
    raw = eta_fn(replace(CERTIFY_CONFIG, reduce=False))
    return [(eta_hat_form(CERTIFY_CONFIG).fn, Weight(1), cover4.elements(), full_grid()),
            (eisenstein_form(4, CERTIFY_CONFIG).fn, Weight(8), cover4.elements(), full_grid()),
            (raw, Weight(1), cover4.sl_elements(), upper_grid())]


def test_slash_values_match_the_scalar_slash(cover4):
    """Every element of the word-length-4 cover at every grid point: the batch value of f|x agrees with
    ``slash(f, w, x).at(z)`` to 1e-12 relative to max(1, |v|)."""
    for f, weight, elts, points in _oracle_cases(cover4):
        got = slash_values(f, weight, points, elts)
        assert got.shape == (len(elts), len(points), f.dim)
        for x, row in zip(elts, got):
            acted = slash(f, weight, x)
            for z, value in zip(points, row):
                want = acted.at(z)
                assert np.max(np.abs(value - want) / np.maximum(1, np.abs(want))) <= 1e-12, (str(x), z)


def test_slash_values_do_not_depend_on_their_chunk(cover4, monkeypatch):
    """A value is the same, bit for bit, for one element alone, at one point alone, or in a batch cut into
    many chunks."""
    for f, weight, elts, points in _oracle_cases(cover4):
        whole = slash_values(f, weight, points, elts)
        for i in range(0, len(elts), 17):
            assert np.array_equal(slash_values(f, weight, points, elts[i:i + 1])[0], whole[i])
            assert np.array_equal(slash_values(f, weight, points[i % len(points):][:1], elts[i:i + 1])[0, 0],
                                  whole[i, i % len(points)])
        monkeypatch.setattr(importlib.import_module("metaplectic.slash"), "_CHUNK_POINTS", 5 * len(points))
        assert np.array_equal(slash_values(f, weight, points, elts), whole)
        monkeypatch.undo()


def test_slash_values_refuse_like_holofn_at(cover4):
    """A point within the axis tolerance, and a half-plane the function lacks, raise what ``HoloFn.at``
    raises; no elements give an empty batch of the right shape."""
    f = eta_hat_form(CERTIFY_CONFIG).fn
    near = 0.3 + 0.5 * AXIS_TOLERANCE * 1j
    with pytest.raises(DomainError) as want:
        f.at(near)
    with pytest.raises(DomainError) as got:
        slash_values(f, Weight(1), (1j, near), cover4.elements())
    assert str(got.value) == str(want.value)
    up_only = eta_fn(CERTIFY_CONFIG)
    with pytest.raises(DomainError) as want:
        up_only.at(-1j)
    assert str(want.value) == "function has no lower half-plane evaluator"
    with pytest.raises(DomainError) as got:
        slash_values(up_only, Weight(1), upper_grid(), [LIFT_S, LIFT_R])  # R takes the upper grid below
    assert str(got.value) == str(want.value)
    assert slash_values(f, Weight(1), full_grid(), []).shape == (0, len(full_grid()), 2)
    with pytest.raises(DomainError, match="at least one column"):
        slash_values(f, Weight(1), full_grid())
    with pytest.raises(DomainError, match="all of one length"):
        slash_values(f, Weight(1), full_grid(), [LIFT_S, LIFT_R], [LIFT_S])


def _mat2_case_exponents(w: int, x: MetaElt) -> tuple[int, int]:
    """The i-exponents of the four cases stated on ``Mat2``: the cocycle A = cocycle(R, gamma) by a matrix
    product, and the reflection sign B of gamma (det +1) or of R*gamma (det -1)."""
    g, eps = x.gamma, x.eps
    if g.det() == 1:
        return w * (1 - eps), w * (1 - eps * reflection_sign(g))
    s = eps * cocycle(R_MAT, g)
    return -w * s, -w * s * reflection_sign(R_MAT * g)


def test_the_case_exponent_rule_equals_the_mat2_oracle(cover7):
    """``_case_exponents`` gives the oracle's exact integers called with an element's Python ints (as
    ``slash`` calls it, returning ints) and with int64 columns (as ``_rows`` calls it), over the
    word-length-7 universe plus det +-1 rows (0, d < 0)."""
    slash_module = importlib.import_module("metaplectic.slash")
    rule = slash_module._case_exponents
    extra = [MetaElt(Mat2(a, n, 0, -1), eps) for a in (1, -1) for n in (-3, 0, 5) for eps in (1, -1)]
    elts = cover7.elements() + extra
    for w in (0, 1, 2, 3, 8, 12):
        want = [_mat2_case_exponents(w, x) for x in elts]
        scalar = [rule(w, x.det() < 0, x.eps, x.gamma.c, x.gamma.d) for x in elts]
        assert scalar == want and all(type(e) is int for pair in scalar for e in pair)
        rows = slash_module._rows(w, elts)
        assert rows.dtype == np.int64
        assert rows.T.tolist() == [[*x.gamma.entries(), x.det(), *pair] for x, pair in zip(elts, want)]


def test_composition_residuals_of_empty_inputs():
    """No pairs give an empty array; no points give a zero residual for every pair."""
    f, pairs = eta_hat_form(CERTIFY_CONFIG).fn, [(LIFT_S, LIFT_R), (LIFT_R, LIFT_R)]
    assert composition_residuals(f, Weight(1), [], full_grid()).shape == (0,)
    got = composition_residuals(f, Weight(1), pairs, [])
    assert got.shape == (2,) and np.array_equal(got, np.zeros(2))
