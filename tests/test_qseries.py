import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from metaplectic.automorphy import principal_sqrt
from metaplectic.cover import IDENT, LIFT_R, LIFT_S, LIFT_T, NEG_IDENT, S_MAT, T_MAT, Mat2
from metaplectic.errors import DomainError, ResourceLimitError
from metaplectic.qseries import (
    QSeriesConfig,
    dedekind_sum,
    eisenstein,
    eisenstein_form,
    eta,
    eta_multiplier_index,
    eta_hat,
    eta_hat_form,
    lattice_sum,
    reduce_to_fundamental,
    triangular_product,
    triangular_product_factored,
)
from metaplectic.sampling import full_grid, lower_grid, upper_grid
from metaplectic.slash import holomorphy_residual, mobius

# frozen from 60-digit evaluations of the same q-product with tail < 1e-30
ETA_AT_I = 0.7682254223260566590025941795761806445179
ETA_AT_2I = 0.5923827813324158852903633744919953727615


def test_config_validation():
    with pytest.raises(DomainError):
        QSeriesConfig(tail_tolerance=0.0)
    with pytest.raises(DomainError):
        QSeriesConfig(max_terms=0)


def test_near_axis_refusal():
    with pytest.raises(DomainError):
        eta(0.5 + 0.01j)  # default min_im = 0.05
    loose = QSeriesConfig(min_im=1e-3)
    assert eta(0.5 + 0.01j, loose) != 0


def test_max_terms_cap():
    tight = QSeriesConfig(max_terms=10, min_im=1e-6, reduce=False)
    with pytest.raises(ResourceLimitError):
        eta(0.3 + 0.001j, tight)


def test_eta_frozen_values(raw_cfg):
    assert abs(eta(1j, raw_cfg) - ETA_AT_I) < 1e-12
    assert abs(eta(2j, raw_cfg) - ETA_AT_2I) < 1e-12
    # determinism: same value bit for bit
    assert eta(0.3 + 0.7j, raw_cfg) == eta(0.3 + 0.7j, raw_cfg)


def test_eta_shift_law(raw_cfg):
    phase = cmath.exp(1j * cmath.pi / 12)
    for z in upper_grid():
        assert abs(eta(z + 1, raw_cfg) - phase * eta(z, raw_cfg)) < 1e-12


def test_eta_inversion_law(raw_cfg):
    for z in upper_grid():
        assert abs(eta(-1 / z, raw_cfg) - principal_sqrt(-1j * z) * eta(z, raw_cfg)) < 1e-10


def test_eta_reduction_matches_raw(qcfg, raw_cfg):
    for z in (0.04 + 0.012j, -0.7 + 0.06j, 1.3 + 0.2j, 0.4 + 0.09j):
        a, b = eta(z, qcfg), eta(z, raw_cfg)
        assert abs(a - b) / abs(b) < 1e-10


def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def test_dedekind_sum_reciprocity_matches_definition():
    for k in range(2, 61):
        for h in range(1, k):
            if math.gcd(h, k) != 1:
                continue
            defining = sum(_sawtooth(Fraction(r, k)) * _sawtooth(Fraction(h * r, k)) for r in range(1, k))
            assert dedekind_sum(h, k) == defining, (h, k)
            assert dedekind_sum(h - 3 * k, k) == defining
    assert dedekind_sum(5, 1) == 0
    with pytest.raises(DomainError):
        dedekind_sum(2, 4)


def test_eta_multiplier_index_known_values():
    assert eta_multiplier_index(T_MAT) == 1           # eta(z + 1) = e^(pi i/12) eta(z)
    assert eta_multiplier_index(S_MAT) == 21          # eta(-1/z) = e^(-pi i/4) sqrt(z) eta(z)
    assert eta_multiplier_index(NEG_IDENT) == 18      # eta(z) = -i sqrt(-1) eta(z)
    assert eta_multiplier_index(IDENT) == 0
    with pytest.raises(DomainError):
        eta_multiplier_index(Mat2(-1, 0, 0, 1))


def test_eta_multiplier_index_transforms_raw_eta(cover4, raw_cfg):
    # every sign of c and d, against the unreduced product at well-separated points
    for g in cover4.sl_matrices():
        root = cmath.exp(2j * cmath.pi * eta_multiplier_index(g) / 24)
        for z in (0.1 + 1.3j, -0.3 + 0.9j):
            gz = mobius(g, z)
            if gz.imag < 0.3:
                continue
            want = root * principal_sqrt(g.c * z + g.d) * eta(z, raw_cfg)
            assert abs(eta(gz, raw_cfg) - want) < 1e-12 * max(1.0, abs(want)), (str(g), z)


def _eta_mpmath(z: complex) -> mpmath.mpc:
    """The eta q-product at 30 digits, truncated where |q|^n < 1e-32."""
    with mpmath.workdps(30):
        zz = mpmath.mpc(z.real, z.imag)
        q = mpmath.exp(2j * mpmath.pi * zz)
        n = math.ceil(32 * math.log(10) / (2 * math.pi * z.imag))
        prod, qn = mpmath.mpc(1), mpmath.mpc(1)
        for _ in range(n):
            qn *= q
            prod *= 1 - qn
        return mpmath.exp(1j * mpmath.pi * zz / 12) * prod


def test_reduced_eta_matches_high_precision(qcfg):
    for y in (1e-3, 1e-2, 0.05, 0.2):
        for x in (-0.37, 0.2, 0.61):
            z = complex(x, y)
            got, want = eta(z, qcfg), _eta_mpmath(z)
            assert abs(got - complex(want)) <= 1e-10 * abs(complex(want)), z


def test_reduce_to_fundamental():
    g, w = reduce_to_fundamental(0.4 + 0.012j)
    assert g.det() == 1
    assert abs(mobius(g, 0.4 + 0.012j) - w) < 1e-14
    assert w.imag > 0.5 and abs(w.real) <= 0.5 + 1e-9
    g0, w0 = reduce_to_fundamental(0.1 + 2j)
    assert g0 == IDENT and w0 == 0.1 + 2j


def test_eisenstein_validation():
    with pytest.raises(DomainError):
        eisenstein(5, 1j)
    with pytest.raises(DomainError):
        eisenstein(8, 1j)


def test_eisenstein_periodicity(qcfg):
    for k in (4, 6):
        for z in upper_grid()[:6]:
            a, b = eisenstein(k, z + 1, qcfg), eisenstein(k, z, qcfg)
            assert abs(a - b) / abs(b) < 1e-12


def test_eisenstein_inversion_law(raw_cfg):
    for k in (4, 6):
        for z in upper_grid():
            lhs = eisenstein(k, -1 / z, raw_cfg)
            rhs = z ** k * eisenstein(k, z, raw_cfg)
            assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_lattice_hand_sum():
    assert lattice_sum(4, 1j, 1) == 3.0


def test_lattice_symmetry_exact():
    for z in (2j, 0.4 + 0.8j, -0.7 + 0.3j):
        assert lattice_sum(4, z, 50) == lattice_sum(4, -z, 50)


def test_lattice_cutoff_drift():
    assert abs(lattice_sum(4, 2j, 200) - lattice_sum(4, 2j, 400)) < 1e-6


def test_lattice_matches_series(qcfg):
    for z in (2j, 1 + 2j):
        series = eisenstein(4, z, qcfg)
        trunc = lattice_sum(4, z, 200)
        assert abs(series - trunc) / abs(series) < 1e-6


def _lattice_sum_grid(k, z, m_cutoff):
    """The whole-grid form of ``lattice_sum``: every term of the (2m+1)^2 grid at once.

    The square is bound to a name because numpy may evaluate a temporary-producing
    ``power * (w * w)`` on an array above 256 KiB in place, as ``(w * w) * power``,
    and complex multiplication with fused multiply-add rounds differently with the
    operands swapped.  For k = 4 both operands are the same square, so the order
    cannot matter there.
    """
    ms = np.arange(-m_cutoff, m_cutoff + 1)
    ns = np.arange(-m_cutoff, m_cutoff + 1)
    w = ms[:, None] * z + ns[None, :]
    w[m_cutoff, m_cutoff] = 1.0
    power = sq = w * w
    for _ in range(k // 2 - 1):
        power = power * sq
    terms = 1.0 / power
    terms[m_cutoff, m_cutoff] = 0.0
    rows = terms.sum(axis=1)
    total = complex(rows[m_cutoff])
    for j in range(1, m_cutoff + 1):
        total += complex(rows[m_cutoff + j] + rows[m_cutoff - j])
    return total


def test_lattice_rows_match_whole_grid():
    for k in (4, 6, 8):
        for z in (1j, 2j, 0.4 + 0.8j, -0.7 + 0.3j, 0.3 - 1.7j):
            for m_cutoff in (1, 7, 60, 64, 200):
                assert lattice_sum(k, z, m_cutoff) == _lattice_sum_grid(k, z, m_cutoff), (k, z, m_cutoff)
    assert lattice_sum(4, 2j, 400) == _lattice_sum_grid(4, 2j, 400)


def test_lattice_validation():
    with pytest.raises(DomainError):
        lattice_sum(3, 1j, 10)
    with pytest.raises(DomainError):
        lattice_sum(2, 1j, 10)
    with pytest.raises(DomainError):
        lattice_sum(4, 1j, 0)


def test_triangular_product_basics():
    assert triangular_product(0, 0.3 + 0.8j) == 1
    assert triangular_product(0, 1.7) == 1  # entire: real axis allowed
    z = 0.4 + 0.8j
    one = triangular_product(1, z)
    assert abs(one - (cmath.exp(-1j * cmath.pi * z) - cmath.exp(1j * cmath.pi * z))) == 0
    with pytest.raises(DomainError):
        triangular_product(-1, z)
    for product in (triangular_product, triangular_product_factored):
        for bad in (complex("nan"), complex(0.1, math.inf)):
            with pytest.raises(DomainError, match="is not a finite complex number"):
                product(3, bad)


def test_triangular_parity_exact():
    points = upper_grid()[:3] + lower_grid()[:3]
    for n in range(13):
        sign = (-1) ** n
        for z in points:
            direct = triangular_product(n, z)
            assert triangular_product(n, -z) == sign * direct  # bitwise mirror


def test_triangular_factored_form_agrees():
    for n in range(13):
        for z in upper_grid()[:4]:
            a = triangular_product(n, z)
            b = triangular_product_factored(n, z)
            assert abs(a - b) / max(1.0, abs(a)) < 1e-12


def test_eta_hat_values(qcfg):
    for z in upper_grid()[:5]:
        up = eta_hat(z, qcfg)
        assert up[1] == 0
        assert up[0] == pytest.approx(eta(z, qcfg))
        low = eta_hat(-z, qcfg)
        assert low[0] == 0
        assert low[1] == pytest.approx(1j * eta(z, qcfg))


def test_eta_hat_reflection_identity(qcfg):
    flip = np.array([[0, -1j], [1j, 0]])
    for z in full_grid():
        assert eta_hat(-z, qcfg) == pytest.approx(flip @ eta_hat(z, qcfg), abs=1e-10)


def test_eta_hat_matches_induced_form(qcfg):
    hat = eta_hat_form(qcfg)
    for z in full_grid()[::3]:
        assert eta_hat(z, qcfg) == pytest.approx(hat.at(z), abs=1e-12)


def test_eisenstein_forms_are_gl_modular(qcfg):
    for k, tol in ((4, 1e-9), (6, 1e-9)):
        form = eisenstein_form(k, qcfg)
        assert form.residual((LIFT_S, LIFT_T, LIFT_R), full_grid()[::2]) < tol


def test_holomorphy_probes(qcfg):
    probes = [z for z in upper_grid() if z.imag >= 0.8][:4]
    for z in probes:
        assert holomorphy_residual(lambda w: np.array([eta(w, qcfg)]), z) < 1e-6
        assert holomorphy_residual(lambda w: np.array([eisenstein(4, w, qcfg)]), z) < 1e-6
        assert holomorphy_residual(lambda w: eta_hat(w, qcfg), z.conjugate()) < 1e-6
