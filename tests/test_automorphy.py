import cmath
import math

import numpy as np
import pytest

from metaplectic.automorphy import (
    branch_profile,
    i_power,
    phi_lower,
    phi_upper,
    principal_sqrt,
    require_lower,
    require_off_axis,
    require_upper,
    word_factor,
)
from metaplectic.cover import Mat2, R_MAT, S_MAT, T_MAT, cocycle, reflection_sign, word_decompose, word_lift
from metaplectic.errors import DomainError
from metaplectic.sampling import lower_grid, upper_grid

EIGHTH = cmath.exp(1j * cmath.pi / 4)


def test_point_validation():
    assert require_off_axis(1 + 1j) == 1 + 1j
    with pytest.raises(DomainError):
        require_off_axis(3.0)
    with pytest.raises(DomainError):
        require_off_axis(1 + 1e-13j)
    for bad in (complex(0.3, math.nan), complex(0.1, math.inf), complex(math.nan, 1.0), complex(-math.inf, 2.0)):
        with pytest.raises(DomainError, match="is not a finite complex number"):
            require_off_axis(bad)
    with pytest.raises(DomainError):
        require_upper(1 - 1j)
    with pytest.raises(DomainError):
        require_lower(1 + 1j)


def test_principal_sqrt_branch():
    assert principal_sqrt(1) == 1
    assert abs(principal_sqrt(1j) - EIGHTH) < 1e-15
    assert principal_sqrt(-1) == 1j
    # the cut is closed at pi: a negative-zero imaginary part may not flip the sign
    assert principal_sqrt(complex(-1.0, -0.0)) == 1j
    assert abs(principal_sqrt(-4) - 2j) < 1e-15
    with pytest.raises(DomainError):
        principal_sqrt(0)


def test_i_power():
    values = (1, 1j, -1, -1j)
    for e in range(-41, 42):
        assert i_power(e) == values[e % 4] == 1j ** (e % 4)
    assert i_power(10**20 + 3) == -1j and i_power(-(10**20) - 1) == -1j
    assert i_power(-1) == -1j and i_power(-2) == -1 and i_power(-3) == 1j
    # i^(2k) for w = 2k: i^3 = -i, its square -1, and i^8 = 1
    assert (i_power(3), i_power(6), i_power(8)) == (-1j, -1, 1)
    # a sign s has s^w = i^(w (1 - s))
    for w in range(-5, 6):
        for s in (1, -1):
            assert i_power(w * (1 - s)) == s ** w
    # the zero parts are +0.0 (unlike the literal -1j), so products keep their zero signs
    for e in range(4):
        value = i_power(e)
        assert type(value) is complex
        assert math.copysign(1.0, value.real if e % 2 else value.imag) == 1.0


def test_generator_factors():
    for z in upper_grid():
        assert phi_upper(T_MAT, z) == 1
        assert phi_upper(Mat2(1, -1, 0, 1), z) == 1
    assert abs(phi_upper(S_MAT, 1j) - EIGHTH) < 1e-15


def test_phi_upper_matches_word_route(cover4):
    # the closed form against the constructive section: lifted generator word, corrected by its cover sign.
    # Near-axis points keep off the cusps -d/c, where c*z + d nearly cancels and the word walk loses digits.
    near_axis = tuple(x + 1j * y for x in (-1.37, 0.23, 0.61, 2.09) for y in (1e-6, 1e-3))
    for g in cover4.sl_matrices():
        word = word_decompose(g)
        eps = word_lift(word).eps
        for z in upper_grid() + near_axis:
            reference = eps * word_factor(word, z)
            assert abs(phi_upper(g, z) - reference) <= 1e-12 * abs(reference)
    for n in (-3, 0, 1, 5):
        for z in (1j, -2.5 + 0.01j, 0.4 + 1e-6j):
            assert phi_upper(Mat2(-1, n, 0, -1), z) == -1j


def test_phi_upper_domain():
    with pytest.raises(DomainError):
        phi_upper(R_MAT, 1j)  # det -1
    with pytest.raises(DomainError):
        phi_upper(S_MAT, -1j)  # wrong half-plane
    with pytest.raises(DomainError):
        phi_lower(S_MAT, 1j)


def test_phi_squares_to_bottom_row(cover4):
    for g in cover4.sl_matrices():
        for z in upper_grid():
            assert abs(phi_upper(g, z) ** 2 - (g.c * z + g.d)) < 1e-12
        for z in lower_grid():
            assert abs(phi_lower(g, z) ** 2 - (g.c * z + g.d)) < 1e-12


def test_phi_lower_definition(cover4):
    for g in list(cover4.sl_matrices())[:40]:
        for z in lower_grid()[:4]:
            expected = reflection_sign(g) * phi_upper(g.reflect_conjugate(), -z)
            assert phi_lower(g, z) == expected
    assert phi_lower(T_MAT, -2j) == 1
    s_val = phi_lower(S_MAT, -1j)
    assert abs(s_val - reflection_sign(S_MAT) * phi_upper(-S_MAT, 1j)) == 0


def test_section_consistency_sampled(cover4):
    rng = np.random.default_rng(11)
    mats = cover4.sl_matrices()
    for _ in range(300):
        alpha, beta = (mats[i] for i in rng.integers(0, len(mats), 2))
        sign = cocycle(alpha, beta)
        for z in upper_grid()[::3]:
            bz = (beta.a * z + beta.b) / (beta.c * z + beta.d)
            lhs = phi_upper(alpha, bz) * phi_upper(beta, z)
            rhs = sign * phi_upper(alpha * beta, z)
            assert abs(lhs - rhs) < 1e-10


def test_word_lift_well_defined(cover4):
    pairs = [(e, w1, w2) for e, w1, w2 in cover4.alternates
             if e.det() == 1 and "R" not in w1 and "R" not in w2]
    assert pairs, "enumeration should find alternate words"
    for elt, w1, w2 in pairs:
        for z in upper_grid()[:3]:
            a = word_factor(w1, z)
            b = word_factor(w2, z)
            direct = elt.eps * phi_upper(elt.gamma, z)
            assert abs(a - b) < 1e-12
            assert abs(a - direct) < 1e-12


def test_word_factor_rejects_reflection():
    with pytest.raises(DomainError):
        word_factor(("R",), 1j)


def test_branch_profile_constant(cover4):
    signs = {1: 0, -1: 0}
    for g in cover4.sl_matrices():
        signs[branch_profile(g, upper_grid())] += 1
    # both signs occur: the pinned section is not the raw principal branch everywhere
    assert signs[1] > 0 and signs[-1] > 0
