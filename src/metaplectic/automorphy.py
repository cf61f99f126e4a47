"""Holomorphic square-root automorphy factors on both half-planes.

The section is pinned constructively: the lifted generators [S,1] and [T,1]
carry the principal branches sqrt(z) and 1, and any other determinant-one
matrix carries the pair-product factor of its generator word times the exact
cover sign of the lifted word (``word_factor`` over ``_word_data``).  That is
the square root of c*z + d with argument in [-pi, pi), which ``phi_upper``
evaluates in closed form; the word route stays as its certified reference.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from .cover import Mat2, Word, TOKEN_MATS, minus_t_row, reflection_sign, word_decompose, word_lift
from .errors import DomainError

AXIS_TOLERANCE = 1e-12


def require_finite(z) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"point {z} is not a finite complex number")
    return z


def require_off_axis(z) -> complex:
    z = require_finite(z)
    if abs(z.imag) <= AXIS_TOLERANCE:
        raise DomainError(f"point {z} is on (or within {AXIS_TOLERANCE} of) the real axis")
    return z


def require_upper(z) -> complex:
    z = require_off_axis(z)
    if z.imag < 0:
        raise DomainError(f"point {z} is not in the upper half-plane")
    return z


def require_lower(z) -> complex:
    z = require_off_axis(z)
    if z.imag > 0:
        raise DomainError(f"point {z} is not in the lower half-plane")
    return z


def principal_sqrt(w) -> complex:
    """Square root with argument in (-pi, pi]; negative reals map to i*sqrt|w|."""
    w = complex(w)
    if w == 0:
        raise DomainError("principal_sqrt needs a nonzero argument")
    if w.imag == 0.0:
        # normalise -0.0 so the cut is closed at theta = pi
        w = complex(w.real, 0.0)
    return cmath.sqrt(w)


_I_POWERS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))  # all zeros +0.0, unlike -1j


def i_power(e: int) -> complex:
    """Exact i**e for an integer e; a sign s in {+1, -1} has s**w = i**(w * (1 - s))."""
    return _I_POWERS[e % 4]


def mobius(gamma: Mat2, z) -> complex:
    """Fractional-linear action; det +1 preserves the halves, det -1 swaps them."""
    z = require_off_axis(z)
    return (gamma.a * z + gamma.b) / (gamma.c * z + gamma.d)


# factor carried by each lifted generator token in the pair realisation
_TOKEN_FACTORS = {
    "S": lambda z: principal_sqrt(z),
    "S^-1": lambda z: 1 / principal_sqrt(-1 / z),
    "T": lambda z: 1 + 0j,
    "T^-1": lambda z: 1 + 0j,
}


def word_factor(word: Word, z: complex) -> complex:
    """Pair-product factor of a determinant-one generator word at ``z``."""
    fac = 1 + 0j
    w = z
    for tok in reversed(word):
        if tok == "R":
            raise DomainError("word_factor is defined for determinant +1 words only")
        fac = _TOKEN_FACTORS[tok](w) * fac
        w = mobius(TOKEN_MATS[tok], w)
    return fac


@lru_cache(maxsize=None)
def _word_data(gamma: Mat2) -> tuple[Word, int]:
    word = word_decompose(gamma)
    lift = word_lift(word)
    assert lift.gamma == gamma
    return word, lift.eps


def section_root(c: int, d: int, z: complex) -> complex:
    """sqrt(c*z + d) with argument in [-pi, pi): the principal root, or -i at c = 0, d < 0,
    the only case on the cut.  Unchecked; callers validate the matrix and the point."""
    if minus_t_row(c, d):
        return -1j
    return principal_sqrt(c * z + d)


def phi_upper(gamma: Mat2, z) -> complex:
    """Automorphy factor of [gamma, +1] on the upper half-plane, ``section_root`` of its bottom row."""
    if gamma.det() != 1:
        raise DomainError("phi_upper needs a determinant +1 matrix")
    return section_root(gamma.c, gamma.d, require_upper(z))


def phi_lower(gamma: Mat2, z) -> complex:
    """Automorphy factor of [gamma, +1] on the lower half-plane: the reflection sign times
    phi_upper(RgR, -z), whose argument -c*(-z) + d is c*z + d."""
    if gamma.det() != 1:
        raise DomainError("phi_lower needs a determinant +1 matrix")
    return reflection_sign(gamma) * section_root(gamma.c, gamma.d, require_lower(z))


def branch_profile(gamma: Mat2, points) -> int:
    """Compare the word-route factor against the raw principal branch of sqrt(c*z + d).

    Returns the constant sign phi/sqrt over the sampled points, or raises if
    the ratio is not a constant sign (it must be, by holomorphy).  The factor
    comes from the generator word, so the sign measures the constructive section.
    """
    word, eps = _word_data(gamma)
    sign = 0
    for z in points:
        z = require_upper(z)
        ratio = eps * word_factor(word, z) / principal_sqrt(gamma.c * z + gamma.d)
        snapped = 1 if abs(ratio - 1) < abs(ratio + 1) else -1
        if abs(ratio - snapped) > 1e-9:
            raise DomainError(f"phi/sqrt ratio {ratio} at {z} is not a sign for {gamma}")
        if sign == 0:
            sign = snapped
        elif sign != snapped:
            raise DomainError(f"phi/sqrt sign flips across points for {gamma}")
    return sign
