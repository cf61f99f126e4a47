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
from typing import Sequence

import numpy as np

from .cover import GENERATOR_TOKENS, Mat2, Word, format_word, minus_t_row, reflection_sign, word_decompose, word_lift
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


def cz_plus_d(c, d, z):
    """The automorphy argument j = c*z + d, on ints and a complex or elementwise on int64 and complex arrays."""
    return c * z + d


def pullback(a, b, c, d, z):
    """The Moebius image (a*z + b) / j of z and its argument j = ``cz_plus_d(c, d, z)``, typed alike; unchecked."""
    j = cz_plus_d(c, d, z)
    return (a * z + b) / j, j


def mobius(gamma: Mat2, z) -> complex:
    """Fractional-linear action; det +1 preserves the halves, det -1 swaps them."""
    return pullback(*gamma.entries(), require_off_axis(z))[0]


def word_factor(word: Word, z: complex) -> complex:
    """Pair-product factor of a determinant-one generator word at ``z``: each lifted token carries
    sqrt(w) (S), sqrt(-w) (S^-1; off the real axis this is 1/sqrt(-1/w) without the reciprocal, which
    underflows to 0 far from the origin) or 1 (T, T^-1), and moves w by its own closed form, which is
    ``mobius`` of its matrix bit for bit.  ``z`` is checked as ``mobius`` checks it; an intermediate w
    only for being finite and off the axis, Im w != 0, since a point far from the origin has images
    with Im far below ``AXIS_TOLERANCE`` on which the section is as holomorphic as anywhere."""
    fac, w = 1 + 0j, require_off_axis(z)
    for tok in reversed(word):
        if tok == "R":
            raise DomainError("word_factor is defined for determinant +1 words only")
        if not (cmath.isfinite(w) and w.imag != 0):
            require_off_axis(w)
        if tok == "S":
            fac = principal_sqrt(w) * fac
        elif tok == "S^-1":
            fac = principal_sqrt(-w) * fac
        w = w + 1 if tok == "T" else w - 1 if tok == "T^-1" else -1 / w if tok == "S" else 1 / -w
    return fac


@lru_cache(maxsize=None)
def _word_data(gamma: Mat2) -> tuple[Word, int]:
    word = word_decompose(gamma)
    lift = word_lift(word)
    if lift.gamma != gamma:
        raise ArithmeticError(f"generator word {format_word(word)!r} of {gamma} multiplies out to {lift.gamma}")
    return word, lift.eps


def _word_codes(words: Sequence[Word]) -> np.ndarray:
    """``words`` as rows of their tokens' indices in ``GENERATOR_TOKENS``, padded at the end to one width of at
    least 1 with the index past the tokens, ``len(GENERATOR_TOKENS)``."""
    width, pad = max(map(len, words), default=0) or 1, len(GENERATOR_TOKENS)
    return np.array([[GENERATOR_TOKENS.index(tok) for tok in word] + [pad] * (width - len(word)) for word in words],
                    dtype=np.intp).reshape(len(words), width)


def section_root(c: int, d: int, j: complex) -> complex:
    """sqrt(j), j = c*z + d, with argument in [-pi, pi): the principal root, or -i at c = 0, d < 0,
    the only case on the cut.  Unchecked; callers validate the matrix and the point."""
    if minus_t_row(c, d):
        return -1j
    return principal_sqrt(j)


def _principal_sqrts(w: np.ndarray) -> np.ndarray:
    """``principal_sqrt`` elementwise, unchecked: the closed cut by normalising -0.0 imaginary parts."""
    return np.sqrt(np.where(w.imag == 0, w.real + 0j, w))


def section_roots(c: np.ndarray, d: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``section_root`` elementwise over integer arrays c, d and a complex array j."""
    return np.where(minus_t_row(c, d), -1j, _principal_sqrts(j))


def phi_upper(gamma: Mat2, z) -> complex:
    """Automorphy factor of [gamma, +1] on the upper half-plane, ``section_root`` of its bottom row."""
    if gamma.det() != 1:
        raise DomainError("phi_upper needs a determinant +1 matrix")
    return section_root(gamma.c, gamma.d, cz_plus_d(gamma.c, gamma.d, require_upper(z)))


def phi_lower(gamma: Mat2, z) -> complex:
    """Automorphy factor of [gamma, +1] on the lower half-plane: the reflection sign times
    phi_upper(RgR, -z), whose argument -c*(-z) + d is c*z + d."""
    if gamma.det() != 1:
        raise DomainError("phi_lower needs a determinant +1 matrix")
    return reflection_sign(gamma) * section_root(gamma.c, gamma.d, cz_plus_d(gamma.c, gamma.d, require_lower(z)))


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
        ratio = eps * word_factor(word, z) / principal_sqrt(cz_plus_d(gamma.c, gamma.d, z))
        snapped = 1 if abs(ratio - 1) < abs(ratio + 1) else -1
        if abs(ratio - snapped) > 1e-9:
            raise DomainError(f"phi/sqrt ratio {ratio} at {z} is not a sign for {gamma}")
        if sign == 0:
            sign = snapped
        elif sign != snapped:
            raise DomainError(f"phi/sqrt sign flips across points for {gamma}")
    return sign


def branch_signs(mats: Sequence[Mat2], points) -> np.ndarray:
    """``branch_profile`` of each of ``mats`` over ``points`` in one pass, or 0 where it finds no clean constant
    sign (det -1, a step to a point that is not finite or has Im 0, a ratio that is not a sign, a flip;
    ``branch_profile`` says which):
    ``word_factor``'s steps over all words and points at once, one masked step per token position, last first."""
    z = np.array([require_upper(p) for p in points], dtype=complex)
    data = [_word_data(g) for g in mats]
    # S, S^-1, T, T^-1, R and the padding, which steps nowhere, are the codes 0 to 5
    codes = _word_codes([word for word, _ in data]).T[::-1, :, None]
    w, fac = np.tile(z, (len(mats), 1)), np.ones((len(mats), z.size), dtype=complex)
    clean = (codes != 4).all(axis=(0, 2))
    with np.errstate(all="ignore"):  # a row that leaves the plane is marked, and stepped on regardless
        for code in codes:
            fac = np.where(code == 0, _principal_sqrts(w), np.where(code == 1, _principal_sqrts(-w), 1)) * fac
            clean &= ((code == 5) | (np.isfinite(w) & (w.imag != 0))).all(axis=1)
            w = np.select([code == 2, code == 3, code == 0, code == 1], [w + 1, w - 1, -1 / w, 1 / -w], w)
        c, d, eps = np.array([(g.c, g.d, e) for g, (_, e) in zip(mats, data)], np.int64).reshape(-1, 3).T[..., None]
        ratio = eps * fac / _principal_sqrts(cz_plus_d(c, d, z))
    snapped = np.where(np.abs(ratio - 1) < np.abs(ratio + 1), 1, -1)
    clean &= (np.abs(ratio - snapped) <= 1e-9).all(axis=1) & (snapped == snapped[:, :1]).all(axis=1)
    return np.where(clean, snapped[:, 0] if z.size else 0, 0)
