"""Weight-k right action of the cover on functions over the double half-plane.

The normative definition is the four-case prescription (split by determinant
and half-plane).  All unit-modulus prefactors (signs, powers of i) add up to
one exact integer power of i per case; only automorphy-factor values are
floating point, and their (-2k)-th powers are integer powers of the reciprocal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .automorphy import i_power, mobius, require_off_axis, section_root  # mobius: re-exported as slash.mobius
from .cover import Mat2, MetaElt, R_MAT, cocycle, reflection_sign
from .errors import DomainError

Evaluator = Callable[[complex], np.ndarray]


@dataclass(frozen=True)
class Weight:
    """Weight k = w/2 encoded by the exact integer w = 2k."""

    w: int

    def __post_init__(self):
        if not isinstance(self.w, int):
            raise DomainError(f"doubled weight must be an integer, got {self.w!r}")

    @property
    def k(self) -> Fraction:
        return Fraction(self.w, 2)

    def __str__(self) -> str:
        return f"w={self.w} (k={self.k})"


def cpow_int(base: complex, n: int) -> complex:
    """base**n for integer n by binary powering; no complex logs involved."""
    if n < 0:
        base = 1 / base
        n = -n
    out = 1 + 0j
    acc = complex(base)
    while n:
        if n & 1:
            out *= acc
        acc *= acc
        n >>= 1
    return out


def _coerce(value, dim: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=complex))
    if arr.shape != (dim,):
        raise DomainError(f"evaluator returned shape {arr.shape}, expected ({dim},)")
    return arr


@dataclass(frozen=True)
class HoloFn:
    """Function on the double half-plane given by per-half evaluators.

    Either evaluator may be None for a function only defined on one half.
    Evaluators return a complex numpy vector of length ``dim`` (scalars are fine
    for dim 1); ``at`` validates the point and the shape once, so derived
    evaluators pass inner values through as they are.
    """

    dim: int
    upper: Optional[Evaluator]
    lower: Optional[Evaluator]

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be a positive integer")
        if self.upper is None and self.lower is None:
            raise DomainError("at least one half-plane evaluator is required")

    def at(self, z) -> np.ndarray:
        z = require_off_axis(z)
        side = self.upper if z.imag > 0 else self.lower
        name = "upper" if z.imag > 0 else "lower"
        if side is None:
            raise DomainError(f"function has no {name} half-plane evaluator")
        return _coerce(side(z), self.dim)

    @classmethod
    def from_scalar(cls, upper=None, lower=None) -> "HoloFn":
        wrap = lambda f: (None if f is None else (lambda z, f=f: np.array([f(z)], dtype=complex)))
        return cls(1, wrap(upper), wrap(lower))

    @classmethod
    def zero(cls, dim: int = 1) -> "HoloFn":
        zero = lambda z: np.zeros(dim, dtype=complex)
        return cls(dim, zero, zero)

    def scale(self, factor: complex) -> "HoloFn":
        factor = complex(factor)
        mk = lambda side: (None if side is None else (lambda z, s=side: factor * s(z)))
        return HoloFn(self.dim, mk(self.upper), mk(self.lower))

    def compose_reflection(self) -> "HoloFn":
        """The function z -> f(-z); swaps the two half-plane evaluators."""
        up = None if self.lower is None else (lambda z, s=self.lower: s(-z))
        lo = None if self.upper is None else (lambda z, s=self.upper: s(-z))
        return HoloFn(self.dim, up, lo)


def _case_evaluator(src: Optional[Evaluator], gamma: Mat2, i_exp: int, w: int) -> Optional[Evaluator]:
    if src is None:
        return None
    exact = i_power(i_exp)
    a, b, c, d = gamma.entries()

    def evaluator(z: complex):
        return src((a * z + b) / (c * z + d)) * (exact * cpow_int(section_root(c, d, z), -w))

    return evaluator


def slash(f: HoloFn, weight: Weight, x: MetaElt) -> HoloFn:
    """Apply the weight-k action of the cover element ``x`` to ``f``.

    For x = [gamma, eps]:

    * det +1, upper:  f+(gz) (eps phi+_g(z))^(-2k)
    * det +1, lower:  f-(gz) (eps B phi+_{RgR}(-z))^(-2k)
    * det -1, upper:  f-(gz) (i eps A phi+_{Rg}(z))^(-2k)
    * det -1, lower:  f+(gz) (i eps A B' phi+_{gR}(-z))^(-2k)

    with A the cocycle against the reflection, B/B' the reflection signs of
    gamma resp. R*gamma.  All four factors are phi+ at c z + d, since RgR and gR
    at -z, and Rg at z, have bottom rows (-c, d) resp. (c, d).  With s the product
    of a case's signs, s^(-w) = i^(w (1 - s)) and i^(-w) s^(-w) = i^(-w s).
    """
    g, eps, w = x.gamma, x.eps, weight.w
    if g.det() == 1:
        upper = _case_evaluator(f.upper, g, w * (1 - eps), w)
        lower = _case_evaluator(f.lower, g, w * (1 - eps * reflection_sign(g)), w)
    else:
        s = eps * cocycle(R_MAT, g)
        upper = _case_evaluator(f.lower, g, -w * s, w)
        lower = _case_evaluator(f.upper, g, -w * s * reflection_sign(R_MAT * g), w)
    return HoloFn(f.dim, upper, lower)


def slash_via_reflection_rule(f: HoloFn, weight: Weight, x: MetaElt, variant: str = "direct") -> HoloFn:
    """Alternative route for determinant -1 elements, used for cross-checks.

    ``direct``:  i^{2k} (f o R) |_k [R*gamma, -A(R,gamma) eps]
    ``inverse``: i^{-2k} (f o R) |_k [R*gamma, +A(R,gamma) eps]

    Both reduce to the same action as :func:`slash`; the central sign of the
    determinant-one element absorbs the phase difference.
    """
    if x.det() != -1:
        raise DomainError("reflection-rule route applies to determinant -1 elements")
    a_sign = cocycle(R_MAT, x.gamma)
    reflected = f.compose_reflection()
    if variant == "direct":
        phase = i_power(weight.w)
        rest = MetaElt(R_MAT * x.gamma, -a_sign * x.eps)
    elif variant == "inverse":
        phase = i_power(-weight.w)
        rest = MetaElt(R_MAT * x.gamma, a_sign * x.eps)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return slash(reflected, weight, rest).scale(phase)


def composition_residual(f: HoloFn, weight: Weight, x: MetaElt, y: MetaElt,
                         points: Sequence[complex]) -> float:
    """max over points and components of |((f|x)|y - f|(x*y))(z)|."""
    lhs = slash(slash(f, weight, x), weight, y)
    rhs = slash(f, weight, x * y)
    worst = 0.0
    for z in points:
        worst = max(worst, float(np.max(np.abs(lhs.at(z) - rhs.at(z)))))
    return worst


def admissible_reflection_scalars(weight: Weight) -> tuple[complex, ...]:
    """Fourth roots of unity lam with lam^{4k} = (-1)^{2k}.

    The reflection's square is the central sign flip, which forces
    lam^{2w} = (-1)^w; for odd w this is exactly {i, -i}.
    """
    out = []
    for e in range(4):
        # i^(2we) == i^(2w)  <=>  w(e - 1) even
        if (weight.w * (e - 1)) % 2 == 0:
            out.append(i_power(e))
    return tuple(out)


def holomorphy_residual(fn: Callable[[complex], np.ndarray], z: complex, step: float = 1e-5) -> float:
    """Cauchy-Riemann finite-difference probe: horizontal vs vertical derivative."""
    z = complex(z)
    horiz = (np.asarray(fn(z + step)) - np.asarray(fn(z - step))) / (2 * step)
    vert = (np.asarray(fn(z + 1j * step)) - np.asarray(fn(z - 1j * step))) / (2j * step)
    return float(np.max(np.abs(horiz - vert)))
