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

from .automorphy import i_power, mobius, pullback, require_off_axis, section_root, section_roots  # re-exports mobius
from .cover import Mat2, MetaElt, R_MAT, chi_negative, cocycle, cocycle_bit, minus_t_row
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


def cpow_int(base, n: int):
    """base**n for integer n by binary powering, also elementwise on a complex array; no complex logs involved."""
    if n < 0:
        base = 1 / base
        n = -n
    out = 1 + 0j
    acc = base if isinstance(base, np.ndarray) else complex(base)
    while n:
        if n & 1:
            out = out * acc
        acc = acc * acc
        n >>= 1
    return out


def _coerce(value, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.shape != shape:
        raise DomainError(f"evaluator returned shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True)
class HoloFn:
    """Function on the double half-plane given by per-half evaluators.

    Either evaluator may be None for a function only defined on one half.
    An evaluator returns a complex array of shape ``(dim,)``, also for dim 1 (``from_scalar``
    adapts scalar functions); ``at`` validates the point and the shape once and refuses
    anything else, so derived evaluators pass inner values through as they are.  Given an
    ``(n,)`` array (``holofn_values``, the batch entry), an evaluator returns ``(n, dim)``."""

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
        return _coerce(side(z), (self.dim,))

    @classmethod
    def from_scalar(cls, upper=None, lower=None) -> "HoloFn":
        """Dimension 1 from scalar functions; one that also maps an ``(n,)`` array to ``(n,)`` serves batches."""
        wrap = lambda f: (None if f is None else (lambda z, f=f: np.asarray(f(z), dtype=complex)[..., None]))
        return cls(1, wrap(upper), wrap(lower))

    @classmethod
    def zero(cls, dim: int = 1) -> "HoloFn":
        zero = lambda z: np.zeros(z.shape + (dim,) if isinstance(z, np.ndarray) else dim, dtype=complex)
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
        image, j = pullback(a, b, c, d, z)
        return src(image) * (exact * cpow_int(section_root(c, d, j), -w))
    return evaluator


_R_DET_NEG, _R_CHI_NEG = R_MAT.det() < 0, chi_negative(R_MAT.c, R_MAT.d)


def _case_exponents(w: int, det_neg, eps, c, d):
    """The exact i-exponents (e_upper, e_lower) of ``slash``'s factor for [gamma, eps], from gamma's det bit and
    bottom row (c, d): the one statement of the rule, on ints for ``slash`` and elementwise on the int64
    columns of ``_rows``.  The cocycle A(R, gamma) (det -1 only) is ``cocycle_bit`` with R*gamma's chi bit
    equal to gamma's, and B is ``minus_t_row``; with s = eps A, the exponent is w (1 - s) on det +1 and -w s
    on det -1, and s B in place of s on the lower half-plane."""
    chi = chi_negative(c, d)
    s = eps * (1 - 2 * (det_neg & cocycle_bit(_R_DET_NEG, det_neg, _R_CHI_NEG, chi, chi)))
    base = 1 - det_neg
    return w * (base - s), w * (base - s * (1 - 2 * minus_t_row(c, d)))


def slash(f: HoloFn, weight: Weight, x: MetaElt) -> HoloFn:
    """Apply the weight-k action of the cover element ``x`` to ``f``.

    For x = [gamma, eps]:

    * det +1, upper:  f+(gz) (eps phi+_g(z))^(-2k)
    * det +1, lower:  f-(gz) (eps B phi+_{RgR}(-z))^(-2k)
    * det -1, upper:  f-(gz) (i eps A phi+_{Rg}(z))^(-2k)
    * det -1, lower:  f+(gz) (i eps A B' phi+_{gR}(-z))^(-2k)

    with A the cocycle against the reflection, B/B' the reflection signs of
    gamma resp. R*gamma, both read off gamma's bottom row, which R leaves as it is.
    All four factors are phi+ at c z + d, since RgR and gR at -z, and Rg at z,
    have bottom rows (-c, d) resp. (c, d).  With s the product of a case's signs,
    s^(-w) = i^(w (1 - s)) and i^(-w) s^(-w) = i^(-w s).  ``_case_exponents`` states these exponents once,
    for this scalar route and for the batch route of ``slash_values``; tests/test_mutants.py pins the checks
    that fail when it drops B on det +1, lower, or adds 2w on det -1, lower.
    """
    g, w = x.gamma, weight.w
    det_neg = g.det() < 0
    e_upper, e_lower = _case_exponents(w, det_neg, x.eps, g.c, g.d)
    src_upper, src_lower = (f.lower, f.upper) if det_neg else (f.upper, f.lower)
    return HoloFn(f.dim, _case_evaluator(src_upper, g, e_upper, w), _case_evaluator(src_lower, g, e_lower, w))


def reflection_route(f: HoloFn, weight: Weight, elts: Sequence[MetaElt], variant: str) -> tuple[HoloFn, list, complex]:
    """The pieces of the reflection-rule route, a cross-check of :func:`slash` on determinant -1
    ``elts``: f o R, each element's rest element and the phase of ``variant`` in

    ``direct``:  i^{2k} (f o R) |_k [R*gamma, -A(R,gamma) eps]
    ``inverse``: i^{-2k} (f o R) |_k [R*gamma, +A(R,gamma) eps]

    Both reduce to the same action as :func:`slash`; the central sign of the
    determinant-one element absorbs the phase difference.
    """
    if any(x.det() != -1 for x in elts):
        raise DomainError("reflection-rule route applies to determinant -1 elements")
    if variant not in ("direct", "inverse"):
        raise DomainError(f"unknown variant {variant!r}")
    sign = -1 if variant == "direct" else 1
    rests = [MetaElt(R_MAT * x.gamma, sign * cocycle(R_MAT, x.gamma) * x.eps) for x in elts]
    return f.compose_reflection(), rests, i_power(-sign * weight.w)


def worst_residual(residuals) -> float:
    """Largest of ``residuals``, 0.0 for none; NaN when any is NaN, so a NaN cannot pass a gate."""
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


_CHUNK_POINTS = 6000  # points per array pass of the batch evaluators; bounds their temporaries
_I_POWER_ARRAY = np.array([i_power(e) for e in range(4)])


def _rows(w: int, elts: Sequence[MetaElt]) -> np.ndarray:
    """The int64 rows (a, b, c, d, det, e_upper, e_lower) of ``elts``, one column per element, the exponents
    by ``_case_exponents`` on the columns."""
    a, b, c, d, det, eps = np.array([(*x.gamma.entries(), x.det(), x.eps) for x in elts], np.int64).reshape(-1, 6).T
    return np.vstack([a, b, c, d, det, *_case_exponents(w, det < 0, eps, c, d)])


def _pullbacks(rows: np.ndarray, z: np.ndarray, upper: np.ndarray, w: int):
    """One step of the four-case rule at every point, whose element is a column (a, b, c, d, det, e_upper,
    e_lower) of ``rows``: the images, the factors i^e section_root^(-w), and the source's half-planes."""
    a, b, c, d, det, e_upper, e_lower = rows
    image, j = pullback(a, b, c, d, z)
    factor = _I_POWER_ARRAY[np.where(upper, e_upper, e_lower) % 4] * cpow_int(section_roots(c, d, j), -w)
    return image, factor, upper ^ (det < 0)


def holofn_values(f: HoloFn, at: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``f`` at the points ``at`` on half-planes ``upper``, ``(n, dim)``: one call per evaluator; refuses as ``at``."""
    values = np.empty((at.size, f.dim), dtype=complex)
    for side, mask, name in ((f.upper, upper, "upper"), (f.lower, ~upper, "lower")):
        if mask.any():
            if side is None:
                raise DomainError(f"function has no {name} half-plane evaluator")
            values[mask] = _coerce(side(at[mask]), (np.count_nonzero(mask), f.dim))
    return values


def slash_values(f: HoloFn, weight: Weight, points: Sequence[complex], *columns: Sequence[MetaElt]) -> np.ndarray:
    """((f|c1[r])|c2[r] ...)(z) for every row r of the equally long element ``columns`` and every point z,
    as a ``(rows, len(points), dim)`` array: per chunk of rows, one pullback step per column, the last
    column first, then one call of each of ``f``'s half-plane evaluators; the factors multiply innermost first."""
    if not columns or len(set(map(len, columns))) != 1:
        raise DomainError("slash_values needs at least one column of elements, all of one length")
    points = np.array([require_off_axis(z) for z in points], dtype=complex)
    w, rows = weight.w, len(columns[0])
    per_chunk = max(_CHUNK_POINTS // max(points.size, 1), 1)
    out = np.empty((rows, points.size, f.dim), dtype=complex)
    for i in range(0, rows, per_chunk):
        n = min(per_chunk, rows - i)
        image = np.tile(points, n)
        src, factors = image.imag > 0, []
        for col in reversed(columns):
            image, factor, src = _pullbacks(_rows(w, col[i:i + n]).repeat(points.size, axis=1), image, src, w)
            factors.append(factor)
        values = holofn_values(f, image, src)
        for factor in reversed(factors):
            values = values * factor[:, None]
        out[i:i + n] = values.reshape(n, points.size, f.dim)
    return out


def composition_residuals(f: HoloFn, weight: Weight, pairs: Sequence[tuple[MetaElt, MetaElt]],
                          points: Sequence[complex]) -> np.ndarray:
    """max over points and components of |((f|x)|y - f|(x*y))(z)| for every pair (x, y), as an array: the batch
    (f|x)|y less the batch f|(xy)."""
    lhs = slash_values(f, weight, points, [x for x, _ in pairs], [y for _, y in pairs])
    rhs = slash_values(f, weight, points, [x * y for x, y in pairs])
    return np.abs(lhs - rhs).max(axis=(1, 2), initial=0.0)


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
