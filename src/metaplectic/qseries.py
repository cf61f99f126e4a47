"""Concrete evaluators: Eisenstein series, the eta product, truncated
triangular products, and the two-component eta extension.

Series and products are truncated so the dropped tail is below a configured
tolerance; evaluators refuse points too close to the real axis rather than
degrade silently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .automorphy import principal_sqrt, require_finite, require_off_axis, require_upper
from .cover import S_MAT, T_MAT, Mat2, chi_negative
from .errors import DomainError, ResourceLimitError
from .reps import Rep, VVForm, extend_form, induce_form, root24
from .slash import HoloFn, Weight, cpow_int

ZETA_4 = math.pi ** 4 / 90
ZETA_6 = math.pi ** 6 / 945

# 2 / zeta(1-k) for k = 4, 6
_EIS_COEFF = {4: 240, 6: -504}
_EIS_ZETA = {4: ZETA_4, 6: ZETA_6}


@dataclass(frozen=True)
class QSeriesConfig:
    """Truncation control for the q-products and q-sums."""

    tail_tolerance: float = 1e-17
    max_terms: int = 10 ** 6
    min_im: float = 0.05
    reduce: bool = True

    def __post_init__(self):
        if self.tail_tolerance <= 0 or self.max_terms <= 0:
            raise DomainError("tail_tolerance and max_terms must be positive")


DEFAULT_CONFIG = QSeriesConfig()

# the certification suite's budget: Moebius images of its grid come within ~1e-6 of the axis
CERTIFY_CONFIG = QSeriesConfig(tail_tolerance=1e-17, max_terms=2_000_000, min_im=1e-6)


def _require_workable(z, cfg: QSeriesConfig) -> complex:
    z = require_upper(z)
    if z.imag < cfg.min_im:
        raise DomainError(
            f"point {z} is closer than {cfg.min_im} to the real axis; "
            "pass a config with a smaller min_im to evaluate here")
    return z


def _truncation_index(im: float, cfg: QSeriesConfig, extra_log: float = 0.0) -> int:
    n = math.ceil((math.log(1 / cfg.tail_tolerance) + extra_log) / (2 * math.pi * im))
    n = max(n, 1)
    if n > cfg.max_terms:
        raise ResourceLimitError(
            f"truncation needs {n} terms at Im z = {im:.3e}, above the cap {cfg.max_terms}")
    return n


def reduce_to_fundamental(z) -> tuple[Mat2, complex]:
    """Exact determinant-one matrix g with g.z in the standard fundamental domain.

    The matrix is tracked in integers and the moving point is recomputed from
    the original z at every step, so the pair (g, g.z) is reproducible.
    """
    z = require_upper(z)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(500):
        w = (a * z + b) / (c * z + d)
        shift = -round(w.real)
        if shift:
            a, b = a + shift * c, b + shift * d  # T^shift * g
            w = w + shift
        if abs(w) < 0.999999:
            a, b, c, d = -c, -d, a, b  # S * g
        else:
            return Mat2(a, b, c, d), w
    raise ResourceLimitError(f"fundamental-domain reduction did not terminate at {z}")


def dedekind_sum(h: int, k: int) -> Fraction:
    """Dedekind sum s(h, k) for k > 0 and gcd(h, k) = 1, exactly.

    Runs the reciprocity law s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4
    along the Euclidean algorithm, so the cost is O(log k).
    """
    if k <= 0 or math.gcd(h, k) != 1:
        raise DomainError(f"Dedekind sum needs k > 0 and gcd(h, k) = 1, got ({h}, {k})")
    num, den, sign = 0, 1, 1
    h %= k
    while k > 1:
        # add sign * ((h^2 + k^2 + 1) / (12 h k) - 1/4), then continue with s(k mod h, h)
        step = 12 * h * k
        num, den = num * step + sign * (h * h + k * k + 1 - 3 * h * k) * den, den * step
        h, k, sign = k % h, h, -sign
    return Fraction(num, den)


def eta_multiplier_index(g: Mat2) -> int:
    """Exponent n mod 24 with eta(g z) = e^(2 pi i n/24) sqrt(c z + d) eta(z).

    ``g`` is any determinant-one matrix and sqrt the principal branch.  For
    c > 0 this is the classical exp(pi i ((a + d)/(12 c) - s(d, c) - 1/4))
    (Apostol, Modular Functions and Dirichlet Series, Thm 3.4); other
    matrices are negated to c > 0 or c = 0, d = 1 first, which turns the
    principal root of c z + d by i (c < 0) or -i (c z + d = -1).
    """
    if g.det() != 1:
        raise DomainError("the eta multiplier is defined on determinant +1 matrices")
    a, b, c, d = g.entries()
    turn = 0
    if chi_negative(c, d):
        a, b, c, d = -a, -b, -c, -d
        turn = 6 if c > 0 else 18
    if c == 0:
        return (b + turn) % 24
    s = dedekind_sum(d, c)
    n, rem = divmod((a + d) * s.denominator - 12 * c * s.numerator, c * s.denominator)
    if rem:
        raise ArithmeticError(f"eta multiplier exponent of {g} is not an integer")
    return (n - 3 + turn) % 24


def eta(z, cfg: QSeriesConfig = DEFAULT_CONFIG) -> complex:
    """Weight-1/2 eta product on the upper half-plane.

    With ``cfg.reduce``, arguments below Im z = 0.25 are moved up by an exact
    integer matrix and the value is carried back through the exact 24th root
    of unity of ``eta_multiplier_index`` and the principal sqrt(c z + d); the
    raw product is only ever summed at well-separated points.
    """
    z = _require_workable(z, cfg)
    if cfg.reduce and z.imag < 0.25:
        g, w0 = reduce_to_fundamental(z)
        root = root24(eta_multiplier_index(g))
        return _eta_series(w0, cfg) / (root * principal_sqrt(g.c * z + g.d))
    return _eta_series(z, cfg)


def _eta_series(z: complex, cfg: QSeriesConfig) -> complex:
    n = _truncation_index(z.imag, cfg)
    ns = np.arange(1, n + 1)
    factors = 1.0 - np.exp((2j * np.pi * z) * ns)
    return cmath.exp(1j * cmath.pi * z / 12) * complex(np.prod(factors))


def eisenstein(k: int, z, cfg: QSeriesConfig = DEFAULT_CONFIG) -> complex:
    """Weight-k Eisenstein series in full lattice-sum normalisation, k in {4, 6}.

    Evaluated as 2 zeta(k) (1 + (2/zeta(1-k)) sum_n sigma_{k-1}(n) q^n), with
    the divisor sum folded into the equivalent Lambert form
    sum_d d^{k-1} q^d / (1 - q^d).  With ``cfg.reduce`` the argument is first
    moved to the fundamental domain by an exact integer matrix and the series
    value is carried back through the weight-k cocycle, which keeps the
    evaluation well-conditioned near the real axis.
    """
    if k not in _EIS_COEFF:
        raise DomainError(f"supported Eisenstein weights are {sorted(_EIS_COEFF)}, got {k}")
    z = _require_workable(z, cfg)
    if cfg.reduce:
        g, w0 = reduce_to_fundamental(z)
        return _eisenstein_series(k, w0, cfg) * cpow_int(g.c * z + g.d, -k)
    return _eisenstein_series(k, z, cfg)


def _eisenstein_series(k: int, z: complex, cfg: QSeriesConfig) -> complex:
    base = _truncation_index(z.imag, cfg)
    n = _truncation_index(z.imag, cfg, extra_log=(k - 1) * max(math.log(base), 1.0))
    ds = np.arange(1, n + 1)
    qd = np.exp((2j * np.pi * z) * ds)
    lam = (ds.astype(float) ** (k - 1)) * qd / (1.0 - qd)
    return 2 * _EIS_ZETA[k] * (1 + _EIS_COEFF[k] * complex(lam.sum()))


def lattice_sum(k: int, z, m_cutoff: int) -> complex:
    """Doubly-truncated lattice sum over |m|,|n| <= cutoff, (0,0) excluded.

    Cross-check oracle only; needs even k >= 4 for absolute convergence.
    Rows are summed one m at a time and combined symmetrically in m so the
    sum is exactly invariant under z -> -z (the terms pair off bitwise).
    """
    if k % 2 != 0 or k < 4:
        raise DomainError(f"lattice sum needs even k >= 4, got {k}")
    if m_cutoff < 1:
        raise DomainError("cutoff must be at least 1")
    z = require_off_axis(z)
    ns = np.arange(-m_cutoff, m_cutoff + 1)

    def row(m: int):
        w = m * z + ns
        if m == 0:
            w[m_cutoff] = 1.0  # placeholder at (0, 0); zeroed below
        power = sq = w * w  # named, so numpy cannot swap operands by multiplying in place
        for _ in range(k // 2 - 1):
            power = power * sq
        terms = 1.0 / power
        if m == 0:
            terms[m_cutoff] = 0.0  # (m, n) = (0, 0)
        return terms.sum()

    total = complex(row(0))
    for j in range(1, m_cutoff + 1):
        total += complex(row(j) + row(-j))
    return total


def triangular_product(n_factors: int, z) -> complex:
    """The finite product prod_{n<=N} (e^{-pi i n z} - e^{pi i n z}); entire in z."""
    if n_factors < 0:
        raise DomainError("the number of factors must be nonnegative")
    z = require_finite(z)
    out = 1 + 0j
    for n in range(1, n_factors + 1):
        arg = 1j * cmath.pi * n * z
        out *= cmath.exp(-arg) - cmath.exp(arg)
    return out


def triangular_product_factored(n_factors: int, z) -> complex:
    """Same product in the pulled-out form e^{-pi i z N(N+1)/2} prod (1 - e^{2 pi i n z})."""
    if n_factors < 0:
        raise DomainError("the number of factors must be nonnegative")
    z = require_finite(z)
    out = cmath.exp(-1j * cmath.pi * z * n_factors * (n_factors + 1) / 2)
    for n in range(1, n_factors + 1):
        out *= 1 - cmath.exp(2j * cmath.pi * n * z)
    return out


# ---------------------------------------------------------------------------
# form objects

def eta_fn(cfg: QSeriesConfig = DEFAULT_CONFIG) -> HoloFn:
    """Eta as an upper-half-plane-only function object."""
    # ``eta`` is looked up per call, so a wrapper bound to ``qseries.eta`` later still sees every call
    return HoloFn.from_scalar(upper=lambda z: eta(z, cfg))


@lru_cache(maxsize=None)
def eta_character() -> Rep:
    """The character of eta on the SL cover: the lifted generators [S,1] and [T,1] carry the
    section sqrt(z) resp. 1, so their images are the closed-form multipliers e^(2 pi i n/24)."""
    return Rep("SL", 1, {key: np.array([[root24(eta_multiplier_index(g))]], dtype=complex)
                         for key, g in (("S", S_MAT), ("T", T_MAT))})


def eta_form(cfg: QSeriesConfig = DEFAULT_CONFIG) -> VVForm:
    return VVForm(eta_fn(cfg), Weight(1), eta_character())


def eta_hat_form(cfg: QSeriesConfig = DEFAULT_CONFIG) -> VVForm:
    """The two-component extension of eta to the double half-plane: Ind(eta, 0)."""
    f = eta_form(cfg)
    g = VVForm.zero(Weight(1), f.rep.r_twist())
    return induce_form(f, g)


def eta_hat(z, cfg: QSeriesConfig = DEFAULT_CONFIG) -> np.ndarray:
    """(eta(z), 0) above the axis and (0, i eta(-z)) below it."""
    z = require_off_axis(z)
    if z.imag > 0:
        return np.array([eta(z, cfg), 0.0], dtype=complex)
    return np.array([0.0, 1j * eta(-z, cfg)], dtype=complex)


def eisenstein_form(k: int, cfg: QSeriesConfig = DEFAULT_CONFIG) -> VVForm:
    """Even extension of E_k as a GL-cover form with trivial representation."""
    upper = HoloFn.from_scalar(upper=lambda z: eisenstein(k, z, cfg))
    return extend_form(upper, Weight(2 * k), Rep.trivial("GL"))


# name -> (form builder, doubled weight w = 2k); shared by the CLI and the certification suite
NAMED_FORMS: dict[str, tuple[Callable[[QSeriesConfig], VVForm], int]] = {
    "eta": (eta_form, 1),
    "eta-hat": (eta_hat_form, 1),
    "e4": (partial(eisenstein_form, 4), 8),
    "e6": (partial(eisenstein_form, 6), 12),
}
