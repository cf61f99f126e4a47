"""Concrete evaluators: Eisenstein series, the eta product, truncated
triangular products, and the two-component eta extension.

Series and products are truncated so the dropped tail is below a configured
tolerance; evaluators refuse points too close to the real axis rather than
degrade silently.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable

import numpy as np

from .automorphy import (AXIS_TOLERANCE, principal_sqrt, pullback, require_finite, require_off_axis, require_upper,
                         root24)
from .cover import S_MAT, T_MAT, Mat2, chi_negative, minus_t_row
from .errors import DomainError, ResourceLimitError
from .reps import Rep, VVForm, extend_form, induce_form
from .slash import HoloFn, Weight, _shared, cpow_int

ZETA_4 = math.pi ** 4 / 90
ZETA_6 = math.pi ** 6 / 945

# 2 / zeta(1-k) for k = 4, 6
_EIS_COEFF = {4: 240, 6: -504}
_EIS_ZETA = {4: ZETA_4, 6: ZETA_6}
# Eulerian polynomials A_k: sum_{r>=1} r^(k-1) x^r = x A_k(x) / (1 - x)^k
_EULERIAN = {4: (1, 4, 1), 6: (1, 26, 66, 26, 1)}


@dataclass(frozen=True)
class QSeriesConfig:
    """Truncation control for the q-products and q-sums."""

    tail_tolerance: float = 1e-17
    max_terms: int = 10 ** 6
    min_im: float = 0.05
    reduce: bool = True

    def __post_init__(self):
        if not isinstance(self.reduce, bool) or isinstance(self.max_terms, bool) or not isinstance(self.max_terms, int):
            raise DomainError(f"reduce must be a bool and max_terms an int, got {self.reduce!r}, {self.max_terms!r}")
        for name, value in (("tail_tolerance", self.tail_tolerance), ("min_im", self.min_im)):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
                raise DomainError(f"{name} must be a finite number, got {value!r}")
        if self.tail_tolerance <= 0 or self.max_terms <= 0:
            raise DomainError("tail_tolerance and max_terms must be positive")
        if self.min_im < 0:
            raise DomainError(f"min_im must be nonnegative, got {self.min_im}")


DEFAULT_CONFIG = QSeriesConfig()

REDUCTION_STEPS = 500  # cap on the steps of a fundamental-domain reduction

_ETA_ROOTS = np.array([root24(n) for n in range(24)])  # eta_batch's multipliers by index, a copy of root24's table

_QPOW_ANCHOR = 8  # the batch series take q^k from one exponential at every 8th k, as q^(k-1) * q in between

# the certification suite's budget: Moebius images of its grid come within ~1e-6 of the axis
CERTIFY_CONFIG = QSeriesConfig(tail_tolerance=1e-17, max_terms=2_000_000, min_im=1e-6)


def _require_workable(z, cfg: QSeriesConfig) -> tuple[complex, int]:
    """z - r and T^-r's eta multiplier index -r mod 24 for r = round(Re z), exact, once z is not refused: eta(z) =
    e^(2 pi i r/24) eta(z - r) and E4, E6 are 1-periodic, so no series sees |Re z| > 1/2."""
    z = require_upper(z)
    if z.imag < cfg.min_im:
        raise DomainError(
            f"point {z} is closer than {cfg.min_im} to the real axis; "
            "pass a config with a smaller min_im to evaluate here")
    r = round(z.real)
    return z - r, -r % 24


def _require_weight(k) -> None:
    """Refuse a weight other than the integer 4 or 6 (a numpy integer passes), a float equal to one too."""
    if not isinstance(k, (int, np.integer)) or k not in _EIS_COEFF:
        raise DomainError(f"supported Eisenstein weights are {sorted(_EIS_COEFF)}, got {k}")


def _truncation_index(im: float, cfg: QSeriesConfig, extra_log: float = 0.0) -> int:
    n = math.ceil((math.log(1 / cfg.tail_tolerance) + extra_log) / (2 * math.pi * im))
    n = max(n, 1)
    if n > cfg.max_terms:
        raise ResourceLimitError(
            f"truncation needs {n} terms at Im z = {im:.3e}, above the cap {cfg.max_terms}")
    return n


def _series_argument(z: complex, n: int) -> complex:
    """2 pi i z, so that q^k = e^(k arg); refused when the last exponent n arg leaves the floating-point range,
    as it does at a finite point with a huge imaginary part."""
    arg = 2j * cmath.pi * z
    if not cmath.isfinite(arg * n):
        raise ResourceLimitError(f"the q-series exponent 2 pi i z * {n} at z = {z} leaves the floating-point range")
    return arg


def _truncation_indices(im: np.ndarray, cfg: QSeriesConfig, extra_log=0.0) -> np.ndarray:
    """``_truncation_index`` elementwise, one term where 2 pi Im overflows: the point needing the most terms raises."""
    with np.errstate(over="ignore"):
        n = np.maximum(np.ceil((math.log(1 / cfg.tail_tolerance) + extra_log) / (2 * math.pi * im)), 1)
    if n.max(initial=1) > cfg.max_terms:
        i = np.argmax(n)
        _truncation_index(float(im[i]), cfg, float(np.broadcast_to(extra_log, im.shape)[i]))
    return n.astype(np.int64)


def _reduce(z: complex, n: int = 0, at=None) -> tuple[tuple[int, int, int, int], complex, complex, int]:
    """Exact determinant-one g = [[a, b], [c, d]] with g.z in the standard fundamental domain, as (a, b, c, d), g.z,
    g's argument j = c*z + d and n + ``eta_multiplier_index(g)`` carried by the steps (s for T^s, ``_eta_s_step`` for
    S), for the point and index n ``_require_workable`` makes of ``at`` (default z).  The matrix is tracked in
    integers and the moving point is recomputed from the original z at every step, so the result is reproducible."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(REDUCTION_STEPS):
        w, j = pullback(a, b, c, d, z)
        shift = -round(w.real)
        if abs(shift) | abs(c) | abs(d) >= 2 ** 31:  # _reduce_workable's int64 bound; a, b are the last c, d negated
            raise ResourceLimitError(f"fundamental-domain reduction of {complex(z if at is None else at)} leaves int64")
        if shift:
            a, b, n = a + shift * c, b + shift * d, n + shift  # T^shift * g
            w = w + shift
        if abs(w) < 0.999999:
            a, b, c, d, n = -c, -d, a, b, n + _eta_s_step(a, c, d)  # S * g
        else:
            return (a, b, c, d), w, j, n % 24
    raise ResourceLimitError(f"fundamental-domain reduction did not terminate at {z}")


def _eta_s_step(a, c, d):
    """What S * g adds to ``eta_multiplier_index`` of a determinant-one g = [[a, b], [c, d]], also elementwise: 21 from
    eta(S w) = e^(2 pi i 21/24) sqrt(w) eta(w) at w = g z, plus 12 where the arguments of sqrt(g z) sqrt(c z + d) add
    past pi, making it -sqrt(a z + b): c > 0 > a, or (c, d) a -T^n row.  No reduction takes that last term (from the
    identity, S raises Im and T^s keeps it, so S never meets -T^n there); it keeps the rule true for every S * g."""
    return 21 + 12 * ((c > 0) & (a < 0) | minus_t_row(c, d))


def _reduce_workable(z: np.ndarray, cfg: QSeriesConfig) -> tuple[np.ndarray, ...]:
    """Refuse and take r = round(Re z) off as ``_require_workable`` does (the first refused point raises), then,
    with ``cfg.reduce``, ``_reduce`` every point: its matrix of z - r as a column of int64 rows (a, b, c, d) below
    2^31, its reduced point, its j and its carried index -r + ``eta_multiplier_index``; without it, the identity,
    z - r, 1 and -r mod 24.  The live points' rows and z are kept compact, shrunk where a point finishes."""
    bad = ~np.isfinite(z) | (z.imag <= AXIS_TOLERANCE) | (z.imag < cfg.min_im)
    if bad.any():
        _require_workable(complex(z[np.argmax(bad)]), cfg)
    r, m = np.round(z.real), np.repeat(np.array([[1], [0], [0], [1]], dtype=np.int64), z.size, axis=1)
    w0, j0, n0 = z - r, np.ones(z.shape, dtype=complex), np.mod(-r, 24).astype(np.int64)
    todo = np.arange(z.size if cfg.reduce else 0)
    (a, b, c, d), n, live = m[:, todo], n0[todo], w0[todo]
    for _ in range(REDUCTION_STEPS):
        w, j = pullback(a, b, c, d, live)
        shift = -np.round(w.real)
        over = np.maximum.reduce([np.abs(shift), np.abs(c), np.abs(d)]) >= 2 ** 31  # as in ``_reduce``
        if over.any():
            raise ResourceLimitError(f"fundamental-domain reduction of {complex(z[todo[over]][0])} leaves int64")
        s = shift.astype(np.int64)
        a, b, n = a + s * c, b + s * d, n + s  # T^shift * g
        w = w + shift
        flip = np.abs(w) < 0.999999
        done = ~flip
        m[:, todo[done]], w0[todo[done]], j0[todo[done]] = (a[done], b[done], c[done], d[done]), w[done], j[done]
        n0[todo[done]] = n[done] % 24
        n = (n + _eta_s_step(a, c, d))[flip]  # S * g
        (a, b, c, d), live, todo = (-c[flip], -d[flip], a[flip], b[flip]), live[flip], todo[flip]
        if not todo.size:
            return m, w0, j0, n0
    raise ResourceLimitError(f"fundamental-domain reduction did not terminate at {complex(z[todo[0]])}")


def _by_truncation(arg: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """The batch series' layout, refusing as the scalar series do where 2 pi i arg n leaves the float range: the
    order sorting n descending, arg and -n in it, and ``_qpow``'s x = Re arg = hi / 2^26 + lo, as every arg is
    shifted to |Re arg| <= 1/2 by ``_reduce_workable``."""
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite((2j * np.pi * arg) * n)
    if bad.any():
        _series_argument(complex(arg[np.argmax(bad)]), int(n[np.argmax(bad)]))
    order = np.argsort(-n, kind="stable")
    arg = arg[order]
    hi = np.round(arg.real * 2 ** 26).astype(np.int64)
    return order, arg, -n[order], hi, arg.real - hi / 2 ** 26


def _qpow(hi: np.ndarray, lo: np.ndarray, im: np.ndarray, k: int) -> np.ndarray:
    """q^k = e^(2 pi i t - 2 pi k Im arg), t = x k mod 1: |hi| <= 2^25, so hi k mod 2^26 is exact in int64 for any
    feasible k and only lo k rounds.  So q^k does not carry the rounding of 2 pi arg k, which grows with k."""
    t = (hi * k) % 2 ** 26 / 2 ** 26 + lo * k
    return np.exp(2j * np.pi * t - 2 * np.pi * k * im)


def _live_point_series(arg: np.ndarray, n: np.ndarray, start: complex, combine, term) -> np.ndarray:
    """Fold ``combine`` over term(q^k, k), q = e^(2 pi i arg), for k = 1..n at every point, term k on the prefix of
    ``_by_truncation``'s order still live: as multiplying by 1 and adding 0 are exact, the values of masking every
    point's terms past its n.  q^k is q^(k-1) * q, or ``_qpow`` at multiples of ``_QPOW_ANCHOR``."""
    order, arg, neg_n, hi, lo = _by_truncation(arg, n)
    acc = np.full(arg.shape, start, dtype=complex)
    q = qk = np.exp(2j * np.pi * arg)
    for k, live in enumerate(np.searchsorted(neg_n, -np.arange(1, n.max(initial=0) + 1), side="right"), 1):
        if k % _QPOW_ANCHOR == 0:
            qk = _qpow(hi[:live], lo[:live], arg.imag[:live], k)
        elif k > 1:
            qk = qk[:live] * q[:live]
        acc[:live] = combine(acc[:live], term(qk, k))
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _eta_pentagonal(z: np.ndarray, cfg: QSeriesConfig) -> np.ndarray:
    """``eta_batch`` with Euler's series e^(pi i z/12) sum_n (-1)^n q^(n(3n-1)/2) (Apostol, Modular Functions and
    Dirichlet Series, ch. 3) for the product, up to the product's truncation index: both drop only powers past it.
    A term is one ``_qpow`` at the point ``_reduce_workable`` gives, and the sum is carried back as ``eta_batch``'s."""
    _, z, j, index = _shared(_reduce_workable, z, cfg)
    n = _truncation_indices(z.imag, cfg)
    order, z, neg_n, hi, lo = _by_truncation(z, n)
    top, acc = int(n.max(initial=0)), np.ones(z.shape, dtype=complex)
    k = np.outer(np.arange(1, math.isqrt(2 * top // 3) + 2), [1, -1]).ravel()  # 1, -1, 2, -2, ...
    m = k * (3 * k - 1) // 2  # every generalized pentagonal number up to top, ascending; none is live past top
    for e, sign, live in zip(m.tolist(), (1 - 2 * (k % 2)).tolist(), np.searchsorted(neg_n, -m, side="right")):
        acc[:live] += sign * _qpow(hi[:live], lo[:live], z.imag[:live], e)
    out = np.empty_like(acc)
    out[order] = np.exp(1j * np.pi * z / 12) * acc
    return out / (_ETA_ROOTS[index] * np.sqrt(j))


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

    The argument is shifted to |Re z| <= 1/2, and with ``cfg.reduce`` one below
    Im z = 0.25 is moved up by an exact integer matrix; the value is carried back
    through the root of the index the shift and ``_reduce`` carry and the
    principal sqrt(c z + d), so the raw product is summed at well-separated points.
    """
    w, index = _require_workable(z, cfg)
    # only below Im 1/4, unlike the array route and E4, E6: from Im 1/4 up the product needs at most 25 factors, too
    # few for a reduction to pay for itself in one Python-level call (README gives the timings)
    if cfg.reduce and w.imag < 0.25:
        _, w, j, index = _reduce(w, index, z)
        return _eta_series(w, cfg) / (root24(index) * principal_sqrt(j))
    return _eta_series(w, cfg) / root24(index)


def _eta_series(z: complex, cfg: QSeriesConfig) -> complex:
    """e^(pi i z/12) prod_{k<=n} (1 - q^k) at one point, folded left to right in Python complex arithmetic:
    at the 7-25 terms a reduced point needs, a numpy array's fixed cost would outweigh the product."""
    n = _truncation_index(z.imag, cfg)
    arg = _series_argument(z, n)
    prod = 1.0
    for k in range(1, n + 1):
        prod *= 1.0 - cmath.exp(arg * k)
    return cmath.exp(1j * cmath.pi * z / 12) * prod


def eta_batch(z: np.ndarray, cfg: QSeriesConfig = DEFAULT_CONFIG) -> np.ndarray:
    """``eta`` at every point of the complex array ``z``, with its refusals and per-point truncations, every point
    reduced under ``cfg.reduce`` (a ``slash.Points`` z reads its shared reduction, also in E4, E6 and pentagonal eta):
    one pass per product term over the points that still need it."""
    _, arg, j, index = _shared(_reduce_workable, z, cfg)
    prod = _live_point_series(arg, _truncation_indices(arg.imag, cfg), 1, np.multiply, lambda qk, k: 1.0 - qk)
    # j is 1 where nothing was reduced, and off the cut where it was (c != 0, as Im went up)
    return np.exp(1j * np.pi * arg / 12) * prod / (_ETA_ROOTS[index] * np.sqrt(j))


def eisenstein(k: int, z, cfg: QSeriesConfig = DEFAULT_CONFIG) -> complex:
    """Weight-k Eisenstein series in full lattice-sum normalisation, k in {4, 6}.

    Evaluated as 2 zeta(k) (1 + (2/zeta(1-k)) sum_n sigma_{k-1}(n) q^n), with
    the divisor sum folded into the equivalent Lambert form
    sum_d d^{k-1} q^d / (1 - q^d).  With ``cfg.reduce`` the argument is first
    moved to the fundamental domain by an exact integer matrix and the series
    value is carried back through the weight-k cocycle, which keeps the
    evaluation well-conditioned near the real axis.
    """
    _require_weight(k)
    w, _ = _require_workable(z, cfg)
    if cfg.reduce:
        _, w0, j, _ = _reduce(w, 0, z)
        return _eisenstein_series(k, w0, cfg) * cpow_int(j, -k)
    return _eisenstein_series(k, w, cfg)


def _eisenstein_series(k: int, z: complex, cfg: QSeriesConfig) -> complex:
    """2 zeta(k) (1 + c_k sum_{d<=n} d^(k-1) q^d / (1 - q^d)) at one point, the Lambert sum added left to
    right in Python complex arithmetic, the order ``eisenstein_batch`` folds in."""
    base = _truncation_index(z.imag, cfg)
    n = _truncation_index(z.imag, cfg, extra_log=(k - 1) * max(math.log(base), 1.0))
    arg = _series_argument(z, n)
    total = 0j
    for d in range(1, n + 1):
        qd = cmath.exp(arg * d)
        total += float(d) ** (k - 1) * qd / (1.0 - qd)
    return 2 * _EIS_ZETA[k] * (1 + _EIS_COEFF[k] * total)


def eisenstein_batch(k: int, z: np.ndarray, cfg: QSeriesConfig = DEFAULT_CONFIG) -> np.ndarray:
    """``eisenstein`` at every point of the complex array ``z``, with its refusals, reductions and
    per-point truncations: one pass per Lambert term over the points that still need it."""
    _require_weight(k)
    _, arg, j, _ = _shared(_reduce_workable, z, cfg)
    base = _truncation_indices(arg.imag, cfg)
    total = _live_point_series(arg, _truncation_indices(arg.imag, cfg, (k - 1) * np.maximum(np.log(base), 1.0)),
                               0, np.add, lambda qd, d: float(d) ** (k - 1) * qd / (1.0 - qd))
    return 2 * _EIS_ZETA[k] * (1 + _EIS_COEFF[k] * total) * cpow_int(j, -k)


def lattice_sum(k: int, z, rows: int) -> complex:
    """Lattice sum over (m, n) != (0, 0) with |m| <= rows and every n, k in {4, 6}.

    Cross-check oracle only; no q-series is involved.  Row 0 is 2 zeta(k) and
    rows m and -m agree.  Each other row is summed over n in closed form: with
    x = e^(2 pi i w), sum_n (w+n)^-k = ((-2 pi i)^k/(k-1)!) x A_k(x)/(1-x)^k,
    from the (k-1)-th derivative of pi cot(pi w) = sum_n 1/(w+n) written
    through 1 + cot^2(pi w) = -4x/(1-x)^2 (Serre, A Course in Arithmetic,
    VII 4).  Rows decay like e^(-2 pi m |Im z|), so 60 rows converge for
    |Im z| >= 0.1.  They are taken at whichever of z, -z lies above the axis,
    so the sum is exactly invariant under z -> -z, shifted by its exact round(Re) as every row has period 1.
    """
    _require_weight(k)
    if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
        raise DomainError(f"the lattice sum's row count must be an int of at least 1, got {rows!r}")
    if rows > DEFAULT_CONFIG.max_terms:
        raise ResourceLimitError(f"the lattice sum's {rows} rows are above the cap {DEFAULT_CONFIG.max_terms}")
    z = require_off_axis(z)
    w = z if z.imag > 0 else -z
    x = np.exp(_series_argument(w - round(w.real), rows) * np.arange(rows, 0, -1))  # refused past float range
    row_sums = x * np.polyval(_EULERIAN[k], x) / (1 - x) ** k
    return 2 * _EIS_ZETA[k] + 2 * (-4 * math.pi ** 2) ** (k // 2) / math.factorial(k - 1) * complex(row_sums.sum())


def _product_in_range(factors: Iterable[complex], lead_exponent: complex = 0j) -> complex:
    """e^lead_exponent times ``factors``; refused, not inf or NaN, if a factor or the value overflows a float."""
    try:
        out = math.prod(factors, start=cmath.exp(lead_exponent))
        if cmath.isfinite(out):
            return out
    except OverflowError:
        pass
    raise ResourceLimitError("the finite product leaves the floating-point range")


def triangular_product(n_factors: int, z) -> complex:
    """The finite product prod_{n<=N} (e^{-pi i n z} - e^{pi i n z}); entire in z, taken at z shifted by period 2."""
    if isinstance(n_factors, bool) or not isinstance(n_factors, int) or n_factors < 0:
        raise DomainError(f"the number of factors must be an int of at least 0, got {n_factors!r}")
    z = require_finite(z)
    z -= 2 * round(z.real / 2)
    args = (1j * cmath.pi * n * z for n in range(1, n_factors + 1))
    return _product_in_range(cmath.exp(-arg) - cmath.exp(arg) for arg in args)


def triangular_product_factored(n_factors: int, z) -> complex:
    """Same product in the pulled-out form e^{-pi i z N(N+1)/2} prod (1 - e^{2 pi i n z}), shifted as it is."""
    if isinstance(n_factors, bool) or not isinstance(n_factors, int) or n_factors < 0:
        raise DomainError(f"the number of factors must be an int of at least 0, got {n_factors!r}")
    z = require_finite(z)
    z -= 2 * round(z.real / 2)
    return _product_in_range((1 - cmath.exp(2j * cmath.pi * n * z) for n in range(1, n_factors + 1)),
                             -1j * cmath.pi * z * n_factors * (n_factors + 1) / 2)


# ---------------------------------------------------------------------------
# form objects

def eta_fn(cfg: QSeriesConfig = DEFAULT_CONFIG) -> HoloFn:
    """Eta as an upper-half-plane-only function object."""
    # the series are looked up per call, so a wrapper bound to ``qseries.eta`` later still sees every call
    return HoloFn.from_scalar(upper=lambda z: eta_batch(z, cfg) if isinstance(z, np.ndarray) else eta(z, cfg))


@lru_cache(maxsize=None)
def eta_character() -> Rep:
    """The character of eta on the SL cover: the lifted generators [S,1] and [T,1] carry the
    section sqrt(z) resp. 1, so their images are the closed-form multipliers e^(2 pi i n/24)."""
    return Rep("SL", 1, {key: np.array([[root24(eta_multiplier_index(g))]], dtype=complex)
                         for key, g in (("S", S_MAT), ("T", T_MAT))})


def eta_form(cfg: QSeriesConfig = DEFAULT_CONFIG) -> VVForm:
    return VVForm(eta_fn(cfg), Weight(1), eta_character())


def eta_hat_form(cfg: QSeriesConfig = DEFAULT_CONFIG) -> VVForm:
    """The two-component extension of eta to the double half-plane: Ind(eta, 0), built unchecked (``points=()``)."""
    f = eta_form(cfg)
    return induce_form(f, VVForm.zero(Weight(1), f.rep.r_twist()), points=())


def eta_hat(z, cfg: QSeriesConfig = DEFAULT_CONFIG) -> np.ndarray:
    """(eta(z), 0) above the axis and (0, i eta(-z)) below it."""
    z = require_off_axis(z)
    if z.imag > 0:
        return np.array([eta(z, cfg), 0.0], dtype=complex)
    return np.array([0.0, 1j * eta(-z, cfg)], dtype=complex)


def eisenstein_form(k: int, cfg: QSeriesConfig = DEFAULT_CONFIG) -> VVForm:
    """Even extension of E_k as a GL-cover form with trivial representation, built unchecked (``points=()``)."""
    upper = HoloFn.from_scalar(
        upper=lambda z: eisenstein_batch(k, z, cfg) if isinstance(z, np.ndarray) else eisenstein(k, z, cfg))
    return extend_form(upper, Weight(2 * k), Rep.trivial("GL"), points=())


# name -> form builder, unchecked; shared by the CLI and the certification suite, whose checks certify the forms
NAMED_FORMS: dict[str, Callable[[QSeriesConfig], VVForm]] = {
    "eta": eta_form,
    "eta-hat": eta_hat_form,
    "e4": partial(eisenstein_form, 4),
    "e6": partial(eisenstein_form, 6),
}
