import cmath
import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from metaplectic.automorphy import principal_sqrt, pullback, require_upper, root24
from metaplectic.cover import IDENT, LIFT_R, LIFT_S, LIFT_T, NEG_IDENT, S_MAT, T_MAT, Mat2, MetaElt, minus_t_row
from metaplectic.errors import DomainError, ResourceLimitError
from metaplectic import qseries
from metaplectic.qseries import (
    DEFAULT_CONFIG,
    QSeriesConfig,
    dedekind_sum,
    eisenstein,
    eisenstein_batch,
    eisenstein_form,
    eta,
    eta_batch,
    eta_fn,
    eta_multiplier_index,
    eta_hat,
    eta_hat_form,
    lattice_sum,
    triangular_product,
    triangular_product_factored,
)
from metaplectic.sampling import full_grid, lower_grid, upper_grid
from metaplectic.slash import Weight, cpow_int, composition_residuals, holomorphy_residual, mobius

# frozen from 60-digit evaluations of the same q-product with tail < 1e-30
ETA_AT_I = 0.7682254223260566590025941795761806445179
ETA_AT_2I = 0.5923827813324158852903633744919953727615


def test_config_validation():
    with pytest.raises(DomainError):
        QSeriesConfig(tail_tolerance=0.0)
    with pytest.raises(DomainError):
        QSeriesConfig(max_terms=0)
    for bad in ({"reduce": "no"}, {"reduce": 1}, {"reduce": None}, {"max_terms": 1.5}, {"max_terms": True}):
        with pytest.raises(DomainError, match="reduce must be a bool and max_terms an int"):
            QSeriesConfig(**bad)
    assert not QSeriesConfig(tail_tolerance=1e-17, max_terms=2_000_000, min_im=1e-12, reduce=False).reduce
    for name in ("tail_tolerance", "min_im"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"{name} must be a finite number, got {value}"):
                QSeriesConfig(**{name: value})
    with pytest.raises(DomainError, match="min_im must be nonnegative, got -1.0"):
        QSeriesConfig(min_im=-1.0)
    assert QSeriesConfig(min_im=0.0).min_im == 0.0
    # a real number that is no bool: a string or None is refused, not a bare TypeError, and True is not 1
    for name, value in (("tail_tolerance", "1e-17"), ("min_im", None), ("tail_tolerance", True), ("min_im", True),
                        ("min_im", 0.3j)):
        with pytest.raises(DomainError, match=f"{name} must be a finite number, got {value!r}"):
            QSeriesConfig(**{name: value})
    assert QSeriesConfig(tail_tolerance=np.float64(1e-17), min_im=1).min_im == 1
    # an int past the float range is refused like inf, not by math.isfinite's OverflowError
    for name in ("tail_tolerance", "min_im"):
        for value in (10 ** 400, -10 ** 400):
            with pytest.raises(DomainError, match=f"{name} must be a finite number, got {value}$"):
                QSeriesConfig(**{name: value})
    assert QSeriesConfig(min_im=10 ** 300).min_im == 10 ** 300


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


def test_the_eta_routes_compute_no_multiplier_index(monkeypatch, qcfg):
    """eta and eta_batch read their roots by the indices their reductions carry: neither computes an
    ``eta_multiplier_index`` at reduced points."""
    calls = []
    monkeypatch.setattr(qseries, "eta_multiplier_index", lambda g: calls.append(g))
    z = np.array([complex(x, 0.003) for x in (0.1, 0.37, 0.61)])  # reduced by matrices with c != 0
    assert np.all(np.isfinite(qseries.eta_batch(z, qcfg))) and not calls
    assert all(cmath.isfinite(eta(p, qcfg)) for p in z.tolist()) and not calls


def test_reduction_carries_the_eta_multiplier_index(qcfg, raw_cfg):
    """Every column's matrix reduces z - r, r = round(Re z), and its carried index is ``eta_multiplier_index``
    of the matrix times T^-r, which takes z itself there, down to Im 1e-6 and out to |Re| 1e6; under a raw config
    every column is the identity and carries T^-r's -r.  The scalar ``_reduce`` of ``_require_workable``'s shifted
    point and index gives every reduced point the same entries and index as the batch route."""
    rng = np.random.default_rng(20250405)
    im = 10 ** rng.uniform(-6, math.log10(0.25), 3000)
    z = rng.choice([-1, 1], im.size) * 10 ** rng.uniform(-3, 6, im.size) + 1j * im
    (m, _, _, index), (raw_m, _, _, raw_index) = (qseries._reduce_workable(z, cfg) for cfg in (qcfg, raw_cfg))
    assert np.abs(m[2]).max() > 500  # deep reductions, far outside any certify universe
    assert np.array_equal(raw_m, np.repeat([[1], [0], [0], [1]], z.size, axis=1))
    r = np.round(z.real).astype(np.int64).tolist()
    for rows, carried in ((m, index), (raw_m, raw_index)):
        want = [eta_multiplier_index(Mat2(*g) * Mat2(1, -s, 0, 1)) for g, s in zip(zip(*rows.tolist()), r)]
        assert carried.tolist() == want
    scalar = [qseries._reduce(*qseries._require_workable(p, qcfg)) for p in z.tolist()]
    assert [(g, n) for g, _, _, n in scalar] == list(zip(map(tuple, m.T.tolist()), index.tolist()))


def test_eta_step_rule_on_random_words():
    """The reduction's step rule (s for T^s, ``_eta_s_step`` for S) run on random words of T^s and S from the
    identity gives ``eta_multiplier_index`` of every prefix, also where S follows a -T^n row, which a
    reduction never does (S S is -I, so such steps are frequent here)."""
    rng = np.random.default_rng(4)
    minus_t_steps = 0
    for _ in range(5000):
        a, b, c, d, n = 1, 0, 0, 1, 0
        for s in rng.integers(-7, 8, rng.integers(1, 12)).tolist():
            if s % 2:
                a, b, n = a + s * c, b + s * d, n + s
            else:
                minus_t_steps += bool(minus_t_row(c, d))
                a, b, c, d, n = -c, -d, a, b, n + qseries._eta_s_step(a, c, d)
            assert n % 24 == eta_multiplier_index(Mat2(a, b, c, d)), (a, b, c, d)
    assert minus_t_steps > 1000


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


def _eta_series_numpy(z: complex, cfg) -> complex:
    """The eta product as one numpy array of factors, the form ``qseries._eta_series`` had before its fold."""
    n = qseries._truncation_index(z.imag, cfg)
    factors = 1.0 - np.exp((2j * np.pi * z) * np.arange(1, n + 1))
    return cmath.exp(1j * cmath.pi * z / 12) * complex(np.prod(factors))


def _lambert_terms_numpy(k: int, z: complex, cfg) -> np.ndarray:
    """The terms d^(k-1) q^d / (1 - q^d) of ``qseries._eisenstein_series``, as one numpy array."""
    base = qseries._truncation_index(z.imag, cfg)
    n = qseries._truncation_index(z.imag, cfg, extra_log=(k - 1) * max(math.log(base), 1.0))
    ds = np.arange(1, n + 1)
    qd = np.exp((2j * np.pi * z) * ds)
    return (ds.astype(float) ** (k - 1)) * qd / (1.0 - qd)


def _eisenstein_series_numpy(k: int, z: complex, cfg) -> complex:
    """The Lambert form with numpy's pairwise sum, the form ``qseries._eisenstein_series`` had before its fold."""
    return 2 * qseries._EIS_ZETA[k] * (1 + qseries._EIS_COEFF[k] * complex(_lambert_terms_numpy(k, z, cfg).sum()))


def test_scalar_series_match_the_numpy_bodies(qcfg, raw_cfg):
    """The scalar series fold their few terms in Python complex arithmetic.  The eta product multiplies in the
    numpy order, so it is bit-equal, reduced and raw.  The Lambert sum adds left to right, not pairwise, so
    E4/E6 may differ by rounding: at fundamental-domain points within 4e-15 of max(1, |value|), and at raw
    points within 4e-15 of the sum of the terms' absolute values, the scale its rounding error has where
    the sum cancels near the axis."""
    rng = np.random.default_rng(28)
    z = rng.uniform(-2, 2, 1000) + 1j * np.exp(rng.uniform(math.log(1e-3), math.log(3), 1000))
    for p in map(complex, z):
        w = qseries._reduce(p)[1]
        assert qseries._eta_series(w, qcfg) == _eta_series_numpy(w, qcfg), p
        assert qseries._eta_series(p, raw_cfg) == _eta_series_numpy(p, raw_cfg), p
        for k in (4, 6):
            want = _eisenstein_series_numpy(k, w, qcfg)
            assert abs(qseries._eisenstein_series(k, w, qcfg) - want) <= 4e-15 * max(1, abs(want)), (k, p)
            if p.imag >= 0.05:
                want, terms = _eisenstein_series_numpy(k, p, raw_cfg), _lambert_terms_numpy(k, p, raw_cfg)
                scale = 2 * qseries._EIS_ZETA[k] * abs(qseries._EIS_COEFF[k]) * np.abs(terms).sum()
                assert abs(qseries._eisenstein_series(k, p, raw_cfg) - want) <= 4e-15 * max(1, scale), (k, p)


def test_scalar_series_refuse_an_exponent_past_the_float_range(raw_cfg):
    """At a finite point with a huge imaginary part the last exponent 2 pi i z n is not finite: the series refuse
    the point instead of returning NaN.  A huge real part is taken off exactly before any series runs: eta picks
    up the root e^(2 pi i r/24) of r = round(Re z), and the 1-periodic E4, E6 sum at z - r bit for bit."""
    for z in (0.3 + 1e308j, -0.2 + 3e307j):
        with pytest.raises(ResourceLimitError, match="leaves the floating-point range"):
            eta(z)
        for k in (4, 6):
            with pytest.raises(ResourceLimitError, match="leaves the floating-point range"):
                eisenstein(k, z, raw_cfg)
    for z in (1e308 + 1j, -3e306 + 0.5j):
        r = round(z.real)
        assert eta(z) == pytest.approx(root24(r % 24) * eta(z - r), rel=1e-15, abs=0)  # the roots' rounding
        for k in (4, 6):
            assert eisenstein(k, z, raw_cfg) == eisenstein(k, z - r, raw_cfg)


def test_reduce_to_fundamental():
    g, w, _, _ = qseries._reduce(require_upper(0.4 + 0.012j))
    g = Mat2(*g)
    assert g.det() == 1
    assert abs(mobius(g, 0.4 + 0.012j) - w) < 1e-14
    assert w.imag > 0.5 and abs(w.real) <= 0.5 + 1e-9
    g0, w0, _, n0 = qseries._reduce(require_upper(0.1 + 2j))
    assert Mat2(*g0) == IDENT and w0 == 0.1 + 2j and n0 == 0
    # eta and eisenstein validate their point before they reduce it
    for bad in (0.3 - 0.8j, 0.3 + 0j, complex(0.1, math.nan), 10 ** 400):
        with pytest.raises(DomainError):
            eta(bad)
        with pytest.raises(DomainError):
            eisenstein(4, bad)
    with pytest.raises(DomainError, match="beyond the floating-point range"):  # not complex()'s OverflowError
        eta_hat(10 ** 400)


def test_eisenstein_validation():
    with pytest.raises(DomainError):
        eisenstein(5, 1j)
    with pytest.raises(DomainError):
        eisenstein(8, 1j)
    for k in (4.0, 6.0, True):  # a float weight equal to 4 or 6 is refused, not passed on to cpow_int
        with pytest.raises(DomainError, match=f"supported Eisenstein weights are \\[4, 6\\], got {k}$"):
            eisenstein(k, 0.3 + 1j)
        with pytest.raises(DomainError, match=f"supported Eisenstein weights are \\[4, 6\\], got {k}$"):
            eisenstein_batch(k, np.array([0.3 + 1j]))
    assert eisenstein(np.int64(4), 0.3 + 1j) == eisenstein(4, 0.3 + 1j)
    assert eisenstein_batch(np.int64(6), np.array([0.3 + 1j])) == eisenstein_batch(6, np.array([0.3 + 1j]))


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


def test_lattice_closed_form_at_i():
    """G4(i) = 2 zeta(4) E4(i) = Gamma(1/4)^8 / (960 pi^2), from E4(i) = 3 Gamma(1/4)^8 / (2 pi)^6
    (Zagier, The 1-2-3 of Modular Forms, on CM values)."""
    with mpmath.workdps(40):
        want = mpmath.gamma(mpmath.mpf(1) / 4) ** 8 / (960 * mpmath.pi ** 2)
        assert abs(lattice_sum(4, 1j, 60) - want) / want < 1e-15


def test_lattice_symmetry_exact():
    """Exact under z -> -z, and under the period z -> z - round(Re z) far from the origin, bit for bit."""
    for z in (2j, 0.4 + 0.8j, -0.7 + 0.3j):
        assert lattice_sum(4, z, 50) == lattice_sum(4, -z, 50)
    assert lattice_sum(4, 1e12 + 0.3j, 60) == lattice_sum(4, 0.3j, 60)
    assert lattice_sum(6, -1e200 - 1e-3j, 60) == lattice_sum(6, -1e-3j, 60) == lattice_sum(6, 1e200 + 1e-3j, 60)


def test_lattice_cutoff_drift():
    for k in (4, 6):
        for z in (2j, 0.3 + 0.9j, 0.1 + 0.6j):
            assert abs(lattice_sum(k, z, 30) - lattice_sum(k, z, 60)) <= 1e-15 * max(abs(lattice_sum(k, z, 60)), 1)


def test_lattice_matches_series(qcfg):
    for k in (4, 6):
        for z in (2j, 1 + 2j, 0.3 + 0.9j):  # 1+2i reduces to 2i by T, 0.3+0.9i through S
            series = eisenstein(k, z, qcfg)
            assert abs(series - lattice_sum(k, z, 60)) / abs(series) < 1e-13


def _lattice_sum_grid(k, z, rows, n_cutoff=20_000):
    """The lattice sum by its definition, term by term over |m| <= rows and |n| <= n_cutoff, (0, 0) excluded."""
    ns = np.arange(-n_cutoff, n_cutoff + 1)
    total = 0j
    for m in range(-rows, rows + 1):
        w = m * z + ns[ns != 0] if m == 0 else m * z + ns
        total += complex(np.sum(w ** -k))
    return total


def test_lattice_rows_match_whole_grid():
    """The closed-form rows against the brute-force grid, within the grid's dropped n-tail, (2 rows + 1) rows
    of 2 sum_{n > N} (n - rows |z|)^-k <= 2 (N - rows |z|)^(1-k) / (k-1) each, and the grid's own rounding."""
    n_cutoff = 20_000
    for k in (4, 6):
        for z in (1j, 2j, 0.4 + 0.8j, -0.7 + 0.3j, 0.3 - 1.7j):
            for rows in (1, 2, 7):
                got, want = lattice_sum(k, z, rows), _lattice_sum_grid(k, z, rows, n_cutoff)
                tail = (2 * rows + 1) * 2 * (n_cutoff - rows * abs(z)) ** (1 - k) / (k - 1)
                assert abs(got - want) <= tail + 4e-15 * max(abs(want), 1), (k, z, rows)


def test_lattice_validation():
    for k in (3, 2, 8, 4.0, True):
        with pytest.raises(DomainError, match=f"supported Eisenstein weights are \\[4, 6\\], got {k}$"):
            lattice_sum(k, 1j, 10)
    assert lattice_sum(np.int64(4), 1j, 60) == lattice_sum(4, 1j, 60)
    with pytest.raises(ResourceLimitError, match="the lattice sum's 2147483648 rows are above the cap 1000000$"):
        lattice_sum(4, 1j, 2 ** 31)  # refused before its 16 GiB of rows are allocated
    for z in (1e308 + 1e308j, -1e308 - 1e308j, 0.5 + 1e307j):  # refused before the exponentials overflow
        with pytest.raises(ResourceLimitError, match="leaves the floating-point range$"):
            lattice_sum(4, z, 3)
    for rows in (0, 2.5, True, 60.0):  # a float would sum 33.68 at i, a bool one row
        with pytest.raises(DomainError, match=f"row count must be an int of at least 1, got {rows!r}$"):
            lattice_sum(4, 1j, rows)


def test_triangular_product_basics():
    assert triangular_product(0, 0.3 + 0.8j) == 1
    assert triangular_product(0, 1.7) == 1  # entire: real axis allowed
    z = 0.4 + 0.8j
    one = triangular_product(1, z)
    assert abs(one - (cmath.exp(-1j * cmath.pi * z) - cmath.exp(1j * cmath.pi * z))) == 0
    for product in (triangular_product, triangular_product_factored):
        for bad in (-1, 2.5, True, 3.0):  # a bool would take one factor
            with pytest.raises(DomainError, match=f"number of factors must be an int of at least 0, got {bad!r}$"):
                product(bad, z)
        for bad in (complex("nan"), complex(0.1, math.inf), 10 ** 400):
            with pytest.raises(DomainError, match="is not a finite complex number"):
                product(3, bad)
        # every factor has period 2, so a huge real part is taken off exactly; a huge imaginary part is refused
        for far in (1e308 + 1j, -1e308 + 1j, 1e200 + 1j):
            assert product(3, far) == product(3, 1j)
        assert product(1, 1e200 + 1j) == pytest.approx(2 * math.sinh(math.pi), rel=1e-15)
        for far in (1e308 - 1e308j, 0.5 + 1e308j):
            with pytest.raises(ResourceLimitError, match="leaves the floating-point range"):
                product(3, far)


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


def test_batch_series_match_the_scalar_series(qcfg, raw_cfg):
    """The array evaluators agree with the scalar ones point by point, reduced and raw, and a point's
    value does not depend on the other points of its array.  The coarse tail tolerance makes the
    truncation index show: each point must stop at its own."""
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 2, 60) + 1j * np.exp(rng.uniform(math.log(1e-4), math.log(2), 60))
    coarse = QSeriesConfig(tail_tolerance=1e-6, min_im=1e-6, reduce=False)
    for cfg, pts in ((qcfg, z), (raw_cfg, z[z.imag > 0.05]), (coarse, z[z.imag > 0.05])):
        for many, one in ((lambda p: eta_batch(p, cfg), lambda p: eta(p, cfg)),
                          (lambda p: eisenstein_batch(4, p, cfg), lambda p: eisenstein(4, p, cfg)),
                          (lambda p: eisenstein_batch(6, p, cfg), lambda p: eisenstein(6, p, cfg))):
            got, want = many(pts), np.array([one(p) for p in pts])
            assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) <= 1e-12
            assert all(many(pts[i:i + 1])[0] == got[i] for i in range(pts.size))
            assert many(pts[:0]).shape == (0,)


def _anchored_q_powers(arg, count):
    """(k, q^k) for k = 1..count at every point by the batch rule: q = e^(2 pi i arg), q^k from the phase
    x k mod 1 (x = Re arg mod 1 = hi / 2^26 + lo) where k is a multiple of ``_QPOW_ANCHOR``, q^(k-1) * q elsewhere."""
    q = qk = np.exp(2j * np.pi * arg)
    x = arg.real - np.round(arg.real)
    hi = np.round(x * 2 ** 26).astype(np.int64)
    lo = x - hi / 2 ** 26
    for k in range(1, count + 1):
        if k % qseries._QPOW_ANCHOR == 0:
            qk = np.exp(2j * np.pi * ((hi * k) % 2 ** 26 / 2 ** 26 + lo * k) - 2 * np.pi * k * arg.imag)
        elif k > 1:
            qk = qk * q
        yield k, qk


def _per_term_q_powers(arg, count):
    """(k, q^k) with one exponential e^(2 pi i arg k) per term: the accuracy oracle of the anchored rule."""
    for k in range(1, count + 1):
        yield k, np.exp((2j * np.pi * arg) * k)


def _masked_eta_batch(z, cfg, q_powers=_anchored_q_powers):
    """``eta_batch`` as a masked loop: every point runs through the largest truncation index.  Its matrices
    reduce z - r, r = round(Re z), so each root is of their multiplier index less r."""
    m, arg, _, _ = qseries._reduce_workable(z, cfg)
    r = np.round(z.real).astype(np.int64)
    roots = np.array([root24((eta_multiplier_index(Mat2(*g)) - s) % 24) for g, s in zip(zip(*m.tolist()), r)])
    n, prod = qseries._truncation_indices(arg.imag, cfg), np.ones_like(z)
    for k, qk in q_powers(arg, n.max(initial=0)):
        prod = prod * np.where(k <= n, 1.0 - qk, 1)
    return np.exp(1j * np.pi * arg / 12) * prod / (roots * np.sqrt(m[2] * (z - r) + m[3]))


def _masked_eisenstein_batch(k, z, cfg, q_powers=_anchored_q_powers):
    """``eisenstein_batch`` as a masked loop: every point runs through the largest truncation index."""
    m, arg, _, _ = qseries._reduce_workable(z, cfg)
    base = qseries._truncation_indices(arg.imag, cfg)
    n = qseries._truncation_indices(arg.imag, cfg, (k - 1) * np.maximum(np.log(base), 1.0))
    total = np.zeros_like(z)
    for d, qd in q_powers(arg, n.max(initial=0)):
        total = total + np.where(d <= n, float(d) ** (k - 1) * qd / (1.0 - qd), 0)
    shifted = z - np.round(z.real)  # the matrices reduce z - round(Re z)
    return 2 * qseries._EIS_ZETA[k] * (1 + qseries._EIS_COEFF[k] * total) * cpow_int(m[2] * shifted + m[3], -k)


def _by_im_bands(masked, z):
    """``masked`` on 16 bands of the points sorted by Im.  The masked loop is elementwise, so these are
    the values of one call on all of ``z``, at a fraction of its max(n) * len(z) cost."""
    out = np.empty_like(z)
    for band in np.array_split(np.argsort(z.imag), 16):
        out[band] = masked(z[band])
    return out


def test_the_batch_series_sum_where_one_reduction_policy_puts_them(monkeypatch, qcfg, raw_cfg):
    """``eta_batch``, E4 and E6 hand ``_live_point_series`` the points of one policy: under a reducing config every
    point lies in the standard fundamental domain, at Im from 1e-6 to 2 (eta's point for 0.4+0.8i among them,
    which an Im 1/4 threshold left at |w| = 0.894), and under a raw config each is z - round(Re z)."""
    rng = np.random.default_rng(46)
    z = np.append(rng.uniform(-3, 3, 300) + 1j * 10 ** rng.uniform(-6, math.log10(2), 300), 0.4 + 0.8j)
    handed = []

    def record(arg, *rest):
        handed.append(arg)
        return np.zeros_like(arg)
    monkeypatch.setattr(qseries, "_live_point_series", record)
    for cfg, points in ((qcfg, z), (raw_cfg, z[z.imag > 1e-5])):  # raw, Im 1e-6 needs more than max_terms
        for series in (eta_batch, lambda p, c: eisenstein_batch(4, p, c), lambda p, c: eisenstein_batch(6, p, c)):
            handed.clear()
            series(points, cfg)
            (arg,) = handed
            if cfg.reduce:
                assert np.all(np.abs(arg) >= 0.999999) and np.all(np.abs(arg.real) <= 0.5)
            else:
                assert np.array_equal(arg, points - np.round(points.real))


def test_live_point_series_equal_the_masked_loop(qcfg, raw_cfg):
    """Stopping each point at its own truncation index gives exactly the values of running every point
    through the largest index with the extra terms masked to 1 or 0, reduced and raw."""
    rng = np.random.default_rng(8)
    z = rng.uniform(-2, 2, 4000) + 1j * np.exp(rng.uniform(math.log(1e-3), math.log(3), 4000))
    for cfg in (qcfg, raw_cfg, replace(raw_cfg, tail_tolerance=1e-6)):
        assert np.array_equal(eta_batch(z, cfg), _by_im_bands(lambda p: _masked_eta_batch(p, cfg), z))
        assert eta_batch(z[:0], cfg).shape == _masked_eta_batch(z[:0], cfg).shape == (0,)
        for k in (4, 6):
            want = _by_im_bands(lambda p: _masked_eisenstein_batch(k, p, cfg), z)
            assert np.array_equal(eisenstein_batch(k, z, cfg), want)
            assert eisenstein_batch(k, z[:0], cfg).shape == _masked_eisenstein_batch(k, z[:0], cfg).shape == (0,)


def _raw_series_mpmath(z: complex, cfg) -> tuple:
    """Raw eta, E4 and E6 at z over the same terms the float series sum, in 40-digit arithmetic, each with
    its condition number: the relative change of the value when every q^k moves by a relative 1."""
    n = [qseries._truncation_index(z.imag, cfg)]
    n += [qseries._truncation_index(z.imag, cfg, (k - 1) * max(math.log(n[0]), 1.0)) for k in (4, 6)]
    with mpmath.workdps(40):
        zz = mpmath.mpc(z.real, z.imag)
        q, qd = mpmath.exp(2j * mpmath.pi * zz), mpmath.mpc(1)
        prod, sums = mpmath.mpc(1), {4: mpmath.mpc(0), 6: mpmath.mpc(0)}
        for d in range(1, n[2] + 1):
            qd *= q
            lambert = qd / (1 - qd)
            if d <= n[0]:
                prod *= 1 - qd
            sums[4] += d ** 3 * lambert if d <= n[1] else 0
            sums[6] += d ** 5 * lambert
        values = [complex(mpmath.exp(1j * mpmath.pi * zz / 12) * prod),
                  *(complex(2 * qseries._EIS_ZETA[k] * (1 + qseries._EIS_COEFF[k] * sums[k])) for k in (4, 6))]
    d = np.arange(1, n[2] + 1)
    qd = np.exp(-2 * np.pi * z.imag * d)  # |q^d|
    lambert = qd / np.abs(1 - np.exp(2j * np.pi * z * d))
    conds = [lambert[:n[0]].sum(), *(2 * qseries._EIS_ZETA[k] * abs(qseries._EIS_COEFF[k]) / abs(v)
                                     * (d[:m] ** (k - 1.0) * lambert[:m] ** 2 / qd[:m]).sum()
                                     for k, m, v in zip((4, 6), n[1:], values[1:]))]
    return values, conds


def test_anchored_q_powers_are_as_accurate_as_one_exponential_per_term(raw_cfg):
    """At 20 seeded raw points with Im from 2.5e-3 to 0.5, the batch eta, E4 and E6, whose q^k come from one
    exponential every ``_QPOW_ANCHOR`` terms, are no further from a 40-digit sum of the same terms than the
    body with one exponential per term, up to the error 8 ulps in every q^k would make (8 eps times the
    condition number): the q^(k-1) * q steps between anchors cost a few ulps, while e^(2 pi i arg k) rounds
    2 pi arg k.  For E4 and E6 the per-term body is somewhere worse by more than that margin."""
    rng = np.random.default_rng(29)
    z = rng.uniform(-2, 2, 20) + 1j * np.exp(rng.uniform(math.log(2.5e-3), math.log(0.5), 20))
    want, cond = (np.array(col).T for col in zip(*(_raw_series_mpmath(complex(p), raw_cfg) for p in z)))
    batch = (eta_batch(z, raw_cfg), eisenstein_batch(4, z, raw_cfg), eisenstein_batch(6, z, raw_cfg))
    per_term = (_masked_eta_batch(z, raw_cfg, _per_term_q_powers),
                _masked_eisenstein_batch(4, z, raw_cfg, _per_term_q_powers),
                _masked_eisenstein_batch(6, z, raw_cfg, _per_term_q_powers))
    margin = 8 * np.finfo(float).eps * cond
    for name, got, old, ref, slack in zip(("eta", "E4", "E6"), batch, per_term, want, margin):
        err, old_err = np.abs(got - ref) / np.abs(ref), np.abs(old - ref) / np.abs(ref)
        assert np.all(err <= old_err + slack), name
        assert name == "eta" or np.any(old_err > err + slack), name


def _error(call):
    with pytest.raises((DomainError, ResourceLimitError)) as info:
        call()
    return type(info.value), str(info.value)


def test_batch_series_refuse_like_the_scalar_series(monkeypatch, composition_residual):
    """Below min_im, past max_terms, past the reduction cap and where the series exponent overflows at a huge
    imaginary part, the array evaluators and the batch composition raise what the scalar ones raise."""
    good = 0.1 + 1.2j
    cases = [(QSeriesConfig(min_im=0.1), 0.5 + 0.01j, DomainError),
             (QSeriesConfig(max_terms=10, min_im=1e-6, reduce=False), 0.3 + 0.001j, ResourceLimitError),
             (QSeriesConfig(min_im=1e-3), 0.4 + 0.012j, ResourceLimitError)]
    x, y = MetaElt(S_MAT, 1), MetaElt(T_MAT * T_MAT, -1)  # x.(y.z) = -1/(z + 2)
    for cfg, z, kind in cases:
        if kind is ResourceLimitError and cfg.reduce:
            monkeypatch.setattr(qseries, "REDUCTION_STEPS", 1)
        for many, one in ((lambda p: eta_batch(p, cfg), lambda p: eta(p, cfg)),
                          (lambda p: eisenstein_batch(4, p, cfg), lambda p: eisenstein(4, p, cfg))):
            want = _error(lambda: one(z))
            assert want[0] is kind and _error(lambda: many(np.array([good, z, good]))) == want
        f, points = eta_fn(cfg), (1.3 + 0.3j, 0.4 + 0.8j)
        assert _error(lambda: composition_residuals([(f, Weight(1))], [(x, y)], points))[0] is kind
        assert _error(lambda: composition_residual(f, Weight(1), x, y, points))[0] is kind
        monkeypatch.undo()
    # a finite point whose series exponent 2 pi i z n overflows: eta at Im 1e308 sums unreduced in both configs
    huge, raw = 0.3 + 1e308j, QSeriesConfig(reduce=False)
    for many, one in ((lambda p: eta_batch(p, DEFAULT_CONFIG), lambda p: eta(p, DEFAULT_CONFIG)),
                      (lambda p: eisenstein_batch(4, p, DEFAULT_CONFIG), lambda p: eisenstein(4, p, DEFAULT_CONFIG)),
                      (lambda p: eta_batch(p, raw), lambda p: eta(p, raw)),
                      (lambda p: eisenstein_batch(4, p, raw), lambda p: eisenstein(4, p, raw))):
        want = _error(lambda: one(huge))
        assert want[0] is ResourceLimitError and _error(lambda: many(np.array([good, huge, good]))) == want
    # below Im ~2e-10 a reduction step can shift by 1/(2 Im) > 2^31: the int64 rows refuse, naming the caller's
    # point, not the shifted one it reduces, nor 0.1+0.2i, which is still being reduced at that step; the scalar
    # reduction refuses the same step with the same message
    far, cfg = 3 + 1e-10 + 1.5e-12j, QSeriesConfig(min_im=0)
    want = (ResourceLimitError, "fundamental-domain reduction of (3.0000000001+1.5e-12j) leaves int64")
    for call in (lambda: eta_batch(np.array([0.1 + 0.2j, far]), cfg), lambda: eisenstein_batch(4, np.array([far]), cfg),
                 lambda: eta(far, cfg), lambda: eisenstein(4, far, cfg)):
        assert _error(call) == want


def test_scalar_and_batch_series_agree_at_every_real_part(qcfg):
    """Both routes take r = round(Re z) off first, exactly, so eta, E4 and E6 give the same value on the scalar
    and the array route, within 2e-15 of max(1, |value|), at +-Re z from 0 to 1e308 and Im 1e-3, 0.219 and 1:
    none is refused, and |Re z| >= 2^31 does not overflow the batch's int64 rows.  The scale max(1, |value|)
    leaves out eta(0.001i) = 6e-113, which the two routes' exponentials round 5.7e-14 apart at any real part."""
    re = np.array([0, 0.5, 12345.678, 909449.61, 2.0 ** 31, 1e12, 1e308])
    z = (np.concatenate([re, -re])[:, None] + 1j * np.array([1e-3, 0.219, 1])).ravel()
    for many, one in ((lambda p: eta_batch(p, qcfg), lambda p: eta(p, qcfg)),
                      (lambda p: eisenstein_batch(4, p, qcfg), lambda p: eisenstein(4, p, qcfg)),
                      (lambda p: eisenstein_batch(6, p, qcfg), lambda p: eisenstein(6, p, qcfg))):
        got, want = many(z), np.array([one(p) for p in z.tolist()])
        assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1, np.abs(want)))


def test_raw_eta_is_sharp_far_from_the_origin(raw_cfg):
    """Raw eta on both routes sums at z - round(Re z) and carries the exact root, so it is within 2e-15 of a
    40-digit eta far out on the real axis, where phases taken from the float z are off by up to 9.3e-9."""
    z = np.array([-909449.61 + 0.219j, 12345.678 + 0.05j, 1e9 + 0.5j])
    want = np.array([_eta_40_digits(p) for p in z.tolist()])
    for got in (eta_batch(z, raw_cfg), np.array([eta(p, raw_cfg) for p in z.tolist()])):
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def _eta_40_digits(z: complex) -> complex:
    """e^(pi i z/12) (q; q)_inf in 40-digit arithmetic, by mpmath's own q-Pochhammer product."""
    with mpmath.workdps(40):
        zz = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(1j * mpmath.pi * zz / 12) * mpmath.qp(mpmath.exp(2j * mpmath.pi * zz)))


def test_the_pentagonal_series_matches_40_digits_and_the_product(cover7, qcfg, raw_cfg):
    """Euler's pentagonal series, which ``eta_multiplier_universe``'s transform gate slashes, is within 4e-15
    relative of a 40-digit eta at the gate's two lowest word-length-7 images (Im 2.5e-3 and 2.8e-3) and at 8
    seeded points with Im from 2.5e-3 to 0.5 and |Re z| up to 1e6; it measured at most 8.7e-16.  Both sum at
    z - round(Re z), so it is within 2e-14 of the raw ``eta_batch`` product, its oracle in the suite, at every
    point (measured 2.6e-15).  Under a reducing config both read one reduction and sum at its point, so at 500
    seeded points with Im from 1e-5 to 2 they agree within 1e-15 relative (measured 5.8e-16)."""
    a, b, c, d = np.array([m.entries() for m in cover7.sl_matrices()]).T[:, :, None]
    images = np.unique(pullback(a, b, c, d, np.array(upper_grid()))[0])
    rng = np.random.default_rng(41)
    re = np.concatenate([rng.uniform(-1, 1, 4), rng.uniform(-1e6, 1e6, 4)])
    z = np.concatenate([images[np.argsort(images.imag)[:2]],
                        re + 1j * np.exp(rng.uniform(math.log(2.5e-3), math.log(0.5), 8))])
    assert z.imag.min() < 2.6e-3
    got, want = qseries._eta_pentagonal(z, raw_cfg), np.array([_eta_40_digits(p) for p in z])
    assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want))
    assert np.all(np.abs(got - eta_batch(z, raw_cfg)) <= 2e-14 * np.abs(want))
    z = rng.uniform(-2, 2, 500) + 1j * 10 ** rng.uniform(-5, math.log10(2), 500)
    product = eta_batch(z, qcfg)
    assert np.all(np.abs(qseries._eta_pentagonal(z, qcfg) - product) <= 1e-15 * np.abs(product))


def test_the_pentagonal_series_refuses_where_the_raw_product_does():
    """Below min_im, past max_terms, at non-finite points and where the series exponent leaves the float range,
    the pentagonal series raises what the raw ``eta_batch`` raises, naming the same point."""
    good = 0.1 + 1.2j
    cases = [(QSeriesConfig(min_im=0.1, reduce=False), 0.5 + 0.01j),
             (QSeriesConfig(max_terms=10, min_im=1e-6, reduce=False), 0.3 + 0.001j),
             (QSeriesConfig(reduce=False), complex(math.nan, 1)), (QSeriesConfig(reduce=False), complex(1, math.inf)),
             (QSeriesConfig(reduce=False), 0.3 - 0.5j), (QSeriesConfig(reduce=False), 0.3 + 1e308j)]
    kinds = set()
    for cfg, z in cases:
        points = np.array([good, z, good])
        want = _error(lambda: eta_batch(points, cfg))
        assert _error(lambda: qseries._eta_pentagonal(points, cfg)) == want
        kinds.add(want[0])
    assert kinds == {DomainError, ResourceLimitError}
    assert qseries._eta_pentagonal(np.array([], dtype=complex), DEFAULT_CONFIG).shape == (0,)
