"""Certification suite: runs every lemma, identity, and worked-example check
and emits machine-readable reports.

Exact sign/integer algebra is checked exhaustively over an enumerated
universe (the cocycle triple and B(a)B(b)B(ab) checks are numpy bit kernels);
numeric checks run over the standard sample grid with tolerances pinned per
check.  Reports are deterministic for a fixed setup: the random pair draws
are seeded and check output is sorted by check id.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .automorphy import (branch_profile, branch_signs, cz_plus_d, phi_lower, phi_upper, principal_sqrt, pullback,
                         require_upper, section_roots, word_factor)
from .cover import (CENTER_FLIP, IDENT, LIFT_R, LIFT_S, LIFT_T, LIFT_Z, NEG_IDENT, R_MAT, S_MAT, T_MAT, CoverSet, Mat2,
                    MetaElt, chi_negative, cocycle, cocycle_bit, conj_by_reflection, enumerate_cover, format_word,
                    hilbert_symbol, kubota_chi, minus_t_row, reflection_sign)
from .errors import DomainError, ModularityError, ResourceLimitError
from .qseries import (CERTIFY_CONFIG, NAMED_FORMS, QSeriesConfig, eisenstein, eta, eta_character, eta_fn, eta_hat,
                      eta_multiplier_index, lattice_sum, triangular_product, triangular_product_factored)
from .reps import Rep, VVForm, extend_form, induce_form, project_components, root24, snap_to_root_of_unity
from .slash import (HoloFn, Weight, admissible_reflection_scalars, composition_residuals, holofn_values,
                    holomorphy_residual, reflection_route, slash, slash_values, worst_residual)

REPORT_VERSION = "1"
DEFAULT_SEED = 20250405
DEFAULT_MAX_WORD_LEN = 5
DEFAULT_PAIR_COUNT = 500

# frozen from a 60-digit evaluation of the same q-product with tail < 1e-30
ETA_AT_I = 0.7682254223260566590025941795761806
# the weight-4 lattice sum at i in closed form, Gamma(1/4)^8 / (960 pi^2), frozen from a 40-digit evaluation
G4_AT_I = 3.151212002153897538217689942248688556646


def require_tolerance(tol: float) -> float:
    """``tol`` if it is a finite number at least 0; a negative one would fail even an exact zero."""
    if not math.isfinite(tol):
        raise DomainError(f"tolerance must be a finite number, got {tol}")
    if tol < 0:
        raise DomainError(f"tolerance must be nonnegative, got {tol}")
    return tol


class _Env:
    """Shared, lazily-built state for the individual checks, from ``run_certification``'s settings."""

    def __init__(self, max_word_len: int, tol: Optional[float], points: Optional[Sequence[complex]], seed: int,
                 pair_count: int, force: bool, qcfg: QSeriesConfig):
        if pair_count < 1:
            raise DomainError(f"pair count must be at least 1, got {pair_count}")
        self.tol_override = tol if tol is None else require_tolerance(tol)
        self.pair_count = pair_count
        self.qcfg = qcfg
        self.cover: CoverSet = enumerate_cover(max_word_len, force=force)
        # validated here, so a bad sample is named before any check runs
        self.upper = tuple(map(require_upper, points)) if points else sampling.upper_grid()
        self.lower = tuple(z.conjugate() for z in self.upper)
        self.grid = self.upper + self.lower
        self.rng = np.random.default_rng(seed)
        self.qcfg_raw = replace(qcfg, reduce=False)
        cov = self.cover
        self.universe = (f"cover words of length <= {cov.max_len}: {len(cov.words)} elements, "
                         f"{len(cov.matrices())} distinct matrices ({len(cov.sl_matrices())} with det +1); "
                         f"{len(self.upper)} upper sample points plus conjugates")
        self._forms: dict = {}
        self._branch_signs: Optional[dict[Mat2, int]] = None

    def tol(self, pinned: float) -> float:
        return self.tol_override if self.tol_override is not None else pinned

    def branch_sign(self, g: Mat2) -> int:
        """``branch_profile`` of ``g`` over the upper points, from one ``branch_signs`` pass over the det +1 matrices
        on first use; one that the pass cannot sign goes to ``branch_profile`` each time, so a refusal is not kept."""
        if self._branch_signs is None:
            mats = self.cover.sl_matrices()
            self._branch_signs = dict(zip(mats, branch_signs(mats, self.upper).tolist()))
        return self._branch_signs.get(g) or branch_profile(g, self.upper)

    def form(self, name: str) -> VVForm:
        """The form registered under ``name`` in ``NAMED_FORMS``, built once and unchecked: the checks certify it."""
        if name not in self._forms:
            self._forms[name] = NAMED_FORMS[name](self.qcfg)
        return self._forms[name]

    def sample_pairs(self, count: int) -> list[tuple[MetaElt, MetaElt]]:
        """``count`` seeded pairs of enumerated elements, split over the det combinations, the first first."""
        plus = [e for e in self.cover.elements() if e.det() == 1]
        minus = [e for e in self.cover.elements() if e.det() == -1]
        combos = [(px, py) for px, py in ((plus, plus), (plus, minus), (minus, plus), (minus, minus)) if px and py]
        pairs = []
        for k, (pool_x, pool_y) in enumerate(combos):
            size = count // len(combos) + (k < count % len(combos))
            ix = self.rng.integers(0, len(pool_x), size=size)
            iy = self.rng.integers(0, len(pool_y), size=size)
            pairs.extend((pool_x[i], pool_y[j]) for i, j in zip(ix, iy))
        return pairs


def _gap(a, b, axis=None):
    """Largest entrywise distance between two values or arrays, or along ``axis`` of two arrays."""
    return np.max(np.abs(a - b), axis=axis)


def _shown(value):
    """A witness field as reported: points as ``a+bi``, matrices and cover elements as text."""
    if isinstance(value, complex):
        return sampling.format_complex(value)
    return str(value) if isinstance(value, (Mat2, MetaElt)) else value


def _verdict(env: _Env, params: dict, shown, passed: bool, counterexample: Optional[dict],
             universe: Optional[str] = None) -> dict:
    """A check's report, all but its ``check_id``; the universe defaults to the enumerated cover."""
    if not passed and counterexample is None:
        counterexample = {"detail": "no witness captured; see params"}
    return {"params": params, "universe": env.universe if universe is None else universe, "max_residual": shown,
            "pass": passed, "counterexample": None if passed else {k: _shown(v) for k, v in counterexample.items()}}


def _exact(env: _Env, params: dict, bad: Optional[dict], count=1,
           universe: Optional[str] = None) -> dict:
    """Exact verdict: passes when there is no counterexample ``bad``; ``count`` is shown otherwise."""
    return _verdict(env, params, "exact" if bad is None else count, bad is None, bad, universe)


def _worst(cases) -> tuple[float, Optional[dict]]:
    """The largest residual of ``cases``, pairs (residual, witness), 0.0 for none, and the first witness
    that reached it (NaN beats any number); a witness of None raises the maximum but keeps the witness so far."""
    value, kept = 0.0, None
    for r, witness in cases:
        if r > value or (math.isnan(r) and not math.isnan(value)):
            value, kept = r, kept if witness is None else witness
    return value, kept


def _sweep(env: _Env, params: dict, pinned: float, cases, universe: Optional[str] = None) -> dict:
    """Numeric verdict over ``cases``, pairs (residual, witness): the worst residual and the first
    witness that reached it, within the pinned tolerance (or the override)."""
    value, witness = _worst(cases)
    tol, residual = env.tol(pinned), float(value)
    return _verdict(env, {**params, "tolerance": tol}, residual, residual <= tol, witness, universe)


# ---------------------------------------------------------------------------
# exact algebra


def check_unit_values(env: _Env) -> dict:
    cases = [
        ("chi(S)", kubota_chi(S_MAT), 1),
        ("chi(T)", kubota_chi(T_MAT), 1),
        ("chi(-I)", kubota_chi(NEG_IDENT), -1),
        ("hilbert(-1,-1)", hilbert_symbol(-1, -1), -1),
        ("hilbert(-1,1)", hilbert_symbol(-1, 1), 1),
        ("hilbert(3,-5)", hilbert_symbol(3, -5), 1),
        ("cocycle(T,RTR)", cocycle(T_MAT, R_MAT * T_MAT * R_MAT), 1),
        ("cocycle(S,-S)", cocycle(S_MAT, -S_MAT), 1),
        ("cocycle(S,S)", cocycle(S_MAT, S_MAT), -1),
        ("cocycle(R,R)", cocycle(R_MAT, R_MAT), -1),
        ("cocycle(S,I)", cocycle(S_MAT, IDENT), 1),
        ("cocycle(R,I)", cocycle(R_MAT, IDENT), 1),
        ("reflection_sign(S)", reflection_sign(S_MAT), 1),
        ("reflection_sign(T)", reflection_sign(T_MAT), 1),
        ("reflection_sign(-I)", reflection_sign(NEG_IDENT), -1),
    ]
    bad = [{"case": name, "got": got, "want": want} for name, got, want in cases if got != want]
    return _exact(env, {"cases": len(cases)}, {"mismatches": bad} if bad else None,
                  f"{len(bad)} mismatches", universe="hand-checked generator identities")


def _entry_rows(mats: Sequence[Mat2], power: int) -> np.ndarray:
    """The entries a, b, c, d of ``mats`` as four rows of the narrowest integer type that holds every
    entry of a product of ``power`` of them, which is at most 2^(power-1) max|entry|^power."""
    bound = 2 ** (power - 1) * max(abs(x) for m in mats for x in m.entries()) ** power
    dtype = next((t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max), None)
    if dtype is None:
        raise ResourceLimitError(f"products of {power} enumerated matrices reach {bound}, beyond int64")
    return np.array([m.entries() for m in mats], dtype=dtype).T.copy()


# uint64 words in one (keys, b, words) temporary of the triple kernel: under 128 KiB, which malloc serves from its
# heap instead of a fresh mapping per chunk (at 256 KiB a word-length-7 certify run peaked 0.3 MB higher)
_TRIPLE_CHUNK_WORDS = 2 ** 14
_ALL_ONES = np.uint64(2 ** 64 - 1)


def _spread(bits: np.ndarray) -> np.ndarray:
    """Each bit as an all-zero or all-one uint64 word, on a new last axis that broadcasts against packed words."""
    return (bits * _ALL_ONES)[..., None]


def _packed_words(bits: np.ndarray) -> np.ndarray:
    """A bool array whose last axis is a multiple of 64 long as uint64 words: entry g in bit g % 64 of word g // 64."""
    return np.ascontiguousarray(np.packbits(bits, axis=-1, bitorder="little")).view("<u8")


def _triple_defect(a_ab, det_a, chi_a, det_b, chi_b, det_ab, chi_ab, det_c, chi_c, s_bc, s_abc):
    """A(a,b) A(ab,c) A(a,bc) A(b,c) as a bit (set where the identity fails), from the bits it reads: A(a,b) and
    the negativity bits of det a, chi(a), det b, chi(b), det ab, chi(ab), det c, chi(c), chi(bc) and chi(abc).
    A formula in ``&`` and ``^`` through ``cocycle_bit``, so it runs on bools and on packed words alike."""
    return (a_ab ^ cocycle_bit(det_ab, det_c, chi_ab, chi_c, s_abc) ^ cocycle_bit(det_a, det_b ^ det_c, chi_a, s_bc, s_abc)
            ^ cocycle_bit(det_b, det_c, chi_b, chi_c, s_bc))


def cocycle_triple_violations(mats: Sequence[Mat2]) -> tuple[int, Optional[dict]]:
    """Triples (a, b, c) of ``mats`` breaking A(a,b) A(ab,c) = A(a,bc) A(b,c), and the first one:
    first c, then the first (a, b) in row-major order.

    The identity sees a only through det a and a's bottom row (c, d): chi(a) is read off that row;
    ab and abc have the bottom rows (c, d)·b and (c, d)·bc; and det(ab), det(abc) need only det a.
    It sees c only through det c, chi(c) and the chi bits of r·c for the rows r that meet c from the
    left: each b's bottom row gives chi(bc), and each a'b row gives chi(abc).  So the kernel takes one
    representative a per (det, c, d) key, tabulates the chi bit of r·c for every distinct such row r
    and every c, and keeps one representative c per group of equal (det c, chi(c), table row).  This
    is exact for any rule ``chi_negative`` that is a function of the bottom row alone, as its signature
    makes it: two c in one group agree on every bit the identity reads.

    The groups are bit-sliced: ordered by first member, group g is bit g % 64 of word g // 64 of each
    packed c bit (det c, chi(c), and the chi bits of r·c per row r), and each (key, b) bit is an
    all-zero or all-one word, so one ``_triple_defect`` over (keys, b, words) evaluates 64 groups per
    word, for K_a·n·⌈K_c/64⌉ words instead of K_a·K_c·n bits in K_c passes.  K_a and K_c are 52, 136,
    220 and 576 at word lengths 5, 7, 8 and 10.  Only a failing word is unpacked, and its set bits are
    weighted by their group sizes and by the multiplicity of their key.
    The first violating group is the lowest set bit of the OR of all failing words; its first member
    is the first violating c, and one unpacked evaluation of it gives the first (a, b).
    """
    a, b, c, d = _entry_rows(mats, 3)
    det_neg, chi_neg = a * d - b * c < 0, chi_negative(c, d)
    _, first, inverse, counts = np.unique(np.stack([det_neg, c, d]), axis=1, return_index=True,
                                          return_inverse=True, return_counts=True)
    det_a, chi_a = det_neg[first, None], chi_neg[first, None]  # one row per key
    pc, pd = c[first, None] * a + d[first, None] * c, c[first, None] * b + d[first, None] * d  # bottom rows of a'b
    det_ab, chi_ab = det_a ^ det_neg, chi_negative(pc, pd)
    a_ab = cocycle_bit(det_a, det_neg, chi_a, chi_neg, chi_ab)
    # the distinct rows meeting c from the left, each a'b row and then each b's (c, d), keyed as x*span + y
    x, y = np.concatenate([pc.ravel(), c]), np.concatenate([pd.ravel(), d])
    bound = int(max(np.abs(x).max(), np.abs(y).max()))
    span = 2 * bound + 1
    if span ** 2 > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"bottom rows of enumerated pair products reach {bound}, beyond an int64 key")
    keys, at = np.unique(x.astype(np.int64) * span + y + bound, return_inverse=True)
    r1, r2 = (part.astype(a.dtype) for part in np.divmod(keys, span))
    r2 -= bound
    ab_at, b_at = at[:pc.size].reshape(pc.shape), at[pc.size:]
    table = np.empty((len(mats), -(-len(keys) // 8)), dtype=np.uint8)  # [c, row]: packed chi bits of row·c
    for lo in range(0, len(mats), 32):  # a block of c at a time keeps the integer temporaries small
        at_c = slice(lo, lo + 32)
        table[at_c] = np.packbits(chi_negative(r1 * a[at_c, None] + r2 * c[at_c, None],
                                               r1 * b[at_c, None] + r2 * d[at_c, None]), axis=1)
    group = np.column_stack([det_neg, chi_neg, table])
    _, members, sizes = np.unique(group.view(np.dtype((np.void, group.shape[1]))).ravel(),
                                  return_index=True, return_counts=True)
    order = np.argsort(members)
    # the last word is filled up with copies of the last group, of size 0: a copy fails only with that group
    pad = -len(members) % 64
    reps, sizes = np.pad(members[order], (0, pad), mode="edge"), np.pad(sizes[order], (0, pad))
    words = len(reps) // 64
    rows = np.empty((len(keys), words), dtype="<u8")  # [row, word]: packed chi bits of row·c over the groups
    for word in range(words):
        chi_rc = np.unpackbits(table[reps[64 * word:64 * word + 64]], axis=1, count=len(keys))
        rows[:, word] = _packed_words(chi_rc.T)[:, 0]
    det_c, chi_c = _packed_words(det_neg[reps]), _packed_words(chi_neg[reps])
    s_bc = rows[b_at]  # [b, word]: chi bits of bc
    violations, failed = 0, np.zeros(words, dtype=np.uint64)
    step = max(1, _TRIPLE_CHUNK_WORDS // s_bc.size)
    for lo in range(0, len(first), step):
        at_a = slice(lo, lo + step)
        bad = _triple_defect(*map(_spread, (a_ab[at_a], det_a[at_a], chi_a[at_a], det_neg, chi_neg, det_ab[at_a],
                                            chi_ab[at_a])), det_c, chi_c, s_bc, rows[ab_at[at_a]])
        key, b_hit, w_hit = np.nonzero(bad)
        if key.size:
            hit = bad[key, b_hit, w_hit]
            groups = np.unpackbits(hit.astype("<u8").view(np.uint8), bitorder="little").reshape(-1, 64)
            violations += int(counts[at_a][key] @ (groups * sizes.reshape(-1, 64)[w_hit]).sum(axis=1))
            np.bitwise_or.at(failed, w_hit, hit)
    if not violations:
        return 0, None
    word = int(np.flatnonzero(failed)[0])
    k = int(reps[64 * word + (int(failed[word]) & -int(failed[word])).bit_length() - 1])
    row = np.unpackbits(table[k], count=len(keys)).view(bool)
    bad = _triple_defect(a_ab, det_a, chi_a, det_neg, chi_neg, det_ab, chi_ab, det_neg[k], chi_neg[k], row[b_at],
                         row[ab_at])
    i, j = np.argwhere(bad[inverse])[0]
    return violations, {"alpha": mats[i], "beta": mats[j], "gamma": mats[k]}


def check_cocycle_triples(env: _Env) -> dict:
    """Cocycle identity A(a,b)A(ab,c) = A(a,bc)A(b,c) on every enumerated triple."""
    mats = env.cover.matrices()
    violations, witness = cocycle_triple_violations(mats)
    return _exact(env, {"matrices": len(mats), "triples": len(mats) ** 3}, witness, violations)


def check_reflection_sign_lemma(env: _Env) -> dict:
    def bad(g):
        want = -reflection_sign(g)
        lhs1 = cocycle(R_MAT, g) * cocycle(R_MAT * g, R_MAT)
        lhs2 = cocycle(R_MAT, g * R_MAT) * cocycle(g, R_MAT)
        if lhs1 != want or lhs2 != want:
            return {"gamma": g, "lhs1": lhs1, "lhs2": lhs2, "want": want}

    mats = env.cover.sl_matrices()
    return _exact(env, {"matrices": len(mats)}, next(filter(None, map(bad, mats)), None))


def check_conjugation_lemma(env: _Env) -> dict:
    """The closed form R~[g, eps]R~^-1 = [RgR, B(g) eps] against the product route of ``conj_by_reflection``."""
    def bad(x):
        via_products = conj_by_reflection(x)
        closed = MetaElt(x.gamma.reflect_conjugate(), reflection_sign(x.gamma) * x.eps)
        if closed != via_products:
            return {"x": x, "products": via_products, "closed_form": closed}

    elts = env.cover.sl_elements()
    return _exact(env, {"elements": len(elts)}, next(filter(None, map(bad, elts)), None))


def check_generator_inversion(env: _Env) -> dict:
    ok = (conj_by_reflection(LIFT_S) == LIFT_S.inv()
          and conj_by_reflection(LIFT_T) == LIFT_T.inv())
    return _exact(env, {}, None if ok else {"conj_S": conj_by_reflection(LIFT_S), "inv_S": LIFT_S.inv(),
                                            "conj_T": conj_by_reflection(LIFT_T), "inv_T": LIFT_T.inv()},
                  universe="the lifted generators S, T")


def bbb_violations(mats: Sequence[Mat2]) -> tuple[int, Optional[dict]]:
    """Pairs of determinant-one ``mats`` breaking cocycle(a,b) cocycle(RaR,RbR) = B(a) B(b) B(ab), and the
    first one in row-major order.  With (pc, pd) the bottom row of ab, RaR has (-c, d) and R(ab)R has
    (-pc, pd): chi bits give the cocycles and ``minus_t_row`` gives B."""
    a, b, c, d = _entry_rows(mats, 2)
    pc, pd = c[:, None] * a + d[:, None] * c, c[:, None] * b + d[:, None] * d
    chi, chi_r = chi_negative(c, d), chi_negative(-c, d)
    lhs = (cocycle_bit(False, False, chi[:, None], chi, chi_negative(pc, pd))
           ^ cocycle_bit(False, False, chi_r[:, None], chi_r, chi_negative(-pc, pd)))
    rhs = minus_t_row(c, d)[:, None] ^ minus_t_row(c, d) ^ minus_t_row(pc, pd)
    bad = lhs ^ rhs
    if not bad.any():
        return 0, None
    i, j = np.argwhere(bad)[0]
    return int(np.count_nonzero(bad)), {"alpha": mats[i], "beta": mats[j],
                                        "lhs": -1 if lhs[i, j] else 1, "rhs": -1 if rhs[i, j] else 1}


def check_product_bbb_lemma(env: _Env) -> dict:
    """cocycle(a,b) cocycle(RaR,RbR) = B(a) B(b) B(ab) on enumerated det-one pairs."""
    mats = env.cover.sl_matrices()
    count, witness = bbb_violations(mats)
    return _exact(env, {"pairs": len(mats) ** 2}, witness, count)


def check_order_relations(env: _Env) -> dict:
    s2 = LIFT_S * LIFT_S
    s4 = s2 * s2
    z2 = LIFT_Z * LIFT_Z
    r2 = LIFT_R * LIFT_R
    problems = {}
    if not (s4 == z2 == r2 == CENTER_FLIP):
        problems["orders"] = {"S^4": str(s4), "Z^2": str(z2), "R^2": str(r2)}
    off_center = next((x for x in env.cover.elements() if x * CENTER_FLIP != CENTER_FLIP * x), None)
    if off_center is not None:
        problems["centrality"] = {"x": str(off_center)}
    if LIFT_Z * LIFT_R == LIFT_R * LIFT_Z:
        problems["z_not_central"] = {"ZR": str(LIFT_Z * LIFT_R), "RZ": str(LIFT_R * LIFT_Z)}
    params = {
        # reported verbatim, not asserted: the computed square of the S lift
        "s_tilde_squared_computed": str(s2),
        "nominal_center_generator": str(LIFT_Z),
        "s_squared_matches_nominal": s2 == LIFT_Z,
        "elements_checked_for_centrality": len(env.cover.elements()),
    }
    return _exact(env, params, problems or None, len(problems))


def check_inverse_involution(env: _Env) -> dict:
    ident = MetaElt.identity()
    elts = env.cover.elements()
    bad = next((x for x in elts if x.inv().inv() != x or x * x.inv() != ident or x.inv() * x != ident), None)
    return _exact(env, {"elements": len(elts)}, None if bad is None else {"x": bad, "inv": bad.inv()})


# ---------------------------------------------------------------------------
# automorphy factors


def check_phi_section(env: _Env) -> dict:
    mats = env.cover.sl_matrices()
    idx = env.rng.integers(0, len(mats), size=(env.pair_count, 2))
    pairs = [(a, b, cocycle(a, b), a * b) for a, b in ((mats[i], mats[j]) for i, j in idx)]
    rows = np.array([(a.c, a.d, *b.entries(), sign, ab.c, ab.d) for a, b, sign, ab in pairs], dtype=np.int64)
    c_a, d_a, b_a, b_b, b_c, b_d, sign, c_ab, d_ab = rows.T[:, :, None]
    z = np.array(env.upper)
    image, j_b = pullback(b_a, b_b, b_c, b_d, z)
    require_upper(complex(image.flat[np.argmin(image.imag)]))  # refused as by phi_upper(alpha, .)
    gaps = np.abs(section_roots(c_a, d_a, cz_plus_d(c_a, d_a, image)) * section_roots(b_c, b_d, j_b)
                  - sign * section_roots(c_ab, d_ab, cz_plus_d(c_ab, d_ab, z)))
    cases = ((gaps[i, j], {"alpha": a, "beta": b, "z": z})
             for i, (a, b, _, _) in enumerate(pairs) for j, z in enumerate(env.upper))
    return _sweep(env, {"pairs": env.pair_count, "points": len(env.upper)}, 1e-10, cases)


def check_phi_squaring(env: _Env) -> dict:
    mats = env.cover.sl_matrices()
    halves = (("upper", phi_upper, env.upper), ("lower", phi_lower, env.lower))
    # c z + d written out: the independent side of the comparison with phi's cz_plus_d
    cases = ((abs(phi(g, z) ** 2 - (g.c * z + g.d)), {"gamma": g, "z": z, "half": half})
             for g in mats for half, phi, points in halves for z in points)
    return _sweep(env, {"matrices": len(mats)}, 1e-12, cases)


def check_phi_well_defined(env: _Env) -> dict:
    usable = [(e, w1, w2) for (e, w1, w2) in env.cover.alternates
              if e.det() == 1 and "R" not in w1 and "R" not in w2]

    def cases():
        for elt, w1, w2 in usable:
            for z in env.upper[:4]:
                first = word_factor(w1, z)
                r = worst_residual((abs(first - word_factor(w2, z)), abs(first - elt.eps * phi_upper(elt.gamma, z))))
                yield r, {"element": elt, "word_1": format_word(w1), "word_2": format_word(w2), "z": z}
    return _sweep(env, {"word_pairs": len(usable)}, 1e-12, cases())


def check_phi_branch_profile(env: _Env) -> dict:
    """The word-route factor is a constant sign times sqrt(c z + d), the sign ``phi_upper`` carries."""
    signs = Counter()
    mismatches, bad = 0, None
    for g in env.cover.sl_matrices():
        try:
            sign = env.branch_sign(g)
        except DomainError as exc:  # not a constant sign across points: not holomorphic
            bad = {"gamma": g, "error": str(exc)}
            break
        signs[sign > 0] += 1
        # c z + d written out: the independent side of the comparison with phi_upper's cz_plus_d
        if any(phi_upper(g, z) != sign * principal_sqrt(g.c * z + g.d) for z in env.upper):
            mismatches += 1
            bad = bad or {"gamma": g, "word_route_sign": sign}
    return _exact(env, {"agrees_with_raw_principal_branch": signs[True], "negated": signs[False],
                        "closed_form_mismatches": mismatches}, bad, max(mismatches, 1))


# ---------------------------------------------------------------------------
# slash action


def check_action_composition(env: _Env) -> dict:
    """(f|x)|y = f|(xy) for eta-hat and E4 on the sampled pairs at every grid point, batched per form by
    ``composition_residuals``.  Both of its routes take the same ``slash_values`` pullback, so an error in
    that pullback that keeps the action law (a wrong det -1 phase) shows only in action_reflection_forms."""
    pairs = env.sample_pairs(env.pair_count)
    combos = Counter((x.det(), y.det()) for x, y in pairs)
    det_combinations = {f"({sx},{sy})": c for (sx, sy), c in sorted(combos.items())}

    def cases():
        for label, name in (("eta_hat", "eta-hat"), ("e4_even", "e4")):
            form = env.form(name)
            for (x, y), r in zip(pairs, composition_residuals(form.fn, form.weight, pairs, env.grid)):
                yield r, {"form": label, "x": x, "y": y}
    return _sweep(env, {"pairs": len(pairs), "forms": ["eta_hat (w=1)", "e4_even (w=8)"],
                        "det_combinations": det_combinations}, 1e-9, cases())


def check_action_reflection_forms(env: _Env) -> dict:
    """The four-case action agrees with both reflection-route formulas on det -1 elements."""
    elts = [e for e in env.cover.elements() if e.det() == -1][:40]
    hat = env.form("eta-hat")
    fn, weight = hat.fn, hat.weight
    direct = slash_values(fn, weight, env.grid, elts)
    routes = {variant: reflection_route(fn, weight, elts, variant) for variant in ("direct", "inverse")}
    gaps = {variant: _gap(direct, phase * slash_values(reflected, weight, env.grid, rests), axis=2)
            for variant, (reflected, rests, phase) in routes.items()}
    cases = ((gaps[variant][i, j], {"x": x, "variant": variant, "z": z})
             for i, x in enumerate(elts) for variant in routes for j, z in enumerate(env.grid))
    return _sweep(env, {"elements": len(elts)}, 1e-9, cases)


def check_action_classical_match(env: _Env) -> dict:
    """On det +1 and the upper half-plane, the action is the classical slash.

    Independent route for even doubled weight: the prefactor is an integer
    power of (c z + d), no square roots involved.
    """
    e4 = env.form("e4")
    elts = env.cover.sl_elements()[:80]
    a, b, c, d = np.array([x.gamma.entries() for x in elts], dtype=np.int64).T[:, :, None, None]
    z = np.array(env.upper)[:, None]
    image, j = pullback(a, b, c, d, z)  # (elements, points, 1)
    classical = holofn_values(e4.fn, image.ravel(), image.ravel().imag > 0).reshape(image.shape) * (1 / j ** 4)
    gaps = _gap(slash_values(e4.fn, e4.weight, env.upper, elts), classical, axis=2)
    cases = ((gaps[i, j], {"x": x, "z": z}) for i, x in enumerate(elts) for j, z in enumerate(env.upper))
    return _sweep(env, {"elements": len(elts)}, 1e-9, cases)


def check_action_lambda_sets(env: _Env) -> dict:
    expected = {
        1: {1j, -1j}, 3: {1j, -1j},
        2: {1, -1, 1j, -1j}, 4: {1, -1, 1j, -1j}, 8: {1, -1, 1j, -1j},
    }
    got = {w: set(admissible_reflection_scalars(Weight(w))) for w in expected}
    bad = {w: sorted(map(str, got[w])) for w in expected if got[w] != expected[w]}
    odd_obstruction = all(1 not in got[w] for w in (1, 3))
    return _exact(env, {"odd_weights_exclude_trivial_scalar": odd_obstruction},
                  {"mismatches": bad} if bad or not odd_obstruction else None,
                  universe="doubled weights 1..4 and 8")


# ---------------------------------------------------------------------------
# representations


def check_rep_central_scalar(env: _Env) -> dict:
    rho = eta_character()
    reps = [
        ("eta_character", rho, 1),
        ("trivial_SL", Rep.trivial("SL"), 8),
        ("induced_eta", rho.induce(Weight(1)), 1),
        ("trivial_GL", Rep.trivial("GL"), 8),
        ("trivial_GL", Rep.trivial("GL"), 12),
    ]
    cases = ((_gap(rep.evaluate(CENTER_FLIP), ((-1) ** w) * np.eye(rep.dim)), {"rep": name, "w": w})
             for name, rep, w in reps)
    return _sweep(env, {"reps": len(reps)}, 1e-12, cases,
                  universe="representations attached to weight-w form spaces")


def check_rep_well_defined(env: _Env) -> dict:
    rho_hat = eta_character().induce(Weight(1))
    images = rho_hat.word_images([word for _, w1, w2 in env.cover.alternates for word in (w1, w2)])
    gaps = _gap(images[0::2], images[1::2], axis=(1, 2))
    cases = ((gap, {"element": elt, "word_1": format_word(w1), "word_2": format_word(w2)})
             for gap, (elt, w1, w2) in zip(gaps, env.cover.alternates))
    return _sweep(env, {"word_pairs": len(env.cover.alternates)}, 1e-10, cases)


def check_rep_homomorphism(env: _Env) -> dict:
    rho = eta_character()
    rho_hat = rho.induce(Weight(1))
    pairs = env.sample_pairs(env.pair_count)
    sl = env.cover.sl_elements()
    sl_pairs = [(sl[i], sl[j]) for i, j in env.rng.integers(0, len(sl), size=(env.pair_count, 2))]

    def cases():
        for name, rep, sample in (("induced_eta", rho_hat, pairs), ("eta_character", rho, sl_pairs)):
            at = {}  # each distinct factor and product evaluated once, in one batch
            slots = np.array([[at.setdefault(e, len(at)) for e in (x * y, x, y)] for x, y in sample]).T
            product, left, right = rep.evaluate_batch(list(at))[slots]
            yield from zip(_gap(product, left @ right, axis=(1, 2)), ({"rep": name, "x": x, "y": y} for x, y in sample))
        ident = MetaElt.identity()
        yield _gap(rho_hat.evaluate(ident), np.eye(2)), {"rep": "induced_eta", "x": ident}
    return _sweep(env, {"pairs_per_rep": env.pair_count}, 1e-10, cases())


def check_rep_twist_properties(env: _Env) -> dict:
    rho = eta_character()
    twist = rho.r_twist()
    triv = Rep.trivial("SL")
    gaps = [_gap(twist.images["T"], rho.evaluate(LIFT_T.inv()))]
    for key in ("S", "T"):
        gaps.append(_gap(triv.r_twist().images[key], triv.images[key]))
        gaps.append(_gap(twist.r_twist().images[key], rho.images[key]))
    return _sweep(env, {}, 1e-12, [(worst_residual(gaps), {"detail": "twist identities"})],
                  universe="eta character and the trivial representation")


def check_rep_induction_matrices(env: _Env) -> dict:
    rho = eta_character()
    rho_hat = rho.induce(Weight(1))
    want_t = np.diag([rho.images["T"][0, 0], np.conj(rho.images["T"][0, 0])])
    res = rho_hat.restrict()
    dims_ok = res.dim == 2 * rho.dim and rho_hat.dim == 2 * rho.dim
    triv_ok = Rep.trivial("GL").restrict().images["S"].shape == (1, 1)
    worst = worst_residual((_gap(rho_hat.images["R"], np.array([[0, 1], [-1, 0]], dtype=complex)),
                            _gap(rho_hat.images["T"], want_t), _gap(res.images["T"], want_t),
                            0.0 if dims_ok and triv_ok else 1.0))
    return _sweep(env, {"restricted_dim_doubles": dims_ok, "trivial_restricts": triv_ok}, 1e-12, [(worst, None)],
                  universe="the induced eta character")


# ---------------------------------------------------------------------------
# forms: round trips


def check_restriction_round_trip(env: _Env) -> dict:
    def cases():
        e4 = env.form("e4")
        upper_only = HoloFn(1, e4.fn.upper, None)
        rebuilt = extend_form(upper_only, e4.weight, Rep.trivial("GL"), points=env.upper)
        if rebuilt.fn.upper is not upper_only.upper:
            yield 1.0, {"detail": "extension must reuse the given upper evaluator"}
        for z in env.lower:
            yield _gap(rebuilt.at(z), e4.at(z)), {"form": "e4_even", "z": z}
        hat = env.form("eta-hat")
        hat_rebuilt = extend_form(HoloFn(2, hat.fn.upper, None), hat.weight, hat.rep, points=env.upper)
        for z in env.lower:
            yield _gap(hat_rebuilt.at(z), hat.at(z)), {"form": "eta_hat", "z": z}
        # the eta character is no restriction: extension must refuse it
        try:
            extend_form(eta_fn(env.qcfg), Weight(1), Rep.trivial("GL"), points=env.upper)
        except ModularityError:
            return
        yield 1.0, {"detail": "eta must be rejected by scalar extension"}
    return _sweep(env, {"instances": ["e4_even", "eta_hat", "eta (rejected)"]}, 1e-10, cases())


def check_induction_round_trip(env: _Env) -> dict:
    def cases():
        hat = env.form("eta-hat")
        first, second = project_components(hat)
        ef = eta_fn(env.qcfg)
        for z in env.upper:
            yield (worst_residual((_gap(first.at(z), ef.at(z)), _gap(second.at(z), 0))),
                   {"detail": "projections must recover (eta, 0) exactly", "z": z})
        rebuilt = induce_form(VVForm(first, Weight(1), eta_character()),
                              VVForm(second, Weight(1), eta_character().r_twist()), points=env.grid)
        for z in env.grid:
            yield _gap(rebuilt.at(z), hat.at(z)), {"form": "eta_hat rebuild", "z": z}
        # a second instance with both components nonzero
        e4 = env.form("e4")
        f_up = HoloFn(1, e4.fn.upper, None)
        g_up = f_up.scale(0.5)
        stacked = induce_form(VVForm(f_up, Weight(8), Rep.trivial("SL")), VVForm(g_up, Weight(8), Rep.trivial("SL")),
                              points=env.grid)
        p1, p2 = project_components(stacked)
        for z in env.upper:
            yield (worst_residual((_gap(p1.at(z), f_up.at(z)), _gap(p2.at(z), g_up.at(z)))),
                   {"detail": "projection must be exact", "z": z})
        for z in env.lower:
            want = np.concatenate([g_up.at(-z), f_up.at(-z)])  # (-i)^8 = i^8 = 1
            yield _gap(stacked.at(z), want), {"form": "e4 stack", "z": z}
    return _sweep(env, {"instances": ["Ind(eta, 0)", "Ind(e4, e4/2)"]}, 1e-10, cases())


# ---------------------------------------------------------------------------
# classical evaluators


def check_eta_shift_law(env: _Env) -> dict:
    cfg = env.qcfg_raw
    phase = root24(1)
    cases = ((abs(eta(z + 1, cfg) - phase * eta(z, cfg)), {"z": z}) for z in env.upper)
    return _sweep(env, {"points": len(env.upper)}, 1e-12, cases, universe=f"{len(env.upper)} upper sample points")


def check_eta_inversion_law(env: _Env) -> dict:
    cfg = env.qcfg_raw
    cases = ((abs(eta(-1 / z, cfg) - principal_sqrt(-1j * z) * eta(z, cfg)), {"z": z}) for z in env.upper)
    return _sweep(env, {"points": len(env.upper)}, 1e-10, cases, universe=f"{len(env.upper)} upper sample points")


def check_eta_point_value(env: _Env) -> dict:
    value = eta(1j, env.qcfg_raw)
    return _sweep(env, {"computed": f"{value.real:.16f}{value.imag:+.3e}i", "frozen": f"{ETA_AT_I:.16f}"}, 1e-12,
                  [(abs(value - ETA_AT_I), {"computed": str(value)})], universe="the point i")


def check_eta_multiplier_universe(env: _Env) -> dict:
    """Eta's character, stored by its exact generator images only, takes a 24th root of
    unity on every enumerated SL element, and that root is the closed form there: the index
    comparison certifies that lift-and-correct along generator words reproduces
    ``eta_multiplier_index``.  phi_g = b sqrt(c z + d) with b from ``branch_profile``, so
    rho([g, eps]) has the index ``eta_multiplier_index(g)``, plus 12 when eps * b = -1.
    The transform gate slashes the raw-series eta itself, which ties the character to eta."""
    snap_tol = env.tol(1e-10)
    transform_tol = env.tol(1e-9)
    rho = eta_character()
    f = eta_fn(env.qcfg_raw)
    snaps = []
    mismatches, index_witness = 0, None
    elements = env.cover.sl_elements()
    vals = rho.evaluate_batch(elements)[:, 0, 0]
    for x, value in zip(elements, vals.tolist()):
        _, index, dist = snap_to_root_of_unity(value)
        snaps.append((dist, {"x": x, "snap_distance": dist}))
        try:
            closed = (eta_multiplier_index(x.gamma) + 12 * (x.eps * env.branch_sign(x.gamma) == -1)) % 24
        except DomainError as exc:  # a matrix the branch pass cannot sign: the refusal stands in for its index
            closed = str(exc)
        if index != closed:
            mismatches += 1
            index_witness = index_witness or {"x": x, "numeric_index": index, "closed_form_index": closed}
    base = holofn_values(f, np.array(env.upper), np.full(len(env.upper), True))
    gaps = _gap(slash_values(f, Weight(1), env.upper, elements), vals[:, None, None] * base, axis=2)
    worst_transform, transform_witness = _worst((gaps[i, j], {"x": x, "z": z})
                                                for i, x in enumerate(elements) for j, z in enumerate(env.upper))
    worst_snap, snap_witness = _worst(snaps)
    snap_ok, transform_ok = worst_snap <= snap_tol, worst_transform <= transform_tol
    witness = index_witness if snap_ok and transform_ok else snap_witness if transform_ok else transform_witness
    return _verdict(env, {"elements": len(elements), "snap_tolerance": snap_tol,
                          "transform_tolerance": transform_tol,
                          "worst_snap": worst_snap, "worst_transform": worst_transform,
                          "closed_form_mismatches": mismatches},
                    worst_residual((worst_snap, worst_transform)), snap_ok and transform_ok and mismatches == 0,
                    witness)


def check_eta_reduction_agreement(env: _Env) -> dict:
    """The reduction-based evaluators match the raw series pointwise.

    Relative agreement; the raw series' own rounding noise near the axis
    dominates the residual, a sign or cocycle error would show up at O(1).
    """
    cfg, raw = env.qcfg, env.qcfg_raw
    points = [complex(x, y) for x in (-0.7, 0.04, 0.4, 1.3) for y in (0.012, 0.06, 0.2)]

    def cases():
        for z in points:
            a, b = eta(z, cfg), eta(z, raw)
            yield abs(a - b) / max(abs(b), 1e-300), {"z": z}
            e4_raw = eisenstein(4, z, raw)
            yield abs(eisenstein(4, z, cfg) - e4_raw) / abs(e4_raw), {"z": z, "series": "e4"}
    return _sweep(env, {"points": len(points), "relative": True}, 1e-9, cases(),
                  universe="near-axis points where the raw truncation is still sharp")


def check_eisenstein_lattice_match(env: _Env) -> dict:
    tol = env.tol(1e-12)
    cfg = env.qcfg
    params = {}
    cases = []
    for z in (2j, 0.3 + 0.9j):  # 0.3+0.9i lies off the T-orbit of 2i and reduces by S
        series, lattice = eisenstein(4, z, cfg), lattice_sum(4, z, 60)
        rel = abs(series - lattice) / abs(series)
        params[f"z={sampling.format_complex(z)}"] = {"absolute": abs(series - lattice), "relative": rel}
        cases.append((rel, {"z": z, "series": str(series), "lattice": str(lattice)}))
    sym = worst_residual(abs(lattice_sum(4, z, 60) - lattice_sum(4, -z, 60)) for z in (2j, 0.4 + 0.8j))
    closed = abs(lattice_sum(4, 1j, 60) - G4_AT_I) / G4_AT_I
    # series laws with reduction disabled, so they are not built-in
    raw = env.qcfg_raw

    def law_gaps(k, z):
        value = eisenstein(k, z, raw)
        return (abs(eisenstein(k, z + 1, raw) - value), abs(eisenstein(k, -1 / z, raw) - z ** k * value) / abs(value),
                abs(value - eisenstein(k, z, cfg)) / abs(value))

    laws = worst_residual(gap for z in env.upper for k in (4, 6) for gap in law_gaps(k, z))
    params.update(reflection_symmetry=sym, closed_form_at_i=closed, raw_series_laws=laws)
    if not (closed <= tol and sym == 0.0 and laws <= env.tol(1e-9)):
        # the oracle terms raise the residual, with no witness of their own: a lattice witness stays
        cases.append((worst_residual((closed, sym, laws)), None))
    return _sweep(env, params, 1e-12, cases, universe="60 lattice rows at z in {2i, 0.3+0.9i}; series laws on the upper grid")


def check_eisenstein_even_extension(env: _Env) -> dict:
    gens = (LIFT_S, LIFT_T, LIFT_R)

    def cases():
        for label, name in (("e4_even", "e4"), ("e6_even", "e6")):
            form = env.form(name)
            yield form.residual(gens, env.grid), {"form": label}
            for z in env.upper:
                yield _gap(form.at(-z), form.at(z)), {"form": label, "z": z, "detail": "even symmetry"}
    return _sweep(env, {"forms": ["e4_even (w=8)", "e6_even (w=12)"], "generators": 3}, 1e-9, cases())


def check_triangular_parity(env: _Env) -> dict:
    points = env.upper[:3] + env.lower[:3]

    def cases():
        for n in range(0, 13):
            for z in points:
                direct = triangular_product(n, z)
                scale = max(1.0, abs(direct))
                yield (abs(triangular_product(n, -z) - (-1) ** n * direct) / scale,
                       {"n": n, "z": z, "identity": "parity"})
                yield (abs(direct - triangular_product_factored(n, z)) / scale,
                       {"n": n, "z": z, "identity": "factored form"})
    return _sweep(env, {"max_factors": 12, "points": len(points), "relative": True}, 1e-12, cases(),
                  universe="factor counts 0..12 on six grid points")


def check_eta_hat_identities(env: _Env) -> dict:
    cfg = env.qcfg
    hat = env.form("eta-hat")
    flip = np.array([[0, -1j], [1j, 0]], dtype=complex)
    r_image = np.array([[0, 1], [-1, 0]], dtype=complex)

    def cases():
        yield _gap(hat.rep.images["R"], r_image), {"detail": "induced reflection image"}
        acted = slash(hat.fn, hat.weight, LIFT_R)
        for z in env.grid:
            yield _gap(acted.at(z), r_image @ hat.at(z)), {"identity": "slash by the reflection lift", "z": z}
            yield _gap(hat.at(-z), flip @ hat.at(z)), {"identity": "reflection matrix identity", "z": z}
        for z in env.upper:
            direct = eta_hat(z, cfg)
            yield abs(direct[1]), {"detail": "upper second component must vanish"}
            yield _gap(direct, hat.at(z)), {"identity": "direct vs induced evaluator", "z": z}
        for z in env.lower:
            yield _gap(eta_hat(z, cfg), hat.at(z)), {"identity": "direct vs induced evaluator", "z": z}
    return _sweep(env, {"points": len(env.grid)}, 1e-10, cases())


def check_holomorphy_probes(env: _Env) -> dict:
    cfg = env.qcfg
    step = 1e-5
    probes = [z for z in env.upper if z.imag >= 0.8][:6]
    series = {
        "eta": (lambda z: np.array([eta(z, cfg)]), probes),
        "e4": (lambda z: np.array([eisenstein(4, z, cfg)]), probes),
        "e6": (lambda z: np.array([eisenstein(6, z, cfg)]), probes),
        "eta_hat_upper": (lambda z: eta_hat(z, cfg), probes),
        "eta_hat_lower": (lambda z: eta_hat(z, cfg), [z.conjugate() for z in probes]),
    }
    cases = ((holomorphy_residual(fn, z, step), {"series": name, "z": z})
             for name, (fn, pts) in series.items() for z in pts)
    return _sweep(env, {"step": step, "points": len(probes)}, 1e-6, cases, universe="grid points with Im z >= 0.8")


CHECKS: tuple[tuple[str, Callable[[_Env], dict]], ...] = (
    ("algebra_unit_values", check_unit_values),
    ("algebra_cocycle_triples", check_cocycle_triples),
    ("algebra_reflection_sign_lemma", check_reflection_sign_lemma),
    ("algebra_conjugation_lemma", check_conjugation_lemma),
    ("algebra_generator_inversion", check_generator_inversion),
    ("algebra_product_bbb_lemma", check_product_bbb_lemma),
    ("algebra_order_relations", check_order_relations),
    ("algebra_inverse_involution", check_inverse_involution),
    ("phi_section_consistency", check_phi_section),
    ("phi_squaring", check_phi_squaring),
    ("phi_well_defined", check_phi_well_defined),
    ("phi_branch_profile", check_phi_branch_profile),
    ("action_composition", check_action_composition),
    ("action_reflection_forms", check_action_reflection_forms),
    ("action_classical_match", check_action_classical_match),
    ("action_lambda_sets", check_action_lambda_sets),
    ("rep_central_scalar", check_rep_central_scalar),
    ("rep_well_defined", check_rep_well_defined),
    ("rep_homomorphism", check_rep_homomorphism),
    ("rep_twist_properties", check_rep_twist_properties),
    ("rep_induction_matrices", check_rep_induction_matrices),
    ("form_restriction_round_trip", check_restriction_round_trip),
    ("form_induction_round_trip", check_induction_round_trip),
    ("eta_shift_law", check_eta_shift_law),
    ("eta_inversion_law", check_eta_inversion_law),
    ("eta_point_value", check_eta_point_value),
    ("eta_reduction_agreement", check_eta_reduction_agreement),
    ("eta_multiplier_universe", check_eta_multiplier_universe),
    ("eisenstein_lattice_match", check_eisenstein_lattice_match),
    ("eisenstein_even_extension", check_eisenstein_even_extension),
    ("triangular_parity", check_triangular_parity),
    ("eta_hat_identities", check_eta_hat_identities),
    ("holomorphy_probes", check_holomorphy_probes),
)

ALGEBRA_CHECK_IDS = tuple(name for name, _ in CHECKS if name.startswith("algebra_"))

def run_certification(max_word_len: int = DEFAULT_MAX_WORD_LEN, *, tol: float | None = None,
                      points: Sequence[complex] | None = None, seed: int = DEFAULT_SEED,
                      pair_count: int = DEFAULT_PAIR_COUNT, force: bool = False,
                      qcfg: QSeriesConfig = CERTIFY_CONFIG,
                      check_filter: Sequence[str] | None = None) -> dict:
    """Run the suite and return the report dictionary.

    ``tol`` overrides every numeric tolerance when given; exact sign/integer
    checks are unaffected.  ``check_filter`` restricts to the named checks and
    refuses ids that name no check.  A check that raises one of the package's
    own errors fails with the error text as its counterexample; the others
    still run.
    """
    if isinstance(check_filter, str):
        raise DomainError(f"check_filter takes a sequence of check ids, not the string {check_filter!r}")
    wanted = set(check_filter) if check_filter else None
    unknown = (wanted or set()) - {name for name, _ in CHECKS}
    if unknown:
        raise DomainError(f"unknown check ids: {', '.join(sorted(unknown))}")
    env = _Env(max_word_len, tol, points, seed, pair_count, force, qcfg)
    reports = []
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        try:
            report = fn(env)
        except (DomainError, ModularityError, ResourceLimitError) as exc:
            report = _verdict(env, {}, "error", False, {"error": f"{type(exc).__name__}: {exc}"})
        reports.append({"check_id": name, **report})
    reports.sort(key=lambda rep: rep["check_id"])
    return {
        "version": REPORT_VERSION,
        "setup": {
            "max_word_len": max_word_len,
            "tolerance_override": tol,
            "seed": seed,
            "pair_count": pair_count,
            "sample_points": [sampling.format_complex(z) for z in env.upper],
        },
        "checks": reports,
        "pass": all(rep["pass"] for rep in reports),
    }
