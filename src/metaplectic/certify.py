"""Certification suite: runs every lemma, identity, and worked-example check
and emits machine-readable reports.

Exact sign/integer algebra is checked exhaustively over an enumerated
universe (the cocycle triple check is vectorised in numpy bit arithmetic);
numeric checks run over the standard sample grid with tolerances pinned per
check.  Reports are deterministic for a fixed setup: the random pair draws
are seeded and check output is sorted by check id.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import product, starmap
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .automorphy import branch_profile, phi_lower, phi_upper, principal_sqrt, require_upper, word_factor
from .cover import (
    CENTER_FLIP,
    IDENT,
    LIFT_R,
    LIFT_S,
    LIFT_T,
    LIFT_Z,
    Mat2,
    MetaElt,
    NEG_IDENT,
    R_MAT,
    S_MAT,
    T_MAT,
    CoverSet,
    chi_negative,
    cocycle,
    cocycle_bit,
    conj_by_reflection,
    enumerate_cover,
    format_word,
    hilbert_symbol,
    kubota_chi,
    reflection_sign,
)
from .errors import DomainError, ModularityError, ResourceLimitError
from .qseries import (
    CERTIFY_CONFIG,
    NAMED_FORMS,
    QSeriesConfig,
    eisenstein,
    eta,
    eta_character,
    eta_fn,
    eta_hat,
    eta_multiplier_index,
    lattice_sum,
    triangular_product,
    triangular_product_factored,
)
from .reps import Rep, VVForm, extend_form, induce_form, project_components, root24, snap_to_root_of_unity
from .slash import HoloFn, Weight, admissible_reflection_scalars, composition_residual, holomorphy_residual, mobius, slash, slash_via_reflection_rule, worst_residual

REPORT_VERSION = "1"
DEFAULT_SEED = 20250405

# frozen from a 60-digit evaluation of the same q-product with tail < 1e-30
ETA_AT_I = 0.7682254223260566590025941795761806


@dataclass
class CheckReport:
    """One certification check: id, inputs, universe, residual, verdict."""

    check_id: str
    params: dict
    universe: str
    max_residual: float | str
    passed: bool
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "universe": self.universe,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


@dataclass
class CertifySetup:
    max_word_len: int = 5
    tol_override: Optional[float] = None
    seed: int = DEFAULT_SEED
    points: Optional[tuple[complex, ...]] = None
    pair_count: int = 500
    force: bool = False
    qcfg: QSeriesConfig = CERTIFY_CONFIG


class _Env:
    """Shared, lazily-built state for the individual checks."""

    def __init__(self, setup: CertifySetup):
        if setup.pair_count < 1:
            raise DomainError(f"pair count must be at least 1, got {setup.pair_count}")
        if setup.tol_override is not None and not math.isfinite(setup.tol_override):
            raise DomainError(f"tolerance must be a finite number, got {setup.tol_override}")
        self.setup = setup
        self.cover: CoverSet = enumerate_cover(setup.max_word_len, force=setup.force)
        # validated here, so a bad sample is named before any check runs
        self.upper = tuple(map(require_upper, setup.points)) if setup.points else sampling.upper_grid()
        self.lower = tuple(z.conjugate() for z in self.upper)
        self.grid = self.upper + self.lower
        self.rng = np.random.default_rng(setup.seed)
        self.qcfg_raw = replace(setup.qcfg, reduce=False)
        cov = self.cover
        self.universe = (f"cover words of length <= {cov.max_len}: {len(cov.words)} elements, "
                         f"{len(cov.matrices())} distinct matrices ({len(cov.sl_matrices())} with det +1); "
                         f"{len(self.upper)} upper sample points plus conjugates")
        self._forms: dict = {}
        self.check_id = ""  # the running check, set by run_certification

    def tol(self, pinned: float) -> float:
        return self.setup.tol_override if self.setup.tol_override is not None else pinned

    def form(self, name: str) -> VVForm:
        """The form registered under ``name`` in ``NAMED_FORMS``, built once."""
        if name not in self._forms:
            self._forms[name] = NAMED_FORMS[name][0](self.setup.qcfg)
        return self._forms[name]

    def sample_pairs(self, count: int) -> list[tuple[MetaElt, MetaElt]]:
        """Seeded pairs of enumerated elements covering all four det combinations."""
        plus = [e for e in self.cover.elements() if e.det() == 1]
        minus = [e for e in self.cover.elements() if e.det() == -1]
        quarter = max(count // 4, 1)
        pairs = []
        for pool_x, pool_y in ((plus, plus), (plus, minus), (minus, plus), (minus, minus)):
            if not pool_x or not pool_y:
                continue
            ix = self.rng.integers(0, len(pool_x), size=quarter)
            iy = self.rng.integers(0, len(pool_y), size=quarter)
            pairs.extend((pool_x[i], pool_y[j]) for i, j in zip(ix, iy))
        return pairs


def _gap(a, b) -> float:
    """Largest entrywise distance between two values or arrays."""
    return float(np.max(np.abs(a - b)))


def _shown(value):
    """A witness field as reported: points as ``a+bi``, matrices and cover elements as text."""
    if isinstance(value, complex):
        return sampling.format_complex(value)
    return str(value) if isinstance(value, (Mat2, MetaElt)) else value


def _verdict(env: _Env, params: dict, shown, passed: bool, counterexample: Optional[dict],
             universe: Optional[str] = None) -> CheckReport:
    """The running check's report; the universe defaults to the enumerated cover."""
    universe = env.universe if universe is None else universe
    if passed:
        return CheckReport(env.check_id, params, universe, shown, True)
    if counterexample is None:
        counterexample = {"detail": "no witness captured; see params"}
    return CheckReport(env.check_id, params, universe, shown, False,
                       {key: _shown(value) for key, value in counterexample.items()})


def _report(env: _Env, params: dict, residual, pinned: float, counterexample: Optional[dict] = None,
            universe: Optional[str] = None) -> CheckReport:
    """Numeric verdict: passes when ``residual`` is within the pinned tolerance (or the override)."""
    tol = env.tol(pinned)
    return _verdict(env, {**params, "tolerance": tol}, float(residual), float(residual) <= tol,
                    counterexample, universe)


def _exact(env: _Env, params: dict, bad: Optional[dict], count=1,
           universe: Optional[str] = None) -> CheckReport:
    """Exact verdict: passes when there is no counterexample ``bad``; ``count`` is shown otherwise."""
    return _verdict(env, params, "exact" if bad is None else count, bad is None, bad, universe)


class _Worst:
    """Running maximum of a residual, keeping the first witness that reached it (NaN beats any number)."""

    def __init__(self):
        self.value, self.witness = 0.0, None

    def see(self, r, **witness) -> None:
        if r > self.value or (math.isnan(r) and not math.isnan(self.value)):
            self.value, self.witness = r, witness

    def report(self, env: _Env, params: dict, pinned: float, universe: Optional[str] = None) -> CheckReport:
        return _report(env, params, self.value, pinned, self.witness, universe)


# ---------------------------------------------------------------------------
# exact algebra


def check_unit_values(env: _Env) -> CheckReport:
    rtr = R_MAT * T_MAT * R_MAT
    cases = [
        ("chi(S)", kubota_chi(S_MAT), 1),
        ("chi(T)", kubota_chi(T_MAT), 1),
        ("chi(-I)", kubota_chi(NEG_IDENT), -1),
        ("hilbert(-1,-1)", hilbert_symbol(-1, -1), -1),
        ("hilbert(-1,1)", hilbert_symbol(-1, 1), 1),
        ("hilbert(3,-5)", hilbert_symbol(3, -5), 1),
        ("cocycle(T,RTR)", cocycle(T_MAT, rtr), 1),
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


def check_cocycle_triples(env: _Env) -> CheckReport:
    """Cocycle identity A(a,b)A(ab,c) = A(a,bc)A(b,c) on every enumerated triple."""
    mats_list = env.cover.matrices()
    mats = np.array([m.entries() for m in mats_list], dtype=np.int64).reshape(-1, 2, 2)
    n = len(mats)
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    dbit = a * d - b * c < 0
    sbit = chi_negative(c, d)
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    pc, pd = prod[:, :, 1, 0], prod[:, :, 1, 1]
    s_p = chi_negative(pc, pd)
    d_p = dbit[:, None] ^ dbit[None, :]
    a_pair = cocycle_bit(dbit[:, None], dbit[None, :], sbit[:, None], sbit[None, :], s_p)
    violations = 0
    witness = None
    for k in range(n):
        c3 = pc * a[k] + pd * c[k]
        d3 = pc * b[k] + pd * d[k]
        s3 = chi_negative(c3, d3)
        a2 = cocycle_bit(d_p, dbit[k], s_p, sbit[k], s3)
        a3 = cocycle_bit(dbit[:, None], d_p[:, k][None, :], sbit[:, None], s_p[:, k][None, :], s3)
        bad = a_pair ^ a2 ^ a3 ^ a_pair[:, k][None, :]
        count = int(bad.sum())
        if count and witness is None:
            i, j = np.argwhere(bad)[0]
            witness = {"alpha": mats_list[i], "beta": mats_list[j], "gamma": mats_list[k]}
        violations += count
    return _exact(env, {"matrices": n, "triples": n ** 3}, witness, violations)


def check_reflection_sign_lemma(env: _Env) -> CheckReport:
    def bad(g):
        want = -reflection_sign(g)
        lhs1 = cocycle(R_MAT, g) * cocycle(R_MAT * g, R_MAT)
        lhs2 = cocycle(R_MAT, g * R_MAT) * cocycle(g, R_MAT)
        if lhs1 != want or lhs2 != want:
            return {"gamma": g, "lhs1": lhs1, "lhs2": lhs2, "want": want}

    mats = env.cover.sl_matrices()
    return _exact(env, {"matrices": len(mats)}, next(filter(None, map(bad, mats)), None))


def check_conjugation_lemma(env: _Env) -> CheckReport:
    r_inv = LIFT_R.inv()

    def bad(x):
        via_products = LIFT_R * x * r_inv
        closed = MetaElt(x.gamma.reflect_conjugate(), reflection_sign(x.gamma) * x.eps)
        if conj_by_reflection(x) != via_products or closed != via_products:
            return {"x": x, "products": via_products, "closed_form": closed}

    elts = env.cover.sl_elements()
    return _exact(env, {"elements": len(elts)}, next(filter(None, map(bad, elts)), None))


def check_generator_inversion(env: _Env) -> CheckReport:
    ok = (conj_by_reflection(LIFT_S) == LIFT_S.inv()
          and conj_by_reflection(LIFT_T) == LIFT_T.inv())
    return _exact(env, {}, None if ok else {"conj_S": conj_by_reflection(LIFT_S), "inv_S": LIFT_S.inv(),
                                            "conj_T": conj_by_reflection(LIFT_T), "inv_T": LIFT_T.inv()},
                  universe="the lifted generators S, T")


def check_product_bbb_lemma(env: _Env) -> CheckReport:
    """cocycle(a,b) cocycle(RaR,RbR) = B(a) B(b) B(ab) on enumerated det-one pairs."""
    mats = env.cover.sl_matrices()
    bsign = {m: reflection_sign(m) for m in mats}
    conj = {m: m.reflect_conjugate() for m in mats}

    def bad(alpha, beta):
        lhs = cocycle(alpha, beta) * cocycle(conj[alpha], conj[beta])
        rhs = bsign[alpha] * bsign[beta] * reflection_sign(alpha * beta)
        if lhs != rhs:
            return {"alpha": alpha, "beta": beta, "lhs": lhs, "rhs": rhs}

    return _exact(env, {"pairs": len(mats) ** 2},
                  next(filter(None, starmap(bad, product(mats, repeat=2))), None))


def check_order_relations(env: _Env) -> CheckReport:
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


def check_inverse_involution(env: _Env) -> CheckReport:
    ident = MetaElt.identity()
    elts = env.cover.elements()
    bad = next((x for x in elts if x.inv().inv() != x or x * x.inv() != ident or x.inv() * x != ident), None)
    return _exact(env, {"elements": len(elts)}, None if bad is None else {"x": bad, "inv": bad.inv()})


# ---------------------------------------------------------------------------
# automorphy factors


def check_phi_section(env: _Env) -> CheckReport:
    mats = env.cover.sl_matrices()
    count = env.setup.pair_count
    idx = env.rng.integers(0, len(mats), size=(count, 2))
    worst = _Worst()
    for i, j in idx:
        alpha, beta = mats[i], mats[j]
        sign = cocycle(alpha, beta)
        ab = alpha * beta
        for z in env.upper:
            lhs = phi_upper(alpha, mobius(beta, z)) * phi_upper(beta, z)
            rhs = sign * phi_upper(ab, z)
            worst.see(abs(lhs - rhs), alpha=alpha, beta=beta, z=z)
    return worst.report(env, {"pairs": count, "points": len(env.upper)}, 1e-10)


def check_phi_squaring(env: _Env) -> CheckReport:
    mats = env.cover.sl_matrices()
    worst = _Worst()
    for g in mats:
        for z in env.upper:
            worst.see(abs(phi_upper(g, z) ** 2 - (g.c * z + g.d)), gamma=g, z=z, half="upper")
        for z in env.lower:
            worst.see(abs(phi_lower(g, z) ** 2 - (g.c * z + g.d)), gamma=g, z=z, half="lower")
    return worst.report(env, {"matrices": len(mats)}, 1e-12)


def check_phi_well_defined(env: _Env) -> CheckReport:
    usable = [(e, w1, w2) for (e, w1, w2) in env.cover.alternates
              if e.det() == 1 and "R" not in w1 and "R" not in w2]
    worst = _Worst()
    for elt, w1, w2 in usable:
        for z in env.upper[:4]:
            first = word_factor(w1, z)
            r = worst_residual((abs(first - word_factor(w2, z)), abs(first - elt.eps * phi_upper(elt.gamma, z))))
            worst.see(r, element=elt, word_1=format_word(w1), word_2=format_word(w2), z=z)
    return worst.report(env, {"word_pairs": len(usable)}, 1e-12)


def check_phi_branch_profile(env: _Env) -> CheckReport:
    """The word-route factor is a constant sign times sqrt(c z + d), the sign ``phi_upper`` carries."""
    signs = Counter()
    mismatches, bad = 0, None
    for g in env.cover.sl_matrices():
        try:
            sign = branch_profile(g, env.upper)
        except DomainError as exc:  # not a constant sign across points: not holomorphic
            bad = {"gamma": g, "error": str(exc)}
            break
        signs[sign > 0] += 1
        if any(phi_upper(g, z) != sign * principal_sqrt(g.c * z + g.d) for z in env.upper):
            mismatches += 1
            bad = bad or {"gamma": g, "word_route_sign": sign}
    return _exact(env, {"agrees_with_raw_principal_branch": signs[True], "negated": signs[False],
                        "closed_form_mismatches": mismatches}, bad, max(mismatches, 1))


# ---------------------------------------------------------------------------
# slash action


def check_action_composition(env: _Env) -> CheckReport:
    pairs = env.sample_pairs(env.setup.pair_count)
    worst = _Worst()
    for label, name in (("eta_hat", "eta-hat"), ("e4_even", "e4")):
        form = env.form(name)
        for x, y in pairs:
            worst.see(composition_residual(form.fn, form.weight, x, y, env.grid), form=label, x=x, y=y)
    combos = Counter((x.det(), y.det()) for x, y in pairs)
    det_combinations = {f"({sx},{sy})": c for (sx, sy), c in sorted(combos.items())}
    return worst.report(env, {"pairs": len(pairs), "forms": ["eta_hat (w=1)", "e4_even (w=8)"],
                              "det_combinations": det_combinations}, 1e-9)


def check_action_reflection_forms(env: _Env) -> CheckReport:
    """The four-case action agrees with both reflection-route formulas on det -1 elements."""
    elts = [e for e in env.cover.elements() if e.det() == -1][:40]
    fn = env.form("eta-hat").fn
    weight = Weight(1)
    worst = _Worst()
    for x in elts:
        direct = slash(fn, weight, x)
        for variant in ("direct", "inverse"):
            alt = slash_via_reflection_rule(fn, weight, x, variant)
            for z in env.grid:
                worst.see(_gap(direct.at(z), alt.at(z)), x=x, variant=variant, z=z)
    return worst.report(env, {"elements": len(elts)}, 1e-9)


def check_action_classical_match(env: _Env) -> CheckReport:
    """On det +1 and the upper half-plane, the action is the classical slash.

    Independent route for even doubled weight: the prefactor is an integer
    power of (c z + d), no square roots involved.
    """
    fn = env.form("e4").fn
    elts = env.cover.sl_elements()[:80]
    worst = _Worst()
    for x in elts:
        acted = slash(fn, Weight(8), x)
        g = x.gamma
        for z in env.upper:
            classical = fn.at(mobius(g, z)) * (1 / (g.c * z + g.d) ** 4)
            worst.see(_gap(acted.at(z), classical), x=x, z=z)
    return worst.report(env, {"elements": len(elts)}, 1e-9)


def check_action_lambda_sets(env: _Env) -> CheckReport:
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


def check_rep_central_scalar(env: _Env) -> CheckReport:
    rho = eta_character()
    reps = [
        ("eta_character", rho, 1),
        ("trivial_SL", Rep.trivial("SL"), 8),
        ("induced_eta", rho.induce(Weight(1)), 1),
        ("trivial_GL", Rep.trivial("GL"), 8),
        ("trivial_GL", Rep.trivial("GL"), 12),
    ]
    worst = _Worst()
    for name, rep, w in reps:
        worst.see(_gap(rep.evaluate(CENTER_FLIP), ((-1) ** w) * np.eye(rep.dim)), rep=name, w=w)
    return worst.report(env, {"reps": len(reps)}, 1e-12,
                        universe="representations attached to weight-w form spaces")


def check_rep_well_defined(env: _Env) -> CheckReport:
    rho_hat = eta_character().induce(Weight(1))
    worst = _Worst()
    for elt, w1, w2 in env.cover.alternates:
        worst.see(_gap(rho_hat.word_image(w1), rho_hat.word_image(w2)),
                  element=elt, word_1=format_word(w1), word_2=format_word(w2))
    return worst.report(env, {"word_pairs": len(env.cover.alternates)}, 1e-10)


def check_rep_homomorphism(env: _Env) -> CheckReport:
    rho = eta_character()
    rho_hat = rho.induce(Weight(1))
    pairs = env.sample_pairs(env.setup.pair_count)
    sl = env.cover.sl_elements()
    sl_idx = env.rng.integers(0, len(sl), size=(env.setup.pair_count, 2))
    worst = _Worst()
    for x, y in pairs:
        worst.see(_gap(rho_hat.evaluate(x * y), rho_hat.evaluate(x) @ rho_hat.evaluate(y)),
                  rep="induced_eta", x=x, y=y)
    for i, j in sl_idx:
        x, y = sl[i], sl[j]
        worst.see(_gap(rho.evaluate(x * y), rho.evaluate(x) @ rho.evaluate(y)),
                  rep="eta_character", x=x, y=y)
    ident = MetaElt.identity()
    worst.see(_gap(rho_hat.evaluate(ident), np.eye(2)), rep="induced_eta", x=ident)
    return worst.report(env, {"pairs_per_rep": env.setup.pair_count}, 1e-10)


def check_rep_twist_properties(env: _Env) -> CheckReport:
    rho = eta_character()
    twist = rho.r_twist()
    triv = Rep.trivial("SL")
    gaps = [_gap(twist.images["T"], rho.evaluate(LIFT_T.inv()))]
    for key in ("S", "T"):
        gaps.append(_gap(triv.r_twist().images[key], triv.images[key]))
        gaps.append(_gap(twist.r_twist().images[key], rho.images[key]))
    return _report(env, {}, worst_residual(gaps), 1e-12, {"detail": "twist identities"},
                   universe="eta character and the trivial representation")


def check_rep_induction_matrices(env: _Env) -> CheckReport:
    rho = eta_character()
    rho_hat = rho.induce(Weight(1))
    want_t = np.diag([rho.images["T"][0, 0], np.conj(rho.images["T"][0, 0])])
    res = rho_hat.restrict()
    dims_ok = res.dim == 2 * rho.dim and rho_hat.dim == 2 * rho.dim
    triv_ok = Rep.trivial("GL").restrict().images["S"].shape == (1, 1)
    worst = worst_residual((_gap(rho_hat.images["R"], np.array([[0, 1], [-1, 0]], dtype=complex)),
                            _gap(rho_hat.images["T"], want_t), _gap(res.images["T"], want_t),
                            0.0 if dims_ok and triv_ok else 1.0))
    return _report(env, {"restricted_dim_doubles": dims_ok, "trivial_restricts": triv_ok}, worst, 1e-12,
                   universe="the induced eta character")


# ---------------------------------------------------------------------------
# forms: round trips


def check_restriction_round_trip(env: _Env) -> CheckReport:
    worst = _Worst()
    e4 = env.form("e4")
    upper_only = HoloFn(1, e4.fn.upper, None)
    rebuilt = extend_form(upper_only, Weight(8), Rep.trivial("GL"), points=env.upper)
    if rebuilt.fn.upper is not upper_only.upper:
        worst.see(1.0, detail="extension must reuse the given upper evaluator")
    for z in env.lower:
        worst.see(_gap(rebuilt.at(z), e4.at(z)), form="e4_even", z=z)
    hat = env.form("eta-hat")
    hat_upper = HoloFn(2, hat.fn.upper, None)
    hat_rebuilt = extend_form(hat_upper, Weight(1), hat.rep, points=env.upper)
    for z in env.lower:
        worst.see(_gap(hat_rebuilt.at(z), hat.at(z)), form="eta_hat", z=z)
    # the eta character is no restriction: extension must refuse it
    try:
        extend_form(eta_fn(env.setup.qcfg), Weight(1), Rep.trivial("GL"), points=env.upper)
        worst.see(1.0, detail="eta must be rejected by scalar extension")
    except ModularityError:
        pass
    return worst.report(env, {"instances": ["e4_even", "eta_hat", "eta (rejected)"]}, 1e-10)


def check_induction_round_trip(env: _Env) -> CheckReport:
    cfg = env.setup.qcfg
    worst = _Worst()
    hat = env.form("eta-hat")
    first, second = project_components(hat)
    ef = eta_fn(cfg)
    for z in env.upper:
        worst.see(worst_residual((_gap(first.at(z), ef.at(z)), _gap(second.at(z), 0))),
                  detail="projections must recover (eta, 0) exactly", z=z)
    rebuilt = induce_form(
        VVForm(first, Weight(1), eta_character()),
        VVForm(second, Weight(1), eta_character().r_twist()),
        points=env.grid)
    for z in env.grid:
        worst.see(_gap(rebuilt.at(z), hat.at(z)), form="eta_hat rebuild", z=z)
    # a second instance with both components nonzero
    e4 = env.form("e4")
    f_up = HoloFn(1, e4.fn.upper, None)
    g_up = f_up.scale(0.5)
    f_form = VVForm(f_up, Weight(8), Rep.trivial("SL"))
    g_form = VVForm(g_up, Weight(8), Rep.trivial("SL"))
    stacked = induce_form(f_form, g_form, points=env.grid)
    p1, p2 = project_components(stacked)
    for z in env.upper:
        worst.see(worst_residual((_gap(p1.at(z), f_up.at(z)), _gap(p2.at(z), g_up.at(z)))),
                  detail="projection must be exact", z=z)
    for z in env.lower:
        want = np.concatenate([g_up.at(-z), f_up.at(-z)])  # (-i)^8 = i^8 = 1
        worst.see(_gap(stacked.at(z), want), form="e4 stack", z=z)
    return worst.report(env, {"instances": ["Ind(eta, 0)", "Ind(e4, e4/2)"]}, 1e-10)


# ---------------------------------------------------------------------------
# classical evaluators


def check_eta_shift_law(env: _Env) -> CheckReport:
    cfg = env.qcfg_raw
    phase = root24(1)
    worst = _Worst()
    for z in env.upper:
        worst.see(abs(eta(z + 1, cfg) - phase * eta(z, cfg)), z=z)
    return worst.report(env, {"points": len(env.upper)}, 1e-12,
                        universe=f"{len(env.upper)} upper sample points")


def check_eta_inversion_law(env: _Env) -> CheckReport:
    cfg = env.qcfg_raw
    worst = _Worst()
    for z in env.upper:
        worst.see(abs(eta(-1 / z, cfg) - principal_sqrt(-1j * z) * eta(z, cfg)), z=z)
    return worst.report(env, {"points": len(env.upper)}, 1e-10,
                        universe=f"{len(env.upper)} upper sample points")


def check_eta_point_value(env: _Env) -> CheckReport:
    value = eta(1j, env.qcfg_raw)
    return _report(env, {"computed": f"{value.real:.16f}{value.imag:+.3e}i", "frozen": f"{ETA_AT_I:.16f}"},
                   abs(value - ETA_AT_I), 1e-12, {"computed": str(value)}, universe="the point i")


def check_eta_multiplier_universe(env: _Env) -> CheckReport:
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
    base = {z: f.at(z) for z in env.upper}
    snaps, transform = [], _Worst()
    mismatches, index_witness = 0, None
    elements = env.cover.sl_elements()
    for x in elements:
        val = rho.evaluate(x)[0, 0]
        _, index, dist = snap_to_root_of_unity(val)
        snaps.append(dist)
        flip = x.eps * branch_profile(x.gamma, env.upper) == -1
        closed = (eta_multiplier_index(x.gamma) + 12 * flip) % 24
        if index != closed:
            mismatches += 1
            index_witness = index_witness or {"x": x, "numeric_index": index, "closed_form_index": closed}
        acted = slash(f, Weight(1), x)
        for z in env.upper:
            transform.see(_gap(acted.at(z), val * base[z]), x=x, z=z)
    worst_snap = worst_residual(snaps)
    numeric_ok = worst_snap <= snap_tol and transform.value <= transform_tol
    return _verdict(env, {"elements": len(elements), "snap_tolerance": snap_tol,
                          "transform_tolerance": transform_tol,
                          "worst_snap": worst_snap, "worst_transform": transform.value,
                          "closed_form_mismatches": mismatches},
                    worst_residual((worst_snap, transform.value)), numeric_ok and mismatches == 0,
                    index_witness if numeric_ok else transform.witness)


def check_eta_reduction_agreement(env: _Env) -> CheckReport:
    """The reduction-based evaluators match the raw series pointwise.

    Relative agreement; the raw series' own rounding noise near the axis
    dominates the residual, a sign or cocycle error would show up at O(1).
    """
    cfg, raw = env.setup.qcfg, env.qcfg_raw
    points = [complex(x, y) for x in (-0.7, 0.04, 0.4, 1.3) for y in (0.012, 0.06, 0.2)]
    worst = _Worst()
    for z in points:
        a, b = eta(z, cfg), eta(z, raw)
        worst.see(abs(a - b) / max(abs(b), 1e-300), z=z)
        e4_raw = eisenstein(4, z, raw)
        worst.see(abs(eisenstein(4, z, cfg) - e4_raw) / abs(e4_raw), z=z, series="e4")
    return worst.report(env, {"points": len(points), "relative": True}, 1e-9,
                        universe="near-axis points where the raw truncation is still sharp")


def check_eisenstein_lattice_match(env: _Env) -> CheckReport:
    tol = env.tol(1e-6)
    cfg = env.setup.qcfg
    params = {}
    worst = _Worst()
    for z in (2j, 1 + 2j):
        series = eisenstein(4, z, cfg)
        trunc = lattice_sum(4, z, 200)
        rel = abs(series - trunc) / abs(series)
        params[f"z={sampling.format_complex(z)}"] = {"absolute": abs(series - trunc), "relative": rel}
        worst.see(rel, z=z, series=str(series), lattice=str(trunc))
    drift = abs(lattice_sum(4, 2j, 200) - lattice_sum(4, 2j, 400))
    params["cutoff_drift_200_vs_400"] = drift
    sym = worst_residual(abs(lattice_sum(4, z, 60) - lattice_sum(4, -z, 60)) for z in (2j, 0.4 + 0.8j))
    params["reflection_symmetry"] = sym
    hand = abs(lattice_sum(4, 1j, 1) - 3.0)
    params["hand_sum_m1_at_i"] = hand
    # series laws with reduction disabled, so they are not built-in
    raw = env.qcfg_raw

    def law_gaps(k, z):
        value = eisenstein(k, z, raw)
        return (abs(eisenstein(k, z + 1, raw) - value), abs(eisenstein(k, -1 / z, raw) - z ** k * value) / abs(value),
                abs(value - eisenstein(k, z, cfg)) / abs(value))

    laws = worst_residual(gap for z in env.upper for k in (4, 6) for gap in law_gaps(k, z))
    params["raw_series_laws"] = laws
    if not (drift <= tol and sym == 0.0 and hand == 0.0 and laws <= env.tol(1e-9)):
        # the oracle terms raise the residual but keep a lattice witness when there is one
        worst.value = worst_residual((worst.value, drift, sym, hand, laws))
        worst.witness = worst.witness or {"detail": "cutoff drift / symmetry / hand sum / raw series laws"}
    return worst.report(env, params, 1e-6,
                        universe="square cutoffs at z in {2i, 1+2i}; series laws on the upper grid")


def check_eisenstein_even_extension(env: _Env) -> CheckReport:
    gens = (LIFT_S, LIFT_T, LIFT_R)
    worst = _Worst()
    for label, name in (("e4_even", "e4"), ("e6_even", "e6")):
        form = env.form(name)
        worst.see(form.residual(gens, env.grid), form=label)
        for z in env.upper:
            worst.see(_gap(form.at(-z), form.at(z)), form=label, z=z, detail="even symmetry")
    return worst.report(env, {"forms": ["e4_even (w=8)", "e6_even (w=12)"], "generators": 3}, 1e-9)


def check_triangular_parity(env: _Env) -> CheckReport:
    points = env.upper[:3] + env.lower[:3]
    worst = _Worst()
    for n in range(0, 13):
        sign = (-1) ** n
        for z in points:
            direct = triangular_product(n, z)
            scale = max(1.0, abs(direct))
            worst.see(abs(triangular_product(n, -z) - sign * direct) / scale, n=n, z=z, identity="parity")
            worst.see(abs(direct - triangular_product_factored(n, z)) / scale,
                      n=n, z=z, identity="factored form")
    return worst.report(env, {"max_factors": 12, "points": len(points), "relative": True}, 1e-12,
                        universe="factor counts 0..12 on six grid points")


def check_eta_hat_identities(env: _Env) -> CheckReport:
    cfg = env.setup.qcfg
    hat = env.form("eta-hat")
    flip = np.array([[0, -1j], [1j, 0]], dtype=complex)
    r_image = np.array([[0, 1], [-1, 0]], dtype=complex)
    worst = _Worst()
    worst.see(_gap(hat.rep.images["R"], r_image), detail="induced reflection image")
    acted = slash(hat.fn, Weight(1), LIFT_R)
    for z in env.grid:
        worst.see(_gap(acted.at(z), r_image @ hat.at(z)), identity="slash by the reflection lift", z=z)
        worst.see(_gap(hat.at(-z), flip @ hat.at(z)), identity="reflection matrix identity", z=z)
    for z in env.upper:
        direct = eta_hat(z, cfg)
        worst.see(abs(direct[1]), detail="upper second component must vanish")
        worst.see(_gap(direct, hat.at(z)), identity="direct vs induced evaluator", z=z)
    for z in env.lower:
        worst.see(_gap(eta_hat(z, cfg), hat.at(z)), identity="direct vs induced evaluator", z=z)
    return worst.report(env, {"points": len(env.grid)}, 1e-10)


def check_holomorphy_probes(env: _Env) -> CheckReport:
    cfg = env.setup.qcfg
    step = 1e-5
    probes = [z for z in env.upper if z.imag >= 0.8][:6]
    series = {
        "eta": (lambda z: np.array([eta(z, cfg)]), probes),
        "e4": (lambda z: np.array([eisenstein(4, z, cfg)]), probes),
        "e6": (lambda z: np.array([eisenstein(6, z, cfg)]), probes),
        "eta_hat_upper": (lambda z: eta_hat(z, cfg), probes),
        "eta_hat_lower": (lambda z: eta_hat(z, cfg), [z.conjugate() for z in probes]),
    }
    worst = _Worst()
    for name, (fn, pts) in series.items():
        for z in pts:
            worst.see(holomorphy_residual(fn, z, step), series=name, z=z)
    return worst.report(env, {"step": step, "points": len(probes)}, 1e-6,
                        universe="grid points with Im z >= 0.8")


CHECKS: tuple[tuple[str, Callable[[_Env], CheckReport]], ...] = (
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

def run_certification(max_word_len: int = CertifySetup.max_word_len, *, tol: float | None = None,
                      points: Sequence[complex] | None = None, seed: int = DEFAULT_SEED,
                      pair_count: int = CertifySetup.pair_count, force: bool = False,
                      qcfg: QSeriesConfig | None = None,
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
    setup = CertifySetup(max_word_len=max_word_len, tol_override=tol,
                         points=tuple(points) if points else None,
                         seed=seed, pair_count=pair_count, force=force)
    if qcfg is not None:
        setup.qcfg = qcfg
    env = _Env(setup)
    reports = []
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        env.check_id = name
        try:
            reports.append(fn(env))
        except (DomainError, ModularityError, ResourceLimitError) as exc:
            reports.append(_verdict(env, {}, "error", False, {"error": f"{type(exc).__name__}: {exc}"}))
    reports.sort(key=lambda rep: rep.check_id)
    return {
        "version": REPORT_VERSION,
        "setup": {
            "max_word_len": setup.max_word_len,
            "tolerance_override": setup.tol_override,
            "seed": setup.seed,
            "pair_count": setup.pair_count,
            "sample_points": [sampling.format_complex(z) for z in env.upper],
        },
        "checks": [rep.to_dict() for rep in reports],
        "pass": all(rep.passed for rep in reports),
    }
