"""Finite-dimensional representations of the covers, induction and restriction.

A representation is stored by its generator images only; every other value
flows through lift-and-correct: decompose the matrix into a generator word,
multiply images along the word, and correct by the image of the central sign
flip when the lifted word lands on the opposite cover sign.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .automorphy import _word_data, i_power, require_upper
from .cover import (
    LIFT_R,
    LIFT_S,
    LIFT_T,
    MetaElt,
    Word,
    conj_by_reflection,
)
from .errors import DomainError, ModularityError
from .sampling import full_grid, upper_grid
from .slash import HoloFn, Weight, slash

_SL_KEYS = ("S", "T")
_GL_KEYS = ("S", "T", "R")


@dataclass(frozen=True, eq=False)
class Rep:
    """Representation of a cover, given by invertible images of the generators."""

    group: str  # "SL" or "GL"
    dim: int
    images: dict[str, np.ndarray]
    # generator token -> image, with the inverses of S and T and the central image S^4
    _table: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.group not in ("SL", "GL"):
            raise DomainError(f"group tag must be 'SL' or 'GL', got {self.group!r}")
        keys = _SL_KEYS if self.group == "SL" else _GL_KEYS
        if set(self.images) != set(keys):
            raise DomainError(f"{self.group}-cover rep needs generator images {keys}, got {tuple(self.images)}")
        fixed = {}
        for key, mat in self.images.items():
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (self.dim, self.dim):
                raise DomainError(f"image of {key} has shape {arr.shape}, expected ({self.dim},{self.dim})")
            if np.linalg.matrix_rank(arr) < self.dim:
                raise DomainError(f"image of {key} is not invertible")
            fixed[key] = arr
        object.__setattr__(self, "images", fixed)
        object.__setattr__(self, "_table", {
            **fixed, "S^-1": np.linalg.inv(fixed["S"]), "T^-1": np.linalg.inv(fixed["T"]),
            "center": np.linalg.matrix_power(fixed["S"], 4)})

    @classmethod
    def trivial(cls, group: str) -> "Rep":
        keys = _SL_KEYS if group == "SL" else _GL_KEYS
        eye = np.eye(1, dtype=complex)
        return cls(group, 1, {k: eye for k in keys})

    def central_image(self) -> np.ndarray:
        """Image of the central sign flip [I,-1], namely image(S)^4."""
        return self._table["center"]

    def word_image(self, word: Word) -> np.ndarray:
        out = np.eye(self.dim, dtype=complex)
        for tok in word:
            if tok == "R" and "R" not in self.images:
                raise DomainError("SL-cover representation has no reflection image")
            out = out @ self._table[tok]
        return out

    def evaluate(self, x: MetaElt) -> np.ndarray:
        """Lift-and-correct value at an arbitrary cover element."""
        if self.group == "SL" and x.det() != 1:
            raise DomainError("SL-cover representation cannot take determinant -1 elements")
        word, eps = _word_data(x.gamma)
        out = self.word_image(word)
        if eps != x.eps:
            out = out @ self.central_image()
        return out

    def r_twist(self) -> "Rep":
        """Precompose with conjugation by the reflection lift (SL-cover only)."""
        if self.group != "SL":
            raise DomainError("r_twist is defined for SL-cover representations")
        return Rep("SL", self.dim, {
            "S": self.evaluate(conj_by_reflection(LIFT_S)),
            "T": self.evaluate(conj_by_reflection(LIFT_T)),
        })

    def induce(self, weight: Weight) -> "Rep":
        """Doubled-dimension GL-cover representation; block-diagonal on the
        determinant-one lifts, block-antidiagonal with (-1)^w on the
        reflection translates."""
        if self.group != "SL":
            raise DomainError("induce is defined for SL-cover representations")
        d = self.dim
        zero = np.zeros((d, d), dtype=complex)
        eye = np.eye(d, dtype=complex)
        twist = self.r_twist()
        sign = (-1) ** (weight.w % 2)
        return Rep("GL", 2 * d, {
            "S": np.block([[self.images["S"], zero], [zero, twist.images["S"]]]),
            "T": np.block([[self.images["T"], zero], [zero, twist.images["T"]]]),
            "R": np.block([[zero, eye], [sign * eye, zero]]),
        })

    def restrict(self) -> "Rep":
        """Forget the reflection image (GL-cover only)."""
        if self.group != "GL":
            raise DomainError("restrict is defined for GL-cover representations")
        return Rep("SL", self.dim, {"S": self.images["S"], "T": self.images["T"]})

    # -- serialisation ------------------------------------------------------

    def to_json_dict(self) -> dict:
        def encode(mat: np.ndarray):
            return [[[float(v.real), float(v.imag)] for v in row] for row in mat]

        return {"group": self.group, "dim": self.dim,
                "images": {k: encode(v) for k, v in self.images.items()}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Rep":
        try:
            images = {
                key: np.array([[complex(re, im) for re, im in row] for row in mat], dtype=complex)
                for key, mat in data["images"].items()
            }
            return cls(data["group"], int(data["dim"]), images)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad representation serialisation: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Rep":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read representation file {path}: {exc}") from exc
        return cls.from_json_dict(data)


def snap_to_root_of_unity(value: complex, order: int, tol: float = 1e-10) -> tuple[complex, int, float]:
    """Nearest order-th root of unity; errors if the distance exceeds ``tol``."""
    value = complex(value)
    best_j = min(range(order), key=lambda j: abs(value - cmath.exp(2j * cmath.pi * j / order)))
    root = cmath.exp(2j * cmath.pi * best_j / order)
    dist = abs(value - root)
    if dist > tol:
        raise DomainError(f"value {value} is {dist:.3e} away from the nearest {order}-th root of unity")
    return root, best_j, dist


def character_of(f: HoloFn, weight: Weight, *, z0: complex = 0.1 + 1.3j,
                 order: int = 24, tol: float = 1e-10) -> Rep:
    """Extract the 1-dimensional SL-cover character of a scalar form.

    The generator images are the ratios (f|_k g)(z0) / f(z0), snapped to
    exact order-th roots of unity.
    """
    if f.dim != 1:
        raise DomainError("character extraction needs a 1-dimensional form")
    z0 = require_upper(z0)
    base = f.at(z0)[0]
    if base == 0:
        raise DomainError("character extraction needs a point where the form is nonzero")
    images = {}
    for key, gen in (("S", LIFT_S), ("T", LIFT_T)):
        ratio = slash(f, weight, gen).at(z0)[0] / base
        root, _, _ = snap_to_root_of_unity(ratio, order, tol)
        images[key] = np.array([[root]], dtype=complex)
    return Rep("SL", 1, images)


def modularity_residual(f: HoloFn, weight: Weight, rep: Rep,
                        elements: Sequence[MetaElt], points: Sequence[complex]) -> float:
    """max over elements, points, components of |(f|_k x)(z) - rep(x) f(z)|."""
    worst = 0.0
    for x in elements:
        acted = slash(f, weight, x)
        mat = rep.evaluate(x)
        for z in points:
            worst = max(worst, float(np.max(np.abs(acted.at(z) - mat @ f.at(z)))))
    return worst


@dataclass(frozen=True, eq=False)
class VVForm:
    """Vector-valued modular form: a HoloFn with its weight and representation."""

    fn: HoloFn
    weight: Weight
    rep: Rep

    def __post_init__(self):
        if self.fn.dim != self.rep.dim:
            raise DomainError(f"form dimension {self.fn.dim} != representation dimension {self.rep.dim}")

    def at(self, z) -> np.ndarray:
        return self.fn.at(z)

    def residual(self, elements: Sequence[MetaElt], points: Sequence[complex]) -> float:
        return modularity_residual(self.fn, self.weight, self.rep, elements, points)

    @classmethod
    def zero(cls, weight: Weight, rep: Rep) -> "VVForm":
        return cls(HoloFn.zero(rep.dim), weight, rep)


def extend_form(f_plus: HoloFn, weight: Weight, rep: Rep, *,
                points: Sequence[complex] | None = None, tol: float = 1e-9) -> VVForm:
    """Extend an upper-half-plane form to the double half-plane.

    The lower evaluator is z -> i^w rep(R~)^(-1) f+(-z).  The upper function
    must first certify as modular for the restricted representation on the
    generators; failure raises ModularityError with the offending residual.
    """
    if rep.group != "GL":
        raise DomainError("extension needs a GL-cover representation")
    if f_plus.upper is None:
        raise DomainError("extension needs an upper-half-plane evaluator")
    pts = tuple(points) if points is not None else upper_grid()
    res = modularity_residual(f_plus, weight, rep.restrict(), (LIFT_S, LIFT_T), pts)
    if res > tol:
        raise ModularityError(
            f"upper function is not modular for the restricted representation "
            f"(residual {res:.3e} > {tol:.1e})", residual=res)
    phase = i_power(weight.w)
    r_inv = np.linalg.inv(rep.images["R"])
    upper = f_plus.upper
    dim = f_plus.dim

    def lower(z):
        return phase * (r_inv @ np.atleast_1d(np.asarray(upper(-z), dtype=complex)))

    return VVForm(HoloFn(dim, upper, lower), weight, rep)


def induce_form(f: VVForm, g: VVForm, *, points: Sequence[complex] | None = None,
                tol: float = 1e-9) -> VVForm:
    """Stack a pair (f, g) into a double-half-plane form for the induced rep.

    Above: (f, g).  Below: ((-i)^w g(-z), i^w f(-z)).  ``g`` must carry the
    reflection twist of ``f``'s representation; the result is certified
    against the induced representation on the three generators.
    """
    if f.weight != g.weight:
        raise DomainError(f"weights differ: {f.weight} vs {g.weight}")
    if f.rep.group != "SL" or g.rep.group != "SL":
        raise DomainError("induction needs SL-cover forms")
    if f.fn.dim != g.fn.dim:
        raise DomainError(f"dimensions differ: {f.fn.dim} vs {g.fn.dim}")
    twist = f.rep.r_twist()
    for key in _SL_KEYS:
        if not np.allclose(g.rep.images[key], twist.images[key], atol=1e-8):
            raise DomainError("second form's representation is not the reflection twist of the first's")
    w = f.weight.w
    dim = f.fn.dim
    f_up, g_up = f.fn.upper, g.fn.upper
    if f_up is None or g_up is None:
        raise DomainError("induction needs upper-half-plane evaluators")
    phase_plus = i_power(w)        # i^w
    phase_minus = i_power(3 * w)   # (-i)^w

    def upper(z):
        return np.concatenate([
            np.atleast_1d(np.asarray(f_up(z), dtype=complex)),
            np.atleast_1d(np.asarray(g_up(z), dtype=complex)),
        ])

    def lower(z):
        return np.concatenate([
            phase_minus * np.atleast_1d(np.asarray(g_up(-z), dtype=complex)),
            phase_plus * np.atleast_1d(np.asarray(f_up(-z), dtype=complex)),
        ])

    out = VVForm(HoloFn(2 * dim, upper, lower), f.weight, f.rep.induce(f.weight))
    pts = tuple(points) if points is not None else full_grid()
    if pts:
        res = out.residual((LIFT_S, LIFT_T, LIFT_R), pts)
        if res > tol:
            raise ModularityError(
                f"induced form fails certification against the induced representation "
                f"(residual {res:.3e} > {tol:.1e})", residual=res)
    return out


def project_components(F: VVForm) -> tuple[HoloFn, HoloFn]:
    """Upper-half-plane projections onto the two summands of an induced form."""
    if F.fn.dim % 2 != 0:
        raise DomainError("projection needs an even-dimensional form")
    d = F.fn.dim // 2
    src = F.fn.upper
    if src is None:
        raise DomainError("projection needs an upper evaluator")
    first = HoloFn(d, lambda z: np.asarray(src(z), dtype=complex)[:d], None)
    second = HoloFn(d, lambda z: np.asarray(src(z), dtype=complex)[d:], None)
    return first, second
