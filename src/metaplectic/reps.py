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

from .automorphy import _word_codes, _word_data, i_power
from .cover import (
    GENERATOR_TOKENS,
    LIFT_R,
    LIFT_S,
    LIFT_T,
    MetaElt,
    Word,
    conj_by_reflection,
)
from .errors import DomainError, ModularityError
from .sampling import full_grid, upper_grid
from .slash import HoloFn, Weight, slash, worst_residual

_SL_KEYS = ("S", "T")
_GL_KEYS = ("S", "T", "R")


@dataclass(frozen=True, eq=False)
class Rep:
    """Representation of a cover, given by invertible images of the generators."""

    group: str  # "SL" or "GL"
    dim: int
    images: dict[str, np.ndarray]
    # the images of GENERATOR_TOKENS, the identity (at the padding code of _word_codes) and the central image S^4
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.group not in ("SL", "GL"):
            raise DomainError(f"group tag must be 'SL' or 'GL', got {self.group!r}")
        keys = _SL_KEYS if self.group == "SL" else _GL_KEYS
        if set(self.images) != set(keys):
            raise DomainError(f"{self.group}-cover rep needs generator images {keys}, got {tuple(self.images)}")
        fixed = {}
        for key, mat in self.images.items():
            arr = np.array(mat, dtype=complex)  # a copy: the stored images are made read-only
            if arr.shape != (self.dim, self.dim):
                raise DomainError(f"image of {key} has shape {arr.shape}, expected ({self.dim},{self.dim})")
            if not np.isfinite(arr).all():
                raise DomainError(f"image of {key} is not finite")
            if np.linalg.matrix_rank(arr) < self.dim:
                raise DomainError(f"image of {key} is not invertible")
            fixed[key] = arr
        object.__setattr__(self, "images", fixed)
        eye = np.eye(self.dim, dtype=complex)
        table = {**fixed, "S^-1": np.linalg.inv(fixed["S"]), "T^-1": np.linalg.inv(fixed["T"])}
        stack = np.stack([table.get(tok, eye) for tok in GENERATOR_TOKENS]  # an SL rep refuses R before its layer
                         + [eye, np.linalg.matrix_power(fixed["S"], 4)])
        for mat in (*fixed.values(), stack):  # ``images`` hands the stored images out as they are
            mat.setflags(write=False)
        object.__setattr__(self, "_stack", stack)

    @classmethod
    def trivial(cls, group: str) -> "Rep":
        keys = _SL_KEYS if group == "SL" else _GL_KEYS
        eye = np.eye(1, dtype=complex)
        return cls(group, 1, {k: eye for k in keys})

    def word_images(self, words: Sequence[Word], flips: np.ndarray | None = None) -> np.ndarray:
        """The one lift-and-correct fold, ``(len(words), dim, dim)``: the products along the identity-padded
        ``words`` by one stacked matmul per token position, times the central image where ``flips`` is set."""
        if self.group == "SL" and any("R" in word for word in words):
            raise DomainError("SL-cover representation has no reflection image")
        codes = _word_codes(words)
        out = self._stack[codes[:, 0]]
        for column in codes.T[1:]:
            out = out @ self._stack[column]
        if flips is not None:
            out[flips] = out[flips] @ self._stack[-1]
        return out

    def evaluate_batch(self, elements: Sequence[MetaElt]) -> np.ndarray:
        """Lift-and-correct values at ``elements``, ``(len(elements), dim, dim)``: each element's generator word
        from ``_word_data``, corrected by the central image where the lifted word lands on the other sign."""
        if self.group == "SL" and any(x.det() != 1 for x in elements):
            raise DomainError("SL-cover representation cannot take determinant -1 elements")
        data = [_word_data(x.gamma) for x in elements]
        flips = np.array([eps != x.eps for (_, eps), x in zip(data, elements)], dtype=bool)
        return self.word_images([word for word, _ in data], flips)

    def evaluate(self, x: MetaElt) -> np.ndarray:
        """Lift-and-correct value at an arbitrary cover element."""
        return self.evaluate_batch([x])[0]

    def r_twist(self) -> "Rep":
        """Precompose with conjugation by the reflection lift (SL-cover only)."""
        if self.group != "SL":
            raise DomainError("r_twist is defined for SL-cover representations")
        s, t = self.evaluate_batch([conj_by_reflection(LIFT_S), conj_by_reflection(LIFT_T)])
        return Rep("SL", self.dim, {"S": s, "T": t})

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
        def entry(re, im) -> complex:  # JSON numbers only: complex() would take a bool as 0 or 1
            if not {type(re), type(im)} <= {int, float}:
                raise TypeError(f"image entries must be JSON numbers, got {[re, im]!r}")
            return complex(re, im)

        try:
            images = {
                key: np.array([[entry(re, im) for re, im in row] for row in mat], dtype=complex)
                for key, mat in data["images"].items()
            }
            if type(data["dim"]) is not int:  # a JSON integer: no float, string or bool
                raise TypeError(f"dim must be an integer, got {data['dim']!r}")
            return cls(data["group"], data["dim"], images)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
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


def root24(n: int) -> complex:
    """The 24th root of unity e^(2 pi i n/24)."""
    return cmath.exp(2j * cmath.pi * n / 24)


def snap_to_root_of_unity(value: complex) -> tuple[complex, int, float]:
    """Nearest 24th root of unity to ``value``, its index and its distance."""
    index = round(cmath.phase(value) * 12 / cmath.pi) % 24  # the nearest root is the nearest in angle
    return root24(index), index, abs(value - root24(index))


def modularity_residual(f: HoloFn, weight: Weight, rep: Rep,
                        elements: Sequence[MetaElt], points: Sequence[complex]) -> float:
    """max over elements, points, components of |(f|_k x)(z) - rep(x) f(z)|."""
    acts = ((slash(f, weight, x), rep.evaluate(x)) for x in elements)
    return worst_residual(np.max(np.abs(acted.at(z) - mat @ f.at(z))) for acted, mat in acts for z in points)


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


ISOMORPHISM_TOL = 1e-9  # gate of the construction-time certification of extension and induction


def _certify(fn: HoloFn, weight: Weight, rep: Rep, gens: Sequence[MetaElt], points, failure: str) -> None:
    """Extension's and induction's one certification step: ``fn`` against ``rep`` on ``gens`` over ``points``."""
    points = tuple(points)
    res = modularity_residual(fn, weight, rep, gens, points) if points else 0.0  # no points, no check
    if not res <= ISOMORPHISM_TOL:  # NaN fails too
        raise ModularityError(f"{failure} (residual {res:.3e} > {ISOMORPHISM_TOL:.1e})", residual=res)


def _from_upper(dim: int, upper, weight: Weight, rep: Rep) -> VVForm:
    """The one extension rule: below the axis, F(z) = i^w rep(R~)^(-1) F+(-z), at a point or an (n,) array."""
    phase = i_power(weight.w)
    r_inv_t = np.linalg.inv(rep.images["R"]).T
    return VVForm(HoloFn(dim, upper, lambda z: phase * np.dot(upper(-z), r_inv_t)), weight, rep)


def extend_form(f_plus: HoloFn, weight: Weight, rep: Rep, *,
                points: Sequence[complex] | None = None) -> VVForm:
    """Extend an upper-half-plane form to the double half-plane.

    The lower evaluator is z -> i^w rep(R~)^(-1) f+(-z).  The upper function must first certify as modular
    for the restricted representation on S and T over ``points`` (default: the upper grid; empty: no
    check); failure raises ModularityError with the offending residual.
    """
    if rep.group != "GL":
        raise DomainError("extension needs a GL-cover representation")
    if f_plus.upper is None:
        raise DomainError("extension needs an upper-half-plane evaluator")
    _certify(f_plus, weight, rep.restrict(), (LIFT_S, LIFT_T), upper_grid() if points is None else points,
             "upper function is not modular for the restricted representation")
    return _from_upper(f_plus.dim, f_plus.upper, weight, rep)


def induce_form(f: VVForm, g: VVForm, *, points: Sequence[complex] | None = None) -> VVForm:
    """Stack a pair (f, g) into a double-half-plane form for the induced rep.

    Above: (f, g).  Below: ((-i)^w g(-z), i^w f(-z)), which is the extension
    rule for the induced image of R~, [[0, I], [(-1)^w I, 0]].  ``g`` must carry the reflection twist of
    ``f``'s representation; the result is certified against the induced representation on the three
    generators over ``points`` (default: the full grid; empty: no check).
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
    f_up, g_up = f.fn.upper, g.fn.upper
    if f_up is None or g_up is None:
        raise DomainError("induction needs upper-half-plane evaluators")
    out = _from_upper(2 * f.fn.dim, lambda z: np.concatenate((f_up(z), g_up(z)), axis=-1),
                      f.weight, f.rep.induce(f.weight))
    _certify(out.fn, out.weight, out.rep, (LIFT_S, LIFT_T, LIFT_R), full_grid() if points is None else points,
             "induced form fails certification against the induced representation")
    return out


def project_components(F: VVForm) -> tuple[HoloFn, HoloFn]:
    """Upper-half-plane projections onto the two summands of an induced form."""
    if F.fn.dim % 2 != 0:
        raise DomainError("projection needs an even-dimensional form")
    d = F.fn.dim // 2
    src = F.fn.upper
    if src is None:
        raise DomainError("projection needs an upper evaluator")
    first = HoloFn(d, lambda z: src(z)[..., :d], None)
    second = HoloFn(d, lambda z: src(z)[..., d:], None)
    return first, second
