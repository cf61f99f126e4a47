"""Exact arithmetic in GL2(Z) and its sign double cover.

Cover elements are pairs ``[gamma, eps]`` with ``gamma`` an integer matrix of
determinant +-1 and ``eps`` a sign, multiplied through a {+1,-1}-valued
2-cocycle assembled from the real-place Hilbert symbol and Kubota's chi
function.  Everything here is exact: matrix entries are Python integers, and
the cocycle only sees the sign bits of the determinants and of chi, combined
in one bit formula (``cocycle_bit``) that also runs on numpy arrays.

Validation happens once, on input: the ``Mat2`` and ``MetaElt`` constructors
(and so ``Mat2.parse`` and ``MetaElt.parse``) check every element a caller
supplies.  Results derived from checked elements skip those checks, since
their entries are ints, their determinant is +-1 and their sign is +-1 by
construction: ``Mat2`` products, inverses, negations and conjugates
(``_known_mat2``), and ``MetaElt`` products, inverses and word lifts
(``_known_metaelt``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, ResourceLimitError

Word = tuple[str, ...]


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix with determinant +1 or -1, entries row-major."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise DomainError(f"matrix entries must be integers, got {entry!r}")
        if self.det() not in (1, -1):
            raise DomainError(f"matrix {self} has determinant {self.det()}, need +1 or -1")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return _known_mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return _known_mat2(-self.a, -self.b, -self.c, -self.d)

    def inv(self) -> "Mat2":
        det = self.det()
        return _known_mat2(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def reflect_conjugate(self) -> "Mat2":
        """Conjugate by the reflection diag(-1, 1): flips the off-diagonal signs."""
        return _known_mat2(self.a, -self.b, -self.c, self.d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    @classmethod
    def parse(cls, text: str) -> "Mat2":
        """Parse the text format ``[[a,b],[c,d]]`` with exact integers."""
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad matrix syntax {text!r}: {exc}") from exc
        if (
            not isinstance(rows, list)
            or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in rows)
            or any(not isinstance(x, int) or isinstance(x, bool) for r in rows for x in r)
        ):
            raise DomainError(f"bad matrix syntax {text!r}: need [[a,b],[c,d]] with integers")
        return cls(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def _known_mat2(a: int, b: int, c: int, d: int) -> Mat2:
    """A ``Mat2`` built from other ``Mat2`` entries (a product, inverse, negation or conjugate), so its
    entries are ints and its determinant is +-1 already: skips the checks of ``Mat2.__post_init__``."""
    m = object.__new__(Mat2)
    fields = m.__dict__
    fields["a"], fields["b"], fields["c"], fields["d"] = a, b, c, d
    return m


IDENT = Mat2(1, 0, 0, 1)
NEG_IDENT = Mat2(-1, 0, 0, -1)
S_MAT = Mat2(0, -1, 1, 0)
T_MAT = Mat2(1, 1, 0, 1)
R_MAT = Mat2(-1, 0, 0, 1)


def kubota_chi(m: Mat2) -> int:
    """Lower-left entry if nonzero, else lower-right; never 0 for det +-1."""
    return m.c if m.c != 0 else m.d


def chi_negative(c, d):
    """Sign bit of ``kubota_chi`` (True when chi < 0) from the bottom row (c, d);
    works on ints and elementwise on numpy arrays."""
    return (c < 0) | ((c == 0) & (d < 0))


def hilbert_symbol(a, b) -> int:
    """Real-place Hilbert symbol: -1 iff both arguments are negative."""
    if a == 0 or b == 0:
        raise DomainError("Hilbert symbol needs nonzero arguments")
    return -1 if (a < 0 and b < 0) else 1


def cocycle_bit(da, db, sa, sb, sab):
    """Cocycle sign bit (True for -1) from the negativity bits of det a, det b,
    chi(a), chi(b) and chi(ab); works on bools and elementwise on numpy arrays.
    It is a formula in ``&`` and ``^`` only, so on unsigned integer words it
    evaluates every bit position on its own: the triple kernel runs it on
    uint64 words that pack 64 inputs each.

    The Hilbert symbol's ratios chi(ab)/chi(a) and chi(ab)/(chi(b) det a) are
    negative exactly when sab ^ sa resp. sab ^ sb ^ da is set.
    """
    return (da & db) ^ ((sab ^ sa) & (sab ^ sb ^ da))


def cocycle(alpha: Mat2, beta: Mat2) -> int:
    """Sign 2-cocycle on GL2(Z) twisting the pair product:
    (det a, det b) (chi(ab)/chi(a), chi(ab)/(chi(b) det a)) in real Hilbert
    symbols, which only see the argument signs, so ``cocycle_bit`` evaluates it."""
    return _cocycle(alpha, beta, alpha * beta)


def _cocycle(alpha: Mat2, beta: Mat2, ab: Mat2) -> int:
    """``cocycle(alpha, beta)`` given the product ``ab = alpha * beta``."""
    bit = cocycle_bit(alpha.det() < 0, beta.det() < 0, chi_negative(alpha.c, alpha.d),
                      chi_negative(beta.c, beta.d), chi_negative(ab.c, ab.d))
    return -1 if bit else 1


def minus_t_row(c, d):
    """Whether (c, d) is the bottom row of a -T^n: where c*z + d is on the cut and the reflection flips a lift;
    works on ints and elementwise on numpy arrays."""
    return (c == 0) & (d < 0)


def reflection_sign(gamma: Mat2) -> int:
    """Sign a determinant-one lift picks up under conjugation by the reflection lift: the Hilbert
    symbol (chi(g), chi(gR)) with chi(gR) = -c (c != 0) or d (c = 0), so -1 exactly on -T^n."""
    if gamma.det() != 1:
        raise DomainError("reflection_sign is defined on determinant +1 matrices only")
    return -1 if minus_t_row(gamma.c, gamma.d) else 1


@dataclass(frozen=True)
class MetaElt:
    """Cover element ``[gamma, eps]`` with eps in {+1, -1}."""

    gamma: Mat2
    eps: int

    def __post_init__(self):
        if not isinstance(self.eps, int) or isinstance(self.eps, bool) or self.eps not in (1, -1):
            raise DomainError(f"cover sign must be +1 or -1, got {self.eps!r}")

    def __mul__(self, other: "MetaElt") -> "MetaElt":
        g, h = self.gamma, other.gamma
        gh = g * h
        return _known_metaelt(gh, _cocycle(g, h, gh) * self.eps * other.eps)

    def inv(self) -> "MetaElt":
        ginv = self.gamma.inv()
        return _known_metaelt(ginv, self.eps * _cocycle(self.gamma, ginv, IDENT))

    def det(self) -> int:
        return self.gamma.det()

    def __str__(self) -> str:
        return f"{self.gamma};{self.eps:+d}"

    @classmethod
    def identity(cls) -> "MetaElt":
        return cls(IDENT, 1)

    @classmethod
    def parse(cls, text: str) -> "MetaElt":
        """Parse the text format ``[[a,b],[c,d]];+1`` / ``;-1``."""
        head, sep, tail = text.partition(";")
        if not sep or tail.strip() not in ("+1", "-1", "1"):
            raise DomainError(f"bad cover element syntax {text!r}: need [[a,b],[c,d]];+1 or ;-1")
        return cls(Mat2.parse(head.strip()), int(tail))


def _known_metaelt(gamma: Mat2, eps: int) -> MetaElt:
    """A ``MetaElt`` built from checked elements (a product, inverse or word lift), so ``gamma`` is a
    ``Mat2`` and ``eps`` an int sign already: skips the check of ``MetaElt.__post_init__``."""
    x = object.__new__(MetaElt)
    fields = x.__dict__
    fields["gamma"], fields["eps"] = gamma, eps
    return x


LIFT_S = MetaElt(S_MAT, 1)
LIFT_T = MetaElt(T_MAT, 1)
LIFT_R = MetaElt(R_MAT, 1)
LIFT_Z = MetaElt(NEG_IDENT, 1)
CENTER_FLIP = MetaElt(IDENT, -1)
_LIFT_R_INV = LIFT_R.inv()


def conj_by_reflection(x: MetaElt) -> MetaElt:
    """Conjugate a cover element by the reflection lift, through the cover product."""
    return LIFT_R * x * _LIFT_R_INV


# ---------------------------------------------------------------------------
# generator words

GENERATOR_TOKENS = ("S", "S^-1", "T", "T^-1", "R")

TOKEN_LIFTS: dict[str, MetaElt] = {
    "S": LIFT_S,
    "S^-1": LIFT_S.inv(),
    "T": LIFT_T,
    "T^-1": LIFT_T.inv(),
    "R": LIFT_R,
}

# per token: the entries (a, b, c, d), then the negativity bits of det, chi and the lift's sign
_TOKEN_ROWS: dict[str, tuple[int, int, int, int, bool, bool, bool]] = {
    tok: (*x.gamma.entries(), x.det() < 0, chi_negative(x.gamma.c, x.gamma.d), x.eps < 0)
    for tok, x in TOKEN_LIFTS.items()
}

_CANCELLING = {("S", "S^-1"), ("S^-1", "S"), ("T", "T^-1"), ("T^-1", "T")}


def parse_word(text: str) -> Word:
    """Parse space-separated generator tokens; empty input is the empty word."""
    tokens = tuple(text.split())
    for tok in tokens:
        if tok not in GENERATOR_TOKENS:
            raise DomainError(f"unknown generator token {tok!r}; expected one of {GENERATOR_TOKENS}")
    return tokens


def format_word(word: Sequence[str]) -> str:
    return " ".join(word)


def word_lift(word: Sequence[str]) -> MetaElt:
    """Product of the lifted generators, with the cover sign tracked exactly: a fold over the
    entries and the det, chi and sign bits, one ``cocycle_bit`` per token."""
    a, b, c, d = 1, 0, 0, 1
    det_neg, chi_neg, neg = False, chi_negative(0, 1), False
    for tok in word:
        ta, tb, tc, td, t_det, t_chi, t_neg = _TOKEN_ROWS[tok]
        a, b, c, d = a * ta + b * tc, a * tb + b * td, c * ta + d * tc, c * tb + d * td
        chi_ab = chi_negative(c, d)
        neg ^= t_neg ^ cocycle_bit(det_neg, t_det, chi_neg, t_chi, chi_ab)
        det_neg ^= t_det
        chi_neg = chi_ab
    return _known_metaelt(_known_mat2(a, b, c, d), -1 if neg else 1)


def _free_reduce(tokens: list[str]) -> list[str]:
    out: list[str] = []
    for tok in tokens:
        if out and (out[-1], tok) in _CANCELLING:
            out.pop()
        else:
            out.append(tok)
    return out


def _best_shift(c: int, d: int) -> int:
    # Exponent n minimising |d + n*c|; ties prefer the larger (nonnegative) n.
    lo = -d // c
    return lo + 1 if abs(d + (lo + 1) * c) <= abs(d + lo * c) else lo


def word_decompose(m: Mat2) -> Word:
    """Write ``m`` as a word over {S, S^-1, T, T^-1, R}.

    Euclidean reduction on the bottom row: T-powers shrink |d| mod |c|, S
    swaps the two, and the run ends at c = 0 with a +-T-power residue.  A
    determinant -1 matrix contributes exactly one leading R.  The product of
    the returned generators equals ``m`` exactly.
    """
    a, b, c, d = m.entries()
    head: Word = ()
    if m.det() == -1:
        head, a, b = ("R",), -a, -b  # R * m
    rev_tail: list[str] = []  # the tail's tokens, last first
    while c != 0:
        if d == 0:
            a, b, c, d = -b, a, -d, c  # times S^-1
            rev_tail.append("S")
            continue
        n = _best_shift(c, d)
        if n != 0:
            b, d = a * n + b, c * n + d  # times T^n
            rev_tail.extend(["T^-1"] * n if n > 0 else ["T"] * (-n))
        a, b, c, d = b, -a, d, -c  # times S
        rev_tail.append("S^-1")
    if a == 1:
        exp = b
        core = ["T"] * exp if exp >= 0 else ["T^-1"] * (-exp)
    else:
        # (-1, b; 0, -1) = S^2 * T^(-b)
        exp = -b
        core = ["S", "S"] + (["T"] * exp if exp >= 0 else ["T^-1"] * (-exp))
    return head + tuple(_free_reduce(core + rev_tail[::-1]))


# ---------------------------------------------------------------------------
# enumeration

ENUMERATION_LIMIT = 8  # deepest word length enumerated without force=True


@dataclass(frozen=True)
class CoverSet:
    """All products of lifted generators up to a word length, with witness words.

    ``words`` maps each distinct (matrix, sign) pair to a shortest witness in
    breadth-first order; ``alternates`` records a few (element, word, word)
    collisions for well-definedness tests.
    """

    max_len: int
    words: dict[MetaElt, Word]
    alternates: tuple[tuple[MetaElt, Word, Word], ...]

    def elements(self) -> list[MetaElt]:
        return list(self.words)

    def matrices(self) -> list[Mat2]:
        seen: dict[Mat2, None] = {}
        for elt in self.words:
            seen.setdefault(elt.gamma, None)
        return list(seen)

    def sl_elements(self) -> list[MetaElt]:
        return [e for e in self.words if e.det() == 1]

    def sl_matrices(self) -> list[Mat2]:
        return [m for m in self.matrices() if m.det() == 1]


def enumerate_cover(max_len: int, *, force: bool = False) -> CoverSet:
    """Breadth-first closure of the five lifted generators up to ``max_len``."""
    if max_len < 0:
        raise DomainError("word length bound must be nonnegative")
    if max_len > ENUMERATION_LIMIT and not force:
        raise ResourceLimitError(
            f"enumeration depth {max_len} exceeds the configured bound {ENUMERATION_LIMIT}; "
            "pass force=True (the CLI's --force) to override"
        )
    words: dict[MetaElt, Word] = {MetaElt.identity(): ()}
    alternates: list[tuple[MetaElt, Word, Word]] = []
    frontier: list[MetaElt] = [MetaElt.identity()]
    for _ in range(max_len):
        next_frontier: list[MetaElt] = []
        for elt in frontier:
            base = words[elt]
            for tok in GENERATOR_TOKENS:
                new = elt * TOKEN_LIFTS[tok]
                word = base + (tok,)
                if new in words:
                    if len(alternates) < 120 and words[new] != word:
                        alternates.append((new, words[new], word))
                else:
                    words[new] = word
                    next_frontier.append(new)
        frontier = next_frontier
    return CoverSet(max_len=max_len, words=words, alternates=tuple(alternates))
