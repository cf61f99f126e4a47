"""Exact arithmetic in GL2(Z) and its sign double cover.

Cover elements are pairs ``[gamma, eps]`` with ``gamma`` an integer matrix of
determinant +-1 and ``eps`` a sign, multiplied through a {+1,-1}-valued
2-cocycle assembled from the real-place Hilbert symbol and Kubota's chi
function.  Everything here is exact: matrix entries are Python integers, and
the cocycle only sees the sign bits of the determinants and of chi, combined
in one bit formula (``cocycle_bit``) that also runs on numpy arrays.

Both element types are tuples, ``Mat2`` of its entries (a, b, c, d) and
``MetaElt`` of (gamma, eps), so hashing, equality and unpacking run in C.  An
element equals the plain tuple of its fields; the tuple's concatenation and
repetition are refused.  Validation happens once, on input: ``Mat2(...)`` and
``MetaElt(...)``, which takes only a ``Mat2`` (and so both ``parse`` methods),
check every element a caller supplies.  Results derived from checked elements
are built by ``tuple.__new__`` (``_known_mat2``, ``_known_metaelt``) without
those checks, since their entries are ints, their determinant is +-1 and their
sign is +-1 by construction: ``Mat2`` products, inverses, negations and
conjugates, and ``MetaElt`` products, inverses and word lifts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Sequence

from .errors import DomainError, ResourceLimitError

Word = tuple[str, ...]


class _Entries(tuple):
    """A tuple of fixed fields: copied and pickled through the constructor, no concatenation or repetition."""

    __slots__ = ()

    def __getnewargs__(self):
        return tuple(self)

    def __add__(self, other):
        return NotImplemented

    __radd__ = __rmul__ = __add__


class Mat2(_Entries):
    """2x2 integer matrix with determinant +1 or -1: the tuple ``(a, b, c, d)``, entries row-major."""

    __slots__ = ()
    a, b, c, d = (property(itemgetter(i)) for i in range(4))

    def __new__(cls, a: int, b: int, c: int, d: int) -> "Mat2":
        for entry in (a, b, c, d):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise DomainError(f"matrix entries must be integers, got {entry!r}")
        m = tuple.__new__(cls, (a, b, c, d))
        if m.det() not in (1, -1):
            raise DomainError(f"matrix {m} has determinant {m.det()}, need +1 or -1")
        return m

    def det(self) -> int:
        return self[0] * self[3] - self[1] * self[2]

    def entries(self) -> tuple[int, int, int, int]:
        """The entries as a plain tuple."""
        return self[:]

    def __mul__(self, other: "Mat2") -> "Mat2":
        (a, b, c, d), (p, q, r, s) = self, other
        return _known_mat2((a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s))

    def __neg__(self) -> "Mat2":
        return _known_mat2(-x for x in self)

    def inv(self) -> "Mat2":
        a, b, c, d = self
        det = a * d - b * c
        return _known_mat2((d * det, -b * det, -c * det, a * det))

    def reflect_conjugate(self) -> "Mat2":
        """Conjugate by the reflection diag(-1, 1): flips the off-diagonal signs."""
        a, b, c, d = self
        return _known_mat2((a, -b, -c, d))

    def __str__(self) -> str:
        a, b, c, d = self
        return f"[[{a},{b}],[{c},{d}]]"

    def __repr__(self) -> str:
        return "Mat2(a={!r}, b={!r}, c={!r}, d={!r})".format(*self)

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


# products, inverses, negations and conjugates of checked matrices, built without ``Mat2.__new__``'s checks
_known_mat2 = partial(tuple.__new__, Mat2)


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
    (a, b, c, d), (p, q, r, s) = alpha, beta
    bit = cocycle_bit(a * d < b * c, p * s < q * r, chi_negative(c, d), chi_negative(r, s), chi_negative(ab[2], ab[3]))
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


class MetaElt(_Entries):
    """Cover element ``[gamma, eps]`` with eps in {+1, -1}: the tuple ``(gamma, eps)``."""

    __slots__ = ()
    gamma, eps = (property(itemgetter(i)) for i in range(2))

    def __new__(cls, gamma: Mat2, eps: int) -> "MetaElt":
        if not isinstance(gamma, Mat2):
            raise DomainError(f"cover element needs a Mat2, got {gamma!r}")
        if not isinstance(eps, int) or isinstance(eps, bool) or eps not in (1, -1):
            raise DomainError(f"cover sign must be +1 or -1, got {eps!r}")
        return tuple.__new__(cls, (gamma, eps))

    def __mul__(self, other: "MetaElt") -> "MetaElt":
        (g, e), (h, f) = self, other
        gh = g * h
        return _known_metaelt((gh, _cocycle(g, h, gh) * e * f))

    def inv(self) -> "MetaElt":
        g, e = self
        ginv = g.inv()
        return _known_metaelt((ginv, e * _cocycle(g, ginv, IDENT)))

    def det(self) -> int:
        return self[0].det()

    def __str__(self) -> str:
        gamma, eps = self
        return f"{gamma};{eps:+d}"

    def __repr__(self) -> str:
        return f"MetaElt(gamma={self[0]!r}, eps={self[1]!r})"

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


# products, inverses and word lifts of checked elements, built without ``MetaElt.__new__``'s check
_known_metaelt = partial(tuple.__new__, MetaElt)


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
WORD_LENGTH_LIMIT = 10 ** 6  # most letters of a word_decompose word, counted before its free reduction


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
    return _known_metaelt((_known_mat2((a, b, c, d)), -1 if neg else 1))


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
    the returned generators equals ``m`` exactly.  A word of more than
    ``WORD_LENGTH_LIMIT`` letters is refused with ResourceLimitError before
    the T-power that would take it past the cap is built.
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
            rev_tail += _t_letters(-n, len(head) + len(rev_tail), m)
        a, b, c, d = b, -a, d, -c  # times S
        rev_tail.append("S^-1")
    exp = b if a == 1 else -b  # (-1, b; 0, -1) = S^2 * T^(-b)
    core = ([] if a == 1 else ["S", "S"]) + _t_letters(exp, len(head) + len(rev_tail) + 2 * (a != 1), m)
    return head + tuple(_free_reduce(core + rev_tail[::-1]))


def _t_letters(e: int, before: int, m: Mat2) -> list[str]:
    """T^e as letters, refused first if with the ``before`` letters of ``m``'s word they pass ``WORD_LENGTH_LIMIT``."""
    if before + abs(e) > WORD_LENGTH_LIMIT:
        raise ResourceLimitError(f"the generator word of {m} has more than {WORD_LENGTH_LIMIT} letters")
    return ["T"] * e if e >= 0 else ["T^-1"] * -e


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

    @cached_property
    def _lists(self) -> tuple[tuple, ...]:
        """The elements, the distinct matrices, and the det +1 ones of each, in ``words``' order: built once."""
        matrices = tuple(dict.fromkeys(elt.gamma for elt in self.words))
        return (tuple(self.words), matrices, *(tuple(x for x in xs if x.det() == 1) for xs in (self.words, matrices)))

    def elements(self) -> list[MetaElt]:
        return list(self._lists[0])

    def matrices(self) -> list[Mat2]:
        return list(self._lists[1])

    def sl_elements(self) -> list[MetaElt]:
        return list(self._lists[2])

    def sl_matrices(self) -> list[Mat2]:
        return list(self._lists[3])


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
