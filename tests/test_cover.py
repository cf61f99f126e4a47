from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.cover import (
    CENTER_FLIP,
    GENERATOR_TOKENS,
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
    chi_negative,
    cocycle,
    cocycle_bit,
    conj_by_reflection,
    enumerate_cover,
    format_word,
    hilbert_symbol,
    kubota_chi,
    parse_word,
    reflection_sign,
    word_decompose,
    word_lift,
    word_matrix,
)
from metaplectic.errors import DomainError, ResourceLimitError

words = st.lists(st.sampled_from(GENERATOR_TOKENS), max_size=10).map(tuple)
sl_words = st.lists(st.sampled_from(("S", "S^-1", "T", "T^-1")), max_size=10).map(tuple)


def test_matrix_invariants():
    with pytest.raises(DomainError):
        Mat2(1, 0, 0, 2)  # det 2
    with pytest.raises(DomainError):
        Mat2(1, 0, 0, 0)  # singular
    assert S_MAT.det() == 1 and R_MAT.det() == -1
    assert S_MAT * S_MAT == NEG_IDENT
    assert R_MAT * R_MAT == IDENT
    assert S_MAT.inv() == -S_MAT
    assert T_MAT.inv() == Mat2(1, -1, 0, 1)
    assert T_MAT.reflect_conjugate() == T_MAT.inv()


def test_matrix_text_format():
    assert str(S_MAT) == "[[0,-1],[1,0]]"
    assert Mat2.parse("[[0,-1],[1,0]]") == S_MAT
    assert Mat2.parse(str(Mat2(2, 5, 1, 3))) == Mat2(2, 5, 1, 3)
    for bad in ("[[1,0],[0]]", "[1,0,0,1]", "[[1.5,0],[0,1]]", "nope", "[[true,0],[0,1]]"):
        with pytest.raises(DomainError):
            Mat2.parse(bad)


def test_kubota_chi_values():
    assert kubota_chi(S_MAT) == 1
    assert kubota_chi(T_MAT) == 1
    assert kubota_chi(NEG_IDENT) == -1
    assert kubota_chi(Mat2(1, 0, -7, 1)) == -7


def test_hilbert_symbol():
    assert hilbert_symbol(-1, -1) == -1
    assert hilbert_symbol(-1, 1) == 1
    assert hilbert_symbol(3, -5) == 1
    assert hilbert_symbol(2, 7) == 1
    with pytest.raises(DomainError):
        hilbert_symbol(0, 1)
    with pytest.raises(DomainError):
        hilbert_symbol(1, 0)


def test_cocycle_worked_values():
    rtr = R_MAT * T_MAT * R_MAT
    assert cocycle(T_MAT, rtr) == 1
    assert cocycle(S_MAT, -S_MAT) == 1
    assert cocycle(S_MAT, S_MAT) == -1
    assert cocycle(R_MAT, R_MAT) == -1
    for g in (S_MAT, T_MAT, R_MAT, NEG_IDENT, Mat2(2, 5, 1, 3)):
        assert cocycle(g, IDENT) == 1
        assert cocycle(IDENT, g) == 1


def _cocycle_oracle(alpha, beta):
    """The defining formula, literally: Hilbert symbols of exact rational ratios."""
    chi_ab = kubota_chi(alpha * beta)
    r1 = Fraction(chi_ab, kubota_chi(alpha))
    r2 = Fraction(chi_ab, kubota_chi(beta) * alpha.det())
    return hilbert_symbol(alpha.det(), beta.det()) * hilbert_symbol(r1, r2)


def test_cocycle_matches_defining_formula(cover4):
    mats = cover4.matrices()
    assert {m.det() for m in mats} == {1, -1}
    pairs = [(a, b) for a in mats for b in mats]
    expected = np.array([_cocycle_oracle(a, b) == -1 for a, b in pairs])
    assert np.array_equal(np.array([cocycle(a, b) == -1 for a, b in pairs]), expected)
    bits = lambda f: np.array([f(a, b) < 0 for a, b in pairs])
    got = cocycle_bit(bits(lambda a, b: a.det()), bits(lambda a, b: b.det()),
                      bits(lambda a, b: kubota_chi(a)), bits(lambda a, b: kubota_chi(b)),
                      bits(lambda a, b: kubota_chi(a * b)))
    assert got.dtype == bool and np.array_equal(got, expected)
    # the sign bit of chi from the bottom row, on scalars and on arrays; the
    # universe has both signs of chi with c = 0 and with c != 0
    chi_neg = [kubota_chi(m) < 0 for m in mats]
    both = (False, True)
    assert {(m.c == 0, neg) for m, neg in zip(mats, chi_neg)} == {(a, b) for a in both for b in both}
    assert [chi_negative(m.c, m.d) for m in mats] == chi_neg
    got = chi_negative(np.array([m.c for m in mats]), np.array([m.d for m in mats]))
    assert got.dtype == bool and np.array_equal(got, chi_neg)


def test_reflection_sign_values():
    assert reflection_sign(S_MAT) == 1
    assert reflection_sign(T_MAT) == 1
    assert reflection_sign(NEG_IDENT) == -1
    with pytest.raises(DomainError):
        reflection_sign(R_MAT)  # det -1 outside the domain


def test_reflection_sign_matches_hilbert_definition(cover4):
    """The closed form against its definition, the Hilbert symbol (chi(g), chi(gR))."""
    mats = cover4.sl_matrices()
    minus_t = [m for m in mats if m.c == 0 and m.d < 0]  # the matrices -T^n
    assert len({m.b for m in minus_t}) >= 3
    for m in mats:
        assert reflection_sign(m) == hilbert_symbol(kubota_chi(m), kubota_chi(m * R_MAT)), m
    assert {reflection_sign(m) for m in minus_t} == {-1}


def test_cover_product_examples():
    assert LIFT_R * LIFT_R == CENTER_FLIP
    assert LIFT_S * LIFT_S == MetaElt(NEG_IDENT, cocycle(S_MAT, S_MAT))
    for g in (S_MAT, T_MAT, R_MAT, Mat2(3, 4, 2, 3)):
        assert MetaElt(g, 1) * CENTER_FLIP == MetaElt(g, -1)


def test_cover_inverses():
    assert LIFT_R.inv() == MetaElt(R_MAT, -1)
    assert LIFT_S.inv() == MetaElt(-S_MAT, 1)
    assert CENTER_FLIP.inv() == CENTER_FLIP
    assert MetaElt.identity().inv() == MetaElt.identity()


def test_conjugation_examples():
    assert conj_by_reflection(LIFT_S) == MetaElt(-S_MAT, 1)
    assert conj_by_reflection(LIFT_T) == MetaElt(R_MAT * T_MAT * R_MAT, 1)
    assert conj_by_reflection(CENTER_FLIP) == CENTER_FLIP
    # determinant -1 goes through the generic product
    assert conj_by_reflection(LIFT_R) == LIFT_R * LIFT_R * LIFT_R.inv()


def test_order_structure():
    s2 = LIFT_S * LIFT_S
    assert s2 * s2 == CENTER_FLIP
    assert LIFT_Z * LIFT_Z == CENTER_FLIP
    assert LIFT_R * LIFT_R == CENTER_FLIP
    assert LIFT_Z * LIFT_R != LIFT_R * LIFT_Z
    # reflection conjugation inverts the nominal center generator
    assert conj_by_reflection(LIFT_Z) == LIFT_Z.inv()


def test_metaelt_text_format():
    assert str(LIFT_R * LIFT_R) == "[[1,0],[0,1]];-1"
    assert MetaElt.parse("[[0,-1],[1,0]];+1") == LIFT_S
    assert MetaElt.parse("[[0,-1],[1,0]];-1") == MetaElt(S_MAT, -1)
    with pytest.raises(DomainError):
        MetaElt.parse("[[0,-1],[1,0]]")
    with pytest.raises(DomainError):
        MetaElt.parse("[[0,-1],[1,0]];+2")


def test_word_basics():
    assert word_decompose(S_MAT) == ("S",)
    assert word_decompose(Mat2(1, 3, 0, 1)) == ("T", "T", "T")
    assert word_decompose(R_MAT) == ("R",)
    assert word_decompose(IDENT) == ()
    assert parse_word("S T^-1 R") == ("S", "T^-1", "R")
    assert parse_word("") == ()
    assert format_word(("S", "T")) == "S T"
    with pytest.raises(DomainError):
        parse_word("S Q")


def test_word_decompose_exact_on_universe(cover4):
    for m in cover4.matrices():
        word = word_decompose(m)
        assert word_matrix(word) == m
        if m.det() == -1:
            assert word.count("R") == 1 and word[0] == "R"
        else:
            assert "R" not in word


@given(sl_words)
@settings(max_examples=150)
def test_word_decompose_round_trip_random(word):
    m = word_matrix(word)
    assert word_matrix(word_decompose(m)) == m


@given(words, words)
@settings(max_examples=100)
def test_lift_concatenation_is_product(w1, w2):
    assert word_lift(w1 + w2) == word_lift(w1) * word_lift(w2)


@given(words, words, words)
@settings(max_examples=150)
def test_associativity_random(w1, w2, w3):
    x, y, z = word_lift(w1), word_lift(w2), word_lift(w3)
    assert (x * y) * z == x * (y * z)


@given(words, words, words)
@settings(max_examples=150)
def test_cocycle_identity_random(w1, w2, w3):
    a, b, g = word_matrix(w1), word_matrix(w2), word_matrix(w3)
    assert cocycle(a, b) * cocycle(a * b, g) == cocycle(a, b * g) * cocycle(b, g)


@given(words)
@settings(max_examples=100)
def test_inverse_laws_random(word):
    x = word_lift(word)
    assert x.inv().inv() == x
    assert x * x.inv() == MetaElt.identity()
    assert x.inv() * x == MetaElt.identity()


@given(sl_words)
@settings(max_examples=100)
def test_conjugation_closed_form_random(word):
    x = word_lift(word)
    assert conj_by_reflection(x) == LIFT_R * x * LIFT_R.inv()


def test_enumeration_small_depths():
    zero = enumerate_cover(0)
    assert zero.elements() == [MetaElt.identity()]
    one = enumerate_cover(1)
    assert len(one.elements()) == 6  # identity plus the five lifted generators
    two = enumerate_cover(2)
    assert CENTER_FLIP in two.words
    assert two.words[MetaElt.identity()] == ()


def test_enumeration_shortest_witness(cover4):
    for elt, word in cover4.words.items():
        assert word_lift(word) == elt
        assert len(word) <= 4
    # alternates really are two distinct words for the same element
    for elt, w1, w2 in cover4.alternates:
        assert w1 != w2
        assert word_lift(w1) == elt
        assert word_lift(w2) == elt


def test_enumeration_resource_bound():
    with pytest.raises(ResourceLimitError):
        enumerate_cover(9)
    assert enumerate_cover(9, force=True).max_len == 9


def test_sign_validation():
    with pytest.raises(DomainError):
        MetaElt(S_MAT, 0)
    with pytest.raises(DomainError):
        MetaElt(S_MAT, 2)
    with pytest.raises(DomainError):
        MetaElt(S_MAT, 1.0)  # a float sign would break the ;+1 witness format
