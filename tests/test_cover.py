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
    TOKEN_LIFTS,
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
)
from metaplectic import cover
from metaplectic.errors import DomainError, ResourceLimitError

words = st.lists(st.sampled_from(GENERATOR_TOKENS), max_size=10).map(tuple)
sl_words = st.lists(st.sampled_from(("S", "S^-1", "T", "T^-1")), max_size=10).map(tuple)


def test_matrix_invariants():
    with pytest.raises(DomainError):
        Mat2(1, 0, 0, 2)  # det 2
    with pytest.raises(DomainError):
        Mat2(1, 0, 0, 0)  # singular
    with pytest.raises(DomainError):
        Mat2(1.0, 0, 0, 1)  # not an integer entry
    with pytest.raises(DomainError):
        Mat2(True, False, False, True)  # bools would print as [[True,False],[False,True]]
    assert S_MAT.det() == 1 and R_MAT.det() == -1
    assert S_MAT * S_MAT == NEG_IDENT
    assert R_MAT * R_MAT == IDENT
    assert S_MAT.inv() == -S_MAT
    assert T_MAT.inv() == Mat2(1, -1, 0, 1)
    assert T_MAT.reflect_conjugate() == T_MAT.inv()


def test_internal_products_equal_checked_matrices(cover4):
    """Products, inverses, negations, conjugates and word lifts skip the constructor checks; they must
    still be the same values, with the same hash, as the checked elements of their entries and sign."""
    mats = cover4.matrices()[:30]
    derived = [a * b for a in mats for b in mats] + [f(m) for m in mats
                                                    for f in (Mat2.inv, Mat2.__neg__, Mat2.reflect_conjugate)]
    for m in derived:
        checked = Mat2(*m.entries())
        assert m == checked and hash(m) == hash(checked) and str(m) == str(checked)
        assert all(type(x) is int for x in m.entries()) and m.det() in (1, -1)
    elts = cover4.elements()[:30]
    derived = ([x * y for x in elts for y in elts] + [x.inv() for x in elts]
               + [word_lift(w) for w in list(cover4.words.values())[-30:]])
    for x in derived:
        checked = MetaElt(Mat2(*x.gamma.entries()), x.eps)
        assert x == checked and hash(x) == hash(checked) and str(x) == str(checked)
        assert type(x.gamma) is Mat2 and type(x.eps) is int


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
    assert conj_by_reflection(LIFT_R) == LIFT_R


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


def _lift_oracle(word):
    """``word_lift`` as an object fold: the identity times each lifted generator, one checked cover
    product [g, e][h, f] = [gh, cocycle(g, h) e f] per token."""
    out = MetaElt.identity()
    for tok in word:
        x = TOKEN_LIFTS[tok]
        out = MetaElt(Mat2(*(out.gamma * x.gamma).entries()), cocycle(out.gamma, x.gamma) * out.eps * x.eps)
    return out


def _decompose_oracle(m):
    """``word_decompose`` on checked ``Mat2`` products: the same Euclidean run, one matrix per step."""
    if m.det() == -1:
        return ("R",) + _decompose_oracle(R_MAT * m)
    tail = []
    work = m
    while work.c != 0:
        if work.d == 0:
            work = work * S_MAT.inv()
            tail.insert(0, "S")
            continue
        lo = -work.d // work.c
        n = min((lo, lo + 1), key=lambda n: (abs(work.d + n * work.c), -n))
        if n != 0:
            work = work * Mat2(1, n, 0, 1)
            tail[:0] = ["T^-1"] * n if n > 0 else ["T"] * (-n)
        work = work * S_MAT
        tail.insert(0, "S^-1")
    exp = work.b if work.a == 1 else -work.b
    core = ([] if work.a == 1 else ["S", "S"]) + (["T"] * exp if exp >= 0 else ["T^-1"] * (-exp))
    reduced = []
    for tok in core + tail:
        if reduced and {reduced[-1], tok} in ({"S", "S^-1"}, {"T", "T^-1"}):
            reduced.pop()
        else:
            reduced.append(tok)
    return tuple(reduced)


def _assert_same_lift(word):
    got, want = word_lift(word), _lift_oracle(word)
    assert got == want and hash(got) == hash(want) and str(got) == str(want), word
    assert type(got.eps) is int


def test_integer_paths_match_the_object_oracles():
    """The integer ``word_decompose`` and the integer ``word_lift`` fold against the matrix-by-matrix
    oracles on every matrix and every witness word of the word-length-6 universe."""
    cover6 = enumerate_cover(6)
    for m in cover6.matrices():
        word = word_decompose(m)
        assert word == _decompose_oracle(m), m
        _assert_same_lift(word)
        assert word_lift(word).gamma == m
    for word in cover6.words.values():
        _assert_same_lift(word)


@given(words)
@settings(max_examples=150)
def test_integer_paths_match_the_object_oracles_random(word):
    _assert_same_lift(word)
    m = word_lift(word).gamma
    assert word_decompose(m) == _decompose_oracle(m)


@pytest.mark.parametrize("name, rule", [
    ("chi_negative", lambda c, d, chi=chi_negative: chi(c, d) ^ ((c == 1) & (d == 2))),
    ("cocycle_bit", lambda da, db, sa, sb, sab: (da & db) ^ ((sab ^ sa) & (sab ^ sb))),
], ids=["chi flipped at (1,2)", "det a left out of the second Hilbert symbol"])
def test_word_lift_follows_the_one_cocycle_rule(cover4, monkeypatch, name, rule):
    """``word_lift`` folds the sign through ``cover.chi_negative`` and ``cover.cocycle_bit`` themselves,
    not a copy: with either rule mutated it still equals the object fold under the same mutation, and
    the mutation moves some lift.  chi is flipped on a row that no generator has, because the lifted
    generators and their bits are fixed at import."""
    witness_words = list(cover4.words.values())
    before = [word_lift(w) for w in witness_words]
    monkeypatch.setattr(cover, name, rule)
    after = [word_lift(w) for w in witness_words]
    for word in witness_words:
        _assert_same_lift(word)
    assert after != before


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
        assert word_lift(word).gamma == m
        if m.det() == -1:
            assert word.count("R") == 1 and word[0] == "R"
        else:
            assert "R" not in word


@given(sl_words)
@settings(max_examples=150)
def test_word_decompose_round_trip_random(word):
    m = word_lift(word).gamma
    assert word_lift(word_decompose(m)).gamma == m


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
    a, b, g = word_lift(w1).gamma, word_lift(w2).gamma, word_lift(w3).gamma
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
    assert conj_by_reflection(x) == MetaElt(x.gamma.reflect_conjugate(), reflection_sign(x.gamma) * x.eps)


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
    with pytest.raises(DomainError):
        MetaElt(S_MAT, True)  # prints as ;+1 but is no int sign
