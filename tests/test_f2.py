"""Core GF(2) linear algebra checks, including randomized property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsef2.errors import DimensionError, InputError, ValidationError
from sparsef2.f2 import BitMat, BitVec, gauss_solve, mat_mul, mat_vec_mul, nullspace_basis, rank, rref, weight


def random_mat(rng, rows, cols):
    return BitMat.from_bitrows([rng.getrandbits(cols) for _ in range(rows)], cols)


def random_vec(rng, n):
    return BitVec(n, rng.getrandbits(n))


def test_bitvec_construction_and_weight():
    v = BitVec.from01("1011")
    assert v.weight() == 3
    assert weight(BitVec.zeros(4)) == 0
    assert weight(BitVec.ones(7)) == 7
    assert v.support() == (0, 2, 3)
    assert list(v) == [1, 0, 1, 1]


def test_bitvec_rejects_padding_leakage():
    with pytest.raises(ValidationError):
        BitVec(3, 0b1000)
    with pytest.raises(InputError):
        BitVec.from_bits([0, 2, 1])


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_01_codecs_match_the_character_loops(vec):
    n, bits = vec
    text = "".join("1" if bits >> i & 1 else "0" for i in range(n))
    assert BitVec(n, bits).to01() == text
    assert BitVec.from01(text) == BitVec(n, bits)


@pytest.mark.parametrize("text", ["2", "01a", " 01", "0 1", "0_1", "+1", "1\n", "\uff11", "\u0661"])
def test_from01_rejects_non_bits(text):
    with pytest.raises(InputError):
        BitVec.from01(text)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_lex_key_orders_like_01_strings(n):
    rng = random.Random(n)
    vecs = [random_vec(rng, n) for _ in range(300)] + [BitVec.unit(n, i) for i in range(n)]
    vecs += [BitVec.zeros(n), BitVec.ones(n)]
    assert sorted(vecs, key=BitVec.lex_key) == sorted(vecs, key=BitVec.to01)
    assert len({v.lex_key() for v in vecs}) == len(set(vecs))


def test_mat_vec_identity_and_zero():
    m = BitMat.identity(3)
    x = BitVec.from01("101")
    assert mat_vec_mul(m, x) == x
    assert mat_vec_mul(random_mat(random.Random(0), 4, 6), BitVec.zeros(6)).is_zero()


def test_mat_vec_handwritten():
    m = BitMat.from_rows(["110", "011"])
    assert mat_vec_mul(m, BitVec.from01("110")) == BitVec.from01("01")


def test_mat_vec_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat_vec_mul(BitMat.identity(3), BitVec.zeros(4))


def test_transpose_involution_and_columns():
    rng = random.Random(7)
    for _ in range(25):
        m = random_mat(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert m.transpose().transpose() == m
        for j in range(m.cols):
            assert m.col(j).bits == m.col_bits()[j]


def test_linearity_property():
    rng = random.Random(11)
    for _ in range(200):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        m = random_mat(rng, rows, cols)
        x, y = random_vec(rng, cols), random_vec(rng, cols)
        assert mat_vec_mul(m, x ^ y) == mat_vec_mul(m, x) ^ mat_vec_mul(m, y)


def test_mat_mul_matches_pointwise():
    rng = random.Random(3)
    for _ in range(50):
        a = random_mat(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        b = random_mat(rng, a.cols, rng.randrange(1, 7))
        c = mat_mul(a, b)
        for i in range(c.rows):
            for j in range(c.cols):
                expect = sum(a.row(i).get(t) * b.row(t).get(j) for t in range(a.cols)) % 2
                assert c.row(i).get(j) == expect


def test_nullspace_trivial_cases():
    assert nullspace_basis(BitMat.identity(3)) == []
    basis = nullspace_basis(BitMat.from_rows(["11"]))
    assert basis == [BitVec.from01("11")]


def test_nullspace_derived_case():
    # Kernel of [[1,1,0],[0,1,1]] is spanned by (1,1,1): checked against full enumeration.
    m = BitMat.from_rows(["110", "011"])
    kernel = {x for x in range(8) if mat_vec_mul(m, BitVec(3, x)).is_zero()}
    basis = nullspace_basis(m)
    assert len(basis) == 1
    spanned = {0, basis[0].bits}
    assert spanned == kernel


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(100):
        m = random_mat(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert rank(m) + len(nullspace_basis(m)) == m.cols
        for v in nullspace_basis(m):
            assert mat_vec_mul(m, v).is_zero()


def test_gauss_solve_recheck_raises_validation_error(monkeypatch):
    monkeypatch.setattr("sparsef2.f2.mat_vec_mul", lambda m, x: BitVec(m.rows, 0))
    with pytest.raises(ValidationError):
        gauss_solve(BitMat.identity(2), BitVec.from01("10"))


def test_gauss_solve_trivial():
    assert gauss_solve(BitMat.identity(2), BitVec.from01("10")) == BitVec.from01("10")
    assert gauss_solve(BitMat.from_rows(["11", "11"]), BitVec.from01("10")) is None


def test_gauss_solve_derived():
    m = BitMat.from_rows(["110", "011"])
    x = gauss_solve(m, BitVec.from01("11"))
    assert x is not None and mat_vec_mul(m, x) == BitVec.from01("11")


def test_gauss_solve_agrees_with_enumeration():
    rng = random.Random(13)
    for _ in range(150):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = random_mat(rng, rows, cols)
        b = random_vec(rng, rows)
        found = gauss_solve(m, b)
        brute = [x for x in range(1 << cols) if mat_vec_mul(m, BitVec(cols, x)) == b]
        assert (found is None) == (not brute)
        if found is not None:
            assert mat_vec_mul(m, found) == b


def test_rref_pivots_sorted():
    rng = random.Random(17)
    for _ in range(40):
        m = random_mat(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        pivots, red = rref(m)
        assert list(pivots) == sorted(pivots)
        assert rank(red) == len(pivots)
