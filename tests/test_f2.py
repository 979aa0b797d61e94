"""Core GF(2) linear algebra checks, including randomized property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsef2.errors import DimensionError, InputError, ValidationError
from sparsef2.f2 import BitMat, BitVec, gauss_solve, mat_mul, mat_vec_mul, nullspace_basis, rank, rref, weight


def oracle_rref(rows, cols):
    """Gauss-Jordan elimination on int rows, one bit test at a time: the
    reference the packed-word ``rref`` must match bit for bit."""
    work = list(rows)
    pivots = []
    row = 0
    for col in range(cols):
        sel = None
        for r in range(row, len(work)):
            if (work[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        for r in range(len(work)):
            if r != row and (work[r] >> col) & 1:
                work[r] ^= work[row]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return tuple(pivots), work


def oracle_nullspace(rows, cols):
    """One kernel vector per free column, free columns ascending."""
    pivots, red = oracle_rref(rows, cols)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        bits = 1 << free
        for r, pc in enumerate(pivots):
            if (red[r] >> free) & 1:
                bits |= 1 << pc
        basis.append(bits)
    return basis


def oracle_gauss_solve(rows, cols, b):
    """The solution with every free variable 0, or None if inconsistent."""
    pivots, red = oracle_rref([r | ((b >> i) & 1) << cols for i, r in enumerate(rows)], cols + 1)
    if cols in pivots:
        return None
    return sum(1 << pc for r, pc in enumerate(pivots) if (red[r] >> cols) & 1)


def assert_elimination_matches_oracle(rows, cols, b):
    m = BitMat.from_bitrows(rows, cols)
    pivots, red = rref(m)
    want_pivots, want_rows = oracle_rref(rows, cols)
    assert pivots == want_pivots
    assert (red.rows, red.cols, red.row_bits) == (len(rows), cols, tuple(want_rows))
    assert rank(m) == len(want_pivots)
    assert [v.bits for v in nullspace_basis(m)] == oracle_nullspace(rows, cols)
    found = gauss_solve(m, BitVec(len(rows), b))
    want = oracle_gauss_solve(rows, cols, b)
    assert (None if found is None else found.bits) == want


def draw_row(rng_bits, kind, cols, earlier):
    """A uniform, sparse (at most 3 bits), dense (all but at most 3 bits) or
    dependent (XOR of two earlier rows) row."""
    if kind == "dependent" and earlier:
        return earlier[rng_bits[0] % len(earlier)] ^ earlier[rng_bits[1] % len(earlier)]
    if kind == "uniform" or not cols:
        return rng_bits[2] & ((1 << cols) - 1)
    sparse = 0
    for pos in rng_bits[:3]:
        sparse |= 1 << (pos % cols)
    return sparse if kind == "sparse" else ((1 << cols) - 1) ^ sparse


@st.composite
def systems(draw):
    """(rows, cols, rhs): column counts around the word boundaries, 0 to 70
    rows, each row uniform, sparse, dense or dependent on earlier rows."""
    cols = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]), st.integers(0, 200)))
    kinds = draw(st.lists(st.sampled_from(["uniform", "sparse", "dense", "dependent"]), max_size=70))
    rows = []
    for kind in kinds:
        rng_bits = draw(st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 16), st.integers(0, (1 << cols) - 1)))
        rows.append(draw_row(rng_bits, kind, cols, rows))
    if draw(st.booleans()):  # a consistent right-hand side
        x = draw(st.integers(0, (1 << cols) - 1))
        rhs = sum(((r & x).bit_count() & 1) << i for i, r in enumerate(rows))
    else:
        rhs = draw(st.integers(0, (1 << len(rows)) - 1))
    return rows, cols, rhs


@settings(max_examples=300, deadline=None, database=None)
@given(systems())
def test_elimination_matches_the_python_oracle(system):
    assert_elimination_matches_oracle(*system)


@pytest.mark.parametrize("cols", [0, 1, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("nrows", [0, 1, 40, 64, 140])
def test_elimination_matches_the_python_oracle_at_word_boundaries(cols, nrows):
    rng = random.Random(cols * 1000 + nrows)
    for kind in ("uniform", "sparse", "dense", "dependent"):
        rows = []
        for _ in range(nrows):
            rows.append(draw_row((rng.getrandbits(16), rng.getrandbits(16), rng.getrandbits(cols)), kind, cols, rows))
        x = rng.getrandbits(cols)
        consistent = sum(((r & x).bit_count() & 1) << i for i, r in enumerate(rows))
        for rhs in (consistent, rng.getrandbits(nrows)):
            assert_elimination_matches_oracle(rows, cols, rhs)


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
