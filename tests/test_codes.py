"""Coding-theory building blocks, each checked against independent enumeration."""

import math
import random
from itertools import combinations

import pytest

from sparsef2.codes import (
    LinearCode,
    ProductCode,
    balanced_code,
    bch_parity_check,
    distribution_bias,
    min_distance,
    product_density_check,
    simplex_generator,
    tensor_membership,
    tensor_parity_check,
)
from sparsef2.errors import GenerationError, InputError, ResourceError
from sparsef2.f2 import BitMat, BitVec, mat_mul, mat_vec_mul, rank


def low_weight_vectors(n, below):
    for w in range(1, below):
        for sub in combinations(range(n), w):
            yield BitVec.from_support(n, sub)


def assert_designed_distance(r, n, delta):
    for x in low_weight_vectors(n, delta):
        assert not mat_vec_mul(r, x).is_zero(), f"syndrome vanished on weight {x.weight()}"


@pytest.mark.parametrize("n,delta", [(7, 3), (15, 5), (15, 3), (31, 3)])
def test_bch_designed_distance_exhaustive(n, delta):
    r = bch_parity_check(n, delta)
    assert r.rows <= ((delta - 1 + 1) // 2) * math.ceil(math.log2(n + 1))
    assert r.cols == n
    assert_designed_distance(r, n, delta)


def test_bch_weight1_case():
    r = bch_parity_check(9, 2)
    for j in range(9):
        assert not r.col(j).is_zero()


def test_bch_rejects_bad_delta():
    with pytest.raises(InputError):
        bch_parity_check(7, 8)
    with pytest.raises(InputError):
        bch_parity_check(1, 2)


def test_bch_7_3_shape():
    r = bch_parity_check(7, 3)
    assert r.rows == 3 and r.cols == 7


def test_simplex_all_weights_equal():
    for kdim in (1, 3, 4):
        code = simplex_generator(kdim)
        assert code.length == 2**kdim - 1
        weights = {cw.weight() for cw in code.codewords() if not cw.is_zero()}
        assert weights == {2 ** (kdim - 1)}


def test_simplex_normalized_weight():
    code = simplex_generator(4)
    assert code.length == 15
    assert all(cw.weight() == 8 for cw in code.codewords() if not cw.is_zero())


def test_balanced_code_certificate():
    code = balanced_code(dim=10, eps=0.1, seed=42)
    t = code.length
    lo, hi = 0.4 * t, 0.6 * t
    count = 0
    for cw in code.codewords():
        if cw.is_zero():
            continue
        count += 1
        assert lo <= cw.weight() <= hi
    assert count == 1023
    assert code.bias_cert is not None and code.bias_cert.eps == 0.1


def test_balanced_code_single_dim():
    code = balanced_code(dim=1, eps=0.2, seed=0)
    w = code.generator.col(0).weight()
    assert (0.5 - 0.2) * code.length <= w <= (0.5 + 0.2) * code.length


def test_balanced_code_fixed_length():
    code = balanced_code(dim=4, eps=0.25, seed=7, length=6)
    assert code.length == 6
    for cw in code.codewords():
        if not cw.is_zero():
            assert 1.5 <= cw.weight() <= 4.5


def test_balanced_code_dim_cap():
    with pytest.raises(ResourceError):
        balanced_code(dim=25, eps=0.1, seed=0)


def test_balanced_code_infeasible_raises_generation_error():
    # Length 3 with dim 3 cannot put all 7 codewords in a tight window.
    with pytest.raises(GenerationError):
        balanced_code(dim=3, eps=0.05, seed=0, length=3)


def test_balanced_codes_deterministic_per_seed():
    a = balanced_code(dim=6, eps=0.15, seed=5)
    b = balanced_code(dim=6, eps=0.15, seed=5)
    assert a.generator == b.generator


def balanced_generator_by_full_check(dim, eps, seed, length):
    """The rejection loop of balanced_code with no early column check: build
    every try's generator and certify it over all 2^dim - 1 nonzero messages.
    Returns (rows, wmin, wmax), or None when no try passes."""
    rng = random.Random(seed)
    t_max = math.ceil(4.0 * dim / eps**3)
    if length is not None:
        schedule, tries = [length], 2000
    else:
        t = min(t_max, max(dim, math.ceil(math.log(2 ** (dim + 1)) / (2 * eps * eps))))
        schedule = [t]
        while t < t_max:
            t = min(t_max, max(t + 1, int(t * 1.3)))
            schedule.append(t)
        tries = 60
    for t in schedule:
        for _ in range(tries):
            gen = BitMat.from_bitrows([rng.getrandbits(dim) for _ in range(t)], dim)
            cols = gen.col_bits()
            weights = []
            for msg in range(1, 1 << dim):
                word = 0
                for j in range(dim):
                    if msg >> j & 1:
                        word ^= cols[j]
                weights.append(word.bit_count())
            if all((0.5 - eps) * t <= w <= (0.5 + eps) * t for w in weights):
                return gen.row_bits, min(weights), max(weights)
    return None


@pytest.mark.parametrize("length", [None, 6, 8, 14])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.3])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_balanced_code_matches_the_full_check(dim, eps, length):
    """Checking the generator columns on the drawn rows first changes no
    generator and no certificate, for the default length schedule too; eps
    0.25 at length 8 puts both ends of the window [2, 6] on weights."""
    for seed in range(6):
        want = balanced_generator_by_full_check(dim, eps, seed, length)
        if want is None:
            with pytest.raises(GenerationError):
                balanced_code(dim, eps, seed, length)
            continue
        code = balanced_code(dim, eps, seed, length)
        got = (code.generator.row_bits, code.bias_cert.min_weight, code.bias_cert.max_weight)
        assert got == want
        assert code.dist_cert.d == want[1]


def test_tensor_membership_generated_members():
    rng = random.Random(1)
    code = simplex_generator(3)
    prod = ProductCode(code)
    g = code.generator
    for _ in range(1000):
        x = BitMat.from_bitrows([rng.getrandbits(3) for _ in range(3)], 3)
        y = mat_mul(mat_mul(g, x), g.transpose())
        assert tensor_membership(prod, y)
    bad = BitMat.from_bitrows([1] + [0] * (code.length - 1), code.length)
    assert not tensor_membership(prod, bad)


def test_tensor_membership_closed_under_addition():
    rng = random.Random(2)
    code = balanced_code(dim=3, eps=0.3, seed=3)
    prod = ProductCode(code)
    g = code.generator
    n = code.length

    def member(seed):
        x = BitMat.from_bitrows([seed.getrandbits(3) for _ in range(3)], 3)
        return mat_mul(mat_mul(g, x), g.transpose())

    for _ in range(20):
        a, b = member(rng), member(rng)
        s = BitMat.from_bitrows([ra ^ rb for ra, rb in zip(a.row_bits, b.row_bits)], n)
        assert tensor_membership(prod, s)


def test_tensor_parity_check_kernel_dimension():
    for code in (simplex_generator(3), balanced_code(dim=2, eps=0.3, seed=9)):
        q = tensor_parity_check(code)
        assert q.cols == code.length**2
        assert q.cols - rank(q) == code.dim**2


def test_tensor_parity_check_matches_membership():
    rng = random.Random(4)
    code = simplex_generator(2)
    prod = ProductCode(code)
    q = tensor_parity_check(code)
    n = code.length
    for _ in range(200):
        y = BitMat.from_bitrows([rng.getrandbits(n) for _ in range(n)], n)
        flat = 0
        for i, row in enumerate(y.row_bits):
            flat |= row << (i * n)
        assert tensor_membership(prod, y) == mat_vec_mul(q, BitVec(n * n, flat)).is_zero()


def test_min_distance_trivial_codes():
    full = LinearCode.from_generator(BitMat.identity(4))
    assert min_distance(full) == 1
    rep = LinearCode.from_generator(BitMat.from_rows(["1", "1", "1"], 1))
    assert min_distance(rep) == 3
    assert min_distance(simplex_generator(3)) == 4


def test_min_distance_weight_cap_mode_agrees():
    rng = random.Random(8)
    for _ in range(10):
        gen = BitMat.from_bitrows([rng.getrandbits(4) for _ in range(10)], 4)
        if rank(gen) < 4:
            continue
        code_a = LinearCode.from_generator(gen)
        code_b = LinearCode.from_generator(gen)
        d = min_distance(code_a)
        assert min_distance(code_b, weight_cap=d) == d


def test_product_density_repetition_code():
    rep = LinearCode.from_generator(BitMat.from_rows(["1", "1", "1"], 1))
    ok, witness = product_density_check(rep)
    assert ok and witness is None  # both message matrices are filtered out


def test_product_density_random_codes():
    rng = random.Random(31)
    built = 0
    while built < 3:
        gen = BitMat.from_bitrows([rng.getrandbits(4) for _ in range(12)], 4)
        if rank(gen) != 4:
            continue
        built += 1
        code = LinearCode.from_generator(gen)
        d = min_distance(code)
        ok, witness = product_density_check(code)
        assert ok
        if witness is not None:
            w = sum(r.bit_count() for r in witness.row_bits)
            assert w >= math.ceil(1.5 * d * d)


def test_distribution_bias_uniform_and_constant():
    points = [BitVec(2, v) for v in range(4)]
    assert distribution_bias(points, 2) == 0.0
    assert distribution_bias([BitVec(3, 0)], 3) == 1.0


def test_distribution_bias_balanced_image():
    code = balanced_code(dim=8, eps=0.1, seed=17)
    r = bch_parity_check(15, 5)  # kernel distance 5: every <=3-sparse x has Rx != 0
    assert r.rows == 8
    b = mat_mul(code.generator, r)
    points = [b.row(i) for i in range(b.rows)]
    assert distribution_bias(points, 3) <= 2 * 0.1


def test_balance_walks_the_span_only_for_tries_whose_pairs_pass(monkeypatch):
    """Each generator column and each sum of two is checked on the drawn
    rows first; only the tries that pass those checks walk the span."""
    from sparsef2 import codes

    walks = []
    span_blocks = codes.span_blocks
    monkeypatch.setattr(codes, "span_blocks", lambda *args: walks.append(args) or span_blocks(*args))
    dim, eps, length = 4, 0.1, 14
    code = balanced_code(dim, eps, 0, length)
    lo, hi = (0.5 - eps) * length, (0.5 + eps) * length
    rng, passing = random.Random(0), 0
    while True:
        gen = BitMat.from_bitrows([rng.getrandbits(dim) for _ in range(length)], dim)
        cols = gen.col_bits()
        words = cols + [a ^ b for a, b in combinations(cols, 2)]
        passing += all(lo <= w.bit_count() <= hi for w in words)
        if gen == code.generator:
            break
    assert len(walks) == passing == 5


def oracle_balanced_rows(dim, eps, seed, schedule, tries):
    """The rows of the first try whose every nonzero codeword is balanced,
    the tries drawn one at a time (t rows of ``getrandbits(dim)`` each,
    ``tries`` per length t of ``schedule``) and their columns read one bit
    at a time; None if no try passes."""
    rng = random.Random(seed)
    for t in schedule:
        lo, hi = (0.5 - eps) * t, (0.5 + eps) * t
        for _ in range(tries):
            rows = [rng.getrandbits(dim) for _ in range(t)]
            cols = [sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(dim)]
            weights = []
            for msg in range(1, 1 << dim):
                word = 0
                for j in range(dim):
                    if msg >> j & 1:
                        word ^= cols[j]
                weights.append(word.bit_count())
            if lo <= min(weights) and max(weights) <= hi:
                return rows
    return None


@pytest.mark.parametrize(
    "dim, eps, length, tries",
    [(4, 0.1, 14, 2000), (3, 0.2, 9, 2000), (8, 0.2, 78, 2000), (2, 0.05, 6, 2000), (4, 0.1, None, 7), (8, 0.2, None, 60)],
)
def test_balanced_code_accepts_the_first_passing_try(monkeypatch, dim, eps, length, tries):
    """Batched draws and column checks accept the same try as a loop over
    single tries, at a given length (2000 tries, some seeds exhausting them)
    and along the length schedule (tries per length cut to 7 to cross it)."""
    from sparsef2 import codes

    monkeypatch.setattr(codes, "BALANCE_TRIES", tries)
    if length is None:
        t_max = math.ceil(codes.BALANCE_LENGTH_FACTOR * dim / eps**3)
        t = min(t_max, max(dim, math.ceil(math.log(2 ** (dim + 1)) / (2 * eps * eps))))
        schedule = [t]
        while t < t_max:
            t = min(t_max, max(t + 1, int(t * 1.3)))
            schedule.append(t)
    else:
        schedule = [length]
    for seed in range(6):
        want = oracle_balanced_rows(dim, eps, seed, schedule, tries)
        try:
            got = balanced_code(dim, eps, seed, length).generator.row_bits
        except GenerationError:
            got = None
        assert got == (None if want is None else tuple(want))
