"""Differential tests of the search core against brute force: kernel
meet-in-the-middle, blocked span enumeration and the product density check."""

import math
import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sparsef2 import _search
from sparsef2._search import colex_unrank, mitm_kernel_min_weight, span_min_weight
from sparsef2.codes import LinearCode, product_density_check, simplex_generator
from sparsef2.errors import ResourceError
from sparsef2.f2 import BitMat, BitVec, rank

SETTINGS = settings(max_examples=40, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])


def brute_kernel_min_weight(cols, n, cap):
    work = 0
    for w in range(1, cap + 1):
        work += math.comb(n, (w + 1) // 2) + math.comb(n, w // 2)
        hits = [BitVec.from_support(n, s) for s in combinations(range(n), w) if _xor(cols[j] for j in s) == 0]
        if hits:
            return w, min(hits, key=BitVec.lex_key), work
    return None


def linear_scan_colex_unrank(rank, w):
    """colex_unrank by a linear scan over c for each element."""
    out = []
    for i in range(w, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= rank:
            c += 1
        out.append(c)
        rank -= math.comb(c, i)
    return tuple(reversed(out))


def test_colex_unrank_matches_linear_scan():
    for n in range(13):
        for w in range(6):
            colex = sorted(combinations(range(n), w), key=lambda s: s[::-1])
            for rank, subset in enumerate(colex):
                assert colex_unrank(rank, w) == linear_scan_colex_unrank(rank, w) == subset


def brute_span_min_weight(basis, n):
    elements = [0]
    for b in basis:
        elements += [e ^ b for e in elements]
    elements = elements[1:]
    if not elements:
        return None
    best = min(e.bit_count() for e in elements)
    return best, min((e for e in elements if e.bit_count() == best), key=lambda e: BitVec(n, e).lex_key())


def _xor(values):
    acc = 0
    for v in values:
        acc ^= v
    return acc


@st.composite
def column_systems(draw, max_n, max_rows):
    """Columns of a random system, with a few planted short dependencies;
    few rows give many kernel vectors of the same weight."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.one_of(st.integers(1, 6), st.integers(1, max_rows)))
    cols = [draw(st.integers(0, (1 << rows) - 1)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True))
        cols[picked[0]] = _xor(cols[j] for j in picked[1:])
    return cols, n


@SETTINGS
@given(column_systems(max_n=18, max_rows=64), st.integers(1, 5))
def test_kernel_mitm_matches_brute_force_short_syndromes(system, cap):
    cols, n = system
    assert mitm_kernel_min_weight(cols, n, cap) == brute_kernel_min_weight(cols, n, cap)


@SETTINGS
@given(column_systems(max_n=18, max_rows=200), st.integers(1, 5))
def test_kernel_mitm_matches_brute_force_compressed_syndromes(system, cap):
    cols, n = system
    assert mitm_kernel_min_weight(cols, n, cap) == brute_kernel_min_weight(cols, n, cap)


@SETTINGS
@given(column_systems(max_n=72, max_rows=100), st.integers(1, 3))
def test_kernel_mitm_matches_brute_force_many_columns(system, cap):
    cols, n = system
    assert mitm_kernel_min_weight(cols, n, cap) == brute_kernel_min_weight(cols, n, cap)


@SETTINGS
@given(column_systems(max_n=14, max_rows=100), st.integers(1, 5), st.sampled_from([1, 3, 7]))
def test_kernel_mitm_matches_brute_force_in_small_chunks(system, cap, block):
    cols, n = system
    with mock.patch.object(_search, "_BLOCK", block):
        assert mitm_kernel_min_weight(cols, n, cap) == brute_kernel_min_weight(cols, n, cap)


def test_kernel_mitm_lex_least_among_many_solutions():
    """6-8 rows and 12-18 columns: many kernel vectors share the minimum
    weight, spread over many join keys."""
    rng = random.Random(7)
    for _ in range(200):
        rows, n, cap = rng.randint(6, 8), rng.randint(12, 18), rng.randint(3, 4)
        cols = [rng.getrandbits(rows) for _ in range(n)]
        assert mitm_kernel_min_weight(cols, n, cap) == brute_kernel_min_weight(cols, n, cap)


@SETTINGS
@given(column_systems(max_n=10, max_rows=100), st.integers(1, 5))
def test_kernel_mitm_rechecks_every_key_collision(system, cap):
    """With a compression that maps every column to one key, every pair of
    subsets collides and only the exact re-check separates the answers."""
    cols, n = system
    with mock.patch.object(_search, "_keys64", lambda c: np.zeros(len(c), dtype=np.uint64)):
        assert mitm_kernel_min_weight(cols, n, cap) == brute_kernel_min_weight(cols, n, cap)


@st.composite
def independent_bases(draw, max_dim):
    n = draw(st.sampled_from([1, 5, 30, 64, 65, 130]))
    dim = draw(st.integers(0, min(n, max_dim)))
    basis = [draw(st.integers(1, (1 << n) - 1)) for _ in range(dim)]
    assume(not basis or rank(BitMat.from_cols(basis, n)) == dim)
    return basis, n


@SETTINGS
@given(independent_bases(max_dim=7), st.sampled_from([1, 3, 16]))
def test_span_min_weight_matches_brute_force(system, low_generators):
    """Small low tables put most generators in the Gray-code walk."""
    basis, n = system
    with mock.patch.object(_search, "_LOW_GENERATORS", low_generators):
        assert span_min_weight(basis, n) == brute_span_min_weight(basis, n)


@pytest.mark.parametrize("dim", [15, 16, 17])
@pytest.mark.parametrize("n", [40, 100])
def test_span_min_weight_around_the_block_size(dim, n):
    rng = random.Random(dim * n)
    while True:
        basis = [rng.getrandbits(n) for _ in range(dim)]
        if rank(BitMat.from_cols(basis, n)) == dim:
            break
    assert span_min_weight(basis, n) == brute_span_min_weight(basis, n)


def reference_density(code):
    """All 2^(k^2) messages X, members Y = G X G^T filtered one by one."""
    k, n = code.dim, code.length
    grows = code.generator.row_bits
    best = None
    for x in range(1, 1 << (k * k)):
        rows = []
        for r in range(n):
            acc = 0
            for s in range(n):
                bit = 0
                for a in range(k):
                    for b in range(k):
                        bit ^= (grows[r] >> a) & (x >> (a * k + b)) & (grows[s] >> b) & 1
                acc |= bit << s
            rows.append(acc)
        symmetric = all((rows[r] >> s & 1) == (rows[s] >> r & 1) for r in range(n) for s in range(n))
        if not any(rows) or not symmetric or any(rows[r] >> r & 1 for r in range(n)):
            continue
        key = (sum(r.bit_count() for r in rows), tuple(BitVec(n, r).lex_key() for r in rows), rows)
        best = key if best is None or key < best else best
    return best


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 8), st.randoms(use_true_random=False))
def test_product_density_matches_reference_loop(k, extra, rnd):
    n = k + extra
    gen = BitMat.from_bitrows([rnd.getrandbits(k) for _ in range(n)], k)
    assume(rank(gen) == k)
    code = LinearCode.from_generator(gen)
    ok, witness = product_density_check(code)
    best = reference_density(code)
    if best is None:
        assert (ok, witness) == (True, None)
    else:
        assert witness == BitMat.from_bitrows(best[2], n)
        assert ok == (best[0] >= math.ceil(1.5 * code.dist_cert.d**2))


def test_product_density_cap_counts_the_span_members():
    """The cap bounds the 2^C(k, 2) - 1 nonzero members the check enumerates,
    not the 2^(k^2) message matrices: k = 5 and 6 fit the default 2^20."""
    for k in (5, 6):
        code = simplex_generator(k)
        assert product_density_check(code) == product_density_check(code, cap=(1 << math.comb(k, 2)) - 1)
        with pytest.raises(ResourceError, match=f"predicted work {(1 << math.comb(k, 2)) - 1} exceeds cap"):
            product_density_check(code, cap=(1 << math.comb(k, 2)) - 2)
    with pytest.raises(ResourceError):
        product_density_check(LinearCode.from_generator(BitMat.identity(7)))
