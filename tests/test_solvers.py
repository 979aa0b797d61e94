"""Solver behavior and cross-oracle agreement on seeded random instances."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsef2 import _search, solvers
from sparsef2.codes import min_distance, simplex_generator
from sparsef2.errors import ResourceError
from sparsef2.f2 import BitMat, BitVec
from sparsef2.instances import EvenSetInstance, PointValueSet, VectorSumInstance
from sparsef2.solvers import (
    ParityForm,
    best_junta_agreement,
    best_parity_agreement,
    evenset_min_weight,
    parity_agreement,
    poly_agreement_bound,
    solve_bfs,
    solve_exhaustive,
    solve_mitm,
)


SETTINGS = settings(max_examples=40, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])


def random_instance(rng, rows_max=8, cols_max=12, k_max=4):
    rows = rng.randrange(1, rows_max + 1)
    cols = rng.randrange(1, cols_max + 1)
    m = BitMat.from_bitrows([rng.getrandbits(cols) for _ in range(rows)], cols)
    b = BitVec(rows, rng.getrandbits(rows))
    return VectorSumInstance(m, b, rng.randrange(1, k_max + 1))


def test_exhaustive_identity_cases():
    inst = VectorSumInstance(BitMat.identity(2), BitVec.from01("11"), 2)
    rep = solve_exhaustive(inst)
    assert rep.feasible and rep.weight == 2 and rep.witness == BitVec.from01("11")
    rep1 = solve_exhaustive(VectorSumInstance(BitMat.identity(2), BitVec.from01("11"), 1))
    assert not rep1.feasible


def test_zero_target_convention():
    # x = 0 solves Mx = 0, so b = 0 instances are feasible at weight 0. The
    # searches enumerate no vector for it; BFS still fills its (3 + 1) * 2^2 table.
    m = BitMat.from_rows(["10", "01", "00"]).transpose()
    for solve, work in ((solve_exhaustive, 0), (solve_mitm, 0), (solve_bfs, 16)):
        rep = solve(VectorSumInstance(m, BitVec.zeros(2), 1))
        assert rep.feasible and rep.weight == 0 and rep.witness.is_zero() and rep.work == work


def test_bfs_identity_infeasible_at_k1():
    rep = solve_bfs(VectorSumInstance(BitMat.identity(2), BitVec.from01("11"), 1))
    assert not rep.feasible


def test_bfs_returns_the_lex_least_witness():
    """A 6 x 10 system whose minimum-weight solutions tie; a shortest path
    through the syndrome space found 1000010001."""
    m = BitMat.from_bitrows([807, 214, 96, 499, 29, 914], 10)
    rep = solve_bfs(VectorSumInstance(m, BitVec.from01("101011"), 3))
    assert (rep.feasible, rep.weight, rep.witness) == (True, 3, BitVec.from01("0101001000"))


def test_unreachable_target_infeasible_with_k_above_rows():
    """The columns span only the first row, so 01 is unreachable at any k,
    including k above the 2 rows (BFS's "unreachable" mark is rows + 1 = 3)."""
    m = BitMat.from_rows(["111", "000"])
    for solve in (solve_exhaustive, solve_mitm, solve_bfs):
        rep = solve(VectorSumInstance(m, BitVec.from01("01"), 5))
        assert (rep.feasible, rep.weight, rep.witness) == (False, None, None)


def test_exhaustive_lex_least_among_minimal():
    # Both columns 0+1 and column 2 alone hit the target; weight 1 wins; among
    # weight-1 ties the lex-least 01-string (latest support) wins.
    m = BitMat.from_cols([0b01, 0b10, 0b11, 0b11], 2)
    rep = solve_exhaustive(VectorSumInstance(m, BitVec.from01("11"), 2))
    assert rep.weight == 1
    assert rep.witness == BitVec.from01("0001")


def test_three_way_agreement_random():
    rng = random.Random(2024)
    for _ in range(150):
        inst = random_instance(rng)
        ground = brute_force_lex_least(inst.m.col_bits(), inst.m.rows, inst.b.bits, inst.k)
        for rep in (solve_exhaustive(inst), solve_mitm(inst), solve_bfs(inst)):
            assert (rep.feasible, rep.weight, rep.witness) == ((False, None, None) if ground is None else (True, *ground))


def brute_force_lex_least(cols, rows, b, k):
    """(weight, witness) of the lightest x with Mx = b and |x| <= k, the
    lex-least 01 string among ties; None if there is none."""
    n = len(cols)
    for w in range(min(k, n) + 1):
        hits = [sub for sub in combinations(range(n), w) if _xor(cols[j] for j in sub) == b]
        if hits:
            return w, min((BitVec.from_support(n, sub) for sub in hits), key=BitVec.to01)
    return None


def _xor(values):
    acc = 0
    for v in values:
        acc ^= v
    return acc


@st.composite
def vectorsum_systems(draw, min_rows, max_rows, max_n=12, max_k=5):
    """(columns, rows, target, k) with the target's lowest set bit at 0, 63,
    65 or the top row when the rows allow it, sometimes zero, and a few
    planted short solutions."""
    rows = draw(st.integers(min_rows, max_rows))
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, max_k))
    cols = [draw(st.integers(0, (1 << rows) - 1)) for _ in range(n)]
    low = draw(st.sampled_from([None] + [bit for bit in (0, 63, 65, rows - 1) if bit < rows]))
    b = 0 if low is None else draw(st.integers(0, (1 << (rows - low - 1)) - 1)) << (low + 1) | 1 << low
    for _ in range(draw(st.integers(0, 2))):
        picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=k, unique=True))
        cols[picked[0]] = b ^ _xor(cols[j] for j in picked[1:])
    return cols, rows, b, k


def assert_solvers_match_brute_force(cols, rows, b, k):
    inst = VectorSumInstance(BitMat.from_cols(cols, rows), BitVec(rows, b), k)
    ground = brute_force_lex_least(cols, rows, b, k)
    for solve in (solve_mitm, solve_exhaustive, solve_bfs) if rows <= 16 else (solve_mitm, solve_exhaustive):
        rep = solve(inst)
        assert (rep.feasible, rep.weight, rep.witness) == ((False, None, None) if ground is None else (True, *ground))


@SETTINGS
@given(st.one_of(vectorsum_systems(1, 6), vectorsum_systems(1, 64)))
def test_solvers_match_brute_force_short_syndromes(system):
    """Up to 64 rows; few rows give many solutions of the same weight."""
    assert_solvers_match_brute_force(*system)


@SETTINGS
@given(vectorsum_systems(65, 200))
def test_solvers_match_brute_force_compressed_syndromes(system):
    assert_solvers_match_brute_force(*system)


@SETTINGS
@given(vectorsum_systems(1, 100, max_n=9, max_k=4))
def test_solvers_recheck_every_key_collision(system):
    """With a compression that maps every column and the target to one key,
    every subset collides and only the exact re-check separates answers."""
    with mock.patch.object(_search, "_keys64", lambda c: np.zeros(len(c), dtype=np.uint64)):
        assert_solvers_match_brute_force(*system)


@SETTINGS
@given(st.one_of(vectorsum_systems(1, 8, max_n=14), vectorsum_systems(60, 100, max_n=14)), st.sampled_from([1, 3, 7]))
def test_solvers_match_brute_force_in_small_chunks(system, block):
    """Layers streamed in chunks of a few keys, so ranks and adjacent pairs
    cross chunk boundaries."""
    with mock.patch.object(_search, "_BLOCK", block):
        assert_solvers_match_brute_force(*system)


@SETTINGS
@given(vectorsum_systems(1, 12, max_n=10), st.sampled_from([0, 1, 3]))
def test_bfs_matches_brute_force_in_small_blocks(system, bits):
    """Syndrome blocks of 1, 2 and 8 entries, so the high bits of a column
    move whole blocks and the low bits permute inside them."""
    with mock.patch.object(solvers, "_BFS_BLOCK_BITS", bits):
        assert_solvers_match_brute_force(*system)


def test_solvers_lex_least_among_many_solutions():
    """3-6 rows and 14-18 columns: many solutions share the minimum weight."""
    rng = random.Random(5)
    for _ in range(60):
        rows, n = rng.randint(3, 6), rng.randint(14, 18)
        assert_solvers_match_brute_force([rng.getrandbits(rows) for _ in range(n)], rows, rng.getrandbits(rows), 4)


def test_solvers_agree_with_bfs_on_large_instances():
    """60 columns at k = 4 (523,686 exhaustive states) and 100 columns at
    k = 6 (166,751 entries in the largest join layers), against BFS over the
    2^12 syndromes; all three return the same witness."""
    rng = random.Random(99)
    for _ in range(3):
        for cols, k in ((60, 4), (100, 6)):
            m = BitMat.from_bitrows([rng.getrandbits(cols) for _ in range(12)], cols)
            inst = VectorSumInstance(m, BitVec(12, rng.getrandbits(12)), k)
            ground = solve_bfs(inst)
            rep = solve_mitm(inst)
            assert (rep.feasible, rep.weight, rep.witness) == (ground.feasible, ground.weight, ground.witness)
            if cols == 60:
                assert solve_exhaustive(inst).witness == rep.witness


def test_resource_caps():
    m = BitMat.zeros(2, 60)
    inst = VectorSumInstance(m, BitVec.from01("11"), 5)
    with pytest.raises(ResourceError):
        solve_exhaustive(inst, cap=100)
    with pytest.raises(ResourceError):
        solve_mitm(inst, cap=10)
    with pytest.raises(ResourceError):
        solve_bfs(VectorSumInstance(BitMat.zeros(30, 3), BitVec.zeros(30) ^ BitVec.unit(30, 0), 2), cap=1000)


def test_bfs_refuses_before_allocating_the_table():
    """30 rows and 3 columns need 4 * 2^30 table entries, over the default cap."""
    inst = VectorSumInstance(BitMat.zeros(30, 3), BitVec.unit(30, 0), 2)
    with mock.patch.object(np, "full", side_effect=AssertionError("table allocated")):
        with pytest.raises(ResourceError, match=f"predicted work {4 << 30} exceeds cap 80000000"):
            solve_bfs(inst)


def test_bfs_holds_no_index_per_syndrome():
    """20 rows and 3 columns: besides the (n + 1) * 2^m byte table, the DP may
    hold two bytes per syndrome and 1 MB, not an 8-byte index per syndrome."""
    rng = random.Random(20)
    m, n = 20, 3
    inst = VectorSumInstance(BitMat.from_bitrows([rng.getrandbits(n) for _ in range(m)], n), BitVec(m, rng.getrandbits(m)), n)
    tracemalloc.start()
    try:
        solve_bfs(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ((n + 1) << m) + (2 << m) + (1 << 20)


def test_evenset_small_kernel():
    m = BitMat.from_rows(["110", "011"])
    rep = evenset_min_weight(EvenSetInstance(m, 3))
    assert rep.feasible and rep.weight == 3 and rep.witness == BitVec.from01("111")
    rep2 = evenset_min_weight(EvenSetInstance(m, 2))
    assert not rep2.feasible and rep2.weight == 3


def test_evenset_identity_infeasible():
    rep = evenset_min_weight(EvenSetInstance(BitMat.identity(4), 4))
    assert not rep.feasible and rep.witness is None


def test_evenset_matches_simplex_distance():
    code = simplex_generator(3)
    h = code.require_parity_check()
    rep = evenset_min_weight(EvenSetInstance(h, 7))
    assert rep.weight == 4 == min_distance(code)


def test_evenset_matches_min_distance_random_codes():
    from sparsef2.codes import LinearCode
    from sparsef2.f2 import rank

    rng = random.Random(41)
    done = 0
    while done < 10:
        gen = BitMat.from_bitrows([rng.getrandbits(4) for _ in range(10)], 4)
        if rank(gen) != 4:
            continue
        done += 1
        code = LinearCode.from_generator(gen)
        d = min_distance(code)
        rep = evenset_min_weight(EvenSetInstance(code.require_parity_check(), 10))
        assert rep.weight == d


def test_evenset_sparse_mode_agrees():
    rng = random.Random(3)
    for _ in range(10):
        m = BitMat.from_bitrows([rng.getrandbits(9) for _ in range(5)], 9)
        full = evenset_min_weight(EvenSetInstance(m, 9))
        if full.weight is None:
            continue
        with mock.patch.object(solvers, "FULL_ENUM_DIM", 0):
            sparse = evenset_min_weight(EvenSetInstance(m, 9), sparse_cap=full.weight)
        assert sparse.weight == full.weight


XOR_TABLE = PointValueSet(
    points=tuple(BitVec.from01(s) for s in ("00", "10", "01", "11")),
    values=(0, 1, 1, 0),
)


def test_parity_agreement_xor():
    form, frac = best_parity_agreement(XOR_TABLE, 1)
    assert frac == Fraction(1, 2)
    form2, frac2 = best_parity_agreement(XOR_TABLE, 2)
    assert frac2 == 1 and form2.coeffs == BitVec.from01("11")


def test_parity_agreement_planted():
    rng = random.Random(6)
    n = 8
    planted = BitVec.from_support(n, (1, 5))
    points = [BitVec(n, rng.getrandbits(n)) for _ in range(40)]
    pv = PointValueSet(tuple(points), tuple(planted.dot(z) for z in points))
    form, frac = best_parity_agreement(pv, 2, homogeneous_only=True)
    assert frac == 1
    assert parity_agreement(pv, ParityForm(planted)) == 1


def test_junta_agreement_xor():
    assert best_junta_agreement(XOR_TABLE, 1) == Fraction(1, 2)
    assert best_junta_agreement(XOR_TABLE, 2) == 1


def test_junta_at_least_parity():
    rng = random.Random(9)
    for _ in range(10):
        n = 6
        points = tuple(BitVec(n, rng.getrandbits(n)) for _ in range(30))
        pv = PointValueSet(points, tuple(rng.getrandbits(1) for _ in range(30)))
        _, pf = best_parity_agreement(pv, 2)
        assert best_junta_agreement(pv, 2) >= pf


def test_poly_agreement_uniform_points():
    points = [BitVec(3, v) for v in range(8)]
    _, adv = poly_agreement_bound(points, 3, 2)
    assert adv == 0


def test_poly_agreement_planted_parity_kernel():
    n = 4
    planted = BitVec.from_support(n, (0, 2))
    points = [BitVec(n, v) for v in range(16) if planted.dot(BitVec(n, v)) == 0]
    poly, adv = poly_agreement_bound(points, 2, 1)
    assert adv == Fraction(1, 2)


def test_poly_degree1_matches_parity_advantage():
    rng = random.Random(12)
    n = 5
    points = [BitVec(n, rng.getrandbits(n)) for _ in range(25)]
    _, adv = poly_agreement_bound(points, 2, 1)
    # Degree-1 advantage equals the best zero-agreement of a parity minus its
    # uniform zero probability; cross-check by direct enumeration.
    best = Fraction(0)
    for w in range(1, 3):
        for sub in combinations(range(n), w):
            mask = BitVec.from_support(n, sub)
            frac0 = Fraction(sum(1 for z in points if mask.dot(z) == 0), len(points))
            best = max(best, frac0 - Fraction(1, 2))
    # Also the constant-1 polynomial and parity+1 variants.
    for w in range(1, 3):
        for sub in combinations(range(n), w):
            mask = BitVec.from_support(n, sub)
            frac0 = Fraction(sum(1 for z in points if mask.dot(z) == 1), len(points))
            best = max(best, frac0 - Fraction(1, 2))
    assert adv == best


def test_work_counters_positive():
    inst = VectorSumInstance(BitMat.identity(3), BitVec.from01("101"), 2)
    for solve in (solve_exhaustive, solve_mitm, solve_bfs):
        assert solve(inst).work > 0
