"""Degree-d fooling points: shift semantics and the amplified bias contract."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsef2.codes import bch_parity_check, distribution_bias
from sparsef2.errors import ResourceError
from sparsef2.f2 import BitMat
from sparsef2.instances import EvenSetInstance
from sparsef2.reductions import evenset_to_fooling_points, fooling_points_with_generator, viola_shift
from sparsef2.solvers import poly_agreement_bound


def test_viola_shift_degree_one_is_identity():
    points = BitMat.from_rows(["10", "01"])
    assert viola_shift(points, 1) == points


def test_viola_shift_ordered_pairs_multiset():
    shifted = viola_shift(BitMat.from_rows(["10", "01"]), 2)
    counts = Counter(shifted.row(i).to01() for i in range(shifted.rows))
    assert counts == {"00": 2, "11": 2}


def test_viola_shift_cap_and_sampling():
    points = BitMat.from_bitrows(range(10), 4)
    with pytest.raises(ResourceError):
        viola_shift(points, 3, cap=100)
    sample = viola_shift(points, 3, sample_count=64, seed=5)
    assert sample.rows == 64
    assert sample == viola_shift(points, 3, sample_count=64, seed=5)


def oracle_shift(rows, d, sample_count=None, seed=0):
    """The shifted rows as ints, summed one tuple at a time: all ordered
    d-tuples in ``itertools.product`` order, or ``sample_count`` tuples of
    ``random.Random(seed).randrange`` draws, d per tuple."""
    if sample_count is None:
        tuples = product(rows, repeat=d)
    else:
        rng = random.Random(seed)
        tuples = ([rows[rng.randrange(len(rows))] for _ in range(d)] for _ in range(sample_count))
    out = []
    for tup in tuples:
        acc = 0
        for r in tup:
            acc ^= r
        out.append(acc)
    return out


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from([1, 5, 63, 64, 65, 130]).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=9))
    ),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, 40)),
    st.integers(0, 10**6),
)
def test_viola_shift_matches_the_tuple_loop(case, d, sample_count, seed):
    n, rows = case
    shifted = viola_shift(BitMat.from_bitrows(rows, n), d, sample_count=sample_count, seed=seed)
    assert shifted == BitMat.from_bitrows(oracle_shift(rows, d, sample_count, seed), n)


def test_viola_shift_checks_the_cap_before_the_broadcast():
    points = BitMat.from_bitrows(range(10), 4)
    assert viola_shift(points, 3, cap=1000).rows == 1000
    with pytest.raises(ResourceError, match="1000 ordered 3-tuples exceed cap 999"):
        viola_shift(points, 3, cap=999)


def test_identity_generator_gives_instance_rows():
    m = bch_parity_check(9, 3)
    points = fooling_points_with_generator(m, BitMat.identity(m.rows), 1)
    assert points == m


def test_kernel_parity_vanishes_on_all_points():
    # Any parity in the row space's kernel evaluates to 0 on every shifted point.
    m = bch_parity_check(15, 5)
    inst = EvenSetInstance(m, 5)
    points = evenset_to_fooling_points(inst, eps=0.1, d=2, seed=3, sample_count=400)
    from sparsef2.f2 import nullspace_basis

    kernel = nullspace_basis(m)
    assert kernel
    for vec in kernel[:3]:
        assert all(vec.dot(points.row(i)) == 0 for i in range(points.rows))


def test_bias_contract_after_shift():
    # Instance rows fool <=3-variable parities with measured bias; after the
    # degree-2 shift, every degree-2 polynomial on <=3 variables has advantage
    # at most 16 * sqrt(bias).
    m = bch_parity_check(15, 5)
    code_points = fooling_points_with_generator(m, _balanced(m.rows, 0.1, seed=21), 1)
    eps = distribution_bias(code_points, 3)
    assert eps <= 2 * 0.1
    shifted = viola_shift(code_points, 2, cap=10**6)
    _, adv = poly_agreement_bound(shifted, 3, 2)
    assert adv <= 16 * (eps ** 0.5)


def _balanced(dim, eps, seed):
    from sparsef2.codes import balanced_code

    return balanced_code(dim, eps, seed).generator
