"""The learning and fooling oracles against the Python loops they replaced.

``best_parity_agreement``, ``best_junta_agreement``, ``poly_agreement_bound``
and ``codes.distribution_bias`` reduce the projected-pattern histograms of
``_search.pattern_counts``. The ``oracle_*`` functions below are the loops
over supports x points they replaced, kept as the reference: values, the
returned ``ParityForm`` and the returned ``Poly`` must match exactly,
including every tie-break.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsef2 import _search, codes, solvers
from sparsef2.codes import distribution_bias
from sparsef2.errors import ResourceError
from sparsef2.f2 import BitMat, BitVec
from sparsef2.instances import PointValueSet
from sparsef2.solvers import ParityForm, Poly, best_junta_agreement, best_parity_agreement, poly_agreement_bound


def _mask(sub) -> int:
    return sum(1 << i for i in sub)


def _project(z: int, sub) -> int:
    return sum(((z >> i) & 1) << pos for pos, i in enumerate(sub))


def oracle_parity(pv: PointValueSet, k: int, homogeneous_only: bool = False):
    n, m = pv.dim, len(pv)
    pts = [(z.bits, b) for z, b in pv.pairs()]
    best = None
    for w in range(min(k, n) + 1):
        for sub in combinations(range(n), w):
            mask = _mask(sub)
            hits = sum(1 for z, b in pts if ((mask & z).bit_count() & 1) == b)
            options = [(Fraction(hits, m), ParityForm(BitVec(n, mask), 0))]
            if not homogeneous_only:
                options.append((Fraction(m - hits, m), ParityForm(BitVec(n, mask), 1)))
            for frac, form in options:
                if best is None or frac > best[0]:
                    best = (frac, form)
    return best[1], best[0]


def oracle_junta(pv: PointValueSet, k: int) -> Fraction:
    n, m = pv.dim, len(pv)
    pts = [(z.bits, b) for z, b in pv.pairs()]
    best = Fraction(0)
    for sub in combinations(range(n), min(k, n)):
        counts: dict[int, list[int]] = {}
        for z, b in pts:
            counts.setdefault(_project(z, sub), [0, 0])[b] += 1
        best = max(best, Fraction(sum(max(c) for c in counts.values()), m))
    return best


def oracle_poly(points: list[BitVec], k: int, d: int):
    n, m = points[0].n, len(points)
    keff = min(k, n)
    size = 1 << keff
    monos = [mo for deg in range(1, d + 1) for mo in combinations(range(keff), deg)]
    # Truth table of each monomial over the 2^keff patterns, packed in an int.
    mono_tt = [sum(1 << p for p in range(size) if p & _mask(mo) == _mask(mo)) for mo in monos]
    full = (1 << size) - 1
    best = None
    for sub in combinations(range(n), keff):
        counts = [0] * size
        for p in points:
            counts[_project(p.bits, sub)] += 1
        for coeffs in range(1, 1 << (len(monos) + 1)):
            tt = full if coeffs & 1 else 0  # low bit = constant term
            for b in range(len(monos)):
                if coeffs >> (b + 1) & 1:
                    tt ^= mono_tt[b]
            zeros = [p for p in range(size) if not tt >> p & 1]
            advantage = Fraction(sum(counts[p] for p in zeros), m) - Fraction(len(zeros), size)
            if best is None or advantage > best[0]:
                chosen = tuple(tuple(sub[i] for i in monos[b]) for b in range(len(monos)) if coeffs >> (b + 1) & 1)
                best = (advantage, Poly(n, chosen, coeffs & 1))
    return best[1], best[0]


def oracle_bias(points: list[BitVec], support_cap: int) -> float:
    n, m = points[0].n, len(points)
    pts = [p.bits for p in points]
    worst = 0.0
    for w in range(1, min(support_cap, n) + 1):
        for sub in combinations(range(n), w):
            odd = sum((_mask(sub) & z).bit_count() & 1 for z in pts)
            worst = max(worst, abs(m - 2 * odd) / m)
    return worst


@st.composite
def point_sets(draw, long: bool = True):
    """(n, k, points as ints, labels): lengths up to 7 with any k, including
    k >= n, and lengths across the word boundary with k <= 2; duplicates
    drawn often, labels random or all equal."""
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7] + ([63, 65] if long else [])))
    k = draw(st.integers(0, n + 2) if n <= 7 else st.integers(0, 2))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    value = st.integers(0, (1 << n) - 1)
    points = draw(st.lists(st.one_of(st.sampled_from(pool), value), min_size=1, max_size=20))
    labels = draw(
        st.one_of(
            st.just([0] * len(points)),
            st.just([1] * len(points)),
            st.lists(st.integers(0, 1), min_size=len(points), max_size=len(points)),
        )
    )
    return n, k, points, labels


def assert_oracles_match(n, k, points, labels, degrees=(1, 2)):
    vecs = [BitVec(n, p) for p in points]
    pv = PointValueSet(tuple(vecs), tuple(labels))
    for homogeneous_only in (False, True):
        assert best_parity_agreement(pv, k, homogeneous_only) == oracle_parity(pv, k, homogeneous_only)
    assert best_junta_agreement(pv, k) == oracle_junta(pv, k)
    # The point oracles take a BitMat, or a list of BitVecs converted at entry.
    mat = BitMat.from_bitrows(points, n)
    assert distribution_bias(vecs, k) == distribution_bias(mat, k) == oracle_bias(vecs, k)
    for d in degrees:
        # The Python loop walks 2^(monomials + 1) polynomials per support.
        if sum(comb(min(k, n), i) for i in range(1, d + 1)) <= 7:
            assert poly_agreement_bound(vecs, k, d) == poly_agreement_bound(mat, k, d) == oracle_poly(vecs, k, d)


@settings(max_examples=120, deadline=None, database=None)
@given(point_sets())
def test_oracles_match_the_python_loops(case):
    n = case[0]
    # Over 64 coordinates the polynomials run at degree 1 (C(65, 2) supports).
    assert_oracles_match(*case, degrees=(1, 2) if n <= 7 else (1,))


def test_oracles_match_the_python_loops_across_the_word_boundary():
    rows = [1 << 64 | 1 << 63, 1 << 64, 1 << 63, 0, 1 << 64 | 1 << 63 | 1, 1 << 64 | 1 << 63, 5]
    assert_oracles_match(66, 2, rows, [1, 1, 0, 0, 1, 1, 0])


@pytest.mark.parametrize("block", [1, 9])
@settings(max_examples=20, deadline=None, database=None)
@given(case=point_sets(long=False))
def test_oracles_match_the_python_loops_in_small_blocks(block, case):
    """Blocks of one or a few supports (and of zero sets, for the
    polynomials) keep the first best support and the lowest coefficients."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_search, "_BLOCK", block)
        patch.setattr(solvers, "_BLOCK", block)
        assert_oracles_match(*case)


def test_ties_go_to_the_first_support_then_constant_zero():
    # Every point equal: each parity agrees on all pairs or on none, and every
    # junta agrees on all of them.
    pv = PointValueSet(tuple(BitVec(4, 0b0110) for _ in range(5)), (1,) * 5)
    form, frac = best_parity_agreement(pv, 2)
    assert (form, frac) == (ParityForm(BitVec(4, 0), 1), 1)
    form, frac = best_parity_agreement(pv, 2, homogeneous_only=True)
    assert (form, frac) == (ParityForm(BitVec(4, 0b0010), 0), 1)
    assert best_junta_agreement(pv, 2) == 1
    poly, adv = poly_agreement_bound(list(pv.points), 2, 2)
    assert (poly, adv) == oracle_poly(list(pv.points), 2, 2)
    # 1 + x1 + x0 x1 vanishes on the pattern x0 = 0, x1 = 1 only, on every
    # support of two coordinates that differ; the first such support wins.
    assert poly == Poly(4, ((1,), (0, 1)), 1) and adv == Fraction(3, 4)


def test_pattern_counts_match_a_direct_count():
    rows = [0b1011, 0b1011, 0b0001, 1 << 69 | 0b1000, 1 << 69 | 0b1000, 0]
    labels = (1, 1, 0, 1, 0, 0)
    words, counts, lab = _search.distinct_rows(rows, 70, labels)
    assert sorted(counts.tolist()) == [1, 1, 1, 1, 2]
    seen = []
    for supports, hist in _search.pattern_counts(words, counts, 70, 2, lab):
        for sub, h in zip(supports.tolist(), hist.tolist()):
            want = [[0, 0] for _ in range(4)]
            for r, b in zip(rows, labels):
                want[_project(r, sub)][b] += 1
            assert h == want
            seen.append(tuple(sub))
    assert seen == list(combinations(range(70), 2))


def _refuse(*args, **kwargs):
    raise AssertionError("the kernel ran before the cap was checked")


@pytest.mark.parametrize("module", [solvers, codes])
def test_caps_refuse_before_the_kernel_runs(monkeypatch, module):
    """At one below each predicted count the oracle refuses with its message
    and nothing is packed or counted; at the count itself it goes on."""
    monkeypatch.setattr(module, "distinct_rows", _refuse)
    monkeypatch.setattr(module, "pattern_counts", _refuse)
    n, m = 5, 6
    vecs = [BitVec(n, v) for v in range(m)]
    pv = PointValueSet(tuple(vecs), (0, 1) * 3)
    if module is solvers:
        forms = sum(comb(n, w) for w in range(3))
        cases = [
            (lambda cap: best_parity_agreement(pv, 2, cap=cap), forms * m, f"{forms} forms x {m} pairs exceed cap"),
            (lambda cap: best_junta_agreement(pv, 2, cap=cap), comb(n, 2) * 4 * m, "junta enumeration exceeds cap"),
            (lambda cap: poly_agreement_bound(vecs, 2, 2, cap=cap), comb(n, 2) * 2**4, "polynomial enumeration exceeds cap"),
        ]
    else:
        forms = comb(n, 1) + comb(n, 2)
        cases = [(lambda cap: distribution_bias(vecs, 2, cap=cap), forms * m, f"{forms} forms x {m} points exceed cap")]
    for call, work, message in cases:
        with pytest.raises(ResourceError, match=message):
            call(work - 1)
        with pytest.raises(AssertionError, match="before the cap"):
            call(work)
