"""Exact decision/search procedures: three cross-checking sparse solvers for
inhomogeneous systems, minimum-weight search for homogeneous ones, and exact
best-agreement oracles for parities, juntas, and low-degree polynomials."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from ._search import (
    _BLOCK,
    DEFAULT_ENUM_CAP,
    FULL_ENUM_DIM,
    check_cap,
    distinct_rows,
    lightest_by_join,
    lightest_by_scan,
    mitm_kernel_min_weight,
    pattern_counts,
    point_matrix,
    search_work,
    span_min_weight,
)
from .errors import InputError, ResourceError, ValidationError
from .f2 import BitMat, BitVec, kernel_rows, rref
from .instances import EvenSetInstance, PointValueSet, VectorSumInstance

# solve_bfs gathers its table rows in blocks of 2^_BFS_BLOCK_BITS syndromes.
_BFS_BLOCK_BITS = 14


@dataclass(frozen=True)
class SolveReport:
    feasible: bool
    witness: BitVec | None
    weight: int | None
    algorithm: str
    work: int

    def __post_init__(self):
        if self.feasible and self.witness is None:
            raise ValidationError("feasible report without witness")


def _verified(inst: VectorSumInstance, witness: BitVec, algorithm: str, work: int) -> SolveReport:
    if not inst.accepts(witness):
        raise ValidationError(f"{algorithm} produced a non-solution; this is a bug")
    return SolveReport(True, witness, witness.weight(), algorithm, work)


def _report(inst: VectorSumInstance, found: tuple[int, BitVec] | None, work: int, algorithm: str) -> SolveReport:
    if found is None:
        return SolveReport(False, None, None, algorithm, work)
    return _verified(inst, found[1], algorithm, work)


def _zero_solution(inst: VectorSumInstance, algorithm: str) -> SolveReport | None:
    # x = 0 solves Mx = b exactly when b = 0.
    if inst.b.is_zero():
        return SolveReport(True, BitVec.zeros(inst.m.cols), 0, algorithm, 0)
    return None


def solve_exhaustive(inst: VectorSumInstance, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Enumerate all vectors of weight <= k by increasing weight; exact.

    Each colex layer is streamed once (``_search.lightest_by_scan``). Reports
    the minimal-weight solution, lex-least (coordinate-0-first 01-string
    order) among ties; the work is the number of vectors enumerated, and a
    search whose work can exceed ``cap`` is refused before it starts.
    """
    early = _zero_solution(inst, "exhaustive")
    if early is not None:
        return early
    n = inst.m.cols
    return _report(inst, *lightest_by_scan(inst.m.col_bits(), n, inst.b.bits, min(inst.k, n), cap), "exhaustive")


def solve_mitm(inst: VectorSumInstance, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Meet in the middle (``_search.lightest_by_join``): for w = 1, 2, ..., k
    the sorted colex layers of ceil(w/2) and floor(w/2) columns are joined on
    syndromes that XOR to b. Same feasibility, weight and lex-least witness
    as exhaustive; the work is C(n, ceil(w/2)) + C(n, floor(w/2)) summed
    over the weights tried, and a search whose work can exceed ``cap`` is
    refused before it starts."""
    early = _zero_solution(inst, "mitm")
    if early is not None:
        return early
    n = inst.m.cols
    return _report(inst, *lightest_by_join(inst.m.col_bits(), n, inst.b.bits, min(inst.k, n), cap), "mitm")


def solve_bfs(inst: VectorSumInstance, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Dynamic programming over the syndrome space F2^m, independent of the
    search core: D_j(s), the fewest of columns j..n-1 whose XOR is s, is one
    uint8 row of 2^m entries, D_j(s) = min(D_{j+1}(s), 1 + D_{j+1}(s ^ c_j)),
    with m + 1 for "unreachable". The witness is rebuilt from column 0 on,
    taking x_j = 0 whenever columns j+1..n-1 still reach the remaining target
    within the remaining weight, so it is the lowest-weight, lex-least one.
    The work is the table size (n + 1) * 2^m, and a table larger than
    ``cap`` is refused before it is allocated."""
    m, n = inst.m.rows, inst.m.cols
    check_cap((n + 1) << m, cap)
    cols = inst.m.col_bits()
    # A reachable syndrome needs at most m (independent) columns, so m + 1 marks
    # "unreachable" and m + 2, the largest value formed, fits in uint8.
    table = np.full((n + 1, 1 << m), m + 1, dtype=np.uint8)
    table[n, 0] = 0
    # step[s] = D_{j+1}(s ^ c_j) + 1, gathered one block at a time: block i of
    # step is block i ^ (c_j >> low) of D_{j+1} permuted by the low bits of
    # c_j, so no index array of 2^m entries is ever held.
    low = min(m, _BFS_BLOCK_BITS)
    step = np.empty(1 << m, dtype=np.uint8)
    blocks, step_blocks = table.reshape(n + 1, -1, 1 << low), step.reshape(-1, 1 << low)
    low_index, index = np.arange(1 << low), np.empty(1 << low, dtype=np.intp)
    for j in range(n - 1, -1, -1):
        np.bitwise_xor(low_index, cols[j] & ((1 << low) - 1), out=index)
        high = cols[j] >> low
        for i, block in enumerate(step_blocks):
            np.take(blocks[j + 1, i ^ high], index, out=block)
        step += 1
        np.minimum(table[j + 1], step, out=table[j])
    target, budget = inst.b.bits, int(table[0, inst.b.bits])
    if budget > min(inst.k, m):  # m + 1: b is unreachable, also when k > m
        return SolveReport(False, None, None, "bfs", table.size)
    support = 0
    for j in range(n):
        if table[j + 1, target] > budget:
            support |= 1 << j
            target ^= cols[j]
            budget -= 1
    return _verified(inst, BitVec(n, support), "bfs", table.size)


def evenset_min_weight(
    inst: EvenSetInstance,
    sparse_cap: int | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> SolveReport:
    """Minimum weight of a nonzero kernel vector; feasible iff it is <= k.

    Enumerates the whole kernel (work 2^dim - 1) when its dimension is at
    most ``FULL_ENUM_DIM``; otherwise a meet-in-the-middle search runs up to
    the weight ``sparse_cap`` (default k), and a bound below k that finds
    nothing raises ResourceError. A search whose work can exceed ``cap`` is
    refused before it starts.
    """
    n = inst.m.cols
    pivots, red = rref(inst.m)
    if n - len(pivots) <= FULL_ENUM_DIM:  # the kernel dimension
        basis = kernel_rows(pivots, red)
        found = span_min_weight(basis, n, cap)
        work = (1 << len(basis)) - 1
        if found is None:
            return SolveReport(False, None, None, "kernel-enum", work)
        best_w, bits = found
        witness = BitVec(n, bits)
        feasible = best_w <= inst.k
        if feasible and not inst.accepts(witness):
            raise ValidationError("kernel enumeration produced a non-solution; this is a bug")
        return SolveReport(feasible, witness, best_w, "kernel-enum", work)
    sparse_cap = inst.k if sparse_cap is None else sparse_cap
    found = mitm_kernel_min_weight(inst.m.col_bits(), n, sparse_cap, cap)
    if found is None:
        if sparse_cap < inst.k:
            raise ResourceError(f"no kernel vector of weight <= {sparse_cap}; weights up to k={inst.k} not searched")
        return SolveReport(False, None, None, "mitm-sparse", search_work(n, sparse_cap, True))
    w, witness, work = found
    feasible = w <= inst.k
    if feasible and not inst.accepts(witness):
        raise ValidationError("sparse kernel search produced a non-solution; this is a bug")
    return SolveReport(feasible, witness, w, "mitm-sparse", work)


@dataclass(frozen=True)
class ParityForm:
    """Linear form over GF(2): x -> <coeffs, x> + constant."""

    coeffs: BitVec
    constant: int = 0

    def evaluate(self, x: BitVec) -> int:
        return self.coeffs.dot(x) ^ self.constant

    def support(self) -> tuple[int, ...]:
        return self.coeffs.support()


def parity_agreement(pv: PointValueSet, form: ParityForm) -> Fraction:
    hits = sum(1 for z, b in pv.pairs() if form.evaluate(z) == b)
    return Fraction(hits, len(pv))


def best_parity_agreement(
    pv: PointValueSet, k: int, homogeneous_only: bool = False, cap: int = DEFAULT_ENUM_CAP
) -> tuple[ParityForm, Fraction]:
    """Exact max agreement over linear forms on <= k variables (empty support
    included); with the constant term allowed unless homogeneous_only.

    The form on S with constant 0 agrees with the pairs whose label is the
    parity of their pattern on S, read from the label-split histograms
    (``_search.pattern_counts``); constant 1 agrees with the rest. Ties go to
    the first support in (weight, lex) order, then constant 0."""
    if not pv.points:
        raise InputError("empty point-value set")
    n = pv.dim
    m = len(pv)
    forms = sum(comb(n, w) for w in range(min(k, n) + 1))
    if forms * m > cap:
        raise ResourceError(f"{forms} forms x {m} pairs exceed cap {cap}")
    words, counts, labels = distinct_rows([z.bits for z in pv.points], n, pv.values)
    best, support, constant = -1, (), 0
    for w in range(min(k, n) + 1):
        cells = np.arange(1 << w)
        parity = np.bitwise_count(cells) & 1
        for supports, hist in pattern_counts(words, counts, n, w, labels):
            hits = hist[:, cells, parity].sum(axis=1)
            # Support-major, constant-minor scores: argmax takes the first best.
            scores = hits[:, None] if homogeneous_only else np.stack([hits, m - hits], axis=1)
            i = int(scores.argmax())
            if scores.flat[i] > best:
                best = int(scores.flat[i])
                support, constant = supports[i // scores.shape[1]], i % scores.shape[1]
    return ParityForm(BitVec.from_support(n, map(int, support)), constant), Fraction(best, m)


def best_junta_agreement(pv: PointValueSet, k: int, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Exact max agreement over all functions of <= k variables.

    Per support, the optimal junta answers the majority value on every
    projected pattern, so the maximum is a counting problem over the
    label-split histograms of ``_search.pattern_counts``.
    """
    if not pv.points:
        raise InputError("empty point-value set")
    n = pv.dim
    m = len(pv)
    keff = min(k, n)
    if comb(n, keff) * (1 << keff) * m > cap:
        raise ResourceError("junta enumeration exceeds cap")
    words, counts, labels = distinct_rows([z.bits for z in pv.points], n, pv.values)
    best = 0
    for _, hist in pattern_counts(words, counts, n, keff, labels):
        best = max(best, int(hist.max(axis=2).sum(axis=1).max()))
        if best == m:
            break
    return Fraction(best, m)


@dataclass(frozen=True)
class Poly:
    """Multilinear polynomial over GF(2): XOR of monomials plus a constant."""

    n: int
    monomials: tuple[tuple[int, ...], ...]
    constant: int = 0

    def evaluate(self, x: BitVec) -> int:
        val = self.constant
        for mono in self.monomials:
            val ^= all(x.get(i) for i in mono)
        return val & 1

    def degree(self) -> int:
        return max((len(mo) for mo in self.monomials), default=0)

    def is_zero(self) -> bool:
        return not self.monomials and self.constant == 0


def _zero_sets(monos: list[tuple[int, ...]], keff: int, lo: int, hi: int) -> np.ndarray:
    """Row c - lo, for lo <= c < hi: 1 on the patterns p < 2^keff where the
    polynomial with coefficient bits c vanishes. Bit 0 of c is the constant
    term and bit b + 1 the monomial ``monos[b]``."""
    patterns = np.arange(1 << keff)
    terms = np.ones((len(monos) + 1, 1 << keff), dtype=np.int64)
    for b, mono in enumerate(monos):
        mask = sum(1 << i for i in mono)
        terms[b + 1] = patterns & mask == mask
    coeffs = (np.arange(lo, hi)[:, None] >> np.arange(len(monos) + 1)) & 1
    return 1 - (coeffs @ terms & 1)


def poly_agreement_bound(
    points: BitMat | list[BitVec], k: int, d: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[Poly, Fraction]:
    """Largest advantage (fraction of points on which P vanishes, minus the
    exact uniform vanishing probability) over nonzero degree-<=d polynomials
    on <= k variables; the points are the rows of ``points`` (or a list of
    ``BitVec``s).

    For each support S of min(k, n) variables the points vanishing on P
    are one product of the pattern histogram (``_search.pattern_counts``)
    with the zero sets of every polynomial; advantages are compared exactly
    as zeros * 2^keff - m * |zero set|. Ties go to the first support in lex
    order, then the lowest coefficient bits (constant term lowest)."""
    points = point_matrix(points)
    n, m = points.cols, points.rows
    keff = min(k, n)
    monos_per_support = sum(comb(keff, i) for i in range(1, d + 1))
    if comb(n, keff) * (1 << (monos_per_support + 1)) > cap:
        raise ResourceError("polynomial enumeration exceeds cap")
    monos = [mo for deg in range(1, d + 1) for mo in combinations(range(keff), deg)]
    size, total = 1 << keff, 1 << (len(monos) + 1)
    step = max(1, _BLOCK // size)  # polynomials per block of zero sets
    ranges = [(lo, min(total, lo + step)) for lo in range(1, total, step)]
    # The zero sets are built once when they fit one block, else per support block.
    table = [(lo, _zero_sets(monos, keff, lo, hi)) for lo, hi in ranges] if len(ranges) == 1 else None
    words, counts, _ = distinct_rows(points.row_bits, n)
    best, support, coeffs = None, (), 0
    for supports, hist in pattern_counts(words, counts, n, keff, width=min(step, total)):
        top = np.full(len(supports), np.iinfo(np.int64).min)
        arg = np.zeros(len(supports), dtype=np.int64)
        for lo, zeros in table or ((lo, _zero_sets(monos, keff, lo, hi)) for lo, hi in ranges):
            vanish = (hist.astype(np.float64) @ zeros.T.astype(np.float64)).astype(np.int64)
            scores = vanish * size - m * zeros.sum(axis=1)
            j = scores.argmax(axis=1)
            row = scores[np.arange(len(supports)), j]
            better = row > top
            top[better], arg[better] = row[better], lo + j[better]
        i = int(top.argmax())
        if best is None or top[i] > best:
            best, support, coeffs = int(top[i]), tuple(map(int, supports[i])), int(arg[i])
    poly = Poly(
        n,
        tuple(tuple(support[i] for i in monos[b]) for b in range(len(monos)) if coeffs >> (b + 1) & 1),
        coeffs & 1,
    )
    return poly, Fraction(best, m * size)
