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
    DEFAULT_ENUM_CAP,
    FULL_ENUM_DIM,
    check_cap,
    lightest_by_join,
    lightest_by_scan,
    mitm_kernel_min_weight,
    search_work,
    span_min_weight,
)
from .errors import InputError, ResourceError, ValidationError
from .f2 import BitVec, nullspace_basis
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
    basis = [v.bits for v in nullspace_basis(inst.m)]
    if len(basis) <= FULL_ENUM_DIM:
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
    included); with the constant term allowed unless homogeneous_only."""
    if not pv.points:
        raise InputError("empty point-value set")
    n = pv.dim
    m = len(pv)
    forms = sum(comb(n, w) for w in range(min(k, n) + 1))
    if forms * m > cap:
        raise ResourceError(f"{forms} forms x {m} pairs exceed cap {cap}")
    pts = [(z.bits, b) for z, b in pv.pairs()]
    best: tuple[Fraction, ParityForm] | None = None
    for w in range(min(k, n) + 1):
        for sub in combinations(range(n), w):
            mask = 0
            for i in sub:
                mask |= 1 << i
            hits = sum(1 for z, b in pts if ((mask & z).bit_count() & 1) == b)
            options = [(Fraction(hits, m), ParityForm(BitVec(n, mask), 0))]
            if not homogeneous_only:
                options.append((Fraction(m - hits, m), ParityForm(BitVec(n, mask), 1)))
            for frac, form in options:
                if best is None or frac > best[0]:
                    best = (frac, form)
    return best[1], best[0]


def best_junta_agreement(pv: PointValueSet, k: int, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Exact max agreement over all functions of <= k variables.

    Per support, the optimal junta answers the majority value on every
    projected pattern, so the maximum is a counting problem.
    """
    if not pv.points:
        raise InputError("empty point-value set")
    n = pv.dim
    m = len(pv)
    keff = min(k, n)
    if comb(n, keff) * (1 << keff) * m > cap:
        raise ResourceError("junta enumeration exceeds cap")
    pts = [(z.bits, b) for z, b in pv.pairs()]
    best = Fraction(0)
    for sub in combinations(range(n), keff):
        counts: dict[int, list[int]] = {}
        for z, b in pts:
            pattern = 0
            for pos, i in enumerate(sub):
                pattern |= ((z >> i) & 1) << pos
            counts.setdefault(pattern, [0, 0])[b] += 1
        agree = sum(max(c0, c1) for c0, c1 in counts.values())
        best = max(best, Fraction(agree, m))
        if best == 1:
            break
    return best


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


def poly_agreement_bound(
    points: list[BitVec], k: int, d: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[Poly, Fraction]:
    """Largest advantage (fraction of points on which P vanishes, minus the
    exact uniform vanishing probability) over nonzero degree-<=d polynomials
    on <= k variables."""
    if not points:
        raise InputError("empty point set")
    n = points[0].n
    m = len(points)
    keff = min(k, n)
    monos_per_support = sum(comb(keff, i) for i in range(1, d + 1))
    if comb(n, keff) * (1 << (monos_per_support + 1)) > cap:
        raise ResourceError("polynomial enumeration exceeds cap")
    pts = np.array([p.bits for p in points], dtype=np.uint64)
    best: tuple[Fraction, Poly] | None = None
    size = 1 << keff
    for sub in combinations(range(n), keff):
        proj = np.zeros(len(pts), dtype=np.int64)
        for pos, i in enumerate(sub):
            proj |= ((pts >> np.uint64(i)) & np.uint64(1)).astype(np.int64) << pos
        counts = np.bincount(proj, minlength=size)
        monos = [mo for deg in range(1, d + 1) for mo in combinations(range(keff), deg)]
        # Truth table of each monomial over the 2^keff patterns, packed in an int.
        mono_tt = []
        patterns = range(size)
        for mo in monos:
            mask = 0
            for i in mo:
                mask |= 1 << i
            tt = 0
            for p in patterns:
                if p & mask == mask:
                    tt |= 1 << p
            mono_tt.append(tt)
        full = (1 << size) - 1
        for coeffs in range(1, 1 << (len(monos) + 1)):
            tt = full if coeffs & 1 else 0  # low bit = constant term
            c = coeffs >> 1
            while c:
                b = (c & -c).bit_length() - 1
                tt ^= mono_tt[b]
                c &= c - 1
            zero_mask = ~tt & full
            uniform_zero = Fraction(zero_mask.bit_count(), size)
            point_zero_count = 0
            zm = zero_mask
            while zm:
                p = (zm & -zm).bit_length() - 1
                point_zero_count += int(counts[p])
                zm &= zm - 1
            advantage = Fraction(point_zero_count, m) - uniform_zero
            if best is None or advantage > best[0]:
                poly = Poly(
                    n,
                    tuple(tuple(sub[i] for i in monos[b]) for b in range((coeffs >> 1).bit_length()) if (coeffs >> 1) >> b & 1),
                    coeffs & 1,
                )
                best = (advantage, poly)
    return best[1], best[0]
