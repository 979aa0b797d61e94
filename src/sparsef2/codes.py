"""Binary linear codes: BCH parity checks, certified balanced codes, simplex codes,
tensor (product) codes, and exhaustive distance/bias/density verification."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, islice

from ._search import DEFAULT_ENUM_CAP, FULL_ENUM_DIM, span_blocks, span_min_weight
from ._search import mitm_kernel_min_weight as _mitm_kernel_min_weight
from .errors import (
    DimensionError,
    GenerationError,
    InputError,
    ResourceError,
    ValidationError,
)
from .f2 import BitMat, BitVec, mat_mul, nullspace_basis, rank, unpack_rows

# balanced_code certifies dimensions up to BALANCE_DIM_CAP, tries lengths up
# to BALANCE_LENGTH_FACTOR * dim / eps^3, and draws BALANCE_TRIES generators
# per length (BALANCE_TRIES_AT_LENGTH at a length the caller gives).
BALANCE_DIM_CAP = 20
BALANCE_LENGTH_FACTOR = 4.0
BALANCE_TRIES = 60
BALANCE_TRIES_AT_LENGTH = 2000
DEFAULT_DENSITY_CAP = 1 << 20

# Primitive polynomials over GF(2), LSB-first bit encoding including the x^m term.
_PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


@dataclass(frozen=True)
class DistanceCert:
    d: int
    method: str
    witness: BitVec | None = None


@dataclass(frozen=True)
class BiasCert:
    eps: float
    method: str
    min_weight: int = 0
    max_weight: int = 0


@dataclass
class LinearCode:
    """A binary linear code given by a generator (length x dim), a parity check, or both."""

    length: int
    dim: int
    generator: BitMat | None = None
    parity_check: BitMat | None = None
    dist_cert: DistanceCert | None = None
    bias_cert: BiasCert | None = None

    def __post_init__(self):
        if self.generator is None and self.parity_check is None:
            raise ValidationError("a code needs a generator or a parity check")
        if self.generator is not None:
            if (self.generator.rows, self.generator.cols) != (self.length, self.dim):
                raise ValidationError(
                    f"generator is {self.generator.rows}x{self.generator.cols}, "
                    f"expected {self.length}x{self.dim}"
                )
            if rank(self.generator) != self.dim:
                raise ValidationError("generator columns are not independent")
        if self.parity_check is not None:
            if self.parity_check.cols != self.length:
                raise ValidationError(
                    f"parity check has {self.parity_check.cols} columns, expected {self.length}"
                )
            if self.length - rank(self.parity_check) != self.dim:
                raise ValidationError(
                    f"parity check kernel has dimension {self.length - rank(self.parity_check)}, "
                    f"declared dim is {self.dim}"
                )
        if self.generator is not None and self.parity_check is not None:
            if not mat_mul(self.parity_check, self.generator).is_zero():
                raise ValidationError("parity_check @ generator != 0")

    @classmethod
    def from_parity_check(cls, h: BitMat) -> "LinearCode":
        return cls(h.cols, h.cols - rank(h), parity_check=h)

    @classmethod
    def from_generator(cls, gen: BitMat) -> "LinearCode":
        return cls(gen.rows, gen.cols, generator=gen)

    def codewords(self):
        """All 2^dim codewords, each once, the zero word first."""
        for block, _ in span_blocks(self.require_generator().col_bits(), self.length):
            for cw in unpack_rows(block):
                yield BitVec(self.length, cw)

    def require_generator(self) -> BitMat:
        if self.generator is None:
            basis = nullspace_basis(self.parity_check)
            if len(basis) != self.dim:
                raise ValidationError(f"kernel dimension {len(basis)} != declared dim {self.dim}")
            self.generator = BitMat.from_cols([v.bits for v in basis], self.length)
        return self.generator

    def require_parity_check(self) -> BitMat:
        if self.parity_check is None:
            left_kernel = nullspace_basis(self.generator.transpose())
            self.parity_check = BitMat.from_rows(left_kernel, self.length)
        return self.parity_check


def _gf_mul(a: int, b: int, poly: int, m: int) -> int:
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return res


def _gf_powers(m: int) -> list[int]:
    """alpha^0 .. alpha^(2^m-2) for the primitive element alpha = x."""
    poly = _PRIMITIVE_POLY.get(m)
    if poly is None:
        raise InputError(f"no primitive polynomial tabled for GF(2^{m})")
    powers = [1]
    cur = 1
    for _ in range(2**m - 2):
        cur = _gf_mul(cur, 0b10, poly, m)
        powers.append(cur)
    if _gf_mul(cur, 0b10, poly, m) != 1 or len(set(powers)) != 2**m - 1:
        raise ValidationError(f"tabled polynomial for GF(2^{m}) is not primitive")
    return powers


def bch_parity_check(n: int, delta: int) -> BitMat:
    """Parity check R with Rx != 0 for every x with 0 < wt(x) < delta.

    One m-row syndrome block per odd power alpha, alpha^3, ..., evaluated at
    the first n powers of a primitive element of GF(2^m), m = ceil(log2(n+1));
    even powers are squares of earlier syndromes and add nothing over GF(2).
    """
    if n < 2:
        raise InputError(f"length {n} must be >= 2")
    if not 2 <= delta <= n:
        raise InputError(f"designed distance {delta} outside [2, {n}]")
    m = max(2, math.ceil(math.log2(n + 1)))
    powers = _gf_powers(m)
    order = 2**m - 1
    num_blocks = delta // 2  # ceil((delta-1)/2)
    cols = []
    for c in range(n):
        col = 0
        for blk in range(num_blocks):
            p = 2 * blk + 1
            col |= powers[(p * c) % order] << (blk * m)
        cols.append(col)
    return BitMat.from_cols(cols, num_blocks * m)


def simplex_generator(kdim: int) -> LinearCode:
    """[2^k - 1, k] code whose columns run over all nonzero k-bit patterns.

    Every nonzero codeword has weight exactly 2^(k-1): a deterministic,
    exactly-balanced fallback when rejection sampling is unwanted.
    """
    if kdim < 1:
        raise InputError(f"dimension {kdim} must be >= 1")
    length = 2**kdim - 1
    gen = BitMat.from_rows([BitVec(kdim, msg) for msg in range(1, length + 1)], kdim)
    w = 2 ** (kdim - 1)
    eps = w / length - 0.5
    return LinearCode(
        length,
        kdim,
        generator=gen,
        dist_cert=DistanceCert(w, "structure"),
        bias_cert=BiasCert(eps, "structure", w, w),
    )


def _certify_balance(rows: list[int], dim: int, eps: float) -> tuple[int, int] | None:
    """Min/max nonzero-codeword weight of the generator with these rows if all
    lie in [1/2-eps, 1/2+eps], else None."""
    t = len(rows)
    lo = (0.5 - eps) * t
    hi = (0.5 + eps) * t
    # The generator columns are codewords: counting their weights on the row
    # ints first rejects most random tries before anything is built.
    if not all(lo <= sum(r >> j & 1 for r in rows) <= hi for j in range(dim)):
        return None
    wmin, wmax = t + 1, -1
    gcols = BitMat.from_bitrows(rows, dim).col_bits()
    for _, weights in islice(span_blocks(gcols, t), 1, None):  # skip the zero message
        wmin, wmax = min(wmin, int(weights.min())), max(wmax, int(weights.max()))
        if wmin < lo or wmax > hi:
            return None
    return wmin, wmax


def balanced_code(
    dim: int,
    eps: float,
    seed: int,
    length: int | None = None,
) -> LinearCode:
    """Rejection-sampled generator whose nonzero codewords all have normalized
    weight within eps of 1/2, certified by full enumeration.

    With ``length`` unset, the length starts near the coupon-collector bound
    ln(2^(dim+1))/(2 eps^2) and grows geometrically up to
    ceil(BALANCE_LENGTH_FACTOR*dim/eps^3).
    """
    if dim < 1:
        raise InputError(f"dimension {dim} must be >= 1")
    if dim > BALANCE_DIM_CAP:
        raise ResourceError(f"dimension {dim} exceeds exhaustive-verification cap {BALANCE_DIM_CAP}")
    if eps <= 0:
        raise InputError(f"bias {eps} must be positive")
    rng = random.Random(seed)
    t_max = math.ceil(BALANCE_LENGTH_FACTOR * dim / eps**3)
    tries = BALANCE_TRIES
    if length is not None:
        schedule, tries = [length], BALANCE_TRIES_AT_LENGTH
    else:
        t = max(dim, math.ceil(math.log(2 ** (dim + 1)) / (2 * eps * eps)))
        t = min(t, t_max)
        schedule = []
        while True:
            schedule.append(t)
            if t >= t_max:
                break
            t = min(t_max, max(t + 1, int(t * 1.3)))
    for t in schedule:
        for _ in range(tries):
            rows = [rng.getrandbits(dim) for _ in range(t)]
            cert = _certify_balance(rows, dim, eps)
            if cert is None:
                continue
            wmin, wmax = cert
            return LinearCode(
                t,
                dim,
                generator=BitMat.from_bitrows(rows, dim),
                dist_cert=DistanceCert(wmin, "exhaustive"),
                bias_cert=BiasCert(eps, "exhaustive", wmin, wmax),
            )
    raise GenerationError(
        f"no {eps}-balanced generator found for dim={dim} within length cap {t_max}; "
        f"use simplex_generator"
    )


@dataclass(frozen=True)
class ProductCode:
    """Square tensor code: length x length matrices whose rows and columns all lie in base."""

    base: LinearCode

    @property
    def length(self) -> int:
        return self.base.length


def tensor_membership(p: ProductCode, y: BitMat) -> bool:
    """Y is a member iff H Y = 0 and Y H^T = 0 for the base parity check H."""
    n = p.length
    if (y.rows, y.cols) != (n, n):
        raise DimensionError(f"expected {n}x{n} candidate, got {y.rows}x{y.cols}")
    h = p.base.require_parity_check()
    return mat_mul(h, y).is_zero() and mat_mul(y, h.transpose()).is_zero()


def tensor_parity_check(code: LinearCode) -> BitMat:
    """Parity check on the row-major n^2 flattening whose kernel is the square tensor code.

    Stacks the column constraints (H acting on each column) over the row
    constraints (H acting on each row).
    """
    h = code.require_parity_check()
    n = code.length
    rows = []
    for a in range(h.rows):
        ha = h.row_bits[a]
        for j in range(n):
            bits = 0
            rr = ha
            while rr:
                i = (rr & -rr).bit_length() - 1
                bits |= 1 << (i * n + j)
                rr &= rr - 1
            rows.append(bits)
    for i in range(n):
        for a in range(h.rows):
            rows.append(h.row_bits[a] << (i * n))
    return BitMat.from_bitrows(rows, n * n)


def min_distance(code: LinearCode, weight_cap: int | None = None) -> int:
    """Minimum weight of a nonzero codeword; attaches a distance certificate.

    Exhaustive over all 2^dim - 1 codewords by default; with ``weight_cap``
    set, runs a meet-in-the-middle search over the parity-check kernel
    instead (refused if its work exceeds the search core's default cap) and
    certifies min weight only if it is <= ``weight_cap``.
    """
    if weight_cap is not None:
        h = code.require_parity_check()
        found = _mitm_kernel_min_weight(h.col_bits(), code.length, weight_cap)
        if found is None:
            raise ResourceError(f"no nonzero codeword of weight <= {weight_cap} found under the cap")
        w, witness, _ = found
        code.dist_cert = DistanceCert(w, f"mitm-cap-{weight_cap}", witness)
        return w
    gen = code.require_generator()
    if code.dim > FULL_ENUM_DIM:
        raise ResourceError(f"dimension {code.dim} exceeds exhaustive cap {FULL_ENUM_DIM}; supply weight_cap")
    best_w, bits = span_min_weight(gen.col_bits(), code.length)
    code.dist_cert = DistanceCert(best_w, "exhaustive", BitVec(code.length, bits))
    return best_w


def product_density_check(
    code: LinearCode, cap: int = DEFAULT_DENSITY_CAP
) -> tuple[bool, BitMat | None]:
    """Check that every nonzero symmetric zero-diagonal member of the square
    tensor code has weight >= ceil(1.5 * d^2); returns the minimal-weight witness.

    Members are Y = G X G^T for k x k messages X. G has independent columns,
    so X = L Y L^T for a left inverse L: Y is symmetric iff X is, and then
    diag(Y) = G diag(X). The members checked are therefore exactly the
    nonzero elements of the span of g_a g_b^T + g_b g_a^T over a < b, and
    ``cap`` bounds their number, 2^C(k, 2) - 1.
    """
    k, n = code.dim, code.length
    gcols = code.require_generator().col_bits()
    # g_a g_b^T flattened row-major: row r is g_b where g_a has a 1.
    rows_of = [[r for r in range(n) if g >> r & 1] for g in gcols]
    outer = {(a, b): sum(gcols[b] << (r * n) for r in rows_of[a]) for a in range(k) for b in range(k)}
    pairs = [outer[a, b] ^ outer[b, a] for a, b in combinations(range(k), 2)]
    found = span_min_weight(pairs, n * n, cap)
    if code.dist_cert is None:
        min_distance(code)
    if found is None:
        return True, None
    # Row-major flattening: lex order of the flat vector is lex order of the row tuple.
    best_w, flat = found
    witness = BitMat.from_bitrows([(flat >> (r * n)) & ((1 << n) - 1) for r in range(n)], n)
    return best_w >= math.ceil(1.5 * code.dist_cert.d**2), witness


def distribution_bias(points: list[BitVec], support_cap: int, cap: int = DEFAULT_ENUM_CAP) -> float:
    """Max over nonzero linear forms on <= support_cap variables of |avg (-1)^l(z)|."""
    if not points:
        raise InputError("empty point set")
    n = points[0].n
    m = len(points)
    num_forms = sum(math.comb(n, w) for w in range(1, min(support_cap, n) + 1))
    if num_forms * m > cap:
        raise ResourceError(f"{num_forms} forms x {m} points exceed cap {cap}")
    pts = [p.bits for p in points]
    worst = 0.0
    for w in range(1, min(support_cap, n) + 1):
        for sub in combinations(range(n), w):
            mask = 0
            for i in sub:
                mask |= 1 << i
            odd = sum((mask & z).bit_count() & 1 for z in pts)
            worst = max(worst, abs(m - 2 * odd) / m)
    return worst
