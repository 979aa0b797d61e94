"""Homogenization of a sparse vector-sum instance into a sparse even-set instance.

The target becomes a column gated by one extra variable; a short sketch of
the solution is mixed through a balanced code, and each pair of mixed bits
gets four indicator variables tied together by per-pair equations, a tensor
code membership constraint on the (1,1) indicators, and symmetry/diagonal
constraints. Copies of the solution vector balance the final weight so that
cheating on the gate costs more than any honest solution.

Implicit quantities (the sketch, the mixed bits, the indicator matrix) are
substituted away; only the gate, the solution vector with its copies, and
the pair-state indicators are variables, so sparsity accounting is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._search import FULL_ENUM_DIM, span_min_weight
from ..codes import balanced_code, bch_parity_check, tensor_parity_check
from ..errors import ConfigError, InputError, WitnessError
from ..f2 import BitMat, BitVec, mat_mul, mat_vec_mul, nullspace_basis
from ..instances import EvenSetInstance, VectorSumInstance


@dataclass(frozen=True)
class EvenSetConfig:
    """Construction parameters; defaults target full scale, overrides allow desk scale.

    With no overrides the sketch is a designed-distance-18k parity check, the
    mixer length is K = ceil(sketch_rows / (c * eps^3)) and the copy count is
    r = ceil(K^2 / 16).
    """

    eps: float = 0.1
    c: float = 1.0
    seed: int = 0
    sketch_delta: int | None = None
    sketch_rows: int | None = None
    sketch: BitMat | None = None
    mixer_length: int | None = None
    copies: int | None = None


@dataclass(frozen=True)
class EvenSetLayout:
    """Variable indexing and construction record for one emitted instance.

    Explicit variables, in order: the gate, the solution vector, its copies,
    then four pair-state indicators per mixed-bit pair.
    """

    source_m: BitMat
    source_b: BitVec
    source_k: int
    sketch: BitMat
    mixer: BitMat
    mix_sketch: BitMat
    product_check: BitMat
    mixer_len: int
    copies: int
    eps: float
    c: float
    sketch_distance: float

    @property
    def source_n(self) -> int:
        return self.source_m.cols

    @property
    def num_vars(self) -> int:
        return 4 * self.mixer_len**2 + self.copies * self.source_n + 1

    @property
    def sparsity(self) -> int:
        return self.mixer_len**2 + self.copies * self.source_k + 1

    @property
    def gate_index(self) -> int:
        return 0

    def x_index(self, j: int) -> int:
        return 1 + j

    def copy_index(self, copy: int, j: int) -> int:
        """Copy 0 is the solution vector itself; copies 1..r-1 are the duplicates."""
        if not 0 <= copy < self.copies:
            raise InputError(f"copy {copy} outside [0, {self.copies})")
        return 1 + copy * self.source_n + j

    def pair_state_index(self, i: int, j: int, a: int, b: int) -> int:
        k = self.mixer_len
        if not (0 <= i < k and 0 <= j < k):
            raise InputError(f"pair ({i}, {j}) outside [0, {k})^2")
        return 1 + self.copies * self.source_n + 4 * (i * k + j) + 2 * a + b

    def pair_state_mask(self) -> int:
        base = 1 + self.copies * self.source_n
        return ((1 << (4 * self.mixer_len**2)) - 1) << base

    def gate_value(self, assignment: BitVec) -> int:
        return assignment.get(self.gate_index)

    def pair_state_weight(self, assignment: BitVec) -> int:
        return (assignment.bits & self.pair_state_mask()).bit_count()

    def validate(self, k: int) -> None:
        """Weight-threshold inequality that makes the gate argument sound."""
        lhs = (self.mixer_len**2 + 1) / self.copies + k + 1
        if not lhs < self.sketch_distance:
            raise ConfigError(
                f"(K^2+1)/r + k + 1 = {lhs:.3f} must be below the sketch distance "
                f"{self.sketch_distance}; raise copies/sketch strength or lower K"
            )


def _kernel_min_weight(m: BitMat) -> float:
    """Exact minimum kernel weight, or +inf for a trivial kernel."""
    basis = [v.bits for v in nullspace_basis(m)]
    if not basis:
        return math.inf
    if len(basis) > FULL_ENUM_DIM:
        raise ConfigError(
            f"cannot certify sketch distance: kernel dimension {len(basis)} exceeds {FULL_ENUM_DIM}"
        )
    return float(span_min_weight(basis, m.cols)[0])


def _build_sketch(n: int, k: int, cfg: EvenSetConfig) -> tuple[BitMat, float]:
    if cfg.sketch is not None:
        if cfg.sketch.cols != n:
            raise ConfigError(f"sketch has {cfg.sketch.cols} columns, instance has {n}")
        return cfg.sketch, _kernel_min_weight(cfg.sketch)
    if cfg.sketch_rows is not None:
        rows = cfg.sketch_rows
        if rows >= n:
            # Full column rank by construction: identity stacked with all-ones rows.
            row_bits = [1 << j for j in range(n)] + [(1 << n) - 1] * (rows - n)
            return BitMat.from_bitrows(row_bits, n), math.inf
        import random

        rng = random.Random(cfg.seed ^ 0x5E7C)
        best: tuple[float, BitMat] | None = None
        for _ in range(200):
            cand = BitMat.from_bitrows([rng.getrandbits(n) for _ in range(rows)], n)
            dist = _kernel_min_weight(cand)
            if best is None or dist > best[0]:
                best = (dist, cand)
        return best[1], best[0]
    delta = cfg.sketch_delta if cfg.sketch_delta is not None else 18 * k
    if delta > n:
        raise ConfigError(
            f"designed sketch distance {delta} exceeds instance width {n}; "
            f"override sketch_delta or sketch_rows for desk-scale runs"
        )
    return bch_parity_check(n, delta), float(delta)


def vectorsum_to_evenset(
    inst: VectorSumInstance, cfg: EvenSetConfig = EvenSetConfig()
) -> tuple[EvenSetInstance, EvenSetLayout]:
    """Emit the homogeneous instance over 4K^2 + r*n + 1 explicit variables with
    sparsity threshold K^2 + r*k + 1."""
    n, k = inst.m.cols, inst.k
    if not 0 < cfg.eps < 0.5:
        raise ConfigError(f"mixer bias {cfg.eps} must lie in (0, 0.5)")
    sketch, sketch_distance = _build_sketch(n, k, cfg)
    mixer_len = cfg.mixer_length
    if mixer_len is None:
        mixer_len = math.ceil(sketch.rows / (cfg.c * cfg.eps**3))
    copies = cfg.copies if cfg.copies is not None else math.ceil(mixer_len**2 / 16)
    if copies < 1:
        raise ConfigError("copy count must be >= 1")
    if mixer_len < sketch.rows:
        raise ConfigError(
            f"mixer length {mixer_len} is below the sketch row count {sketch.rows}; "
            f"no injective balanced generator exists"
        )
    mixer_code = balanced_code(dim=sketch.rows, eps=cfg.eps, seed=cfg.seed, length=mixer_len)
    mixer = mixer_code.generator
    layout = EvenSetLayout(
        source_m=inst.m,
        source_b=inst.b,
        source_k=k,
        sketch=sketch,
        mixer=mixer,
        mix_sketch=mat_mul(mixer, sketch),
        product_check=tensor_parity_check(mixer_code),
        mixer_len=mixer_len,
        copies=copies,
        eps=cfg.eps,
        c=cfg.c,
        sketch_distance=sketch_distance,
    )
    layout.validate(k)
    rows = _equation_rows(layout)
    emitted = EvenSetInstance(
        BitMat.from_bitrows(rows, layout.num_vars), layout.sparsity, layout=layout
    )
    return emitted, layout


def _equation_rows(layout: EvenSetLayout) -> list[int]:
    n = layout.source_n
    kk = layout.mixer_len
    rows: list[int] = []
    # Gated system: Mx + gate * target = 0.
    for t in range(layout.source_m.rows):
        rows.append((layout.source_m.row_bits[t] << 1) | layout.source_b.get(t))
    # Mixed bits as linear forms in x, one K-bit form per row of mixer @ sketch.
    mix = layout.mix_sketch.row_bits
    z = layout.pair_state_index
    for i in range(kk):
        for j in range(kk):
            four = (1 << z(i, j, 0, 0)) | (1 << z(i, j, 0, 1)) | (1 << z(i, j, 1, 0)) | (1 << z(i, j, 1, 1))
            rows.append(four | 1)  # the four indicators XOR to the gate
            rows.append((1 << z(i, j, 1, 0)) | (1 << z(i, j, 1, 1)) | (mix[i] << 1))
            rows.append((1 << z(i, j, 0, 1)) | (1 << z(i, j, 1, 1)) | (mix[j] << 1))
    # Tensor code membership of the (1,1) indicators.
    for qrow in layout.product_check.row_bits:
        bits = 0
        while qrow:
            p = (qrow & -qrow).bit_length() - 1
            bits |= 1 << z(p // kk, p % kk, 1, 1)
            qrow &= qrow - 1
        rows.append(bits)
    # Symmetry above the diagonal, mixed bit on the diagonal.
    for i in range(kk):
        for j in range(i + 1, kk):
            rows.append((1 << z(i, j, 1, 1)) | (1 << z(j, i, 1, 1)))
    for i in range(kk):
        rows.append((1 << z(i, i, 1, 1)) | (mix[i] << 1))
    # Copies agree with the solution vector coordinate-wise.
    for copy in range(1, layout.copies):
        for j in range(n):
            rows.append((1 << layout.x_index(j)) | (1 << layout.copy_index(copy, j)))
    return rows


def assemble_evenset_witness(layout: EvenSetLayout, x: BitVec) -> BitVec:
    """Designed solution from a source witness: gate on, copies set, exactly one
    pair-state indicator per mixed-bit pair; weight is K^2 + r*wt(x) + 1."""
    if x.n != layout.source_n:
        raise WitnessError(f"witness length {x.n} != source width {layout.source_n}")
    if x.weight() > layout.source_k:
        raise WitnessError(f"witness weight {x.weight()} exceeds k = {layout.source_k}")
    if mat_vec_mul(layout.source_m, x) != layout.source_b:
        raise WitnessError("witness does not satisfy the source instance")
    y = mat_vec_mul(layout.mix_sketch, x)
    bits = 1  # gate
    for copy in range(layout.copies):
        bits |= x.bits << layout.copy_index(copy, 0)
    for i in range(layout.mixer_len):
        for j in range(layout.mixer_len):
            bits |= 1 << layout.pair_state_index(i, j, y.get(i), y.get(j))
    return BitVec(layout.num_vars, bits)
