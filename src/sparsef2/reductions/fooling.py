"""Point sets that fool low-degree polynomials.

Rows of a balanced-code image of a homogeneous instance fool linear forms;
coordinate-wise sums of d independent draws then fool degree-d polynomials,
with the bias amplified to 16 * eps^(1/2^(d-1)).
"""

from __future__ import annotations

import random

import numpy as np

from ..codes import balanced_code
from ..errors import DimensionError, InputError, ResourceError
from ..f2 import BitMat, mat_mul, pack_rows, unpack_rows
from ..instances import EvenSetInstance

DEFAULT_SHIFT_CAP = 2_000_000


def viola_shift(
    points: BitMat,
    d: int,
    cap: int = DEFAULT_SHIFT_CAP,
    sample_count: int | None = None,
    seed: int = 0,
) -> BitMat:
    """Coordinate-wise sums of the rows over all ordered d-tuples (a multiset
    of size m^d, in ``itertools.product`` order), or a seeded uniform sample
    of them: one XOR broadcast of the packed rows per added copy."""
    if d < 1:
        raise InputError(f"degree {d} must be >= 1")
    if not points.rows:
        raise InputError("empty point set")
    if d == 1 and sample_count is None:
        return points
    words = pack_rows(points.row_bits, points.cols)
    if sample_count is not None:
        rng = random.Random(seed)
        picks = [rng.randrange(points.rows) for _ in range(sample_count * d)]
        sums = np.bitwise_xor.reduce(words[np.array(picks, dtype=np.intp).reshape(-1, d)], axis=1)
    else:
        total = points.rows**d
        if total > cap:
            raise ResourceError(f"{total} ordered {d}-tuples exceed cap {cap}; pass sample_count")
        sums = words
        for _ in range(d - 1):  # the last copy varies fastest
            sums = (sums[:, None] ^ words[None, :]).reshape(-1, words.shape[1])
    return BitMat(len(sums), points.cols, tuple(unpack_rows(sums)))


def fooling_points_with_generator(
    m: BitMat,
    gen: BitMat,
    d: int,
    cap: int = DEFAULT_SHIFT_CAP,
    sample_count: int | None = None,
    seed: int = 0,
) -> BitMat:
    """Rows of gen @ m, shifted to degree d."""
    if gen.cols != m.rows:
        raise DimensionError(f"generator has {gen.cols} columns, instance has {m.rows} rows")
    return viola_shift(mat_mul(gen, m), d, cap=cap, sample_count=sample_count, seed=seed)


def evenset_to_fooling_points(
    inst: EvenSetInstance,
    eps: float,
    d: int,
    seed: int,
    cap: int = DEFAULT_SHIFT_CAP,
    sample_count: int | None = None,
) -> BitMat:
    """Balanced-code image of the instance rows, shifted to degree d.

    Any parity vanishing on every row of the instance vanishes on every
    output point; in the NO case the output inherits the degree-d bias bound.
    """
    code = balanced_code(dim=inst.m.rows, eps=eps, seed=seed)
    return fooling_points_with_generator(
        inst.m, code.generator, d, cap=cap, sample_count=sample_count, seed=seed + 1
    )
