"""The exact search core over packed GF(2) vectors.

Exact-weight layers are kept in colex order (subsets sorted by largest
element), so layer w is built from layer w-1 with one vectorized XOR per
column and positions can be unranked back into supports. Kernel search joins
two sorted layers on equal syndromes. Spans are enumerated in blocks: a table
of the span of the first ``_LOW_GENERATORS`` generators, built by doubling,
XORed with each offset of a Gray-code walk over the remaining generators.
"""

from __future__ import annotations

import random
from itertools import combinations, islice, product
from math import comb

import numpy as np

from .errors import ResourceError
from .f2 import BitVec

_LOW_GENERATORS = 16
_SKETCH_SEED = 0x5F2


def colex_unrank(rank: int, w: int) -> tuple[int, ...]:
    """The w-subset with the given colex rank, as an ascending index tuple."""
    out = []
    r = rank
    for i in range(w, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= r:
            c += 1
        out.append(c)
        r -= comb(c, i)
    return tuple(reversed(out))


def next_layer(cols: np.ndarray, w: int, prev: np.ndarray) -> np.ndarray:
    """Syndromes of all exact-w column subsets in colex order from the (w-1) layer."""
    n = len(cols)
    out = np.empty(comb(n, w), dtype=np.uint64)
    pos = 0
    for j in range(w - 1, n):
        cnt = comb(j, w - 1)
        out[pos : pos + cnt] = prev[:cnt] ^ cols[j]
        pos += cnt
    return out


def scan_layer(
    cols: np.ndarray, w: int, prev: np.ndarray, target: int, keep: bool, tie_cap: int = 1 << 20
) -> tuple[list[tuple[int, ...]], np.ndarray | None]:
    """One streamed pass over the exact-w layer.

    Returns (supports of subsets whose syndrome equals target, the full layer
    if ``keep`` and nothing was found, else None).
    """
    n = len(cols)
    t = np.uint64(target)
    hits: list[tuple[int, ...]] = []
    blocks: list[np.ndarray] = []
    for j in range(w - 1, n):
        cnt = comb(j, w - 1)
        if cnt == 0:
            continue
        block = prev[:cnt] ^ cols[j]
        for p in np.flatnonzero(block == t):
            hits.append(colex_unrank(int(p), w - 1) + (j,))
            if len(hits) > tie_cap:
                raise ResourceError(f"more than {tie_cap} equal-weight solutions; raise the tie cap")
        if keep:
            blocks.append(block)
    layer = None
    if keep and not hits:
        layer = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.uint64)
    return hits, layer


def subset_syndrome(cols: list[int], subset) -> int:
    s = 0
    for j in subset:
        s ^= cols[j]
    return s


def _keys64(cols: list[int]) -> np.ndarray:
    """Columns as uint64 join keys. Columns over 64 bits go through a fixed
    random linear map F2^m -> F2^64, which keeps every XOR relation, so no
    true hit is lost; false hits are removed by an exact re-check."""
    m = max((c.bit_length() for c in cols), default=0)
    if m > 64:
        rng = random.Random(_SKETCH_SEED)
        images = [rng.getrandbits(64) for _ in range(m)]
        cols = [subset_syndrome(images, (i for i in range(m) if c >> i & 1)) for c in cols]
    return np.array(cols, dtype=np.uint64)


def mitm_kernel_min_weight(cols: list[int], n: int, cap: int) -> tuple[int, BitVec, int] | None:
    """Smallest 1 <= w <= cap such that some w-subset of columns XORs to zero,
    with the lex-least witness and the work C(n, ceil(w/2)) + C(n, floor(w/2))
    summed over the weights tried; None if no such subset exists.

    Weight w joins the sorted colex layers of sizes ceil(w/2) and floor(w/2)
    on equal keys. No lighter kernel vector exists once weight w is reached,
    so every exact match is a pair of disjoint halves of a weight-w solution.
    """
    keys = _keys64(cols)
    layer = np.zeros(1, dtype=np.uint64)
    joined = [(layer, np.zeros(1, dtype=np.int64))]  # (sorted keys, colex ranks) per layer
    work = 0
    for w in range(1, cap + 1):
        w1, w2 = (w + 1) // 2, w // 2
        if len(joined) == w1:
            layer = next_layer(keys, w1, layer)
            order = np.argsort(layer, kind="stable")
            joined.append((layer[order], order))
        work += comb(n, w1) + comb(n, w2)
        hits = [BitVec.from_support(n, s) for s in _join(cols, joined[w1], joined[w2], w1, w2)]
        if hits:
            return w, min(hits, key=BitVec.lex_key), work
    return None


def _join(cols: list[int], a, b, w1: int, w2: int):
    """Supports of size w1 + w2 whose columns XOR to zero, from pairs of a
    w1-subset and a w2-subset with equal keys in the sorted layers a and b."""
    (ka, oa), (kb, ob) = a, b
    if w1 == w2:
        # Adjacent equal keys; a subset never pairs with itself.
        keys = np.unique(ka[1:][ka[1:] == ka[:-1]])
    elif not ka.size:  # fewer than w1 columns
        return
    else:
        pos = np.minimum(np.searchsorted(ka, kb), ka.size - 1)
        keys = np.unique(kb[ka[pos] == kb])
    for key in keys:
        ra = oa[np.searchsorted(ka, key, "left") : np.searchsorted(ka, key, "right")]
        rb = ob[np.searchsorted(kb, key, "left") : np.searchsorted(kb, key, "right")]
        for p, q in combinations(ra, 2) if w1 == w2 else product(ra, rb):
            support = set(colex_unrank(int(p), w1)) | set(colex_unrank(int(q), w2))
            if len(support) == w1 + w2 and subset_syndrome(cols, support) == 0:
                yield support


def block_ints(block: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in block.astype("<u8", copy=False)]


def span_blocks(basis: list[int], n: int):
    """(rows, weights) blocks holding the XOR of each subset of ``basis``
    (n-bit integers) once. The first block is the empty subset; the next are
    the halves added while the low table doubles, so a caller can stop early;
    then one block per Gray-code offset of the high generators. Rows are
    little-endian uint64 words."""
    words = max(1, -(-n // 64))
    buf = b"".join(v.to_bytes(8 * words, "little") for v in basis)
    vecs = np.frombuffer(buf, dtype="<u8").reshape(len(basis), words)
    table = np.zeros((1, vecs.shape[1]), dtype=np.uint64)
    yield table, np.zeros(1, dtype=np.int64)
    for c in vecs[:_LOW_GENERATORS]:
        half = table ^ c
        yield half, np.bitwise_count(half).sum(axis=1, dtype=np.int64)
        table = np.concatenate([table, half])
    high, offset = vecs[_LOW_GENERATORS:], np.zeros(vecs.shape[1], dtype=np.uint64)
    for i in range(1, 1 << len(high)):
        offset ^= high[(i & -i).bit_length() - 1]
        block = table ^ offset
        yield block, np.bitwise_count(block).sum(axis=1, dtype=np.int64)


def span_min_weight(basis: list[int], n: int) -> tuple[int, int] | None:
    """Minimum weight of a nonzero element of the span of the independent
    ``basis`` and the lex-least element of that weight; None if it is empty."""
    best, ties = n + 1, []
    for block, weights in islice(span_blocks(basis, n), 1, None):
        w = int(weights.min())
        if w < best:
            best, ties = w, []
        if w == best:
            ties += block_ints(block[weights == w])
    return (best, min(ties, key=lambda bits: BitVec(n, bits).lex_key())) if ties else None
