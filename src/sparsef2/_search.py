"""The exact search core over packed GF(2) vectors.

Exact-weight layers are kept in colex order (subsets sorted by largest
element), so layer w is built from layer w-1 with one vectorized XOR per
column and positions can be unranked back into supports. The lightest set of
columns with a given XOR is found by joining sorted layers: one linear map
first turns the target into the unit vector 1 (or keeps it 0), so matching
keys are equal or differ in bit 0 only. Spans are enumerated in blocks: a
table of the span of the first ``_LOW_GENERATORS`` generators, built by
doubling, XORed with each offset of a Gray-code walk over the remaining
generators.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import islice, product
from math import comb

import numpy as np

from .errors import ResourceError
from .f2 import BitVec, pack_rows, unpack_rows

DEFAULT_ENUM_CAP = 80_000_000
# Kernels and codes of at most this dimension are enumerated in full.
FULL_ENUM_DIM = 24
_LOW_GENERATORS = 16
# scan_layer refuses to collect more equal-weight hits than this.
_TIE_CAP = 1 << 20
_SKETCH_SEED = 0x5F2
_BLOCK = 1 << 16
# Odd multiplier of the hash whose top 16 bits index the filter in _supports.
_HASH, _HASH_SHIFT = np.uint64(0x9E3779B97F4A7C15), np.uint64(48)


@lru_cache(maxsize=256)
def _binomials(i: int, size: int) -> tuple[int, ...]:
    """C(c, i) for 0 <= c < size."""
    return tuple(comb(c, i) for c in range(size))


def colex_unrank(rank: int, w: int) -> tuple[int, ...]:
    """The w-subset with the given colex rank, as an ascending index tuple:
    from i = w down to 1, the largest c with C(c, i) <= the rank left."""
    out = []
    for i in range(w, 0, -1):
        size = 64
        while comb(size - 1, i) <= rank:
            size *= 2
        c = bisect_right(_binomials(i, size), rank) - 1
        out.append(c)
        rank -= comb(c, i)
    return tuple(reversed(out))


def next_layer(cols: np.ndarray, w: int, prev: np.ndarray) -> np.ndarray:
    """Syndromes of all exact-w column subsets in colex order from the (w-1) layer."""
    layer = np.empty(comb(len(cols), w), dtype=np.uint64)
    for _ in _layer_chunks(cols, w, prev, layer):
        pass
    return layer


def _layer_chunks(cols: np.ndarray, w: int, prev: np.ndarray, layer: np.ndarray | None = None):
    """Colex layer w, rebuilt from layer w - 1, as (rank of the first key,
    keys) chunks. With ``layer`` the keys are written into it and come as one
    chunk; otherwise a buffer of at most ``_BLOCK`` keys is reused, so each
    chunk must be consumed before the next is drawn."""
    buf = layer if layer is not None else np.empty(min(_BLOCK, comb(len(cols), w)), dtype=np.uint64)
    start = fill = 0
    for j in range(w - 1, len(cols)):
        cnt = comb(j, w - 1)
        for lo in range(0, cnt, _BLOCK):
            part = prev[lo : min(cnt, lo + _BLOCK)]
            if fill + part.size > buf.size:
                yield start, buf[:fill]
                start, fill = start + fill, 0
            np.bitwise_xor(part, cols[j], out=buf[fill : fill + part.size])
            fill += part.size
    yield start, buf[:fill]


def scan_layer(
    cols: np.ndarray, w: int, prev: np.ndarray, target: int, keep: bool
) -> tuple[list[tuple[int, ...]], np.ndarray | None]:
    """One streamed pass over the exact-w layer.

    Returns (supports of subsets whose syndrome equals target, the full layer
    if ``keep``, else None).
    """
    t = np.uint64(target)
    hits: list[tuple[int, ...]] = []
    layer = np.empty(comb(len(cols), w), dtype=np.uint64) if keep else None
    for start, chunk in _layer_chunks(cols, w, prev, layer):
        for p in np.flatnonzero(chunk == t):
            hits.append(colex_unrank(start + int(p), w))
            if len(hits) > _TIE_CAP:
                raise ResourceError(f"more than {_TIE_CAP} equal-weight solutions")
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


def _rotate(keys: np.ndarray, target: int) -> np.ndarray:
    """Keys under the invertible linear map of F2^64 that sends the nonzero
    ``target`` to 1: x -> x ^ x_l (target ^ 2^l), then bits 0 and l swapped,
    where l is the lowest set bit of the target."""
    low, one = np.uint64((target & -target).bit_length() - 1), np.uint64(1)
    keys = keys ^ ((keys >> low) & one) * np.uint64(target & (target - 1))
    swap = (keys ^ (keys >> low)) & one
    return keys ^ swap ^ (swap << low)


def search_work(n: int, max_weight: int, join: bool) -> int:
    """The work of a search of n columns over the weights 1..max_weight:
    C(n, ceil(w/2)) + C(n, floor(w/2)) summed for the join, C(n, w) summed
    for the scan. It is the work a search reports when it stops at
    ``max_weight``, so no run of that search does more."""
    if join:
        return sum(comb(n, (w + 1) // 2) + comb(n, w // 2) for w in range(1, max_weight + 1))
    return sum(comb(n, w) for w in range(1, max_weight + 1))


def check_cap(work: int, cap: int) -> None:
    """Refuse, before anything is allocated, a search whose worst-case work exceeds ``cap``."""
    if work > cap:
        raise ResourceError(f"predicted work {work} exceeds cap {cap}")


def lightest_by_join(
    cols: list[int], n: int, target: int, max_weight: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[tuple[int, BitVec] | None, int]:
    """The lightest nonempty set of at most ``max_weight`` of the n columns
    whose XOR is ``target``, as (weight, lex-least witness) or None, and the
    work ``search_work(n, w, join=True)`` up to the last weight w tried.
    ResourceError if that work can exceed ``cap``.

    The keys are rotated so that the target becomes tau = 1 (tau = 0 for a
    zero target), and weight w joins the sorted colex layers of sizes
    h = ceil(w/2) and floor(w/2) on keys that XOR to tau: adjacent keys of
    layer h for even w, a binary search of layer h - 1 in layer h for odd w.
    No lighter solution exists once weight w is reached, so every exact
    match is a pair of disjoint halves of a weight-w solution.
    """
    bound = search_work(n, max_weight, True)
    check_cap(bound, cap)
    keys = _keys64(cols + [target])
    keys, tau = (keys[:-1], 0) if keys[-1] == 0 else (_rotate(keys[:-1], int(keys[-1])), 1)
    prev = low = high = np.zeros(1, dtype=np.uint64)  # layer h - 1 in colex order, sorted layers h - 1 and h
    for w in range(1, max_weight + 1):
        h = (w + 1) // 2
        if w > n:
            continue
        if w % 2:
            # Only the sorted copy of layer h is kept; the small colex layer h - 1 is rebuilt.
            if h > 1:
                prev, low = next_layer(keys, h - 1, prev), high
            high = next_layer(keys, h, prev)
            high.sort()
            probes = low ^ np.uint64(tau)
            pos = np.minimum(np.searchsorted(high, probes), high.size - 1)
            vals = np.unique(probes[high[pos] == probes])
        else:
            runs = (high[i : i + _BLOCK + 1] for i in range(0, high.size, _BLOCK))
            vals = np.unique(np.concatenate([s[:-1][(s[1:] ^ s[:-1]) == tau] for s in runs]))
        supports = (frozenset(p + q) for p, q in _halves(keys, h, prev, vals, tau, w % 2))
        found = {s for s in supports if len(s) == w and subset_syndrome(cols, s) == target}
        if found:
            return (w, min((BitVec.from_support(n, s) for s in found), key=BitVec.lex_key)), search_work(n, w, True)
    return None, bound


def lightest_by_scan(
    cols: list[int], n: int, target: int, max_weight: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[tuple[int, BitVec] | None, int]:
    """``lightest_by_join`` by streaming every colex layer up to
    ``max_weight`` through ``scan_layer``; the work is the number of subsets
    enumerated, ``search_work(n, w, join=False)``."""
    bound = search_work(n, max_weight, False)
    check_cap(bound, cap)
    keys = _keys64(cols + [target])
    keys, key = keys[:-1], int(keys[-1])
    prev = np.zeros(1, dtype=np.uint64)
    for w in range(1, max_weight + 1):
        hits, layer = scan_layer(keys, w, prev, key, keep=w < max_weight)
        exact = [BitVec.from_support(n, s) for s in hits if subset_syndrome(cols, s) == target]
        if exact:
            return (w, min(exact, key=BitVec.lex_key)), search_work(n, w, False)
        prev = layer
    return None, bound


def _halves(keys: np.ndarray, h: int, prev: np.ndarray, vals: np.ndarray, tau: int, odd: int):
    """Pairs (p, q) of supports from layer h and layer h - odd with keys v
    and v ^ tau, for v in ``vals``, keys of layer h; layer h is rebuilt
    from its colex predecessor ``prev``."""
    if not vals.size:
        return
    if odd:
        big = _supports(_layer_chunks(keys, h, prev), h, vals)
        small = _supports([(0, prev)], h - 1, vals ^ np.uint64(tau))
    else:
        big = small = _supports(_layer_chunks(keys, h, prev), h, np.concatenate([vals, vals ^ np.uint64(tau)]))
    for v in map(int, vals):
        yield from product(big[v], small[v ^ tau])


def _supports(chunks, w: int, vals: np.ndarray) -> dict[int, list[tuple[int, ...]]]:
    """Supports of the w-subsets whose key is in ``vals``, by key, from
    (first rank, keys) chunks of colex layer w. A 2^16-entry sieve indexed
    by a multiplicative hash of the key picks the candidates."""
    wanted = set(map(int, vals))
    sieve = np.zeros(1 << 16, dtype=bool)
    sieve[(vals * _HASH) >> _HASH_SHIFT] = True
    found: dict[int, list[tuple[int, ...]]] = {}
    for start, chunk in chunks:
        hashed = chunk * _HASH
        hashed >>= _HASH_SHIFT
        for p in np.flatnonzero(sieve[hashed]):
            key = int(chunk[p])
            if key in wanted:
                found.setdefault(key, []).append(colex_unrank(start + int(p), w))
    return found


def mitm_kernel_min_weight(
    cols: list[int], n: int, max_weight: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, BitVec, int] | None:
    """Smallest 1 <= w <= max_weight such that some w-subset of columns XORs
    to zero, with the lex-least witness and the work ``search_work(n, w,
    join=True)``; None if no such subset exists. ResourceError if the work
    can exceed ``cap``."""
    found, work = lightest_by_join(cols, n, 0, max_weight, cap)
    return None if found is None else (*found, work)


def span_blocks(basis: list[int], n: int):
    """(rows, weights) blocks holding the XOR of each subset of ``basis``
    (n-bit integers) once. The first block is the empty subset; the next are
    the halves added while the low table doubles, so a caller can stop early;
    then one block per Gray-code offset of the high generators. Rows are
    little-endian uint64 words."""
    vecs = pack_rows(basis, n)
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


def span_min_weight(basis: list[int], n: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[int, int] | None:
    """Minimum weight of a nonzero element of the span of the independent
    ``basis`` and the lex-least element of that weight; None if it is empty.
    ResourceError if its 2^len(basis) - 1 nonzero elements exceed ``cap``."""
    check_cap((1 << len(basis)) - 1, cap)
    best, ties = n + 1, []
    for block, weights in islice(span_blocks(basis, n), 1, None):
        w = int(weights.min())
        if w < best:
            best, ties = w, []
        if w == best:
            ties += unpack_rows(block[weights == w])
    return (best, min(ties, key=lambda bits: BitVec(n, bits).lex_key())) if ties else None
