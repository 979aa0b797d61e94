"""Independent reference computations for checking the program's verdicts.

Nothing here imports sparsef2: the benchmark reads the program's files with
its own parsers and recomputes every answer with its own GF(2) code. Vectors
and matrix rows are Python ints with coordinate i at bit i, which is also the
order of the 0/1 characters in the text formats (coordinate 0 first).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


class CheckError(Exception):
    """A file the program wrote does not have the documented shape."""


# -- text formats --------------------------------------------------------


def to01(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n))


def from01(token: str, n: int) -> int:
    if len(token) != n or token.strip("01"):
        raise CheckError(f"expected {n} bits, got {token[:40]!r}")
    return int(token[::-1], 2) if n else 0


def significant(text: str) -> list[str]:
    return [s.strip() for s in text.splitlines() if s.strip() and not s.lstrip().startswith("#")]


def _matrix(lines: list[str], pos: int) -> tuple[int, list[int], int]:
    """(cols, rows as ints, next position) of the matrix starting at lines[pos]."""
    try:
        nrows, ncols = (int(t) for t in lines[pos].split())
    except (ValueError, IndexError):
        raise CheckError("bad matrix header") from None
    rows = [from01(lines[pos + 1 + i], ncols) for i in range(nrows)]
    return ncols, rows, pos + 1 + nrows


def _keyword(lines: list[str], pos: int, key: str) -> str:
    parts = lines[pos].split() if pos < len(lines) else []
    if len(parts) != 2 or parts[0] != key:
        raise CheckError(f"expected '{key} <value>' at significant line {pos}")
    return parts[1]


def graph_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def matrix_text(rows: list[int], ncols: int) -> str:
    return f"{len(rows)} {ncols}\n" + "".join(to01(r, ncols) + "\n" for r in rows)


def vectorsum_text(rows: list[int], ncols: int, b: int, k: int) -> str:
    return matrix_text(rows, ncols) + f"b {to01(b, len(rows))}\nk {k}\n"


def evenset_text(rows: list[int], ncols: int, k: int) -> str:
    return matrix_text(rows, ncols) + f"k {k}\n"


def pointvalues_text(points: list[int], values: list[int], n: int) -> str:
    return f"{len(points)} {n}\n" + "".join(f"{to01(p, n)} {v}\n" for p, v in zip(points, values))


def parse_vectorsum(text: str) -> tuple[int, list[int], int, int]:
    """(cols, rows, b, k)."""
    lines = significant(text)
    ncols, rows, pos = _matrix(lines, 0)
    b = from01(_keyword(lines, pos, "b"), len(rows))
    k = int(_keyword(lines, pos + 1, "k"))
    return ncols, rows, b, k


def parse_evenset(text: str) -> tuple[int, list[int], int]:
    """(cols, rows, k)."""
    lines = significant(text)
    ncols, rows, pos = _matrix(lines, 0)
    return ncols, rows, int(_keyword(lines, pos, "k"))


def parse_points(text: str) -> tuple[int, list[int]]:
    ncols, rows, _ = _matrix(significant(text), 0)
    return ncols, rows


def parse_pointvalues(text: str) -> tuple[int, list[int], list[int]]:
    lines = significant(text)
    count, n = (int(t) for t in lines[0].split())
    points, values = [], []
    for line in lines[1 : 1 + count]:
        z, v = line.split()
        points.append(from01(z, n))
        values.append(from01(v, 1))
    return n, points, values


def parse_report(stdout: str) -> dict[str, str]:
    """The key=value lines that 'sparsef2 ... --format lines' prints."""
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = val.strip()
    return out


# -- GF(2) linear algebra ------------------------------------------------


def mat_vec(rows: list[int], x: int) -> int:
    """Mx as an int with bit i = parity of row i against x."""
    y = 0
    for i, r in enumerate(rows):
        y |= ((r & x).bit_count() & 1) << i
    return y


def columns(rows: list[int], ncols: int) -> list[int]:
    cols = [0] * ncols
    for i, r in enumerate(rows):
        for j in range(ncols):
            if (r >> j) & 1:
                cols[j] |= 1 << i
    return cols


def kernel_basis(rows: list[int], ncols: int) -> list[int]:
    """Basis of {x : Mx = 0}, found as the linear dependencies among columns.

    Each column is reduced against the pivots of the earlier ones while its
    combination of original columns is tracked; a column that reduces to
    zero yields one kernel vector.
    """
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for j, col in enumerate(columns(rows, ncols)):
        combo = 1 << j
        while col:
            lead = col.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (col, combo)
                break
            pcol, pcombo = pivots[lead]
            col ^= pcol
            combo ^= pcombo
        else:
            basis.append(combo)
    return basis


def rank(rows: list[int], ncols: int) -> int:
    return ncols - len(kernel_basis(rows, ncols))


def kernel_min_weight(basis: list[int], ncols: int) -> tuple[int, int] | None:
    """(minimum weight, one vector of that weight) over the nonzero span of
    ``basis``; None for an empty basis. Vectorised for ncols <= 64."""
    dim = len(basis)
    if dim == 0:
        return None
    if ncols > 64 or dim <= 12:
        best = None
        for mask in range(1, 1 << dim):
            v = 0
            for i in range(dim):
                if (mask >> i) & 1:
                    v ^= basis[i]
            if best is None or v.bit_count() < best[0]:
                best = (v.bit_count(), v)
        return best
    low = min(dim, 16)
    table = np.zeros(1, dtype=np.uint64)
    for b in basis[:low]:
        table = np.concatenate([table, table ^ np.uint64(b)])
    weights = np.bitwise_count(table)
    weights[0] = ncols + 1  # the empty combination
    best_i = int(np.argmin(weights))
    best = (int(weights[best_i]), int(table[best_i]))
    high = basis[low:]
    for mask in range(1, 1 << len(high)):
        offset = 0
        for i, b in enumerate(high):
            if (mask >> i) & 1:
                offset ^= b
        block = table ^ np.uint64(offset)
        w = np.bitwise_count(block)
        i = int(np.argmin(w))
        if int(w[i]) < best[0]:
            best = (int(w[i]), int(block[i]))
    return best


def sparse_min_weight(rows: list[int], ncols: int, cap: int) -> tuple[int, int] | None:
    """(w, vector) for the least 1 <= w <= cap such that some w columns XOR to
    zero, or None. Needs at most 64 rows.

    Every such set splits into two column sets A, B of size <= ceil(cap/2)
    with equal sums, and every pair of distinct sets with equal sums gives the
    nonzero kernel vector A xor B; so the answer is the lightest such pair.
    """
    if len(rows) > 64:
        raise CheckError("sparse reference search supports at most 64 rows")
    half = (cap + 1) // 2
    cols = np.array(columns(rows, ncols), dtype=np.uint64)
    index_sets = [np.zeros((1, 0), dtype=np.intp)]
    sums = [np.zeros(1, dtype=np.uint64)]
    for size in range(1, half + 1):
        idx = np.array(list(combinations(range(ncols), size)), dtype=np.intp).reshape(-1, size)
        acc = cols[idx[:, 0]].copy()
        for t in range(1, size):
            acc ^= cols[idx[:, t]]
        index_sets.append(idx)
        sums.append(acc)
    starts_of_size = np.cumsum([0] + [len(s) for s in sums])

    def subset(pos: int) -> set[int]:
        size = int(np.searchsorted(starts_of_size, pos, side="right")) - 1
        return set(index_sets[size][pos - starts_of_size[size]].tolist())

    allsums = np.concatenate(sums)
    order = np.argsort(allsums, kind="stable")
    srt = allsums[order]
    change = np.flatnonzero(srt[1:] != srt[:-1]) + 1
    run_starts = np.concatenate([[0], change])
    run_ends = np.concatenate([change, [len(srt)]])
    best = None
    for r in np.flatnonzero(run_ends - run_starts > 1):
        group = [subset(int(p)) for p in order[run_starts[r] : run_ends[r]]]
        for a, b in combinations(group, 2):
            support = a ^ b
            w = len(support)
            if 0 < w <= cap and (best is None or w < best[0]):
                best = (w, sum(1 << j for j in support))
    return best


# -- cliques and small systems -------------------------------------------


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def has_clique(n: int, edges, k: int) -> bool:
    adj = adjacency(n, edges)

    def grow(clique: list[int], cands: set[int]) -> bool:
        if len(clique) == k:
            return True
        for v in sorted(cands):
            if grow(clique + [v], {u for u in cands & adj[v] if u > v}):
                return True
        return False

    return grow([], set(range(1, n + 1)))


def is_clique(n: int, edges, vertices) -> bool:
    adj = adjacency(n, edges)
    return all(1 <= v <= n for v in vertices) and all(
        v in adj[u] for u, v in combinations(sorted(vertices), 2)
    )


def min_solution_weight(rows: list[int], ncols: int, b: int, k: int) -> int | None:
    """Least weight <= k of x with Mx = b (x = 0 counts when b = 0), by brute force."""
    cols = columns(rows, ncols)
    for w in range(k + 1):
        for sub in combinations(range(ncols), w):
            s = 0
            for j in sub:
                s ^= cols[j]
            if s == b:
                return w
    return None


# -- learning and fooling ------------------------------------------------


def parity_agreements(n: int, points: list[int], values: list[int], k: int) -> list[Fraction]:
    """Agreement of every form <x, z> + c with |support x| <= k and c in {0, 1}."""
    pts = np.array(points, dtype=np.uint64)
    vals = np.array(values, dtype=np.uint64)
    m = len(points)
    out = []
    for w in range(min(k, n) + 1):
        for sub in combinations(range(n), w):
            mask = np.uint64(sum(1 << i for i in sub))
            hits = int(np.count_nonzero((np.bitwise_count(pts & mask) & np.uint64(1)) == vals))
            out.append(Fraction(hits, m))
            out.append(Fraction(m - hits, m))
    return out


def _patterns(pts: np.ndarray, sub) -> np.ndarray:
    pattern = np.zeros(len(pts), dtype=np.int64)
    for pos, i in enumerate(sub):
        pattern |= ((pts >> np.uint64(i)) & np.uint64(1)).astype(np.int64) << pos
    return pattern


def best_junta_agreement(n: int, points: list[int], values: list[int], k: int) -> Fraction:
    """Max agreement over all Boolean functions of <= k coordinates."""
    pts = np.array(points, dtype=np.uint64)
    vals = np.array(values, dtype=np.int64)
    size = 1 << min(k, n)
    best = 0
    for sub in combinations(range(n), min(k, n)):
        key = _patterns(pts, sub) * 2 + vals
        counts = np.bincount(key, minlength=2 * size).reshape(size, 2)
        best = max(best, int(counts.max(axis=1).sum()))
    return Fraction(best, len(points))


def distribution_bias(n: int, points: list[int], k: int) -> float:
    """Max over nonzero forms on <= k coordinates of |mean (-1)^<x, z>|."""
    pts = np.array(points, dtype=np.uint64)
    m = len(points)
    worst = 0
    for w in range(1, min(k, n) + 1):
        for sub in combinations(range(n), w):
            mask = np.uint64(sum(1 << i for i in sub))
            odd = int(np.count_nonzero(np.bitwise_count(pts & mask) & np.uint64(1)))
            worst = max(worst, abs(m - 2 * odd))
    return worst / m


def poly_advantage_all_functions(n: int, points: list[int], k: int) -> Fraction:
    """Max over k-subsets of coordinates and over nonzero functions f of them
    of Pr_points[f = 0] - Pr_uniform[f = 0].

    For degree d >= k every function of k bits is a polynomial of degree <= d,
    so this is the exact degree-d, k-variable advantage.
    """
    pts = np.array(points, dtype=np.uint64)
    m = len(points)
    kk = min(k, n)
    size = 1 << kk
    best = None
    for sub in combinations(range(n), kk):
        counts = np.bincount(_patterns(pts, sub), minlength=size)
        for table in range(1, 1 << size):  # truth table; bit p = f(pattern p)
            zeros = [p for p in range(size) if not (table >> p) & 1]
            adv = Fraction(int(counts[zeros].sum()) if zeros else 0, m) - Fraction(len(zeros), size)
            if best is None or adv > best:
                best = adv
    return best


# -- codes ----------------------------------------------------------------


def code_min_distance(gen_rows: list[int], dim: int) -> int:
    """Least weight of a nonzero codeword G m of a length x dim generator."""
    cols = columns(gen_rows, dim)
    best = None
    for msg in range(1, 1 << dim):
        cw = 0
        for i in range(dim):
            if (msg >> i) & 1:
                cw ^= cols[i]
        if best is None or cw.bit_count() < best:
            best = cw.bit_count()
    return best


def symmetric_product_min_weight(gen_rows: list[int], dim: int) -> int | None:
    """Least weight of a nonzero symmetric zero-diagonal matrix G X G^T, over
    all dim x dim message matrices X; None if there is none."""
    length = len(gen_rows)
    g = np.array([[(r >> j) & 1 for j in range(dim)] for r in gen_rows], dtype=np.int32)
    best = None
    total = 1 << (dim * dim)
    chunk = 4096
    for lo in range(1, total, chunk):
        msgs = np.arange(lo, min(total, lo + chunk), dtype=np.int64)
        x = ((msgs[:, None] >> np.arange(dim * dim)) & 1).astype(np.int32).reshape(-1, dim, dim)
        y = (np.einsum("ia,mab,jb->mij", g, x, g) & 1).astype(np.uint8)
        flat = y.reshape(len(msgs), -1)
        zero_diag = ~np.diagonal(y, axis1=1, axis2=2).any(axis=1)
        symmetric = (y == np.transpose(y, (0, 2, 1))).reshape(len(msgs), -1).all(axis=1)
        keep = flat.any(axis=1) & zero_diag & symmetric
        if keep.any():
            w = int(flat[keep].sum(axis=1, dtype=np.int64).min())
            best = w if best is None else min(best, w)
    return best
