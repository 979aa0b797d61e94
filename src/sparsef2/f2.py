"""Bit-packed linear algebra over GF(2).

Vectors and matrices hold their entries in Python integers used as bitsets
(coordinate ``i`` is bit ``i``), so a row operation is a single XOR and
weight/equality are exact: no bits ever exist outside ``[0, len)``.
All values are immutable; every operation returns a fresh object.
Elimination runs on the rows packed into little-endian uint64 words
(``pack_rows``), the layout the search core enumerates spans in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, InputError, ValidationError


_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_WORD_BIT = tuple(np.uint64(1 << b) for b in range(64))


def _mask(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True)
class BitVec:
    """Vector over GF(2); coordinate ``i`` is bit ``i`` of ``bits``."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"negative length {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValidationError("bits outside [0, len) are not allowed")

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVec":
        return cls(n, _mask(n))

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVec":
        if not 0 <= i < n:
            raise InputError(f"coordinate {i} outside [0, {n})")
        return cls(n, 1 << i)

    @classmethod
    def from_bits(cls, seq: Iterable[int]) -> "BitVec":
        bits = 0
        n = 0
        for b in seq:
            if b not in (0, 1):
                raise InputError(f"entry {b!r} is not a bit")
            bits |= b << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from01(cls, s: str) -> "BitVec":
        if s.strip("01"):  # what is left starts with a character other than 0 and 1
            raise InputError(f"{s!r} is not a 01 string")
        return cls(len(s), int(s[::-1], 2) if s else 0)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BitVec":
        bits = 0
        for i in support:
            if not 0 <= i < n:
                raise InputError(f"coordinate {i} outside [0, {n})")
            bits |= 1 << i
        return cls(n, bits)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise InputError(f"coordinate {i} outside [0, {self.n})")
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise DimensionError(f"length mismatch {self.n} != {other.n}")
        return BitVec(self.n, self.bits ^ other.bits)

    __add__ = __xor__

    def dot(self, other: "BitVec") -> int:
        if self.n != other.n:
            raise DimensionError(f"length mismatch {self.n} != {other.n}")
        return (self.bits & other.bits).bit_count() & 1

    def to01(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def lex_key(self) -> int:
        """Sort key for all tie-breaking: ordered as the coordinate-0-first 01
        string among vectors of one length, it is the bit-reversed value."""
        size = -(-self.n // 8)
        reversed_bytes = self.bits.to_bytes(size, "little").translate(_BYTE_REVERSED)
        return int.from_bytes(reversed_bytes, "big") >> (8 * size - self.n)

    def __repr__(self) -> str:
        return f"BitVec('{self.to01()}')" if self.n <= 64 else f"BitVec(n={self.n}, wt={self.weight()})"


@dataclass(frozen=True)
class BitMat:
    """Matrix over GF(2); row ``i`` is the packed integer ``row_bits[i]``."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValidationError("negative dimension")
        if len(self.row_bits) != self.rows:
            raise ValidationError(f"expected {self.rows} rows, got {len(self.row_bits)}")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValidationError("row bits outside [0, cols) are not allowed")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMat":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence, cols: int | None = None) -> "BitMat":
        """Build from a sequence of BitVec, 01-strings, or bit sequences."""
        vecs = [r if isinstance(r, BitVec) else BitVec.from01(r) if isinstance(r, str) else BitVec.from_bits(r) for r in rows]
        if cols is None:
            if not vecs:
                raise InputError("cannot infer column count from zero rows")
            cols = vecs[0].n
        for v in vecs:
            if v.n != cols:
                raise DimensionError(f"row of length {v.n}, expected {cols}")
        return cls(len(vecs), cols, tuple(v.bits for v in vecs))

    @classmethod
    def from_bitrows(cls, row_ints: Sequence[int], cols: int) -> "BitMat":
        return cls(len(row_ints), cols, tuple(row_ints))

    @classmethod
    def from_cols(cls, col_ints: Sequence[int], rows: int) -> "BitMat":
        """Build from column bitsets (bit ``i`` of a column is row ``i``)."""
        out = [0] * rows
        for j, c in enumerate(col_ints):
            if c < 0 or c >> rows:
                raise ValidationError("column bits outside [0, rows) are not allowed")
            while c:
                i = (c & -c).bit_length() - 1
                out[i] |= 1 << j
                c &= c - 1
        return cls(rows, len(col_ints), tuple(out))

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.row_bits[i])

    def col(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise InputError(f"column {j} outside [0, {self.cols})")
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r >> j) & 1) << i
        return BitVec(self.rows, bits)

    def col_bits(self) -> list[int]:
        """All columns as packed integers (bit ``i`` of column ``j`` is entry ``ij``)."""
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:
                j = (r & -r).bit_length() - 1
                out[j] |= 1 << i
                r &= r - 1
        return out

    def transpose(self) -> "BitMat":
        return BitMat(self.cols, self.rows, tuple(self.col_bits()))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    def __matmul__(self, other):
        if isinstance(other, BitVec):
            return mat_vec_mul(self, other)
        if isinstance(other, BitMat):
            return mat_mul(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"BitMat({self.rows}x{self.cols})"


def mat_vec_mul(m: BitMat, x: BitVec) -> BitVec:
    """y = Mx over GF(2); y_i is the parity of the masked row."""
    if x.n != m.cols:
        raise DimensionError(f"vector length {x.n}, matrix has {m.cols} columns")
    bits = 0
    for i, r in enumerate(m.row_bits):
        bits |= ((r & x.bits).bit_count() & 1) << i
    return BitVec(m.rows, bits)


def mat_mul(a: BitMat, b: BitMat) -> BitMat:
    if a.cols != b.rows:
        raise DimensionError(f"inner dimension mismatch {a.cols} != {b.rows}")
    out = []
    for r in a.row_bits:
        acc = 0
        rr = r
        while rr:
            j = (rr & -rr).bit_length() - 1
            acc ^= b.row_bits[j]
            rr &= rr - 1
        out.append(acc)
    return BitMat(a.rows, b.cols, tuple(out))


def weight(x: BitVec) -> int:
    return x.weight()


def pack_rows(row_ints: Sequence[int], cols: int) -> np.ndarray:
    """Read-only (rows, words) array of little-endian uint64 words, words =
    max(1, ceil(cols / 64)): bit j of a row is bit j % 64 of its word j // 64."""
    words = max(1, -(-cols // 64))
    buf = b"".join(r.to_bytes(8 * words, "little") for r in row_ints)
    return np.frombuffer(buf, dtype="<u8").reshape(len(row_ints), words)


def unpack_rows(words: np.ndarray) -> list[int]:
    """One int per row of a 2-D array of little-endian words (uint64 as from
    ``pack_rows``, or bytes)."""
    buf = words.astype(words.dtype.newbyteorder("<"), copy=False).tobytes()
    size = words.shape[1] * words.itemsize
    return [int.from_bytes(buf[i : i + size], "little") for i in range(0, len(buf), size)]


def rref(m: BitMat) -> tuple[tuple[int, ...], BitMat]:
    """Reduced row echelon form; returns (pivot column indices, reduced matrix).

    Runs on packed words. For each column, the rows holding its bit come from
    one word column; the first of them at or below the next pivot row is the
    pivot. Rows below the pivot rows are zero in every earlier column, so the
    pivot is XORed into the other hits from its own word on, and moves up.
    """
    a = pack_rows(m.row_bits, m.cols).copy()
    pivots = []
    for col in range(m.cols):
        row = len(pivots)
        if row == m.rows:
            break
        w = col >> 6
        hits = (a[:, w] & _WORD_BIT[col & 63]).nonzero()[0]
        k = hits.searchsorted(row)
        if k == len(hits):
            continue
        sel = hits[k]
        pivot = a[sel, w:].copy()
        a[hits, w:] ^= pivot  # clears row sel as well
        a[sel] = a[row]  # row `row` holds the bit only if it is sel
        a[row, w:] = pivot
        pivots.append(col)
    return tuple(pivots), BitMat(m.rows, m.cols, tuple(unpack_rows(a)))


def rank(m: BitMat) -> int:
    return len(rref(m)[0])


def nullspace_basis(m: BitMat) -> list[BitVec]:
    """Basis of {x : Mx = 0}; one vector per free column, free columns ascending.

    The vector of free column f has bit f, and bit p_r for each pivot row r
    that holds f: one transpose of the reduced rows' bit matrix."""
    pivots, red = rref(m)
    free = np.delete(np.arange(m.cols), pivots)
    if not len(free):
        return []
    rows = pack_rows(red.row_bits[: len(pivots)], m.cols).view(np.uint8)
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    out = np.zeros((len(free), m.cols), dtype=np.uint8)
    out[:, list(pivots)] = bits[:, free].T
    out[np.arange(len(free)), free] = 1
    return [BitVec(m.cols, v) for v in unpack_rows(np.packbits(out, axis=1, bitorder="little"))]


def gauss_solve(m: BitMat, b: BitVec) -> BitVec | None:
    """Any x with Mx = b, or None if the system is inconsistent.

    Free variables are set to 0; no sparsity promise is made.
    """
    if b.n != m.rows:
        raise DimensionError(f"rhs length {b.n}, matrix has {m.rows} rows")
    # Eliminate on the augmented system, rhs carried in bit position `cols`.
    aug = BitMat(m.rows, m.cols + 1, tuple(r | (((b.bits >> i) & 1) << m.cols) for i, r in enumerate(m.row_bits)))
    pivots, red = rref(aug)
    if m.cols in pivots:
        return None
    bits = 0
    for r, pc in enumerate(pivots):
        if (red.row_bits[r] >> m.cols) & 1:
            bits |= 1 << pc
    x = BitVec(m.cols, bits)
    if mat_vec_mul(m, x) != b:
        raise ValidationError("elimination produced a non-solution; this is a bug")
    return x
