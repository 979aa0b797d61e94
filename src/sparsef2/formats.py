"""Line-oriented text formats for every instance kind.

One record per line, '0'/'1' characters for bits, 1-based vertex labels in
graph files. Lines starting with '#' are provenance comments: parsers skip
them, emitters may write them. All emitters are deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from .codes import LinearCode
from .errors import InputError, ParseError
from .f2 import BitMat, BitVec, pack_rows, unpack_rows
from .graphs import Graph
from .instances import EvenSetInstance, PointValueSet, VectorSumInstance

KINDS = ("graph", "vectorsum", "evenset", "pointvalues", "points", "code")


class _Lines:
    """Cursor over the significant lines of a text: blank lines and '#'
    comments are skipped, and each line keeps its original number."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0  # index of the next line not yet read

    def _peek(self) -> str | None:
        """The next significant line, stripped (None at the end); the
        lines skipped on the way are consumed."""
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            if line and line[0] != "#":
                return line
            self.pos += 1
        return None

    def next(self, what: str) -> tuple[int, str]:
        line = self._peek()
        if line is None:
            raise ParseError(f"unexpected end of file, expected {what}")
        self.pos += 1
        return self.pos, line

    def end(self, what: str) -> None:
        """ParseError unless every line left is blank or a comment."""
        if self._peek() is not None:
            raise ParseError(f"trailing content after {what}", self.pos + 1)


def _ints(line: str, count: int, lineno: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise ParseError(f"expected {count} fields for {what}, got {len(parts)}", lineno)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-integer field in {what}", lineno) from None


def _bits(token: str, n: int, lineno: int) -> int:
    """An n-character 01 string as the int whose bit i is character i."""
    if len(token) != n or token.strip("01"):
        raise ParseError(f"expected {n} bits, got {token!r}", lineno)
    return int(token[::-1], 2) if n else 0


def _header(lines: Iterable[str]) -> str:
    return "".join(f"# {line}\n" for line in lines)


# -- graphs --------------------------------------------------------------

def loads_graph(text: str) -> Graph:
    cur = _Lines(text)
    lineno, head = cur.next("vertex and edge counts")
    n, m = _ints(head, 2, lineno, "graph header")
    edges = []
    for _ in range(m):
        lineno, line = cur.next("an edge")
        u, v = _ints(line, 2, lineno, "edge")
        if u == v or not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"bad edge ({u}, {v}) for {n} vertices", lineno)
        edges.append((u, v))
    cur.end(f"{m} edges")
    try:
        return Graph.from_edges(n, edges)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def dumps_graph(g: Graph, header: Iterable[str] = ()) -> str:
    body = [f"{g.n} {g.num_edges}"] + [f"{u} {v}" for u, v in g.edges]
    return _header(header) + "\n".join(body) + "\n"


# -- matrices ------------------------------------------------------------
#
# A matrix block is a 'rows cols' line and one line of cols '0'/'1'
# characters per row, character j being bit j of the row. Points, vector-sum,
# even-set and code files share it, and it is read and written in numpy: the
# rows are packed into the little-endian words of ``f2.pack_rows``.

def _block_rows(lines: list[str], cols: int) -> list[int] | None:
    """The rows of a block as ints, or None unless every line is cols
    '0'/'1' characters: the newline-joined lines are checked and packed as
    one (rows, cols + 1) byte array. Any other character encodes to a byte
    other than '0' and '1' (unencodable ones to '?')."""
    if not lines:
        return []
    raw = np.frombuffer(("\n".join(lines) + "\n").encode(errors="replace"), dtype=np.uint8)
    if raw.size != len(lines) * (cols + 1):
        return None
    raw = raw.reshape(len(lines), cols + 1)
    bits = raw[:, :cols] ^ ord("0")
    if not (raw[:, cols] == ord("\n")).all() or (bits > 1).any():
        return None
    packed = np.zeros((len(lines), 8 * max(1, -(-cols // 64))), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return unpack_rows(packed.view("<u8"))


def _read_rows(cur: _Lines) -> tuple[list[int], int]:
    """The rows of a matrix block as ints, and its column count. A block
    written as the format defines it is its next ``rows`` lines as they
    stand and is read in one numpy pass; any other text is read one row at
    a time, which reports the first bad row before a missing one."""
    lineno, head = cur.next("matrix dimensions")
    rows, cols = _ints(head, 2, lineno, "matrix header")
    if rows < 0 or cols < 0:
        raise ParseError("negative matrix dimension", lineno)
    lines = cur.lines[cur.pos : cur.pos + rows]
    bits = _block_rows(lines, cols) if len(lines) == rows else None
    if bits is not None:
        cur.pos += rows
        return bits, cols
    bits = []
    for _ in range(rows):
        lineno, line = cur.next("a matrix row")
        bits.append(_bits(line, cols, lineno))
    return bits, cols


def _read_matrix(cur: _Lines) -> BitMat:
    return BitMat.from_bitrows(*_read_rows(cur))


def _matrix_block(m: BitMat) -> str:
    """The block of ``m``, every line ending in a newline: the rows' bits
    are unpacked, shifted to '0'/'1' and given a newline column, then written
    with one ``tobytes``."""
    if m.cols == 0 and m.rows > 0:
        raise InputError("zero-width rows cannot be written")
    bits = np.unpackbits(pack_rows(m.row_bits, m.cols).view(np.uint8), axis=1, count=m.cols, bitorder="little")
    text = np.empty((m.rows, m.cols + 1), dtype=np.uint8)
    np.add(bits, ord("0"), out=text[:, : m.cols])
    text[:, m.cols] = ord("\n")
    return f"{m.rows} {m.cols}\n" + text.tobytes().decode("ascii")


def loads_points(text: str) -> BitMat:
    """A points file: one point per row of its matrix block."""
    cur = _Lines(text)
    rows, cols = _read_rows(cur)
    cur.end("matrix rows")
    return BitMat.from_bitrows(rows, cols)


def dumps_points(points: BitMat, header: Iterable[str] = ()) -> str:
    """The points (the rows of ``points``) as a matrix block."""
    if not points.rows:
        raise InputError("refusing to write an empty point list")
    return _header(header) + _matrix_block(points)


# -- problem instances ---------------------------------------------------

def loads_vectorsum(text: str) -> VectorSumInstance:
    cur = _Lines(text)
    m = _read_matrix(cur)
    lineno, line = cur.next("the target line 'b <bits>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "b":
        raise ParseError("expected 'b <bits>'", lineno)
    b = BitVec(m.rows, _bits(parts[1], m.rows, lineno))
    lineno, line = cur.next("the sparsity line 'k <int>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "k":
        raise ParseError("expected 'k <int>'", lineno)
    k = _ints(parts[1], 1, lineno, "sparsity")[0]
    cur.end("'k'")
    return VectorSumInstance(m, b, k)


def dumps_vectorsum(inst: VectorSumInstance, header: Iterable[str] = ()) -> str:
    return _header(header) + _matrix_block(inst.m) + f"b {inst.b.to01()}\nk {inst.k}\n"


def loads_evenset(text: str) -> EvenSetInstance:
    cur = _Lines(text)
    m = _read_matrix(cur)
    lineno, line = cur.next("the sparsity line 'k <int>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "k":
        raise ParseError("expected 'k <int>'", lineno)
    k = _ints(parts[1], 1, lineno, "sparsity")[0]
    cur.end("'k'")
    return EvenSetInstance(m, k)


def dumps_evenset(inst: EvenSetInstance, header: Iterable[str] = ()) -> str:
    return _header(header) + _matrix_block(inst.m) + f"k {inst.k}\n"


def loads_pointvalues(text: str) -> PointValueSet:
    cur = _Lines(text)
    lineno, head = cur.next("pair count and dimension")
    m, n = _ints(head, 2, lineno, "point-value header")
    points = []
    values = []
    for _ in range(m):
        lineno, line = cur.next("a point-value pair")
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<{n} bits> <bit>'", lineno)
        points.append(BitVec(n, _bits(parts[0], n, lineno)))
        values.append(_bits(parts[1], 1, lineno))
    cur.end("pairs")
    return PointValueSet(tuple(points), tuple(values))


def dumps_pointvalues(pv: PointValueSet, header: Iterable[str] = ()) -> str:
    if not pv.points:
        raise InputError("refusing to write an empty point-value set")
    body = [f"{len(pv)} {pv.dim}"]
    body += [f"{z.to01()} {v}" for z, v in pv.pairs()]
    return _header(header) + "\n".join(body) + "\n"


# -- codes ---------------------------------------------------------------

def loads_code(text: str) -> LinearCode:
    cur = _Lines(text)
    lineno, side = cur.next("'generator' or 'parity_check'")
    if side not in ("generator", "parity_check"):
        raise ParseError(f"unknown code side {side!r}", lineno)
    m = _read_matrix(cur)
    cur.end("matrix rows")
    if side == "generator":
        return LinearCode.from_generator(m)
    return LinearCode.from_parity_check(m)


def dumps_code(code: LinearCode, header: Iterable[str] = ()) -> str:
    if code.generator is not None:
        side, m = "generator", code.generator
    else:
        side, m = "parity_check", code.parity_check
    return _header(header) + f"{side}\n" + _matrix_block(m)


# -- dispatch ------------------------------------------------------------

_LOADERS = {
    "graph": loads_graph,
    "vectorsum": loads_vectorsum,
    "evenset": loads_evenset,
    "pointvalues": loads_pointvalues,
    "points": loads_points,
    "code": loads_code,
}

_DUMPERS = {
    "graph": dumps_graph,
    "vectorsum": dumps_vectorsum,
    "evenset": dumps_evenset,
    "pointvalues": dumps_pointvalues,
    "points": dumps_points,
    "code": dumps_code,
}


def loads(text: str, kind: str):
    if kind not in _LOADERS:
        raise InputError(f"unknown kind {kind!r}, expected one of {KINDS}")
    return _LOADERS[kind](text)


def dumps(obj, kind: str, header: Iterable[str] = ()) -> str:
    if kind not in _DUMPERS:
        raise InputError(f"unknown kind {kind!r}, expected one of {KINDS}")
    return _DUMPERS[kind](obj, header)


def parse_instance(path: str | Path, kind: str):
    """Load and validate a file of the given kind."""
    return loads(Path(path).read_text(), kind)


def write_instance(path: str | Path, obj, kind: str, header: Iterable[str] = ()) -> None:
    Path(path).write_text(dumps(obj, kind, header))
