"""Line-oriented text formats for every instance kind.

One record per line, '0'/'1' characters for bits, 1-based vertex labels in
graph files. Lines starting with '#' are provenance comments: parsers skip
them, emitters may write them. All emitters are deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .codes import LinearCode
from .errors import DimensionError, InputError, ParseError
from .f2 import BitMat, BitVec
from .graphs import Graph
from .instances import EvenSetInstance, PointValueSet, VectorSumInstance

KINDS = ("graph", "vectorsum", "evenset", "pointvalues", "points", "code")


class _Lines:
    """Significant-line cursor that remembers original line numbers."""

    def __init__(self, text: str):
        self.items = [
            (i, line.strip())
            for i, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of file, expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def done(self) -> bool:
        return self.pos >= len(self.items)


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
    if not cur.done():
        raise ParseError(f"trailing content after {m} edges", cur.items[cur.pos][0])
    try:
        return Graph.from_edges(n, edges)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def dumps_graph(g: Graph, header: Iterable[str] = ()) -> str:
    body = [f"{g.n} {g.num_edges}"] + [f"{u} {v}" for u, v in g.edges]
    return _header(header) + "\n".join(body) + "\n"


# -- matrices ------------------------------------------------------------

def _read_rows(cur: _Lines) -> tuple[list[int], int]:
    """The rows of a matrix block as ints, and its column count."""
    lineno, head = cur.next("matrix dimensions")
    rows, cols = _ints(head, 2, lineno, "matrix header")
    if rows < 0 or cols < 0:
        raise ParseError("negative matrix dimension", lineno)
    bits = []
    for _ in range(rows):
        lineno, line = cur.next("a matrix row")
        bits.append(_bits(line, cols, lineno))
    return bits, cols


def _read_matrix(cur: _Lines) -> BitMat:
    return BitMat.from_bitrows(*_read_rows(cur))


def _matrix_lines(m: BitMat) -> list[str]:
    if m.cols == 0 and m.rows > 0:
        raise InputError("zero-width rows cannot be written")
    return [f"{m.rows} {m.cols}"] + [m.row(i).to01() for i in range(m.rows)]


def loads_points(text: str) -> list[BitVec]:
    cur = _Lines(text)
    rows, cols = _read_rows(cur)
    if not cur.done():
        raise ParseError("trailing content after matrix rows", cur.items[cur.pos][0])
    return [BitVec(cols, r) for r in rows]


def dumps_points(points: list[BitVec], header: Iterable[str] = ()) -> str:
    """The points as the rows of a matrix block, written like ``_matrix_lines``."""
    if not points:
        raise InputError("refusing to write an empty point list")
    cols = points[0].n
    for p in points:
        if p.n != cols:
            raise DimensionError(f"row of length {p.n}, expected {cols}")
    if cols == 0:
        raise InputError("zero-width rows cannot be written")
    body = [f"{len(points)} {cols}"] + [p.to01() for p in points]
    return _header(header) + "\n".join(body) + "\n"


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
    if not cur.done():
        raise ParseError("trailing content after 'k'", cur.items[cur.pos][0])
    return VectorSumInstance(m, b, k)


def dumps_vectorsum(inst: VectorSumInstance, header: Iterable[str] = ()) -> str:
    body = _matrix_lines(inst.m) + [f"b {inst.b.to01()}", f"k {inst.k}"]
    return _header(header) + "\n".join(body) + "\n"


def loads_evenset(text: str) -> EvenSetInstance:
    cur = _Lines(text)
    m = _read_matrix(cur)
    lineno, line = cur.next("the sparsity line 'k <int>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "k":
        raise ParseError("expected 'k <int>'", lineno)
    k = _ints(parts[1], 1, lineno, "sparsity")[0]
    if not cur.done():
        raise ParseError("trailing content after 'k'", cur.items[cur.pos][0])
    return EvenSetInstance(m, k)


def dumps_evenset(inst: EvenSetInstance, header: Iterable[str] = ()) -> str:
    body = _matrix_lines(inst.m) + [f"k {inst.k}"]
    return _header(header) + "\n".join(body) + "\n"


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
    if not cur.done():
        raise ParseError("trailing content after pairs", cur.items[cur.pos][0])
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
    if not cur.done():
        raise ParseError("trailing content after matrix rows", cur.items[cur.pos][0])
    if side == "generator":
        return LinearCode.from_generator(m)
    return LinearCode.from_parity_check(m)


def dumps_code(code: LinearCode, header: Iterable[str] = ()) -> str:
    if code.generator is not None:
        side, m = "generator", code.generator
    else:
        side, m = "parity_check", code.parity_check
    return _header(header) + "\n".join([side] + _matrix_lines(m)) + "\n"


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
