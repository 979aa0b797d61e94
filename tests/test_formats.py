"""File formats: parse/emit round trips, comments, and error reporting."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsef2.codes import bch_parity_check, simplex_generator
from sparsef2.errors import DimensionError, InputError, ParseError
from sparsef2.f2 import BitMat, BitVec
from sparsef2.formats import dumps, loads
from sparsef2.graphs import Graph, random_graph
from sparsef2.instances import EvenSetInstance, PointValueSet, VectorSumInstance


def random_vectorsum(rng):
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 10)
    m = BitMat.from_bitrows([rng.getrandbits(cols) for _ in range(rows)], cols)
    return VectorSumInstance(m, BitVec(rows, rng.getrandbits(rows)), rng.randrange(1, 5))


def test_graph_parse_example():
    g = loads("3 2\n1 2\n2 3\n", "graph")
    assert g == Graph.from_edges(3, [(1, 2), (2, 3)])


def test_vectorsum_parse_example():
    inst = loads("2 3\n110\n011\nb 11\nk 2\n", "vectorsum")
    assert inst.m == BitMat.from_rows(["110", "011"])
    assert inst.b == BitVec.from01("11") and inst.k == 2


def test_parse_error_names_line():
    with pytest.raises(ParseError) as err:
        loads("2 3\n110\n01\nb 11\nk 2\n", "vectorsum")
    assert "line 3" in str(err.value)


def test_comments_ignored():
    g = loads("# provenance junk\n3 1\n# mid comment\n1 3\n", "graph")
    assert g.edges == ((1, 3),)


def test_header_emitted_and_ignored():
    g = Graph.from_edges(4, [(1, 2)])
    text = dumps(g, "graph", header=["tool test", "seed=1"])
    assert text.startswith("# tool test\n# seed=1\n")
    assert loads(text, "graph") == g


@pytest.mark.parametrize("kind", ["graph", "vectorsum", "evenset", "pointvalues", "points", "code"])
def test_roundtrip_random(kind):
    rng = random.Random(hash(kind) & 0xFFFF)
    for _ in range(40):
        if kind == "graph":
            obj = random_graph(rng.randrange(1, 10), rng.random(), rng.randrange(10**6))
        elif kind == "vectorsum":
            obj = random_vectorsum(rng)
        elif kind == "evenset":
            inst = random_vectorsum(rng)
            obj = EvenSetInstance(inst.m, inst.k)
        elif kind == "pointvalues":
            n = rng.randrange(1, 9)
            count = rng.randrange(1, 12)
            obj = PointValueSet(
                tuple(BitVec(n, rng.getrandbits(n)) for _ in range(count)),
                tuple(rng.getrandbits(1) for _ in range(count)),
            )
        elif kind == "points":
            n = rng.randrange(1, 9)
            obj = BitMat.from_bitrows([rng.getrandbits(n) for _ in range(rng.randrange(1, 12))], n)
        else:
            obj = rng.choice(
                [
                    simplex_generator(rng.randrange(2, 5)),
                    None,
                ]
            )
            if obj is None:
                from sparsef2.codes import LinearCode

                obj = LinearCode.from_parity_check(bch_parity_check(rng.randrange(4, 16), 3))
        again = loads(dumps(obj, kind), kind)
        if kind == "code":
            assert again.length == obj.length and again.dim == obj.dim
            assert (again.generator or again.parity_check) == (obj.generator or obj.parity_check)
        else:
            assert again == obj


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        loads("3 1\n1 2\n1 3\n", "graph")


def _row01(bits, n):
    return "".join("1" if bits >> i & 1 else "0" for i in range(n))


@st.composite
def written_files(draw):
    """(kind, object, the text the format defines for it), the rows of the
    text spelled out one character at a time."""
    kind = draw(st.sampled_from(["vectorsum", "evenset", "pointvalues", "points"]))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 140))
    bits = [draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    m = BitMat.from_bitrows(bits, cols)
    matrix = f"{rows} {cols}\n" + "".join(_row01(r, cols) + "\n" for r in bits)
    k = draw(st.integers(1, 9))
    if kind == "vectorsum":
        b = draw(st.integers(0, (1 << rows) - 1))
        return kind, VectorSumInstance(m, BitVec(rows, b), k), matrix + f"b {_row01(b, rows)}\nk {k}\n"
    if kind == "evenset":
        return kind, EvenSetInstance(m, k), matrix + f"k {k}\n"
    if kind == "points":
        return kind, m, matrix
    values = [draw(st.integers(0, 1)) for _ in range(rows)]
    pv = PointValueSet(tuple(m.row(i) for i in range(rows)), tuple(values))
    return kind, pv, f"{rows} {cols}\n" + "".join(f"{_row01(r, cols)} {v}\n" for r, v in zip(bits, values))


FORMAT_SETTINGS = settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])


@FORMAT_SETTINGS
@given(written_files())
def test_written_text_is_the_defined_format_and_round_trips(case):
    kind, obj, text = case
    assert dumps(obj, kind) == text
    assert loads(text, kind) == obj


@FORMAT_SETTINGS
@given(written_files(), st.data())
def test_malformed_rows_raise_parse_error(case, data):
    """A bit row (a matrix row, the 'b' line or a point-value pair) with a
    character replaced, inserted or deleted either still parses or raises
    ParseError; nothing else escapes."""
    kind, _, text = case
    lines = text.splitlines()
    last = len(lines) - 1 if kind in ("vectorsum", "evenset") else len(lines)  # before the 'k' line
    row = data.draw(st.integers(1, last - 1))
    line = lines[row]
    pos = data.draw(st.integers(0, len(line)))
    junk = data.draw(st.sampled_from(["", "0", "1", "2", "a", "_", "+", "-", " ", "\t", "\uff11", "\u0661", "#", "b"]))
    cut = data.draw(st.integers(0, 1))
    lines[row] = line[:pos] + junk + line[pos + cut :]
    try:
        loads("\n".join(lines) + "\n", kind)
    except ParseError:
        pass


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))))
def test_points_codec_matches_the_matrix_codec(case):
    """Points are written and read as the rows of a matrix block, with the
    same bytes and errors as the block of an even-set instance."""
    n, rows = case
    points = BitMat.from_bitrows(rows, n)
    if n == 0:
        with pytest.raises(InputError, match="zero-width rows cannot be written"):
            dumps(points, "points")
        return
    text = dumps(points, "points", ["a header"])
    assert text == "# a header\n" + "\n".join([f"{len(rows)} {n}"] + [points.row(i).to01() for i in range(len(rows))]) + "\n"
    assert text + "k 1\n" == dumps(EvenSetInstance(points, 1), "evenset", ["a header"])
    assert loads(text, "points") == points
    # A ragged list of points is refused where it becomes a BitMat.
    with pytest.raises(DimensionError, match=f"row of length {n + 1}, expected {n}"):
        BitMat.from_rows([points.row(i) for i in range(len(rows))] + [BitVec(n + 1, 0)])
    lines = text.splitlines()
    lines[2] += "0"  # the first row, after the comment and the 'rows cols' line
    with pytest.raises(ParseError, match="line 3: expected"):
        loads("\n".join(lines) + "\n", "points")


# -- the numpy block codec against the per-row codec ---------------------------------

def oracle_block(text):
    """A points file read one row at a time, as the per-row codec did: each
    row checked with ``len`` and ``strip("01")`` and converted by a reversed
    ``int``; (rows, cols) or the ParseError that codec raised."""
    lines = [(i, line.strip()) for i, line in enumerate(text.splitlines(), 1)]
    lines = [(i, line) for i, line in lines if line and not line.startswith("#")]
    if not lines:
        raise ParseError("unexpected end of file, expected matrix dimensions")
    lineno, head = lines[0]
    rows, cols = map(int, head.split())
    out = []
    for r in range(rows):
        if r + 1 >= len(lines):
            raise ParseError("unexpected end of file, expected a matrix row")
        lineno, token = lines[r + 1]
        if len(token) != cols or token.strip("01"):
            raise ParseError(f"expected {cols} bits, got {token!r}", lineno)
        out.append(int(token[::-1], 2) if cols else 0)
    if len(lines) > rows + 1:
        raise ParseError("trailing content after matrix rows", lines[rows + 1][0])
    return out, cols


def oracle_dump(rows, cols):
    """A points file written one ``BitVec.to01`` per row."""
    return "\n".join([f"{len(rows)} {cols}"] + [BitVec(cols, r).to01() for r in rows]) + "\n"


WIDTHS = [1, 63, 64, 65, 128, 130]


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(WIDTHS).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=20))))
def test_block_codec_matches_the_per_row_codec(case):
    n, rows = case
    points = BitMat.from_bitrows(rows, n)
    text = oracle_dump(rows, n)
    if rows:
        assert dumps(points, "points") == text
        assert dumps(EvenSetInstance(points, 2), "evenset") == text + "k 2\n"
    else:
        with pytest.raises(InputError, match="refusing to write an empty point list"):
            dumps(points, "points")
    assert loads(text, "points") == BitMat.from_bitrows(oracle_block(text)[0], n)
    assert loads(text + "k 2\n", "evenset").m == points


def test_blocks_with_comments_blank_lines_and_spaces_are_read_row_by_row():
    rows = [5, 0, 7, 2]
    lines = oracle_dump(rows, 3).splitlines()
    lines[4] = " " + lines[4] + "\t"
    lines[2:2] = ["# a comment inside the block", ""]
    text = "\n".join(lines) + "\n"
    assert oracle_block(text) == (rows, 3)
    assert loads(text, "points") == BitMat.from_bitrows(rows, 3)


def _same_error(text):
    with pytest.raises(ParseError) as want:
        oracle_block(text)
    with pytest.raises(ParseError) as got:
        loads(text, "points")
    assert (str(got.value), got.value.line) == (str(want.value), want.value.line)


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize(
    "fault",
    ["short", "long", "two", "non-ascii", "surrogate", "inner-space", "missing", "bad-then-missing", "trailing"],
)
def test_malformed_blocks_raise_the_per_row_codec_errors(n, fault):
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(5)]
    lines = ["# header", *oracle_dump(rows, n).splitlines()]
    row = lines[3]  # the third row of the block
    if fault == "short":
        lines[3] = row[:-1]
    elif fault == "long":
        lines[3] = row + "1"
    elif fault == "two":
        lines[3] = row[:-1] + "2"
    elif fault == "non-ascii":
        lines[3] = row[:-1] + "\uff11"
    elif fault == "surrogate":
        lines[3] = row[:-1] + "\ud800"
    elif fault == "inner-space":
        lines[3] = row[:1] + " " + row[1:] if n > 1 else "0 1"
    elif fault == "missing":
        del lines[-1]
    elif fault == "bad-then-missing":
        lines[3] = row[:-1] + "2"
        del lines[-1]
    else:
        lines.append(row)
    _same_error("\n".join(lines) + "\n")
