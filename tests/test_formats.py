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
            obj = [BitVec(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, 12))]
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
        return kind, [m.row(i) for i in range(rows)], matrix
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
    same bytes and errors as a ``BitMat`` of those rows."""
    n, rows = case
    points = [BitVec(n, r) for r in rows]
    if n == 0:
        with pytest.raises(InputError, match="zero-width rows cannot be written"):
            dumps(points, "points")
        return
    text = dumps(points, "points", ["a header"])
    m = BitMat.from_rows(points)
    assert text == "# a header\n" + "\n".join([f"{m.rows} {m.cols}"] + [m.row(i).to01() for i in range(m.rows)]) + "\n"
    assert loads(text, "points") == points
    with pytest.raises(DimensionError, match=f"row of length {n + 1}, expected {n}"):
        dumps(points + [BitVec(n + 1, 0)], "points")
    with pytest.raises(ParseError, match="line 3: expected"):
        loads(text.replace(m.row(0).to01(), m.row(0).to01() + "0", 1), "points")
