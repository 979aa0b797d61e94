"""End-to-end command-line runs: pipelines, exit codes, determinism."""

import io
import math
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sparsef2 import _search, codes
from sparsef2.cli import main
from sparsef2.errors import ResourceError
from sparsef2.f2 import BitMat, BitVec, mat_vec_mul, rank
from sparsef2.formats import parse_instance, write_instance
from sparsef2.graphs import Graph
from sparsef2.instances import EvenSetInstance, VectorSumInstance
from sparsef2.solvers import evenset_min_weight


def run_cli(*args):
    return main(list(args))


def test_gen_graph_and_solve_pipeline(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    vpath = tmp_path / "inst.vs"
    assert run_cli("gen-graph", "--out", str(gpath), "--override", "n=6", "--override", "p=0.4",
                   "--k", "3", "--seed", "11") == 0
    assert run_cli("reduce", "clique2vs", "--in", str(gpath), "--k", "3", "--out", str(vpath)) == 0
    status = run_cli("solve", "--in", str(vpath), "--alg", "mitm", "--format", "lines")
    out = capsys.readouterr().out
    assert status == 0  # planted clique guarantees feasibility
    assert "feasible=1" in out and "weight=6" in out


def test_solve_infeasible_exit_code(tmp_path):
    path = tmp_path / "no.vs"
    inst = VectorSumInstance(BitMat.identity(2), BitVec.from01("11"), 1)
    write_instance(path, inst, "vectorsum")
    assert run_cli("solve", "--in", str(path), "--alg", "exhaustive") == 1
    assert run_cli("solve", "--in", str(path), "--alg", "bfs") == 1


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.vs"
    path.write_text("2 3\n110\n01\nb 11\nk 2\n")
    assert run_cli("solve", "--in", str(path)) == 2


def test_unknown_flag_rejected():
    assert run_cli("solve", "--frobnicate", "x") == 2


def test_resource_cap_exit_code(tmp_path):
    path = tmp_path / "wide.vs"
    m = BitMat.zeros(3, 40)
    write_instance(path, VectorSumInstance(m, BitVec.from01("111"), 6), "vectorsum")
    assert run_cli("solve", "--in", str(path), "--alg", "mitm", "--cap", "10") == 3


def test_zero_target_reports_no_work(tmp_path):
    """b = 0 is answered by x = 0 without enumerating a vector, so the
    searches report work 0 and ``--cap 0`` admits them; BFS still fills its
    (3 + 1) * 2^2 table and follows the same rule."""
    path = tmp_path / "zero.vs"
    path.write_text("2 3\n110\n011\nb 00\nk 2\n")
    for alg, work in (("exhaustive", 0), ("mitm", 0), ("bfs", 16)):
        argv = ["solve", "--in", str(path), "--alg", alg, "--format", "lines"]
        status, out, _ = _run_captured(argv + ["--cap", str(work)])
        assert status == 0 and "feasible=1" in out and "weight=0" in out and out.endswith(f"work={work}\n")
        if work:
            assert _run_captured(argv + ["--cap", str(work - 1)])[0] == 3


def test_verify_bch_and_balance(capsys):
    assert run_cli("verify", "bch", "--override", "n=15", "--delta", "5", "--format", "lines") == 0
    out = capsys.readouterr().out
    assert "verified=1" in out and "rows=8" in out
    assert run_cli("verify", "balance", "--k", "6", "--eps", "0.2", "--seed", "4") == 0


def test_evenset_cap_below_k_refuses(tmp_path, capsys):
    """A sparse search bound below k that finds nothing has not searched
    weights bound+1..k, so the library must refuse rather than report
    infeasible; the CLI searches up to k, and ``--cap`` bounds its work."""
    rng = random.Random(3)
    rows = [rng.getrandbits(40) for _ in range(14)]
    rows = [(r & ~(1 << 14)) | ((r ^ r >> 1) & 1) << 14 for r in rows]  # col 14 = col 0 + col 1
    m = BitMat.from_bitrows(rows, 40)
    assert 40 - rank(m) == 26  # above the full-enumeration dimension, so the sparse search runs
    inst = EvenSetInstance(m, 6)
    with pytest.raises(ResourceError):
        evenset_min_weight(inst, sparse_cap=2)
    path = tmp_path / "cols.es"
    write_instance(path, inst, "evenset")
    assert run_cli("solve", "--in", str(path), "--alg", "evenset-min", "--format", "lines") == 0
    out = capsys.readouterr().out
    assert "feasible=1" in out and "weight=3" in out
    work = int(out.split("work=")[1])
    assert run_cli("solve", "--in", str(path), "--alg", "evenset-min", "--cap", str(work - 1)) == 3
    assert f"exceeds cap {work - 1}" in capsys.readouterr().err


_BCH = codes.bch_parity_check


def _weakened_bch(n, delta):
    """BCH check whose last column is the sum of the first two: a weight-3 kernel vector."""
    r = _BCH(n, delta)
    cols = r.col_bits()
    cols[-1] = cols[0] ^ cols[1]
    return BitMat.from_cols(cols, r.rows)


@pytest.mark.parametrize("weaken", [False, True])
def test_verify_bch_matches_brute_force(monkeypatch, capsys, weaken):
    if weaken:
        monkeypatch.setattr(codes, "bch_parity_check", _weakened_bch)
    for n in range(4, 11):
        for delta in range(2, n + 1):
            r = codes.bch_parity_check(n, delta)
            light = any(
                mat_vec_mul(r, BitVec.from_support(n, s)).is_zero()
                for w in range(1, delta)
                for s in combinations(range(n), w)
            )
            status = run_cli("verify", "bch", "--override", f"n={n}", "--delta", str(delta), "--format", "lines")
            out = capsys.readouterr().out
            assert status == (1 if light else 0)
            assert f"rows={r.rows}" in out and f"cols={n}" in out and f"verified={int(not light)}" in out
            if not weaken:
                assert not light  # BCH codes meet their designed distance
            elif delta > 3:
                assert light
    assert run_cli("verify", "bch", "--override", "n=15", "--delta", "5", "--cap", "100") == 3


def test_verify_density(tmp_path):
    path = tmp_path / "code.txt"
    rng = random.Random(1)
    from sparsef2.codes import LinearCode
    from sparsef2.f2 import rank

    while True:
        gen = BitMat.from_bitrows([rng.getrandbits(3) for _ in range(9)], 3)
        if rank(gen) == 3:
            break
    write_instance(path, LinearCode.from_generator(gen), "code")
    assert run_cli("verify", "density", "--in", str(path)) == 0


def test_verify_roundtrip_and_bias(tmp_path):
    gpath = tmp_path / "g.graph"
    write_instance(gpath, Graph.from_edges(4, [(1, 2), (3, 4)]), "graph")
    assert run_cli("verify", "roundtrip", "--in", str(gpath), "--kind", "graph") == 0

    ppath = tmp_path / "pts.txt"
    write_instance(ppath, BitMat.from_bitrows(range(8), 3), "points")
    assert run_cli("verify", "bias", "--in", str(ppath), "--k", "3", "--eps", "0.01") == 0


def test_reduce_amplify_and_verify_parity(tmp_path):
    pv_path = tmp_path / "pairs.pv"
    out_path = tmp_path / "amplified.pv"
    inst = VectorSumInstance(BitMat.identity(4), BitVec.from01("1100"), 1)  # NO at k=1
    from sparsef2.instances import PointValueSet

    pv = PointValueSet(tuple(inst.m.row(i) for i in range(4)), tuple(inst.b))
    write_instance(pv_path, pv, "pointvalues")
    assert run_cli("reduce", "amplify", "--in", str(pv_path), "--eps", "0.1",
                   "--seed", "3", "--out", str(out_path)) == 0
    assert run_cli("verify", "parity", "--in", str(out_path), "--k", "1", "--eps", "0.1") == 0


def test_reduce_vs2es_cli(tmp_path):
    vs = tmp_path / "src.vs"
    es = tmp_path / "out.es"
    write_instance(vs, VectorSumInstance(BitMat.identity(3), BitVec.from01("010"), 1), "vectorsum")
    assert run_cli(
        "reduce", "vs2es", "--in", str(vs), "--out", str(es), "--eps", "0.25", "--seed", "3",
        "--override", "sketch_rows=4", "--override", "K=6", "--override", "r=3",
    ) == 0
    emitted = parse_instance(es, "evenset")
    assert emitted.m.cols == 154 and emitted.k == 40


def test_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    for path in (a, b):
        assert run_cli("gen-graph", "--out", str(path), "--override", "n=9",
                       "--override", "p=0.6", "--seed", "99") == 0
    assert a.read_bytes() == b.read_bytes()

    va, vb = tmp_path / "a.vs", tmp_path / "b.vs"
    for path in (va, vb):
        assert run_cli("reduce", "clique2vs", "--in", str(a), "--k", "2", "--out", str(path)) == 0
    assert va.read_bytes() == vb.read_bytes()


def test_verify_junta_and_poly(tmp_path):
    pv_path = tmp_path / "xor.pv"
    ppath = tmp_path / "uniform.pts"
    xor_pv = "4 2\n00 0\n10 1\n01 1\n11 0\n"
    pv_path.write_text(xor_pv)
    # XOR is realized by a 2-junta but no 1-junta beats a coin flip.
    assert run_cli("verify", "junta", "--in", str(pv_path), "--k", "2", "--delta", "0.1") == 0
    assert run_cli("verify", "junta", "--in", str(pv_path), "--k", "1", "--delta", "0.1") == 0
    write_instance(ppath, BitMat.from_bitrows(range(8), 3), "points")
    assert run_cli("verify", "poly", "--in", str(ppath), "--k", "3", "--deg", "2", "--delta", "0.0") == 0


def test_viola_cli_roundtrip(tmp_path):
    pts = tmp_path / "p.txt"
    out = tmp_path / "shift.txt"
    write_instance(pts, BitMat.from_rows(["10", "01"]), "points")
    assert run_cli("reduce", "viola", "--in", str(pts), "--deg", "2", "--out", str(out)) == 0
    shifted = parse_instance(out, "points")
    assert sorted(shifted.row(i).to01() for i in range(shifted.rows)) == ["00", "00", "11", "11"]


def test_mdc_cli_pipeline(tmp_path):
    rng = random.Random(8)
    base = tmp_path / "rows.txt"
    squared = tmp_path / "sq.txt"
    amplified = tmp_path / "amp.txt"
    learn = tmp_path / "learn.pv"
    gpath = tmp_path / "exp.graph"
    write_instance(base, BitMat.from_bitrows([rng.getrandbits(3) | 1 for _ in range(6)], 3), "points")
    assert run_cli("reduce", "mdc-tensor", "--in", str(base), "--out", str(squared),
                   "--override", "power=2") == 0
    rows = parse_instance(squared, "points")
    assert rows.rows == 36 and rows.cols == 9

    from sparsef2.graphs import random_regular

    g, _ = random_regular(36, 4, seed=5)
    write_instance(gpath, g, "graph")
    assert run_cli("reduce", "mdc-walk", "--in", str(squared), "--out", str(amplified),
                   "--override", f"graph={gpath}", "--walk-len", "2", "--seed", "4") == 0
    amplified_rows = parse_instance(amplified, "points")
    assert amplified_rows.rows == 36 * 4 * 4  # walks times sign patterns

    assert run_cli("reduce", "mdc-learn", "--in", str(amplified), "--deg", "1",
                   "--out", str(learn)) == 0
    pv = parse_instance(learn, "pointvalues")
    assert len(pv) == amplified_rows.rows and pv.dim == 8


def _join_work(n, max_weight):
    return sum(math.comb(n, (w + 1) // 2) + math.comb(n, w // 2) for w in range(1, max_weight + 1))


def _no_layers(*args, **kwargs):
    raise AssertionError("a layer was built before the cap was checked")


@pytest.mark.parametrize("cap", [None, "6"])
def test_oversized_evenset_search_refused_before_any_layer(tmp_path, capsys, monkeypatch, cap):
    """A 64 x 3000 system at k = 6 needs about 1.35e10 join steps; it is refused
    (exit 3) with the predicted work and the cap, without building a layer."""
    rng = random.Random(1)
    path = tmp_path / "wide.es"
    m = BitMat.from_bitrows([rng.getrandbits(3000) for _ in range(64)], 3000)
    write_instance(path, EvenSetInstance(m, 6), "evenset")
    monkeypatch.setattr(_search, "next_layer", _no_layers)
    monkeypatch.setattr(_search, "_layer_chunks", _no_layers)
    argv = ["solve", "--in", str(path), "--alg", "evenset-min"] + (["--cap", cap] if cap else [])
    assert run_cli(*argv) == 3
    assert f"predicted work {_join_work(3000, 6)} exceeds cap {cap or 80_000_000}" in capsys.readouterr().err


def test_oversized_verify_bch_refused_before_any_layer(capsys, monkeypatch):
    monkeypatch.setattr(_search, "next_layer", _no_layers)
    monkeypatch.setattr(_search, "_layer_chunks", _no_layers)
    assert run_cli("verify", "bch", "--override", "n=3000", "--delta", "7") == 3
    assert f"predicted work {_join_work(3000, 6)} exceeds cap 80000000" in capsys.readouterr().err


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@st.composite
def infeasible_candidates(draw):
    """(alg, instance kind, instance): small vector-sum systems, small even-set
    systems (full kernel enumeration) and even-set systems whose kernel
    dimension exceeds 24 (sparse search)."""
    alg = draw(st.sampled_from(["exhaustive", "mitm", "bfs", "evenset-min", "evenset-wide"]))
    if alg == "evenset-wide":
        rows, cols, k = draw(st.integers(12, 16)), draw(st.integers(41, 44)), draw(st.integers(1, 2))
    else:
        rows, cols, k = draw(st.integers(1, 8)), draw(st.integers(1, 14)), draw(st.integers(1, 4))
    m = BitMat.from_bitrows([draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)], cols)
    if alg.startswith("evenset"):
        return "evenset-min", "evenset", EvenSetInstance(m, k)
    return alg, "vectorsum", VectorSumInstance(m, BitVec(rows, draw(st.integers(1, (1 << rows) - 1))), k)


@settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(infeasible_candidates())
def test_cap_bounds_the_reported_work(case):
    """On every infeasible instance, ``--cap W`` with W the reported work
    reproduces the uncapped output, and ``--cap W-1`` is refused."""
    alg, kind, inst = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/inst"
        write_instance(path, inst, kind)
        argv = ["solve", "--in", path, "--alg", alg, "--format", "lines"]
        status, out, _ = _run_captured(argv)
        assert status in (0, 1, 2, 3)
        assume(status == 1)
        work = int(out.split("work=")[1])
        assert _run_captured(argv + ["--cap", str(work)]) == (1, out, "")
        status, out, err = _run_captured(argv + ["--cap", str(work - 1)])
        assert (status, out) == (3, "") and f"exceeds cap {work - 1}" in err


def test_parser_is_built_once_and_parses_alike_every_time():
    from sparsef2 import cli

    first = cli.parse_args(["verify", "poly", "--k", "2", "--override", "a=1", "--override", "b = 2"])
    again = cli.parse_args(["verify", "poly", "--k", "3"])
    assert cli._parser() is cli._parser()
    assert (first.overrides, first.k, first.subcommand) == ({"a": "1", "b": "2"}, 2, "poly")
    assert (again.overrides, again.override, again.k, again.seed, again.cap) == ({}, [], 3, 0, None)
    assert vars(cli.build_parser().parse_args(["solve", "--alg", "mitm"])) == vars(cli._parser().parse_args(["solve", "--alg", "mitm"]))
    assert main(["solve", "--alg", "nope"]) == 2 and main(["verify", "bias", "--k", "2"]) == 2
