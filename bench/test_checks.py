"""Tests of the benchmark's own code: the reference computations agree with
brute force, every check rejects a corrupted output, and the tracer binds
every alias. Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from sparsef2 import codes  # noqa: E402
from sparsef2._search import mitm_kernel_min_weight  # noqa: E402
from sparsef2.f2 import BitVec  # noqa: E402


def _brute_min_kernel_weight(rows, ncols):
    best = None
    for x in range(1, 1 << ncols):
        if ref.mat_vec(rows, x) == 0 and (best is None or x.bit_count() < best):
            best = x.bit_count()
    return best


def _flip_witness_bit(stdout: str, bit: int = 0) -> str:
    lines = []
    for line in stdout.splitlines():
        if line.startswith("witness="):
            w = list(line[len("witness="):])
            w[bit] = "1" if w[bit] == "0" else "0"
            line = "witness=" + "".join(w)
        lines.append(line)
    return "\n".join(lines)


def _replace(stdout: str, key: str, value: str) -> str:
    return "\n".join(f"{key}={value}" if line.startswith(key + "=") else line for line in stdout.splitlines())


# -- reference computations -------------------------------------------------


def test_kernel_reference_matches_brute_force():
    rng = random.Random(1)
    for _ in range(40):
        ncols = rng.randrange(2, 13)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(1, ncols + 1))]
        expect = _brute_min_kernel_weight(rows, ncols)
        basis = ref.kernel_basis(rows, ncols)
        assert len(basis) == ncols - ref.rank(rows, ncols)
        found = ref.kernel_min_weight(basis, ncols)
        assert (found[0] if found else None) == expect
        if found:
            assert ref.mat_vec(rows, found[1]) == 0 and found[1].bit_count() == expect
        sparse = ref.sparse_min_weight(rows, ncols, 4)
        assert (sparse[0] if sparse else None) == (expect if expect is not None and expect <= 4 else None)


def test_vectorised_kernel_enumeration_matches_python_loop():
    rng = random.Random(2)
    rows = [rng.getrandbits(40) for _ in range(23)]
    basis = ref.kernel_basis(rows, 40)
    assert len(basis) > 16
    best = None
    for mask in range(1, 1 << len(basis)):
        v = 0
        for i, b in enumerate(basis):
            if (mask >> i) & 1:
                v ^= b
        best = v.bit_count() if best is None else min(best, v.bit_count())
    assert ref.kernel_min_weight(basis, 40)[0] == best


def test_clique_and_small_system_references():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(4, 9)
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        for k in (3, 4):
            brute = any(ref.is_clique(n, edges, c) for c in combinations(range(1, n + 1), k))
            assert ref.has_clique(n, edges, k) == brute


def test_learning_and_fooling_references_match_the_program_oracles():
    from sparsef2.instances import PointValueSet
    from sparsef2.solvers import best_junta_agreement, best_parity_agreement, poly_agreement_bound

    rng = random.Random(4)
    n = 6
    pts = [rng.getrandbits(n) for _ in range(40)]
    vals = [rng.getrandbits(1) for _ in range(40)]
    pv = PointValueSet(tuple(BitVec(n, p) for p in pts), tuple(vals))
    assert max(ref.parity_agreements(n, pts, vals, 2)) == best_parity_agreement(pv, 2)[1]
    assert ref.best_junta_agreement(n, pts, vals, 2) == best_junta_agreement(pv, 2)
    assert ref.distribution_bias(n, pts, 2) == pytest.approx(codes.distribution_bias([BitVec(n, p) for p in pts], 2))
    assert ref.poly_advantage_all_functions(n, pts, 2) == poly_agreement_bound([BitVec(n, p) for p in pts], 2, 2)[1]


def test_code_references_match_the_program_certifiers():
    code = codes.balanced_code(4, 0.1, 0, length=14)
    gen = list(code.generator.row_bits)
    d = ref.code_min_distance(gen, 4)
    assert d == codes.min_distance(codes.LinearCode.from_generator(code.generator))
    ok, witness = codes.product_density_check(codes.LinearCode.from_generator(code.generator))
    lightest = ref.symmetric_product_min_weight(gen, 4)
    assert ok == (lightest is None or lightest >= -(-3 * d * d // 2))
    assert lightest == sum(r.bit_count() for r in witness.row_bits)


# -- checks reject corrupted outputs ---------------------------------------


def test_clique_checks_reject_corruption(tmp_path):
    wl = workloads.CliqueVS(tmp_path)
    yes = workloads.Case("exh", True, {"graph": tmp_path / "g.graph", "vs": tmp_path / "g.vs"},
                         {"k": 3, "n": 6, "edges": [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]})
    yes.files["graph"].write_text(ref.graph_text(6, yes.params["edges"]))
    out = wl.run(yes)
    assert wl.check(yes, out) == []
    for alg in ("mitm", "exhaustive"):
        status, stdout, err = out[alg]
        for bad in (
            _flip_witness_bit(stdout),
            _replace(stdout, "weight", "5"),
            _replace(stdout, "feasible", "0"),
        ):
            assert wl.check(yes, {**out, alg: (status, bad, err)}), bad
    assert wl.check(yes, {**out, "mitm": (1, out["mitm"][1], "")})


def test_clique_check_rejects_a_yes_verdict_on_a_clique_free_graph(tmp_path):
    wl = workloads.CliqueVS(tmp_path)
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    no = workloads.Case("k3", False, {"graph": tmp_path / "n.graph", "vs": tmp_path / "n.vs"},
                        {"k": 3, "n": 4, "edges": edges})
    no.files["graph"].write_text(ref.graph_text(4, edges))
    out = wl.run(no)
    assert wl.check(no, out) == []
    assert wl.check(no, {**out, "mitm": (0, _replace(out["mitm"][1], "feasible", "1"), "")})


def _evenset_case(tmp_path, kind, rows, ncols, k, yes):
    path = tmp_path / f"{kind}.es"
    path.write_text(ref.evenset_text(rows, ncols, k))
    return workloads.Case(kind, yes, {"in": path})


def _corrupted_reports(rep):
    n = rep.witness.n
    yield dataclasses.replace(rep, witness=BitVec(n, rep.witness.bits ^ 1))
    yield dataclasses.replace(rep, weight=rep.weight + 1)
    yield dataclasses.replace(rep, feasible=not rep.feasible)


@pytest.mark.parametrize("kind,ncols,nrows,k", [("b", 16, 8, 3), ("c", 30, 5, 3)])
def test_evenset_checks_reject_corruption(tmp_path, kind, ncols, nrows, k):
    rng = random.Random(5)
    wl = workloads.EvenSet(tmp_path)
    rows = workloads._plant_column([rng.getrandbits(ncols) for _ in range(nrows)], 0, (1, 2))
    case = _evenset_case(tmp_path, kind, rows, ncols, k, True)
    out = wl.run(case)
    assert out["report"].feasible and wl.check(case, out) == []
    for bad in _corrupted_reports(out["report"]):
        assert wl.check(case, {"report": bad}), bad


def test_homogenized_check_rejects_corruption(tmp_path):
    wl = workloads.EvenSet(tmp_path)
    src = tmp_path / "a.vs"
    src.write_text(ref.vectorsum_text([1, 2, 4], 3, 2, 1))
    case = workloads.Case("a", True, {"in": src, "es": tmp_path / "a.es"}, {"mixer_seed": 0})
    out = wl.run(case)
    assert out["report"].weight == 200 and wl.check(case, out) == []
    for bad in _corrupted_reports(out["report"]):
        assert wl.check(case, {**out, "report": bad}), bad
    assert wl.check(case, {**out, "distance": out["distance"] - 1})
    assert wl.check(case, {**out, "dense": not out["dense"]})
    # A NO label on a YES source is caught by the weight-200 property.
    assert wl.check(dataclasses.replace(case, yes=False), out)


def test_learn_fool_checks_reject_corruption(tmp_path):
    wl = workloads.LearnFool(tmp_path)
    cases = wl.generate(7)
    yes = next(c for c in cases if c.yes and c.params["es_yes"])
    out = wl.run(yes)
    assert wl.check(yes, out) == []
    status, stdout, err = out["mitm"]
    for bad in (_flip_witness_bit(stdout), _replace(stdout, "weight", "3"), _replace(stdout, "feasible", "0")):
        assert wl.check(yes, {**out, "mitm": (status, bad, err)}), bad
    for step, key, value in (
        ("parity", "agreement", "0.900000"),
        ("junta", "agreement", "0.750000"),
        ("bias", "bias", "0.100000"),
        ("poly", "advantage", "0.400000"),
    ):
        status, stdout, err = out[step]
        assert wl.check(yes, {**out, step: (status, _replace(stdout, key, value), err)}), step
    no = next(c for c in cases if not c.yes and not c.params["es_yes"])
    out = wl.run(no)
    assert wl.check(no, out) == []
    status, stdout, err = out["bfs"]
    assert wl.check(no, {**out, "bfs": (0, stdout + "\nfeasible=1", err)})


# -- tracer and benchmark description ---------------------------------------


def test_tracer_binds_aliases_and_reports_absent_functions(monkeypatch):
    t = tracing.Tracer()
    assert t.absent == []
    t.install()
    try:
        assert codes._mitm_kernel_min_weight is not mitm_kernel_min_weight
        simplex = codes.simplex_generator(3).generator
        assert codes.min_distance(codes.LinearCode.from_generator(simplex), weight_cap=4) == 4
        codes.balanced_code(3, 0.25, 1)
    finally:
        t.remove()
    assert codes._mitm_kernel_min_weight is mitm_kernel_min_weight
    names = {span[0] for span in t.spans}
    assert {"search.mitm_kernel_min_weight", "codes.min_distance", "codes.balanced_code"} <= names
    monkeypatch.delattr("sparsef2.formats.dumps")
    t = tracing.Tracer()
    assert t.absent == ["formats.dumps"]
    assert t.metrics()["formats.dumps.calls"] == (0, "count")


def test_self_time_excludes_wrapped_children():
    t = tracing.Tracer()
    t.install()
    try:
        codes.min_distance(codes.LinearCode.from_generator(codes.balanced_code(3, 0.25, 1).generator))
    finally:
        t.remove()
    for name, _, start, end, own, _ in t.spans:
        assert 0 <= own <= end - start + 1e-9


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_specs()
    assert {m["name"] for m in spec["end_to_end"]} == {"verdicts_per_s", "verdict_p50_ms", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
