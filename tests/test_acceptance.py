"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Each criterion prints a single PASS/FAIL line (run with -s to see them all).
Criterion 9 samples the homogenized kernel at two configurations, as the
README's "Install and test" paragraph explains. Its zero-counterexample clause
runs at SOUND_CFG, where the mixer's own distance and product-density
certificates bound every gate-off kernel element above the YES threshold. At
the desk overrides (DESK_CFG) that bound is 24, below the threshold 40, and
the kernel provably holds gate-off elements below it; there the criterion
checks that every such sample belongs to that documented class.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from sparsef2._search import scan_layer
from sparsef2.cli import main as cli_main
from sparsef2.codes import (
    balanced_code,
    bch_parity_check,
    distribution_bias,
    min_distance,
    product_density_check,
    simplex_generator,
)
from sparsef2.codes import LinearCode
from sparsef2.f2 import BitMat, BitVec, mat_vec_mul, nullspace_basis, rank
from sparsef2.formats import dumps, loads, write_instance
from sparsef2.graphs import find_clique, is_clique, planted_clique, random_graph, random_regular, sample_walks
from sparsef2.instances import EvenSetInstance, PointValueSet, VectorSumInstance
from sparsef2.reductions import (
    EvenSetConfig,
    assemble_clique_solution,
    assemble_evenset_witness,
    clique_to_vectorsum,
    extract_clique,
    vectorsum_to_evenset,
    viola_shift,
    walk_avoidance_bound,
)
from sparsef2.reductions.amplify import amplify_pointvalues, junta_hardness_instance
from sparsef2.reductions.fooling import fooling_points_with_generator
from sparsef2.solvers import (
    ParityForm,
    best_junta_agreement,
    parity_agreement,
    poly_agreement_bound,
    solve_bfs,
    solve_exhaustive,
    solve_mitm,
)


def _criterion(label: str, fn, budget: float | None = None):
    start = time.perf_counter()
    try:
        note = fn()
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"{label}: PASS ({elapsed:.1f}s)" + (f"; {note}" if note else ""))
    if budget is not None:
        assert elapsed <= budget, f"{label} took {elapsed:.1f}s, budget {budget}s"


# -- C1: clique-reduction equivalence -------------------------------------

def test_c01_clique_reduction_equivalence():
    def body():
        cells = [(n, p, k) for k in (2, 3) for n in range(5, 11) for p in (0.3, 0.5, 0.8)]
        jobs = [(n, p, k, 5) for (n, p, k) in cells]
        jobs += [(n, p, 4, 4) for (n, p) in ((5, 0.3), (5, 0.5), (5, 0.8), (6, 0.3), (7, 0.3))]
        total = 0
        for n, p, k, seeds in jobs:
            for s in range(seeds):
                seed = 1_000_000 * k + 10_000 * n + 100 * int(p * 10) + s
                g = random_graph(n, p, seed)
                total += 1
                inst, _ = clique_to_vectorsum(g, k)
                assert inst.k == k + k * (k - 1) // 2
                has_clique = find_clique(g, k) is not None
                assert solve_mitm(inst).feasible == has_clique, (n, p, k, s)
        assert total == 200

    _criterion("C1 clique-reduction equivalence (200 graphs)", body, budget=60)


# -- C2: NO-case strictness ------------------------------------------------

def test_c02_no_case_strictness():
    def body():
        rng = random.Random(202)
        tested = 0
        while tested < 10:
            n = 5 + tested % 3  # n in {5, 6, 7}
            g = random_graph(n, 0.25, rng.randrange(10**9))
            if find_clique(g, 3) is not None:
                continue
            tested += 1
            inst, _ = clique_to_vectorsum(g, 3)
            assert not solve_exhaustive(inst).feasible

    _criterion("C2 NO-case strictness (triangle-free, exhaustive)", body, budget=60)


# -- C3: witness round trip --------------------------------------------------

def test_c03_witness_round_trip():
    def body():
        rng = random.Random(303)
        for trial in range(50):
            k = 4 if trial < 2 else (2 if trial % 2 else 3)
            n = 5 if k == 4 else rng.randrange(5, 10)
            g, witness = planted_clique(n, k, 0.3, rng.randrange(10**9))
            inst, layout = clique_to_vectorsum(g, k)
            rep = solve_mitm(inst)
            assert rep.feasible
            extracted = extract_clique(layout, rep.witness)
            assert is_clique(g, extracted) and len(extracted) == k
            assembled = assemble_clique_solution(layout, extracted)
            assert assembled.weight() == k + k * (k - 1) // 2
            assert inst.accepts(assembled)

    _criterion("C3 witness round-trip (50 YES instances)", body)


# -- C4: solver cross-agreement ---------------------------------------------

def test_c04_solver_cross_agreement():
    def body():
        rng = random.Random(404)
        for _ in range(500):
            rows = rng.randrange(1, 11)
            cols = rng.randrange(1, 17)
            m = BitMat.from_bitrows([rng.getrandbits(cols) for _ in range(rows)], cols)
            inst = VectorSumInstance(m, BitVec(rows, rng.getrandbits(rows)), rng.randrange(1, 5))
            a = solve_exhaustive(inst)
            b = solve_mitm(inst)
            c = solve_bfs(inst)
            assert (a.feasible, a.weight, a.witness) == (b.feasible, b.weight, b.witness)
            assert (c.feasible, c.weight, c.witness) == (a.feasible, a.weight, a.witness)

    _criterion("C4 solver cross-agreement (500 instances)", body, budget=120)


# -- C5: BCH contract ---------------------------------------------------------

def test_c05_bch_contract():
    def body():
        for n in (7, 15, 31):
            for delta in (3, 5, 7):
                r = bch_parity_check(n, delta)
                assert r.rows <= ((delta - 1 + 1) // 2) * math.ceil(math.log2(n + 1))
                cols = np.array(r.col_bits(), dtype=np.uint64)
                prev = np.zeros(1, dtype=np.uint64)
                for w in range(1, delta):
                    hits, layer = scan_layer(cols, w, prev, 0, keep=(w < delta - 1))
                    assert not hits, f"weight-{w} vector in the kernel for n={n}, delta={delta}"
                    prev = layer

    _criterion("C5 BCH designed distance (n in {7,15,31}, delta in {3,5,7})", body, budget=30)


# -- C6: balance certificates -------------------------------------------------

def test_c06_balance_certificates():
    def body():
        code = balanced_code(dim=10, eps=0.1, seed=606)
        t = code.length
        seen = 0
        for cw in code.codewords():
            if cw.is_zero():
                continue
            seen += 1
            assert 0.4 * t <= cw.weight() <= 0.6 * t
        assert seen == 1023
        simplex = simplex_generator(4)
        for cw in simplex.codewords():
            if not cw.is_zero():
                assert cw.weight() == 8

    _criterion("C6 balance certificates (dim 10 random + simplex 4)", body, budget=30)


# -- C7: product-code density --------------------------------------------------

def test_c07_product_density():
    def body():
        rng = random.Random(707)
        done = 0
        while done < 5:
            gen = BitMat.from_bitrows([rng.getrandbits(4) for _ in range(12)], 4)
            if rank(gen) != 4:
                continue
            done += 1
            code = LinearCode.from_generator(gen)
            d = min_distance(code)
            ok, witness = product_density_check(code)
            assert ok, f"density bound violated for code with d={d}"
            if witness is not None:
                w = sum(r.bit_count() for r in witness.row_bits)
                assert w >= math.ceil(1.5 * d * d)

    _criterion("C7 product-code density (5 random [12,4] codes)", body, budget=120)


# -- C8/C9 shared construction ---------------------------------------------------

DESK_CFG = EvenSetConfig(eps=0.25, seed=3, sketch_rows=4, mixer_length=6, copies=3)


def _no_source():
    inst = VectorSumInstance(BitMat.identity(3), BitVec.from01("110"), 1)
    assert not solve_exhaustive(inst).feasible
    return inst


def test_c08_evenset_completeness():
    def body():
        inst = VectorSumInstance(BitMat.identity(3), BitVec.from01("010"), 1)
        es, layout = vectorsum_to_evenset(inst, DESK_CFG)
        assert layout.num_vars == 4 * 36 + 3 * 3 + 1
        witness = assemble_evenset_witness(layout, BitVec.from01("010"))
        assert mat_vec_mul(es.m, witness).is_zero()
        assert witness.weight() == layout.sparsity == 36 + 3 * 1 + 1
        assert layout.gate_value(witness) == 1

    _criterion("C8 homogenization completeness (desk overrides)", body, budget=10)


SOUND_CFG = EvenSetConfig(eps=0.1, seed=3, sketch_rows=4, mixer_length=14, copies=3)


def _sample_kernel(es, layout):
    """Sample 10^5 kernel elements with a fixed rng; return the number of
    gate-on samples with pair-state weight below K^2 and the nonzero samples
    below the sparsity threshold."""
    basis = [v.bits for v in nullspace_basis(es.m)]
    rng = random.Random(909)
    gate_mask = 1 << layout.gate_index
    pair_mask = layout.pair_state_mask()
    structural_violations = 0
    light = []
    for _ in range(100_000):
        acc = 0
        for b in basis:
            if rng.getrandbits(1):
                acc ^= b
        if acc == 0:
            continue
        if acc & gate_mask and (acc & pair_mask).bit_count() < layout.mixer_len**2:
            structural_violations += 1
        if acc.bit_count() < layout.sparsity:
            light.append(acc)
    return structural_violations, light


def _gate_off_floor(layout):
    """Mixer distance d, the product-density verdict, and 4*ceil(1.5*d^2).

    The source matrix is the identity, so a gate-off kernel element has x and
    its copies zero, and its pair states are whole four-indicator blocks over a
    nonzero symmetric zero-diagonal tensor codeword: its weight is at least
    4*ceil(1.5*d^2) whenever the density check holds.
    """
    mixer = LinearCode.from_generator(layout.mixer)
    d = min_distance(mixer)
    ok, _ = product_density_check(mixer)
    return d, ok, 4 * math.ceil(1.5 * d * d)


def _is_gate_off_block(layout, acc):
    """Gate, x and copies zero; every pair's four indicators all set or all clear."""
    if acc & ~layout.pair_state_mask():
        return False
    states = acc >> layout.pair_state_index(0, 0, 0, 0)
    return all((states >> (4 * p)) & 0xF in (0, 0xF) for p in range(layout.mixer_len**2))


def test_c09_evenset_soundness_sampling():
    def body():
        # Soundness where the density certificate covers the threshold.
        es, layout = vectorsum_to_evenset(_no_source(), SOUND_CFG)
        d, density_ok, floor = _gate_off_floor(layout)
        assert d >= math.ceil((0.5 - SOUND_CFG.eps) * layout.mixer_len), f"mixer distance {d}"
        assert density_ok, "product density bound violated by the mixer"
        assert floor >= layout.sparsity, f"gate-off floor {floor} below threshold {layout.sparsity}"
        structural_violations, light = _sample_kernel(es, layout)
        assert structural_violations == 0, "gate-on sample with pair-state weight below K^2"
        counterexamples = len(light)
        assert counterexamples == 0, (
            f"{counterexamples} sampled kernel elements below weight {layout.sparsity} "
            f"(lightest {min(w.bit_count() for w in light)}) although the density "
            f"certificate covers the threshold; see README, Install and test"
        )

        # Desk overrides: the floor misses the threshold, so light gate-off
        # elements exist (README); every light sample must be one of them.
        es, layout = vectorsum_to_evenset(_no_source(), DESK_CFG)
        _, _, floor = _gate_off_floor(layout)
        assert floor < layout.sparsity, f"gate-off floor {floor} now covers {layout.sparsity}"
        structural_violations, light = _sample_kernel(es, layout)
        assert structural_violations == 0, "gate-on sample with pair-state weight below K^2"
        stray = sum(not _is_gate_off_block(layout, w) for w in light)
        assert stray == 0, f"{stray} light samples outside the gate-off block class"
        return f"{len(light)} desk-override samples below {layout.sparsity}, all gate-off blocks"

    _criterion("C9 homogenization soundness sampling (10^5 samples)", body)


# -- C10: amplified parity NO case ---------------------------------------------

def _random_no_pv(rng, rows=8, cols=10, k=2):
    while True:
        m = BitMat.from_bitrows([rng.getrandbits(cols) for _ in range(rows)], cols)
        b = BitVec(rows, rng.getrandbits(rows) | 1)
        inst = VectorSumInstance(m, b, k)
        if not solve_exhaustive(inst).feasible:
            points = tuple(m.row(i) for i in range(rows))
            return PointValueSet(points, tuple(b))


def test_c10_amplified_parity_no_case():
    def body():
        rng = random.Random(1010)
        lo, hi = Fraction(2, 5), Fraction(3, 5)
        for trial in range(20):
            pv = _random_no_pv(rng)
            out = amplify_pointvalues(pv, eps=0.1, seed=rng.randrange(10**9))
            for w in range(3):
                for sub in combinations(range(pv.dim), w):
                    for const in (0, 1):
                        form = ParityForm(BitVec.from_support(pv.dim, sub), const)
                        agree = parity_agreement(out, form)
                        if agree == 1:  # would mean the parity satisfies every source pair
                            raise AssertionError(f"unexpected all-satisfying parity {form}")
                        assert lo <= agree <= hi, f"{form} agrees at {agree}"

    _criterion("C10 amplified parity NO-case (20 instances, eps 0.1)", body)


# -- C11: junta NO case ------------------------------------------------------------

def test_c11_junta_no_case():
    def body():
        rng = random.Random(1111)
        for trial in range(20):
            pv = _random_no_pv(rng)
            out = junta_hardness_instance(pv, delta=0.25, k=2, seed=rng.randrange(10**9))
            assert out.eps == 0.25 * 2.0**-2
            assert best_junta_agreement(out, 2) <= Fraction(3, 4)

    _criterion("C11 junta NO-case (20 instances, delta 0.25)", body, budget=60)


# -- C12: degree-2 fooling bound -----------------------------------------------------

def test_c12_viola_bound():
    def body():
        sketch = bch_parity_check(15, 5)  # kernel distance 5: all <=3-sparse forms survive
        mixer = simplex_generator(8).generator  # every nonzero codeword weight 128/255
        points = fooling_points_with_generator(sketch, mixer, 1)
        eps = distribution_bias(points, 3)
        assert eps <= 0.05
        shifted = viola_shift(points, 2, cap=70_000)
        assert shifted.rows == points.rows**2
        _, advantage = poly_agreement_bound(shifted, 3, 2)
        assert advantage <= 16 * math.sqrt(eps)

    _criterion("C12 degree-2 fooling bound (exhaustive shift + polynomials)", body, budget=120)


# -- C13: walk avoidance ---------------------------------------------------------------

def test_c13_walk_avoidance():
    def body():
        g, cert = random_regular(200, 8, seed=1313)
        rng = random.Random(13)
        for mu in (0.1, 0.3):
            marked = set(rng.sample(range(1, 201), int(mu * 200)))
            walks = sample_walks(g, 6, 100_000, seed=rng.randrange(10**9))
            avoided = sum(1 for w in walks if not any(v in marked for v in w)) / len(walks)
            bound = walk_avoidance_bound(mu, cert.lam, cert.degree, 6)
            assert avoided <= bound + 0.02, f"mu={mu}: {avoided} > {bound} + 0.02"

    _criterion("C13 walk-avoidance bound (n=200, D=8, t=6)", body, budget=60)


# -- C14: CLI determinism and round trip --------------------------------------------------

def test_c14_cli_determinism_and_roundtrip(tmp_path):
    def body():
        rng = random.Random(1414)
        for kind in ("graph", "vectorsum", "evenset", "pointvalues", "points", "code"):
            for _ in range(100):
                obj = _random_object(kind, rng)
                again = loads(dumps(obj, kind), kind)
                if kind == "code":
                    assert (again.generator or again.parity_check) == (obj.generator or obj.parity_check)
                else:
                    assert again == obj
        # Byte-identical outputs for identical config + seed.
        g1, g2 = tmp_path / "a.graph", tmp_path / "b.graph"
        for path in (g1, g2):
            assert cli_main(["gen-graph", "--out", str(path), "--override", "n=8",
                             "--override", "p=0.5", "--k", "3", "--seed", "77"]) == 0
        assert g1.read_bytes() == g2.read_bytes()
        v1, v2 = tmp_path / "a.vs", tmp_path / "b.vs"
        for path in (v1, v2):
            assert cli_main(["reduce", "clique2vs", "--in", str(g1), "--k", "3",
                             "--out", str(path)]) == 0
        assert v1.read_bytes() == v2.read_bytes()
        small = tmp_path / "small.vs"
        write_instance(small, VectorSumInstance(BitMat.identity(3), BitVec.from01("010"), 1), "vectorsum")
        e1, e2 = tmp_path / "a.es", tmp_path / "b.es"
        for path in (e1, e2):
            assert cli_main(["reduce", "vs2es", "--in", str(small), "--out", str(path),
                             "--eps", "0.25", "--seed", "3", "--override", "sketch_rows=4",
                             "--override", "K=6", "--override", "r=3"]) == 0
        assert e1.read_bytes() == e2.read_bytes()

    _criterion("C14 CLI determinism and parse/emit round-trip", body)


def _random_object(kind, rng):
    if kind == "graph":
        return random_graph(rng.randrange(1, 12), rng.random(), rng.randrange(10**9))
    if kind in ("vectorsum", "evenset"):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 12)
        m = BitMat.from_bitrows([rng.getrandbits(cols) for _ in range(rows)], cols)
        if kind == "vectorsum":
            return VectorSumInstance(m, BitVec(rows, rng.getrandbits(rows)), rng.randrange(1, 5))
        return EvenSetInstance(m, rng.randrange(1, 5))
    if kind == "pointvalues":
        n, count = rng.randrange(1, 10), rng.randrange(1, 14)
        return PointValueSet(
            tuple(BitVec(n, rng.getrandbits(n)) for _ in range(count)),
            tuple(rng.getrandbits(1) for _ in range(count)),
        )
    if kind == "points":
        n = rng.randrange(1, 10)
        return BitMat.from_bitrows([rng.getrandbits(n) for _ in range(rng.randrange(1, 14))], n)
    side = rng.choice(["generator", "parity"])
    if side == "generator":
        while True:
            dim = rng.randrange(1, 4)
            gen = BitMat.from_bitrows([rng.getrandbits(dim) for _ in range(rng.randrange(dim, 9))], dim)
            if rank(gen) == dim:
                return LinearCode.from_generator(gen)
    return LinearCode.from_parity_check(bch_parity_check(rng.randrange(4, 16), 3))
