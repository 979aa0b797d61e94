"""The three workloads: seeded inputs, one timed operation per input, and the
checks of each operation's verdicts against reference.py.

A workload's ``generate(seed)`` makes one round of inputs, written in the
documented file formats; the benchmark repeats that round. Input sizes are
fixed per slot of the round, so only the random contents depend on the seed
and every round costs about the same whatever the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil, comb
from pathlib import Path

import reference as ref
from sparsef2 import cli, codes, formats, reductions, solvers


@dataclass
class Case:
    """One input of a round: the files the program reads, how the benchmark
    built it, and reference answers cached by the text they were computed from."""

    kind: str
    yes: bool
    files: dict[str, Path]
    params: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def reference(self, key: str, text: str, compute):
        digest = hashlib.sha1(text.encode()).hexdigest()
        hit = self.cache.get(key)
        if hit is None or hit[0] != digest:
            hit = (digest, compute())
            self.cache[key] = hit
        return hit[1]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """sparsef2.cli.main in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _status(errors: list[str], step: str, got: tuple, want: int) -> bool:
    if got[0] != want:
        errors.append(f"{step}: exit {got[0]}, expected {want}; {got[2].strip()[:200]}")
        return False
    return True


def _close(reported: str, exact, what: str, errors: list[str]) -> None:
    """Reported values carry six decimals."""
    if abs(float(reported) - float(exact)) > 5e-7 + 1e-12:
        errors.append(f"{what}: program reports {reported}, reference {float(exact):.9f}")


def _check_witness(errors, what, x: int, rows: list[int], target: int, weight: int) -> None:
    if ref.mat_vec(rows, x) != target:
        errors.append(f"{what}: witness does not satisfy the system")
    if x.bit_count() != weight:
        errors.append(f"{what}: witness weight {x.bit_count()}, expected {weight}")


def _random_rows(rng: random.Random, nrows: int, ncols: int) -> list[int]:
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def _plant_column(rows: list[int], target: int, sources) -> list[int]:
    """Make column ``target`` the XOR of the ``sources`` columns."""
    out = []
    for r in rows:
        bit = 0
        for j in sources:
            bit ^= (r >> j) & 1
        out.append((r & ~(1 << target)) | (bit << target))
    return out


# -- clique-vs --------------------------------------------------------------

# (kind, k, n, m, planted clique) per slot. Every graph of a kind has the same
# column count 3(n + m) or 4n + 6m, so every slot costs the same for any seed.
# The "exh" slots also run the exhaustive solver; the enumeration cap allows
# at most 63 columns at sparsity 6.
CLIQUE_SLOTS = (
    [("k3", 3, n, 110 - n, yes) for n in (20, 22, 24) for yes in (True, False)]
    + [("k4", 4, 5, 6, yes) for yes in (True, False)]
    + [("exh", 3, n, 21 - n, yes) for n, yes in ((9, True), (10, False))]
)


def clique_graph(rng: random.Random, n: int, m: int, k: int, planted: bool) -> list[tuple[int, int]]:
    """m edges of a random (k-1)-partite graph, so no k-clique; with
    ``planted``, k random vertices are joined into a clique first."""
    part = [0] * (n + 1)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for i, v in enumerate(order):
        part[v] = i % (k - 1)
    edges = set()
    if planted:
        edges |= set(combinations(sorted(rng.sample(range(1, n + 1), k)), 2))
    cross = [(u, v) for u, v in combinations(range(1, n + 1), 2) if part[u] != part[v] and (u, v) not in edges]
    edges |= set(rng.sample(cross, m - len(edges)))
    return sorted(edges)


class CliqueVS:
    name = "clique-vs"
    calibration = "numpy"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for i, (kind, k, n, m, yes) in enumerate(CLIQUE_SLOTS):
            edges = clique_graph(rng, n, m, k, yes)
            graph = self.workdir / f"clique-{i}.graph"
            graph.write_text(ref.graph_text(n, edges))
            files = {"graph": graph, "vs": self.workdir / f"clique-{i}.vs"}
            cases.append(Case(kind, yes, files, {"k": k, "n": n, "edges": edges}))
        return cases

    def run(self, case: Case) -> dict:
        k = str(case.params["k"])
        out = {"reduce": run_cli(["reduce", "clique2vs", "--in", str(case.files["graph"]), "--k", k,
                                  "--out", str(case.files["vs"])])}
        algs = ("mitm", "exhaustive") if case.kind == "exh" else ("mitm",)
        for alg in algs:
            out[alg] = run_cli(["solve", "--in", str(case.files["vs"]), "--alg", alg, "--format", "lines"])
        return out

    def check(self, case: Case, out: dict) -> list[str]:
        errors: list[str] = []
        if not _status(errors, "reduce clique2vs", out["reduce"], 0):
            return errors
        k, n, edges = case.params["k"], case.params["n"], case.params["edges"]
        ncols, rows, b, sparsity = ref.parse_vectorsum(case.files["vs"].read_text())
        if sparsity != k + comb(k, 2):
            errors.append(f"sparsity {sparsity}, expected k + C(k,2) = {k + comb(k, 2)}")
        yes = case.reference("clique", "", lambda: ref.has_clique(n, edges, k))
        if yes != case.yes:
            errors.append(f"reference clique search says {yes}, graph was built with {case.yes}")
        for alg in ("mitm", "exhaustive"):
            if alg not in out:
                continue
            _status(errors, f"solve {alg}", out[alg], 0 if yes else 1)
            rep = ref.parse_report(out[alg][1])
            if (rep.get("feasible") == "1") != yes:
                errors.append(f"{alg}: feasible={rep.get('feasible')}, reference clique search says {yes}")
                continue
            if not yes:
                continue
            if rep.get("weight") != str(sparsity):
                errors.append(f"{alg}: weight {rep.get('weight')}, expected {sparsity}")
            x = ref.from01(rep.get("witness", ""), ncols)
            _check_witness(errors, alg, x, rows, b, sparsity)
            chosen = [j for j in range(min(ncols, n * k)) if (x >> j) & 1]
            vertices = {j // k + 1 for j in chosen}
            if len(chosen) != k or len({j % k for j in chosen}) != k or not ref.is_clique(n, edges, vertices):
                errors.append(f"{alg}: witness vertex columns {chosen} do not name a {k}-clique")
        return errors


# -- evenset ----------------------------------------------------------------

# Kind (a): C9's certified configuration. MIXER_SEEDS are the seeds below 40
# whose balanced code of length 14 exists; seeds 1, 2, 5, 10, 17, 18, 24, 25,
# 26, 29, 30, 33, 36 and 39 exhaust the generator's retries and raise
# GenerationError (exit 3). The YES and NO slots use the first two, fixed
# like the learn-fool code seeds so that the mixer does not change the cost.
SOUND = {"eps": 0.1, "sketch_rows": 4, "mixer_length": 14, "copies": 3}
SOUND_VARS, SOUND_EQUATIONS, SOUND_THRESHOLD = 794, 982, 200
MIXER_SEEDS = (0, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 27, 28, 31, 32, 34, 35, 37, 38)
# Kind (b): full kernel enumeration. Kind (c): sparse search up to k.
ENUM_COLS, ENUM_DIM, ENUM_K = 64, 22, 4
SPARSE_COLS, SPARSE_ROWS, SPARSE_K = 105, 64, 6
# Per round: two inputs each of kinds (a) and (b) and four of (c). The kinds
# cost about 0.9, 0.55 and 0.65 s at nominal host speed, so the median
# operation falls in the middle of the (c) inputs rather than on the edge
# between two kinds' costs, where it would jump from run to run.
EVENSET_SLOTS = [("a", True), ("a", False), ("b", True), ("b", False)] + [("c", yes) for yes in (True, False) * 2]


class EvenSet:
    name = "evenset"
    calibration = "python"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for i, (kind, yes) in enumerate(EVENSET_SLOTS):
            path = self.workdir / f"evenset-{i}.{'vs' if kind == 'a' else 'es'}"
            files = {"in": path}
            params = {}
            if kind == "a":
                while True:
                    rows = _random_rows(rng, 3, 3)
                    if ref.rank(rows, 3) == 3:
                        break
                cols = ref.columns(rows, 3)
                b = rng.choice(cols) if yes else rng.choice([v for v in range(1, 8) if v not in cols])
                path.write_text(ref.vectorsum_text(rows, 3, b, 1))
                files["es"] = self.workdir / f"evenset-{i}.es"
                params["mixer_seed"] = MIXER_SEEDS[0 if yes else 1]
            elif kind == "b":
                while True:
                    rows = _random_rows(rng, ENUM_COLS - ENUM_DIM, ENUM_COLS)
                    if yes:
                        picked = rng.sample(range(ENUM_COLS), 4)
                        rows = _plant_column(rows, picked[0], picked[1:])
                    if ENUM_COLS - ref.rank(rows, ENUM_COLS) == ENUM_DIM:
                        break
                path.write_text(ref.evenset_text(rows, ENUM_COLS, ENUM_K))
            else:
                while True:
                    rows = _random_rows(rng, SPARSE_ROWS, SPARSE_COLS)
                    if yes:
                        picked = rng.sample(range(SPARSE_COLS), SPARSE_K)
                        rows = _plant_column(rows, picked[0], picked[1:])
                    if SPARSE_COLS - ref.rank(rows, SPARSE_COLS) > 24:
                        break
                path.write_text(ref.evenset_text(rows, SPARSE_COLS, SPARSE_K))
            cases.append(Case(kind, yes, files, params))
        return cases

    def run(self, case: Case) -> dict:
        if case.kind != "a":
            inst = formats.parse_instance(case.files["in"], "evenset")
            cap = SPARSE_K if case.kind == "c" else None
            return {"report": solvers.evenset_min_weight(inst, sparse_cap=cap)}
        source = formats.parse_instance(case.files["in"], "vectorsum")
        config = reductions.EvenSetConfig(seed=case.params["mixer_seed"], **SOUND)
        inst, layout = reductions.vectorsum_to_evenset(source, config)
        mixer = codes.LinearCode.from_generator(layout.mixer)
        distance = codes.min_distance(mixer)
        dense, _ = codes.product_density_check(mixer)
        formats.write_instance(case.files["es"], inst, "evenset")
        again = formats.parse_instance(case.files["es"], "evenset")
        return {
            "report": solvers.evenset_min_weight(again),
            "distance": distance,
            "dense": dense,
            "mixer": list(layout.mixer.row_bits),
        }

    def check(self, case: Case, out: dict) -> list[str]:
        errors: list[str] = []
        path = case.files["es" if case.kind == "a" else "in"]
        text = path.read_text()
        ncols, rows, k = ref.parse_evenset(text)
        rep = out["report"]
        if case.kind == "c":
            found = case.reference("sparse", text, lambda: ref.sparse_min_weight(rows, ncols, k))
        else:
            found = case.reference("enum", text, lambda: ref.kernel_min_weight(ref.kernel_basis(rows, ncols), ncols))
        minw = found[0] if found else None
        if case.kind != "a" and (minw is not None and minw <= k) != case.yes:
            errors.append(f"reference minimum weight {minw} with k = {k}; the input was built with {case.yes}")
        if rep.feasible != (minw is not None and minw <= k):
            errors.append(f"feasible={rep.feasible}, reference minimum weight {minw} with k = {k}")
        if rep.weight != minw:
            errors.append(f"weight {rep.weight}, reference minimum weight {minw}")
        if rep.witness is not None:
            x = rep.witness.bits
            if x == 0:
                errors.append("witness is the zero vector")
            _check_witness(errors, "evenset witness", x, rows, 0, minw if minw is not None else -1)
        elif rep.feasible:
            errors.append("feasible without a witness")
        if case.kind == "a":
            errors += self._check_homogenized(case, out, ncols, rows, k, minw)
        return errors

    def _check_homogenized(self, case, out, ncols, rows, k, minw) -> list[str]:
        errors = []
        if (ncols, len(rows), k) != (SOUND_VARS, SOUND_EQUATIONS, SOUND_THRESHOLD):
            errors.append(f"homogenized instance is {len(rows)} x {ncols} with k = {k}")
        mixer = out["mixer"]
        dim = SOUND["sketch_rows"]
        d = case.reference("distance", repr(mixer), lambda: ref.code_min_distance(mixer, dim))
        if out["distance"] != d:
            errors.append(f"min_distance {out['distance']}, reference {d}")
        lightest = case.reference("density", repr(mixer), lambda: ref.symmetric_product_min_weight(mixer, dim))
        dense = lightest is None or lightest >= ceil(1.5 * d * d)
        if out["dense"] != dense:
            errors.append(f"product_density_check {out['dense']}, reference lightest member {lightest}")
        floor = 4 * ceil(1.5 * d * d)
        if not (dense and floor >= SOUND_THRESHOLD):
            errors.append(f"gate-off floor {floor} (dense={dense}) does not cover {SOUND_THRESHOLD}")
        elif case.yes and minw != SOUND_THRESHOLD:
            errors.append(f"YES source: minimum weight {minw}, expected exactly {SOUND_THRESHOLD}")
        elif not case.yes and not (minw is None or minw > SOUND_THRESHOLD):
            errors.append(f"NO source: minimum weight {minw} does not exceed {SOUND_THRESHOLD}")
        return errors


# -- learn-fool -------------------------------------------------------------

LF_ROWS, LF_K = 8, 2
AMPLIFY_EPS, JUNTA_DELTA, FOOL_EPS, FOOL_DEG = Fraction(1, 10), Fraction(1, 4), Fraction(1, 5), 2
# Code seeds of the amplify, junta and fooling steps, plus the slot index.
# They are fixed, not drawn from the workload seed: the balanced code's
# length, and with it the cost of every later step, depends only on them.
LEARN_CODE_SEEDS = (100, 200, 300)
# (columns, vector-sum YES, even-set YES) per slot.
LEARN_SLOTS = [(10, True, True), (10, False, False), (11, True, False), (11, False, True),
               (12, True, True), (12, False, False)]


def _learn_source(rng: random.Random, ncols: int, vs_yes: bool, es_yes: bool) -> tuple[list[int], int]:
    """Columns of an LF_ROWS x ncols system and a nonzero target b: b is a sum
    of at most LF_K columns iff vs_yes, and two columns are equal (a 2-sparse
    kernel vector) iff es_yes."""
    while True:
        cols = [rng.getrandbits(LF_ROWS) for _ in range(ncols)]
        if es_yes:
            i, j = rng.sample(range(ncols), 2)
            cols[j] = cols[i]
        if (0 in cols or len(set(cols)) < ncols) != es_yes:
            continue
        if vs_yes:
            i, j = rng.sample(range(ncols), 2)
            b = cols[i] ^ cols[j]
        else:
            b = rng.getrandbits(LF_ROWS)
        rows = [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(LF_ROWS)]
        if b and (ref.min_solution_weight(rows, ncols, b, LF_K) is not None) == vs_yes:
            return rows, b


class LearnFool:
    name = "learn-fool"
    calibration = "python"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for i, (ncols, vs_yes, es_yes) in enumerate(LEARN_SLOTS):
            rows, b = _learn_source(rng, ncols, vs_yes, es_yes)
            files = {name: self.workdir / f"learn-{i}.{name}" for name in ("vs", "pv", "es", "amp", "junta", "fool")}
            files["vs"].write_text(ref.vectorsum_text(rows, ncols, b, LF_K))
            files["pv"].write_text(ref.pointvalues_text(rows, [(b >> t) & 1 for t in range(LF_ROWS)], ncols))
            files["es"].write_text(ref.evenset_text(rows, ncols, LF_K))
            params = {"rows": rows, "ncols": ncols, "b": b, "es_yes": es_yes,
                      "seeds": [str(base + i) for base in LEARN_CODE_SEEDS]}
            cases.append(Case("lf", vs_yes, files, params))
        return cases

    def run(self, case: Case) -> dict:
        f = {name: str(path) for name, path in case.files.items()}
        s_amp, s_junta, s_fool = case.params["seeds"]
        k = str(LF_K)
        out = {}
        for alg in ("exhaustive", "mitm", "bfs"):
            out[alg] = run_cli(["solve", "--in", f["vs"], "--alg", alg, "--format", "lines"])
        out["amplify"] = run_cli(["reduce", "amplify", "--in", f["pv"], "--eps", str(float(AMPLIFY_EPS)),
                                  "--seed", s_amp, "--out", f["amp"]])
        out["parity"] = run_cli(["verify", "parity", "--in", f["amp"], "--k", k,
                                 "--eps", str(float(AMPLIFY_EPS)), "--format", "lines"])
        out["junta-reduce"] = run_cli(["reduce", "junta", "--in", f["pv"], "--delta", str(float(JUNTA_DELTA)),
                                       "--k", k, "--seed", s_junta, "--out", f["junta"]])
        out["junta"] = run_cli(["verify", "junta", "--in", f["junta"], "--k", k,
                                "--delta", str(float(JUNTA_DELTA)), "--format", "lines"])
        out["fool"] = run_cli(["reduce", "evenset-fool", "--in", f["es"], "--eps", str(float(FOOL_EPS)),
                               "--deg", str(FOOL_DEG), "--seed", s_fool, "--out", f["fool"]])
        out["bias"] = run_cli(["verify", "bias", "--in", f["fool"], "--k", k, "--format", "lines"])
        out["poly"] = run_cli(["verify", "poly", "--in", f["fool"], "--k", k, "--deg", str(FOOL_DEG),
                               "--format", "lines"])
        return out

    def check(self, case: Case, out: dict) -> list[str]:
        errors: list[str] = []
        p = case.params
        rows, ncols, b = p["rows"], p["ncols"], p["b"]
        minw = case.reference("solve", "", lambda: ref.min_solution_weight(rows, ncols, b, LF_K))
        yes = minw is not None
        for alg in ("exhaustive", "mitm", "bfs"):
            _status(errors, f"solve {alg}", out[alg], 0 if yes else 1)
            rep = ref.parse_report(out[alg][1])
            if (rep.get("feasible") == "1") != yes:
                errors.append(f"{alg}: feasible={rep.get('feasible')}, brute force says {yes}")
            elif yes:
                if rep.get("weight") != str(minw):
                    errors.append(f"{alg}: weight {rep.get('weight')}, brute-force minimum {minw}")
                _check_witness(errors, alg, ref.from01(rep.get("witness", ""), ncols), rows, b, minw)
        for step in ("amplify", "junta-reduce", "fool"):
            _status(errors, f"reduce {step}", out[step], 0)
        if errors:
            return errors
        errors += self._check_learning(case, out, yes)
        errors += self._check_fooling(case, out)
        return errors

    def _check_learning(self, case: Case, out: dict, yes: bool) -> list[str]:
        errors: list[str] = []
        text = case.files["amp"].read_text()
        n, pts, vals = ref.parse_pointvalues(text)
        agreements = case.reference("parity", text, lambda: ref.parity_agreements(n, pts, vals, LF_K))
        best = max(agreements)
        _status(errors, "verify parity", out["parity"], 0)
        rep = ref.parse_report(out["parity"][1])
        _close(rep.get("agreement", "nan"), best, "best parity agreement", errors)
        if yes and best != 1:
            errors.append(f"YES source, but the best amplified parity agreement is {best}")
        if not yes:
            lo, hi = Fraction(1, 2) - AMPLIFY_EPS, Fraction(1, 2) + AMPLIFY_EPS
            outside = [a for a in agreements if not lo <= a <= hi]
            if outside:
                errors.append(f"NO source, but {len(outside)} parity agreements lie outside [{lo}, {hi}]")
        text = case.files["junta"].read_text()
        n, pts, vals = ref.parse_pointvalues(text)
        junta = case.reference("junta", text, lambda: ref.best_junta_agreement(n, pts, vals, LF_K))
        _status(errors, "verify junta", out["junta"], 0)
        _close(ref.parse_report(out["junta"][1]).get("agreement", "nan"), junta, "junta agreement", errors)
        if yes and junta != 1:
            errors.append(f"YES source, but the best junta agreement is {junta}")
        if not yes and junta > Fraction(1, 2) + JUNTA_DELTA:
            errors.append(f"NO source, but a {LF_K}-junta agrees on {junta}")
        return errors

    def _check_fooling(self, case: Case, out: dict) -> list[str]:
        errors: list[str] = []
        text = case.files["fool"].read_text()
        n, pts = ref.parse_points(text)
        bias = case.reference("bias", text, lambda: ref.distribution_bias(n, pts, LF_K))
        adv = case.reference("poly", text, lambda: ref.poly_advantage_all_functions(n, pts, LF_K))
        _status(errors, "verify bias", out["bias"], 0)
        _close(ref.parse_report(out["bias"][1]).get("bias", "nan"), bias, "shifted bias", errors)
        _status(errors, "verify poly", out["poly"], 0)
        _close(ref.parse_report(out["poly"][1]).get("advantage", "nan"), adv, "polynomial advantage", errors)
        if case.params["es_yes"]:
            if bias != 1 or adv < Fraction(1, 2):
                errors.append(f"2-sparse kernel vector, but bias {bias} and advantage {adv}")
        elif bias > float(2 * FOOL_EPS) ** 2 + 1e-12:
            errors.append(f"no 2-sparse kernel vector, but shifted bias {bias} > (2 eps)^2")
        return errors


WORKLOADS = {w.name: w for w in (CliqueVS, EvenSet, LearnFool)}
