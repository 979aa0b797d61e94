"""Command-line front end.

Commands: gen-graph, reduce <kind>, solve, verify <check>. Exit codes:
0 feasible/verified, 1 infeasible/refuted, 2 rejected input, 3 resource or
generation limit. Identical configuration and seed produce byte-identical
output files; '#' provenance headers carry the input hash and settings.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import codes, formats, graphs, solvers
from ._search import mitm_kernel_min_weight
from .errors import GenerationError, InputError, ResourceError, SparseF2Error
from .reductions import (
    EvenSetConfig,
    clique_to_vectorsum,
    evenset_to_fooling_points,
    junta_hardness_instance,
    mdc_tensor,
    mdc_to_learning,
    mdc_walk_amplify,
    vectorsum_to_evenset,
    viola_shift,
)
from .reductions.amplify import amplify_pointvalues

REDUCE_KINDS = (
    "clique2vs",
    "vs2es",
    "amplify",
    "junta",
    "viola",
    "evenset-fool",
    "mdc-walk",
    "mdc-learn",
    "mdc-tensor",
)
VERIFY_CHECKS = ("balance", "bch", "density", "bias", "parity", "junta", "poly", "roundtrip")
SOLVE_ALGS = ("exhaustive", "mitm", "bfs", "evenset-min")

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class Report:
    """Ordered key-value result lines, printable as text or machine lines."""

    def __init__(self):
        self.rows: list[tuple[str, object]] = []

    def add(self, key: str, value) -> "Report":
        self.rows.append((key, value))
        return self

    def render(self, fmt: str) -> str:
        if fmt == "lines":
            return "\n".join(f"{k}={v}" for k, v in self.rows)
        return "\n".join(f"{k}: {v}" for k, v in self.rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsef2", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="in_path", metavar="PATH")
    common.add_argument("--out", dest="out_path", metavar="PATH")
    common.add_argument("--kind", choices=formats.KINDS)
    common.add_argument("--k", type=int)
    common.add_argument("--eps", type=float)
    common.add_argument("--delta", type=float)
    common.add_argument("--deg", type=int)
    common.add_argument("--walk-len", dest="walk_len", type=int)
    common.add_argument("--alg", choices=SOLVE_ALGS)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--cap", type=int)
    common.add_argument("--override", action="append", default=[], metavar="KEY=VAL")
    common.add_argument("--format", choices=("text", "lines"), default="text")
    common.set_defaults(subcommand=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-graph", parents=[common])
    reduce_p = sub.add_parser("reduce", parents=[common])
    reduce_p.add_argument("subcommand", choices=REDUCE_KINDS)
    sub.add_parser("solve", parents=[common])
    verify_p = sub.add_parser("verify", parents=[common])
    verify_p.add_argument("subcommand", choices=VERIFY_CHECKS)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: building takes ten times
    as long as parsing, and parsing leaves the parser as it was."""
    return build_parser()


def parse_args(argv) -> argparse.Namespace:
    """The parsed flags, with the ``--override`` items as the dict ``overrides``."""
    cfg = _parser().parse_args(argv)
    cfg.overrides = {}
    for item in cfg.override:
        if "=" not in item:
            raise InputError(f"override {item!r} is not KEY=VAL")
        key, val = item.split("=", 1)
        cfg.overrides[key.strip()] = val.strip()
    return cfg


def _require(value, flag: str):
    if value is None:
        raise InputError(f"missing required flag {flag}")
    return value


def _override_int(cfg: argparse.Namespace, key: str, default: int | None = None) -> int | None:
    if key not in cfg.overrides:
        return default
    try:
        return int(cfg.overrides[key])
    except ValueError:
        raise InputError(f"override {key} must be an integer") from None


def _override_float(cfg: argparse.Namespace, key: str, default: float | None = None) -> float | None:
    if key not in cfg.overrides:
        return default
    try:
        return float(cfg.overrides[key])
    except ValueError:
        raise InputError(f"override {key} must be a number") from None


def _cap(cfg: argparse.Namespace) -> dict:
    """``--cap`` as the ``cap`` keyword of a library call; unset, the library default holds."""
    return {} if cfg.cap is None else {"cap": cfg.cap}


def _verdict(report: Report, ok: bool) -> int:
    report.add("verified", int(ok))
    return EXIT_OK if ok else EXIT_REFUTED


def _load(cfg: argparse.Namespace, kind: str):
    path = _require(cfg.in_path, "--in")
    return formats.parse_instance(path, kind)


def _provenance(cfg: argparse.Namespace, extra: str = "") -> list[str]:
    parts = [f"sparsef2 {cfg.command}" + (f" {cfg.subcommand}" if cfg.subcommand else "")]
    if cfg.in_path:
        digest = hashlib.sha256(Path(cfg.in_path).read_bytes()).hexdigest()
        parts.append(f"input-sha256={digest}")
    settings = [f"seed={cfg.seed}"]
    for name in ("k", "eps", "delta", "deg", "walk_len", "cap"):
        v = getattr(cfg, name)
        if v is not None:
            settings.append(f"{name}={v}")
    for key in sorted(cfg.overrides):
        settings.append(f"{key}={cfg.overrides[key]}")
    parts.append(" ".join(settings))
    if extra:
        parts.append(extra)
    return parts


def _emit(cfg: argparse.Namespace, obj, kind: str, extra: str = "") -> None:
    path = _require(cfg.out_path, "--out")
    formats.write_instance(path, obj, kind, _provenance(cfg, extra))


def _gen_graph(cfg: argparse.Namespace, report: Report) -> int:
    n = _override_int(cfg, "n")
    if n is None:
        raise InputError("gen-graph needs --override n=<count>")
    p = _override_float(cfg, "p", 0.5)
    if cfg.k is not None:
        g, witness = graphs.planted_clique(n, cfg.k, p, cfg.seed)
        extra = "witness " + " ".join(str(v) for v in sorted(witness))
    else:
        g, extra = graphs.random_graph(n, p, cfg.seed), ""
    _emit(cfg, g, "graph", extra)
    report.add("vertices", g.n).add("edges", g.num_edges)
    return EXIT_OK


def _evenset_config(cfg: argparse.Namespace) -> EvenSetConfig:
    return EvenSetConfig(
        eps=cfg.eps if cfg.eps is not None else 0.1,
        c=_override_float(cfg, "c", 1.0),
        seed=cfg.seed,
        sketch_delta=_override_int(cfg, "sketch_delta"),
        sketch_rows=_override_int(cfg, "sketch_rows"),
        mixer_length=_override_int(cfg, "K", _override_int(cfg, "mixer_length")),
        copies=_override_int(cfg, "r", _override_int(cfg, "copies")),
    )


def _reduce(cfg: argparse.Namespace, report: Report) -> int:
    sub = cfg.subcommand
    if sub == "clique2vs":
        g = _load(cfg, "graph")
        inst, layout = clique_to_vectorsum(g, _require(cfg.k, "--k"))
        _emit(cfg, inst, "vectorsum", f"layout pattern_bits={layout.pattern_bits}")
        report.add("rows", inst.m.rows).add("cols", inst.m.cols).add("sparsity", inst.k)
    elif sub == "vs2es":
        inst = _load(cfg, "vectorsum")
        emitted, layout = vectorsum_to_evenset(inst, _evenset_config(cfg))
        _emit(cfg, emitted, "evenset", f"layout K={layout.mixer_len} r={layout.copies}")
        report.add("vars", layout.num_vars).add("equations", emitted.m.rows).add("sparsity", emitted.k)
    elif sub == "amplify":
        pv = _load(cfg, "pointvalues")
        out = amplify_pointvalues(pv, _require(cfg.eps, "--eps"), cfg.seed)
        _emit(cfg, out, "pointvalues")
        report.add("pairs", len(out))
    elif sub == "junta":
        pv = _load(cfg, "pointvalues")
        out = junta_hardness_instance(pv, _require(cfg.delta, "--delta"), _require(cfg.k, "--k"), cfg.seed)
        _emit(cfg, out, "pointvalues")
        report.add("pairs", len(out)).add("eps", out.eps)
    elif sub == "viola":
        points = _load(cfg, "points")
        out = viola_shift(
            points, _require(cfg.deg, "--deg"), sample_count=_override_int(cfg, "samples"), seed=cfg.seed, **_cap(cfg)
        )
        _emit(cfg, out, "points")
        report.add("points", out.rows)
    elif sub == "evenset-fool":
        inst = _load(cfg, "evenset")
        out = evenset_to_fooling_points(
            inst,
            _require(cfg.eps, "--eps"),
            _require(cfg.deg, "--deg"),
            cfg.seed,
            sample_count=_override_int(cfg, "samples"),
            **_cap(cfg),
        )
        _emit(cfg, out, "points")
        report.add("points", out.rows)
    elif sub == "mdc-tensor":
        points = _load(cfg, "points")
        out = mdc_tensor(points, _override_int(cfg, "power", 2), **_cap(cfg))
        _emit(cfg, out, "points")
        report.add("rows", out.rows).add("cols", out.cols)
    elif sub == "mdc-walk":
        points = _load(cfg, "points")
        graph_path = cfg.overrides.get("graph")
        if graph_path is None:
            raise InputError("mdc-walk needs --override graph=<graph file>")
        g = formats.parse_instance(graph_path, "graph")
        t = _require(cfg.walk_len, "--walk-len")
        samples = _override_int(cfg, "samples")
        walks = graphs.sample_walks(g, t, samples, cfg.seed) if samples else None
        out = mdc_walk_amplify(points, g, t, walks=walks, **_cap(cfg))
        _emit(cfg, out, "points")
        report.add("rows", out.rows)
    elif sub == "mdc-learn":
        points = _load(cfg, "points")
        out = mdc_to_learning(points, _require(cfg.deg, "--deg"), **_cap(cfg))
        _emit(cfg, out, "pointvalues")
        report.add("pairs", len(out))
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown reduction {sub!r}")
    return EXIT_OK


def _solve(cfg: argparse.Namespace, report: Report) -> int:
    kind = cfg.kind or ("evenset" if cfg.alg == "evenset-min" else "vectorsum")
    alg = cfg.alg or ("evenset-min" if kind == "evenset" else "exhaustive")
    if kind == "evenset":
        if alg != "evenset-min":
            raise InputError(f"algorithm {alg!r} does not apply to evenset instances")
        inst = _load(cfg, "evenset")
        rep = solvers.evenset_min_weight(inst, **_cap(cfg))
    else:
        inst = _load(cfg, "vectorsum")
        solve = {"exhaustive": solvers.solve_exhaustive, "mitm": solvers.solve_mitm, "bfs": solvers.solve_bfs}.get(alg)
        if solve is None:
            raise InputError(f"algorithm {alg!r} does not apply to vectorsum instances")
        rep = solve(inst, **_cap(cfg))
    report.add("algorithm", rep.algorithm).add("feasible", int(rep.feasible))
    if rep.weight is not None:
        report.add("weight", rep.weight)
    if rep.witness is not None:
        report.add("witness", rep.witness.to01())
    report.add("work", rep.work)
    return EXIT_OK if rep.feasible else EXIT_REFUTED


def _verify(cfg: argparse.Namespace, report: Report) -> int:
    sub = cfg.subcommand
    if sub == "balance":
        dim = _require(cfg.k, "--k")
        eps = _require(cfg.eps, "--eps")
        code = codes.balanced_code(dim, eps, cfg.seed, length=_override_int(cfg, "length"))
        weights = sorted({cw.weight() for cw in code.codewords() if not cw.is_zero()})
        ok = (0.5 - eps) * code.length <= weights[0] and weights[-1] <= (0.5 + eps) * code.length
        report.add("length", code.length).add("min_weight", weights[0]).add("max_weight", weights[-1])
        return _verdict(report, ok)
    if sub == "bch":
        n = _override_int(cfg, "n")
        if n is None:
            raise InputError("verify bch needs --override n=<length>")
        delta = int(_require(cfg.delta, "--delta"))
        r = codes.bch_parity_check(n, delta)
        ok = mitm_kernel_min_weight(r.col_bits(), n, delta - 1, **_cap(cfg)) is None
        report.add("rows", r.rows).add("cols", r.cols)
        return _verdict(report, ok)
    if sub == "density":
        code = _load(cfg, "code")
        ok, witness = codes.product_density_check(code, **_cap(cfg))
        report.add("distance", code.dist_cert.d).add("bound", math.ceil(1.5 * code.dist_cert.d**2))
        if witness is not None:
            report.add("witness_weight", sum(r.bit_count() for r in witness.row_bits))
        return _verdict(report, ok)
    if sub == "bias":
        points = _load(cfg, "points")
        bias = codes.distribution_bias(points, _require(cfg.k, "--k"), **_cap(cfg))
        report.add("bias", f"{bias:.6f}")
        return EXIT_OK if cfg.eps is None else _verdict(report, bias <= cfg.eps)
    if sub == "parity":
        pv = _load(cfg, "pointvalues")
        form, frac = solvers.best_parity_agreement(pv, _require(cfg.k, "--k"), **_cap(cfg))
        report.add("agreement", f"{float(frac):.6f}").add("support", ",".join(map(str, form.support())))
        if cfg.eps is None:
            return EXIT_OK
        return _verdict(report, frac == 1 or frac <= Fraction(1, 2) + Fraction(cfg.eps).limit_denominator(10**9))
    if sub == "junta":
        pv = _load(cfg, "pointvalues")
        frac = solvers.best_junta_agreement(pv, _require(cfg.k, "--k"), **_cap(cfg))
        report.add("agreement", f"{float(frac):.6f}")
        if cfg.delta is None:
            return EXIT_OK
        return _verdict(report, frac == 1 or frac <= Fraction(1, 2) + Fraction(cfg.delta).limit_denominator(10**9))
    if sub == "poly":
        points = _load(cfg, "points")
        k, deg = _require(cfg.k, "--k"), _require(cfg.deg, "--deg")
        poly, adv = solvers.poly_agreement_bound(points, k, deg, **_cap(cfg))
        report.add("advantage", f"{float(adv):.6f}")
        return EXIT_OK if cfg.delta is None else _verdict(report, adv <= Fraction(cfg.delta).limit_denominator(10**9))
    if sub == "roundtrip":
        kind = _require(cfg.kind, "--kind")
        obj = _load(cfg, kind)
        return _verdict(report, formats.loads(formats.dumps(obj, kind), kind) == obj)
    raise InputError(f"unknown check {sub!r}")  # pragma: no cover


def run(cfg: argparse.Namespace) -> tuple[int, str]:
    """Execute one command; returns (exit code, rendered report)."""
    report = Report()
    if cfg.command == "gen-graph":
        status = _gen_graph(cfg, report)
    elif cfg.command == "reduce":
        status = _reduce(cfg, report)
    elif cfg.command == "solve":
        status = _solve(cfg, report)
    elif cfg.command == "verify":
        status = _verify(cfg, report)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown command {cfg.command!r}")
    return status, report.render(cfg.format)


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        status, text = run(cfg)
        if text:
            print(text)
        return status
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SparseF2Error as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
