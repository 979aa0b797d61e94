"""Per-layer tracing from outside the program.

The program's modules import one another's functions by name
(``from .f2 import rank``) and under aliases
(``codes._mitm_kernel_min_weight``), so patching one module attribute would
miss most calls. ``rebind`` therefore replaces every binding of a function
object, found by identity, in every loaded ``sparsef2`` module.

Spans stay in memory and are written as JSON lines when the run ends. A
span's self time is its duration minus the durations of the wrapped spans
nested directly inside it; nesting is strict because the program runs on one
thread, so those durations never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import tracemalloc
from math import comb
from time import perf_counter

import reference as ref

# (metric prefix, module, functions). Metric names start with a letter, so
# the private module ``_search`` reports as ``search``.
LAYERS = (
    ("f2", "sparsef2.f2", ("rref", "nullspace_basis", "mat_mul", "mat_vec_mul")),
    ("search", "sparsef2._search", ("next_layer", "scan_layer", "mitm_kernel_min_weight")),
    (
        "solvers",
        "sparsef2.solvers",
        (
            "solve_mitm",
            "solve_exhaustive",
            "solve_bfs",
            "evenset_min_weight",
            "best_parity_agreement",
            "best_junta_agreement",
            "poly_agreement_bound",
        ),
    ),
    (
        "codes",
        "sparsef2.codes",
        ("balanced_code", "min_distance", "product_density_check", "tensor_parity_check", "distribution_bias"),
    ),
    (
        "reductions",
        "sparsef2.reductions",
        (
            "clique_to_vectorsum",
            "vectorsum_to_evenset",
            "amplify_pointvalues",
            "junta_hardness_instance",
            "evenset_to_fooling_points",
            "viola_shift",
        ),
    ),
    ("formats", "sparsef2.formats", ("loads", "dumps")),
    ("cli", "sparsef2.cli", ("main",)),
)


def _mitm_entries(args, kwargs, result, tag):
    """Table plus probe entries of the layered join for the instance's shape."""
    inst = args[0]
    n = inst.m.cols
    k = min(inst.k, n)
    tables = {(w + 1) // 2 for w in range(1, k + 1)}
    return sum(comb(n, w) for w in tables) + sum(comb(n, w // 2) for w in range(1, k + 1))


def _kernel_elements(args, kwargs, result, tag):
    """2^dim - 1 on the full-enumeration kind of the evenset workload."""
    if tag != "b":
        return None
    m = args[0].m
    return (1 << (m.cols - ref.rank(list(m.row_bits), m.cols))) - 1


def _matrix_bits(args, kwargs, result, tag):
    return args[0].rows * args[0].cols


def _text_in(args, kwargs, result, tag):
    return len(args[0])


def _text_out(args, kwargs, result, tag):
    return len(result)


# (metric, traced function, unit, work of one call). A rate is the work
# summed over calls divided by the calls' summed durations, child spans included.
RATES = (
    ("solvers.solve_mitm.mstates_per_s", "solvers.solve_mitm", "Mstates/s", _mitm_entries),
    ("solvers.evenset_min_weight.melems_per_s", "solvers.evenset_min_weight", "Melems/s", _kernel_elements),
    ("f2.rref.mbits_per_s", "f2.rref", "Mbits/s", _matrix_bits),
    ("formats.loads.mb_per_s", "formats.loads", "MB/s", _text_in),
    ("formats.dumps.mb_per_s", "formats.dumps", "MB/s", _text_out),
)
PEAKS = (
    ("solvers.solve_mitm.peak_mb", "solvers.solve_mitm"),
    ("solvers.evenset_min_weight.peak_mb", "solvers.evenset_min_weight"),
)
OVERHEAD = (
    "trace.untraced_verdicts_per_s",
    "trace.traced_verdicts_per_s",
    "trace.overhead_verdicts_per_s",
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for prefix, _, names in LAYERS:
        for fn in names:
            specs.append((f"{prefix}.{fn}.calls", "count", "lower"))
            specs.append((f"{prefix}.{fn}.self_ms", "ms", "lower"))
    specs += [(name, unit, "higher") for name, _, unit, _ in RATES]
    specs += [(name, "MB", "lower") for name, _ in PEAKS]
    specs += [(name, "1/s", "higher") for name in OVERHEAD]
    return specs


def resolve() -> tuple[dict[str, object], list[str]]:
    """Function objects by traced name, and the listed names the program lacks."""
    found, absent = {}, []
    for prefix, module, names in LAYERS:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        for fn in names:
            obj = getattr(mod, fn, None)
            if callable(obj):
                found[f"{prefix}.{fn}"] = obj
            else:
                absent.append(f"{prefix}.{fn}")
    return found, absent


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Point every sparsef2 module binding of ``original`` at ``replacement``."""
    bound = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sparsef2" or name.startswith("sparsef2.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound.append((mod, attr))
    return bound


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, original, replacement) -> None:
        self._undo += [(mod, attr, original) for mod, attr in rebind(original, replacement)]

    def remove(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []


class Tracer(_Patches):
    """Timing spans around every listed function."""

    def __init__(self):
        super().__init__()
        self.tag = ""
        self.spans: list[tuple[str, str, float, float, float, int]] = []
        self.work: dict[str, float] = {}
        self.work_s: dict[str, float] = {}
        self._children: list[float] = []
        self.found, self.absent = resolve()
        self._units = {fn: unit for _, fn, _, unit in RATES}

    def install(self) -> None:
        for name, fn in self.found.items():
            self.wrap(fn, self._wrapper(name, fn))

    def _wrapper(self, name, fn):
        children = self._children
        spans = self.spans
        units = self._units.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inner = children.pop()
                if children:
                    children[-1] += end - start
                spans.append((name, self.tag, start, end, end - start - inner, len(children)))
            if units is not None:
                amount = units(args, kwargs, result, self.tag)
                if amount is not None:
                    self.work[name] = self.work.get(name, 0) + amount
                    self.work_s[name] = self.work_s.get(name, 0.0) + (end - start)
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, _, _, _, own, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
        out = {}
        for prefix, _, names in LAYERS:
            for fn in names:
                key = f"{prefix}.{fn}"
                out[f"{key}.calls"] = (calls.get(key, 0), "count")
                out[f"{key}.self_ms"] = (1000.0 * self_s.get(key, 0.0), "ms")
        for metric, fn, unit, _ in RATES:
            seconds = self.work_s.get(fn, 0.0)
            out[metric] = (self.work.get(fn, 0) / seconds / 1e6 if seconds else 0.0, unit)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for name, tag, start, end, own, depth in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "tag": tag, "start": start, "end": end, "self_s": own, "depth": depth}
                    )
                    + "\n"
                )


class PeakTracer(_Patches):
    """Peak bytes that tracemalloc sees allocated inside each call of the
    functions in PEAKS; numpy reports its buffers to tracemalloc too."""

    def __init__(self):
        super().__init__()
        self.tag = ""
        self.peak: dict[str, int] = {}
        self.found, _ = resolve()

    def install(self) -> None:
        for _, name in PEAKS:
            if name in self.found:
                self.wrap(self.found[name], self._wrapper(name, self.found[name]))

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak[name] = max(self.peak.get(name, 0), peak)

        return measured

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {metric: (self.peak.get(name, 0) / 2**20, "MB") for metric, name in PEAKS}
