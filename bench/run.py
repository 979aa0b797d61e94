"""Exact-verdict benchmark for sparsef2.

    python3 bench/run.py --workload {clique-vs,evenset,learn-fool} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the program from its
``src`` directory. It makes one round of inputs from the seed, repeats that
round until the timed operations have taken S seconds, checks every verdict
against the benchmark's own reference computations outside the timed
region, and prints one JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: an untraced pass of S seconds, a traced pass of TRACE_ROUNDS rounds
(spans written to bench/out/), and a tracemalloc pass over one input of each
kind.

Every reported time is scaled to a nominal host speed. On a shared 2-CPU
virtual machine the speed of the same loop drifts by 10-15% over minutes and
by more from one second to the next, which no run length averages out. So
the run times a fixed kernel of its own (HostSpeed) between operations and
divides each operation's time by the kernel's slowdown around it. The raw
values are kept in bench/out/result-*.json.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from itertools import combinations  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
TRACE_ROUNDS = 2


class HostSpeed:
    """Durations of a fixed kernel of the benchmark's own that resembles a
    workload's hot loops. The interpreter kernel mixes an integer loop, a
    Gray-code span enumeration over 64-bit ints, a dict of subset tuples
    keyed by their XOR, and a list sort; the numpy kernel sorts 10^6 64-bit
    keys. The nominal durations are the kernels' medians on a 2-CPU VM."""

    NOMINAL_S = {"python": 0.0200, "numpy": 0.0230}

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        rng = random.Random(0)
        self._basis = [rng.getrandbits(64) for _ in range(16)]

    def _python(self) -> None:
        s = 0
        for i in range(100_000):
            s ^= i * 7
        cur, best = 0, 64
        for i in range(1, 1 << 14):
            cur ^= self._basis[(i & -i).bit_length() - 1]
            best = min(best, cur.bit_count())
        table: dict[int, list] = {}
        for sub in combinations(range(30), 3):
            key = self._basis[sub[0] % 16] ^ self._basis[sub[1] % 16] ^ sub[2]
            table.setdefault(key & 0xFFFFF, []).append(sub)
        sorted((i * 3 for i in range(50_000)), key=lambda v: v ^ 0x5555)

    def _numpy(self) -> None:
        import numpy as np

        data = np.random.default_rng(len(self.samples)).integers(0, 2**63, 1_000_000, dtype=np.uint64)
        np.sort(data)

    def sample(self) -> int:
        """Time the kernel once; the index of the new sample."""
        kernel = self._python if self.kind == "python" else self._numpy
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def slowdown(self, start: int = 0, end: int | None = None) -> float:
        """Median duration of samples[start:end] over the nominal one; above 1 when slow."""
        return statistics.median(self.samples[start:end]) / self.NOMINAL_S[self.kind]

    def scaled(self, timed: list[tuple[int, float]]) -> list[float]:
        """Each (sample index, seconds) pair's time over the slowdown around
        it: the mean of the samples taken just before and just after it."""
        nominal = self.NOMINAL_S[self.kind]
        return [t * 2 * nominal / (self.samples[i] + self.samples[i + 1]) for i, t in timed]


class Run:
    """Operation counts, check failures and timings of one benchmark run."""

    def __init__(self, workload, host: HostSpeed):
        self.workload = workload
        self.host = host
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.log: list[tuple[str, int, float]] = []

    def op(self, case) -> tuple[int, float] | None:
        """Run, time and check one operation after a host-speed sample;
        (sample index, wall seconds), or None if the operation raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.tag = case.kind
        gc.collect()
        index = self.host.sample()
        start = time.perf_counter()
        try:
            out = self.workload.run(case)
        except Exception:
            self.failed += 1
            self.failures.append(f"{case.kind}: operation raised\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        self.log.append((case.kind, index, elapsed))
        try:
            problems = self.workload.check(case, out)
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        self.errors += [f"{case.kind} ({'YES' if case.yes else 'NO'}): {p}" for p in problems]
        return index, elapsed

    def rounds(self, cases, seconds: float | None = None, count: int | None = None) -> list[float]:
        """Whole rounds until the timed operations sum to ``seconds`` or
        ``count`` rounds are done; their times at nominal host speed."""
        timed: list[tuple[int, float]] = []
        done = 0
        while True:
            for case in cases:
                result = self.op(case)
                if result is not None:
                    timed.append(result)
            done += 1
            if (count is not None and done >= count) or (seconds is not None and sum(t for _, t in timed) >= seconds):
                self.host.sample()  # closes the bracket around the last operation
                return self.host.scaled(timed)


def _load_program():
    if not (SRC / "sparsef2" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'sparsef2'}")
    sys.path.insert(0, str(SRC))
    import sparsef2

    if not Path(sparsef2.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported sparsef2 from {sparsef2.__file__}, not from {SRC}")
    import sparsef2.cli  # noqa: F401  (loads every module the tracer binds)


def _rate(times: list[float]) -> float:
    return len(times) / sum(times)


def _at_nominal(value: float, unit: str, slowdown: float) -> float:
    """A time divided, or a rate per time multiplied, by the host slowdown."""
    if unit in ("s", "ms"):
        return value / slowdown
    if unit.endswith("/s"):
        return value * slowdown
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("clique-vs", "evenset", "learn-fool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import tracer as tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](workdir)
        run = Run(workload, HostSpeed(workload.calibration))
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cases = workload.generate(args.seed)
            generated = time.perf_counter() - start
            warm = run.op(cases[0])
            setups.append(generated + (warm[1] if warm else 0.0))
        run.attempted = run.failed = 0
        run.log = []

        times = run.rounds(cases, seconds=args.seconds)
        if args.trace == 0:
            metrics = {
                "verdicts_per_s": (_rate(times), "1/s"),
                "verdict_p50_ms": (1000.0 * statistics.median(times), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": ((import_s + statistics.median(setups)) / run.host.slowdown(0, SETUP_REPEATS + 1), "s"),
            }
        else:
            # The overhead compares the traced rounds with as many warm
            # untraced rounds just before them.
            untraced = times[-TRACE_ROUNDS * len(cases):]
            mark = len(run.host.samples)
            tracer = tracing.Tracer()
            run.tracer = tracer
            tracer.install()
            try:
                traced = run.rounds(cases, count=TRACE_ROUNDS)
            finally:
                tracer.remove()
            slowdown = run.host.slowdown(mark)
            peaks = tracing.PeakTracer()
            run.tracer = peaks
            peaks.install()
            try:
                for kind in dict.fromkeys(case.kind for case in cases):
                    run.op(next(case for case in cases if case.kind == kind))
            finally:
                peaks.remove()
            per_layer = {**tracer.metrics(), **peaks.metrics()}
            metrics = {name: (_at_nominal(value, unit, slowdown), unit) for name, (value, unit) in per_layer.items()}
            rates = (_rate(untraced), _rate(traced))
            for name, value in zip(tracing.OVERHEAD, (*rates, rates[1] - rates[0])):
                metrics[name] = (value, "1/s")
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            if tracer.absent:
                print(f"absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (run.failures + run.errors)[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    kinds = {kind: [t for k, _, t in run.log if k == kind] for kind, _, _ in run.log}
    detail = {
        **result,
        "slowdown": run.host.slowdown(),
        "raw_setup_s": {"imports": import_s, "repeats": setups},
        "raw_median_ms_by_kind": {kind: 1000.0 * statistics.median(t) for kind, t in kinds.items()},
        "raw_ops": run.log,
        "host_samples": run.host.samples,
        "errors": run.failures + run.errors,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
