"""The benchmark's tracer times functions of the program by name
(``bench/tracer.LAYERS``). A function that is renamed or removed would only
be reported absent and read as zero self time, so every listed name must
resolve here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402

import sparsef2.cli  # noqa: E402,F401  (loads every module the tracer binds)


def test_every_traced_function_resolves():
    found, absent = tracer.resolve()
    assert absent == []
    listed = [f"{prefix}.{fn}" for prefix, _, names in tracer.LAYERS for fn in names]
    assert sorted(found) == sorted(listed)
    assert all(fn.__module__.startswith("sparsef2") for fn in found.values())
