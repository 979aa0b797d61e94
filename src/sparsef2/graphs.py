"""Undirected simple graphs: clique oracle, random models, regular graphs with
a measured spectral certificate, and walk enumeration for amplification gadgets."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GenerationError, InputError, ResourceError, ValidationError

DEFAULT_WALK_CAP = 2_000_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; edges stored as sorted (u, v) pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValidationError(f"edge ({u}, {v}) is not a sorted pair inside [1, {self.n}]")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
        for u, v in canon:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
        return cls(n, tuple(canon))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        adj = self.adjacency()
        return [len(adj[v]) for v in range(1, self.n + 1)]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1


@dataclass(frozen=True)
class SpectralCert:
    """Measured second-largest absolute adjacency eigenvalue of a regular graph."""

    degree: int
    lam: float
    tolerance: float

    def __post_init__(self):
        if not -1e-9 <= self.lam <= self.degree + 1e-9:
            raise ValidationError(f"lambda {self.lam} outside [0, degree={self.degree}]")


def find_clique(g: Graph, k: int) -> frozenset | None:
    """Exhaustive search over all C(n, k) vertex subsets; first hit in index order."""
    if not 1 <= k <= g.n:
        raise InputError(f"clique size {k} outside [1, {g.n}]")
    adj = g.adjacency()
    for cand in combinations(range(1, g.n + 1), k):
        if all(v in adj[u] for u, v in combinations(cand, 2)):
            return frozenset(cand)
    return None


def is_clique(g: Graph, vertices) -> bool:
    vs = sorted(set(vertices))
    if any(not 1 <= v <= g.n for v in vs):
        return False
    adj = g.adjacency()
    return all(v in adj[u] for u, v in combinations(vs, 2))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one coin per vertex pair, deterministic per seed."""
    if not 0 <= p <= 1:
        raise InputError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return Graph(n, tuple(edges))


def planted_clique(n: int, k: int, p: float, seed: int) -> tuple[Graph, frozenset]:
    """G(n, p) with all C(k, 2) edges of a seeded k-vertex witness forced in."""
    if k > n:
        raise InputError(f"clique size {k} exceeds vertex count {n}")
    rng = random.Random(seed)
    base = random_graph(n, p, rng.randrange(2**63))
    witness = sorted(rng.sample(range(1, n + 1), k))
    edges = set(base.edges) | {(u, v) for u, v in combinations(witness, 2)}
    return Graph(n, tuple(sorted(edges))), frozenset(witness)


def spectral_certificate(g: Graph, seed: int = 0, tolerance: float = 1e-6, max_iters: int = 200_000) -> SpectralCert:
    """Power iteration on the adjacency operator with the all-ones direction projected out.

    Requires a regular graph, where the all-ones vector is exactly the top
    eigenvector; the returned value is the largest remaining |eigenvalue|.
    """
    if not g.is_regular() or g.n < 2:
        raise InputError("spectral certificate requires a regular graph on >= 2 vertices")
    degree = g.degrees()[0]
    if degree == 0:
        return SpectralCert(0, 0.0, tolerance)
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u - 1, v - 1] = 1.0
        a[v - 1, u - 1] = 1.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.n)
    v -= v.mean()
    norm = np.linalg.norm(v)
    if norm == 0:
        v = np.arange(g.n) - (g.n - 1) / 2.0
        norm = np.linalg.norm(v)
    v /= norm
    lam = 0.0
    stable = 0
    for _ in range(max_iters):
        w = a @ v
        w -= w.mean()
        nw = np.linalg.norm(w)
        if nw < 1e-30:
            # Restricted operator is (numerically) zero: remaining spectrum is 0.
            return SpectralCert(degree, 0.0, tolerance)
        if abs(nw - lam) < tolerance * 1e-3:
            stable += 1
            if stable >= 25:
                lam = nw
                break
        else:
            stable = 0
        lam = nw
        v = w / nw
    return SpectralCert(degree, min(float(lam), float(degree)), tolerance)


def random_regular(
    n: int,
    degree: int,
    seed: int,
    lambda_bound: float | None = None,
    max_tries: int = 500,
) -> tuple[Graph, SpectralCert]:
    """Seeded pairing-model sample of a simple D-regular graph plus its certificate.

    If ``lambda_bound`` is given, resample until the measured second
    eigenvalue is at most the bound.
    """
    if n * degree % 2 != 0:
        raise InputError(f"n*degree = {n * degree} is odd; no regular graph exists")
    if degree >= n:
        raise InputError(f"degree {degree} must be below vertex count {n}")
    if degree == n - 1:
        g = Graph.complete(n)  # pairing model almost never yields K_n; it is forced anyway
        return g, spectral_certificate(g, seed=seed)
    rng = random.Random(seed)
    for attempt in range(max_tries):
        # Pairing model with incremental collision avoidance: match random stub
        # pairs, skipping self-loops and repeats, restarting when stuck.
        stubs = [v for v in range(1, n + 1) for _ in range(degree)]
        edges: set[tuple[int, int]] = set()
        stuck = False
        while stubs:
            for _ in range(200):
                i = rng.randrange(len(stubs))
                j = rng.randrange(len(stubs))
                u, v = stubs[i], stubs[j]
                if i != j and u != v and (min(u, v), max(u, v)) not in edges:
                    break
            else:
                stuck = True
                break
            edges.add((min(u, v), max(u, v)))
            for idx in sorted((i, j), reverse=True):
                stubs[idx] = stubs[-1]
                stubs.pop()
        if stuck:
            continue
        g = Graph(n, tuple(sorted(edges)))
        cert = spectral_certificate(g, seed=rng.randrange(2**63))
        if lambda_bound is not None and cert.lam > lambda_bound:
            continue
        return g, cert
    raise GenerationError(f"no admissible {degree}-regular graph on {n} vertices after {max_tries} pairing attempts")


def _walk_count(g: Graph, degree: int, t: int) -> int:
    return g.n * degree ** (t - 1)


def enumerate_walks(g: Graph, t: int, cap: int = DEFAULT_WALK_CAP) -> list[tuple[int, ...]]:
    """All t-vertex walks (t-1 steps) as vertex sequences, lexicographically ordered."""
    if t < 1:
        raise InputError(f"walk length {t} must be >= 1")
    if not g.is_regular():
        raise InputError("walk enumeration requires a regular graph")
    degree = g.degrees()[0]
    total = _walk_count(g, degree, t)
    if total > cap:
        raise ResourceError(f"{total} walks exceed cap {cap}; use sample_walks instead")
    adj = {v: sorted(nb) for v, nb in g.adjacency().items()}
    walks: list[tuple[int, ...]] = [(v,) for v in range(1, g.n + 1)]
    for _ in range(t - 1):
        walks = [w + (nxt,) for w in walks for nxt in adj[w[-1]]]
    return walks


def sample_walks(g: Graph, t: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded uniform walk sample: uniform start, uniform neighbor at each step."""
    if t < 1:
        raise InputError(f"walk length {t} must be >= 1")
    adj = {v: sorted(nb) for v, nb in g.adjacency().items()}
    if any(not nb for nb in adj.values()):
        raise InputError("walk sampling requires minimum degree 1")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = [rng.randrange(1, g.n + 1)]
        for _ in range(t - 1):
            w.append(rng.choice(adj[w[-1]]))
        out.append(tuple(w))
    return out
