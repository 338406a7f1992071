"""Seeded random instance generators for cross-check and round-trip suites."""

from __future__ import annotations

import random

from hyperlap.model import CWHypergraph, Hypergraph


def random_hypergraph(rng: random.Random, max_n: int = 5, max_m: int = 6) -> Hypergraph:
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    edges = []
    for _ in range(m):
        size = rng.randint(1, n)
        edges.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return Hypergraph(n=n, edges=tuple(edges))


def random_cw_level(rng: random.Random, max_lower: int = 5, max_upper: int = 4) -> CWHypergraph:
    """A two-tier CW-hypergraph (one incidence level) with random signs."""
    c_d = rng.randint(1, max_lower)
    c_d1 = rng.randint(0, max_upper)
    triples = []
    for i in range(1, c_d + 1):
        for j in range(1, c_d1 + 1):
            if rng.random() < 0.5:
                triples.append((i, j, rng.choice((-1, 1))))
    return CWHypergraph(counts=(c_d, c_d1), incidences=(tuple(triples),))


def random_cw(rng: random.Random, max_cells: int = 4, max_dim: int = 2) -> CWHypergraph:
    """Multi-level CW-hypergraph, for round-trip and validation suites."""
    dim = rng.randint(1, max_dim)
    counts = tuple(rng.randint(1, max_cells) for _ in range(dim + 1))
    incidences = []
    for d in range(dim):
        triples = []
        for i in range(1, counts[d] + 1):
            for j in range(1, counts[d + 1] + 1):
                if rng.random() < 0.4:
                    triples.append((i, j, rng.choice((-1, 1))))
        incidences.append(tuple(triples))
    skels = {}
    for d in range(1, dim + 1):
        for j in range(1, counts[d] + 1):
            size = rng.randint(1, counts[0])
            skels[(d, j)] = tuple(sorted(rng.sample(range(1, counts[0] + 1), size)))
    return CWHypergraph(counts=counts, incidences=tuple(incidences), skeletons=skels)
