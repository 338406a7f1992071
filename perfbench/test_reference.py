"""Tests of the benchmark's reference computations, against the published
figure values and against brute force. Run with
`python3 -m pytest perfbench/test_reference.py`; nothing here imports hyperlap.
"""

import itertools
import random

import numpy as np
import pytest

import reference as ref

FIG1_EDGES, FIG2_LEVEL0, FIG2_LEVEL1 = ref.FIG1_EDGES, ref.FIG2_LEVEL0, ref.FIG2_LEVEL1


def dense_power_entry(mat, i, j, k):
    size = len(mat)
    acc = [[int(a == b) for b in range(size)] for a in range(size)]
    for _ in range(k):
        acc = [[sum(acc[a][q] * mat[q][b] for q in range(size)) for b in range(size)]
               for a in range(size)]
    return acc[i - 1][j - 1]


@pytest.mark.parametrize("query,value", sorted(ref.PUBLISHED.items()))
def test_published_values_on_the_fixtures(query, value):
    key, level, side, i, j, k = query
    triples = ref.hypergraph_triples(FIG1_EDGES) if key == "fig1" else [FIG2_LEVEL0, FIG2_LEVEL1][level]
    assert ref.power_entry(triples, side, i, j, k) == value


def test_power_entry_matches_dense_powers_on_random_signed_levels():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        triples = [(r, c, rng.choice((-1, 1))) for r in range(1, rows + 1)
                   for c in range(1, cols + 1) if rng.random() < 0.5]
        for side, size in (("row", rows), ("col", cols)):
            lap = ref.gram(triples, rows, cols, side)
            for i, j, k in itertools.product(range(1, size + 1), range(1, size + 1), range(4)):
                assert ref.power_entry(triples, side, i, j, k) == dense_power_entry(lap, i, j, k)
                unsigned = [[abs(x) for x in row] for row in ref.gram(
                    [(r, c, 1) for r, c, _ in triples], rows, cols, side)]
                assert ref.power_entry(triples, side, i, j, k, signed=False) == \
                    dense_power_entry(unsigned, i, j, k)


def test_gram_is_incidence_times_transpose():
    inc = np.zeros((4, 9), dtype=int)
    for v, e, s in ref.hypergraph_triples(FIG1_EDGES):
        inc[v - 1, e - 1] = s
    triples = ref.hypergraph_triples(FIG1_EDGES)
    assert ref.gram(triples, 4, 9, "row") == (inc @ inc.T).tolist()
    assert ref.gram(triples, 4, 9, "col") == (inc.T @ inc).tolist()


def test_fig2_is_a_chain_complex_and_checked_count():
    assert ref.composes_to_zero(FIG2_LEVEL0, FIG2_LEVEL1)
    assert not ref.composes_to_zero([(1, 1, 1)], [(1, 1, 1)])
    assert ref.checked_triples((4, 6, 3), 3) == 4 * (16 + 36) + 4 * (36 + 9)


def test_evolution_reference_meets_acceptance_tolerances():
    triples = ref.hypergraph_triples(FIG1_EDGES)
    even, odd = ref.gram(triples, 4, 9, "row"), ref.gram(triples, 4, 9, "col")
    eig = ref.spectrum(ref.block_sum(even, odd))
    eye = np.eye(13)
    vs = ref.probe_vectors(np.random.default_rng(3), 13)
    assert np.allclose(np.linalg.norm(vs, axis=0), 1.0)
    for theta in (0.01, 0.1, 1.0, 10.0):
        u = ref.evolve_vectors(eig, theta, eye)
        assert ref.unitarity_error(u, vs) < 1e-10
        assert np.abs(u @ u.conj().T - eye).max() < 1e-10
        assert np.abs(u @ vs - ref.evolve_vectors(eig, theta, vs)).max() < 1e-12
    composed = ref.evolve_vectors(eig, 0.3, ref.evolve_vectors(eig, 0.7, vs))
    assert np.abs(composed - ref.evolve_vectors(eig, 1.0, vs)).max() < 1e-9
    assert ref.unitarity_error(1.001 * ref.evolve_vectors(eig, 1.0, eye), vs) > 1e-3
    assert abs(ref.partition_trace(ref.spectrum(even), ref.spectrum(odd), 0.0) - 13) < 1e-12
    z = ref.partition_trace(ref.spectrum(even), ref.spectrum(odd), 0.7)
    assert abs(z - np.trace(ref.evolve_vectors(eig, 0.7, eye))) < 1e-10


def test_read_structure_both_forms():
    assert ref.read_structure("vertices 3\n# c\nedge a 3 1\n") == ("hg", 3, [(1, 3)])
    kind, counts, levels, skels = ref.read_structure(
        "cells 0 2\ncells 1 1\ninc 0 2 1 +1\ninc 0 1 1 -1\nskel 1 1 2 1\n")
    assert (kind, counts, levels, skels) == ("cw", (2, 1), [[(1, 1, -1), (2, 1, 1)]], {(1, 1): (1, 2)})
