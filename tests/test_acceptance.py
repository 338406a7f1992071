"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

import numpy as np
import pytest

from hyperlap import (
    Walk,
    WalkQuery,
    builtin_fixture,
    count_walks,
    cross_check,
    cw_laplacian,
    enum_signed_walks,
    enum_walks,
    evolution_operator,
    hypergraph_laplacian,
    matrix_power,
    parse_cw,
    parse_hg,
    partition_trace,
    serialize,
    signed_count,
    susy_laplacian,
    walk_sign,
)
from random_instances import random_cw, random_cw_level, random_hypergraph

FIG1 = builtin_fixture("fig1")
FIG2 = builtin_fixture("fig2")


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_vertex_walks_5886():
    start = time.time()
    q = WalkQuery(kind="vertex", from_index=1, to_index=3, length=4)
    by_matrix = count_walks(FIG1, q).value
    by_enum = len(enum_walks(FIG1, "vertex", 1, 3, 4))
    elapsed = time.time() - start
    report(1, by_matrix == 5886 and by_enum == 5886 and elapsed < 5,
           f"matrix={by_matrix} enum={by_enum} ({elapsed:.2f}s)")


def test_criterion_2_edge_walks_384():
    start = time.time()
    q = WalkQuery(kind="edge", from_index=7, to_index=9, length=3)
    by_matrix = count_walks(FIG1, q).value
    by_enum = len(enum_walks(FIG1, "edge", 7, 9, 3))
    elapsed = time.time() - start
    report(2, by_matrix == 384 and by_enum == 384 and elapsed < 5,
           f"matrix={by_matrix} enum={by_enum} ({elapsed:.2f}s)")


def test_criterion_3_sign_facts():
    sign_e6_f1 = FIG2.sign_table(1)[(6, 1)]
    lower = walk_sign(FIG2, Walk(kind="lower", steps=(1, 2, 4, 1, 6, 3, 5, 3, 6), level=1))
    upper = walk_sign(FIG2, Walk(kind="upper", steps=(1, 4, 2, 5, 3), level=1))
    report(3, sign_e6_f1 == -1 and lower == 1 and upper == -1,
           f"sgn(e6^1 in e1^2)={sign_e6_f1} lower_walk={lower:+d} upper_walk={upper:+d}")


def test_criterion_4_signed_sums_dual_route():
    results = {}
    for kind, i, j, k in (("lower", 1, 6, 4), ("upper", 1, 3, 1), ("upper", 1, 3, 2)):
        q = WalkQuery(kind=kind, from_index=i, to_index=j, length=k, level=1)
        matrix_value = signed_count(FIG2, q).value
        oracle_value = sum(s for _, s in enum_signed_walks(FIG2, 1, kind, i, j, k))
        results[(kind, k)] = (matrix_value, oracle_value)
    agree = all(mv == ov for mv, ov in results.values())
    # published values: lower k=4 sum is 0; upper sum +1 holds at k=1, not k=2
    lower_val = results[("lower", 4)][0]
    upper_k1 = results[("upper", 1)][0]
    upper_k2 = results[("upper", 2)][0]
    report(4, agree and lower_val == 0 and upper_k1 == 1,
           f"dual-route agree={agree}; lower k=4 sum={lower_val} (published 0), "
           f"upper k=1 sum={upper_k1:+d} (published +1), upper k=2 sum={upper_k2:+d} "
           f"(see REPORT.md)")


def test_criterion_5_oracle_equivalence_suite():
    start = time.time()
    mismatches = 0
    rng = random.Random(12345)
    for _ in range(100):
        mismatches += len(cross_check(random_hypergraph(rng), 4).mismatches)
    rng = random.Random(54321)
    for _ in range(100):
        mismatches += len(cross_check(random_cw_level(rng), 4).mismatches)
    elapsed = time.time() - start
    report(5, mismatches == 0 and elapsed < 60,
           f"mismatches={mismatches} over 200 instances ({elapsed:.1f}s)")


def test_criterion_6_trace_identities():
    ok = True
    pairs = [(hypergraph_laplacian(FIG1, "even"), hypergraph_laplacian(FIG1, "odd"))]
    for d in (0, 1):
        pairs.append((cw_laplacian(FIG2, d, "even"), cw_laplacian(FIG2, d, "odd")))
    rng = random.Random(6)
    for _ in range(20):
        h = random_hypergraph(rng)
        pairs.append((hypergraph_laplacian(h, "even"), hypergraph_laplacian(h, "odd")))
        x = random_cw_level(rng)
        pairs.append((cw_laplacian(x, 0, "even"), cw_laplacian(x, 0, "odd")))
    for even, odd in pairs:
        for k in range(1, 7):
            if matrix_power(even, k).trace() != matrix_power(odd, k).trace():
                ok = False
    report(6, ok, f"{len(pairs)} Laplacian pairs, k=1..6, exact equality")


def test_criterion_7_evolution_properties():
    susy = susy_laplacian(FIG1)
    worst_unitarity = max(
        np.abs(
            evolution_operator(susy, theta) @ evolution_operator(susy, theta).conj().T
            - np.eye(13)
        ).max()
        for theta in (0.01, 0.1, 1.0, 10.0)
    )
    comp_err = np.abs(
        evolution_operator(susy, 1.0)
        - evolution_operator(susy, 0.3) @ evolution_operator(susy, 0.7)
    ).max()
    trace0 = partition_trace(FIG1, 0.0)
    report(7, worst_unitarity < 1e-10 and comp_err < 1e-9 and trace0 == 13,
           f"unitarity={worst_unitarity:.2e} composition={comp_err:.2e} trace(0)={trace0}")


def test_criterion_8_format_round_trips():
    ok = parse_hg(serialize(FIG1)) == FIG1 and parse_cw(serialize(FIG2)) == FIG2
    rng = random.Random(77)
    for _ in range(100):
        h = random_hypergraph(rng)
        ok = ok and parse_hg(serialize(h)) == h
    for _ in range(100):
        x = random_cw(rng)
        ok = ok and parse_cw(serialize(x)) == x
    report(8, ok, "fixtures + 200 random instances round-trip structurally")
