"""The four workloads: inputs made from the seed, the operations of one round,
and the check of each operation's output against the reference computations.

Sizes are fixed here; the seed chooses only the random structure (which
cells meet, the signs, the queried endpoints, theta). Every random structure
is regular, each column holding the same number of rows and each row lying
in the same number of columns, so the work a round does barely depends on
the seed and figures from different seeds can be compared.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_CHILD = os.path.join(HERE, "trace_child.py")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # the known fault this op exercises; while it stands the op counts as failed
    fault: str = ""


@dataclass
class Plan:
    setup: Callable[[], object]  # one set-up pass; returns what the ops run on
    ops: Callable[[object], list[Op]]  # the operations of one round
    setup_passes: int
    children: bool = False  # operations run in child processes
    stats: dict = field(default_factory=dict)  # figures the checks measure
    trace_children: Callable[[str], None] | None = None


def regular_incidence(rng: random.Random, rows: int, cols: int, per_col: int) -> list[tuple[int, ...]]:
    """`cols` columns of `per_col` distinct rows, every row in the same number
    of columns: a random configuration with repeated rows swapped away."""
    deg, rem = divmod(cols * per_col, rows)
    if rem:
        raise ValueError(f"{rows} rows cannot share {cols}x{per_col} incidences evenly")
    stubs = [r for r in range(1, rows + 1) for _ in range(deg)]
    rng.shuffle(stubs)
    cells = [stubs[c * per_col:(c + 1) * per_col] for c in range(cols)]
    for c, cell in enumerate(cells):
        while len(set(cell)) < per_col:
            p = next(i for i, r in enumerate(cell) if cell.count(r) > 1)
            c2, q = rng.randrange(cols), rng.randrange(per_col)
            a, b = cell[p], cells[c2][q]
            if c2 != c and b not in cell and a not in cells[c2]:
                cell[p], cells[c2][q] = b, a
    return [tuple(sorted(cell)) for cell in cells]


def signed_level(rng: random.Random, rows: int, cols: int, per_col: int) -> list[tuple[int, int, int]]:
    cells = regular_incidence(rng, rows, cols, per_col)
    return sorted((r, c, rng.choice((-1, 1))) for c, cell in enumerate(cells, start=1) for r in cell)


def hg_text(n: int, edges) -> str:
    return f"vertices {n}\n" + "".join(
        f"edge e{j} {' '.join(map(str, e))}\n" for j, e in enumerate(edges, start=1))


def cw_text(counts, levels) -> str:
    lines = [f"cells {d} {c}" for d, c in enumerate(counts)]
    lines += [f"inc {d} {i} {j} {s:+d}" for d, level in enumerate(levels) for i, j, s in level]
    return "\n".join(lines) + "\n"


def write_inputs(workdir: str, data: dict) -> dict[str, str]:
    """Write each structure as `.hg`/`.cw` text; returns key -> path."""
    paths = {}
    for key, item in data.items():
        path = os.path.join(workdir, f"{key}.{item[0]}")
        text = hg_text(item[1], item[2]) if item[0] == "hg" else cw_text(item[1], item[2])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[key] = path
    return paths


def triples_of(item, level: int = 0):
    return ref.hypergraph_triples(item[2]) if item[0] == "hg" else item[2][level]


def loader(hl, paths: dict[str, str]) -> Callable[[], dict]:
    """One set-up pass: read, parse and validate every input."""
    def setup():
        loaded = {}
        for key, path in paths.items():
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            obj = hl.parse_cw(text) if path.endswith(".cw") else hl.parse_hg(text)
            if not hl.validate(obj).ok:
                raise RuntimeError(f"generated input {key} fails validation")
            loaded[key] = obj
        return loaded
    return setup


# ---------------------------------------------------------------- query

def query(seed: int, workdir: str, hl) -> Plan:
    """Single walk-count and signed-sum queries through dense matrix powers:
    many mid-size queries, a few large-dimension ones, and tiny fixtures at
    k in the thousands (results of more than 10^4 bits)."""
    rng = random.Random(f"query-{seed}")
    data = {key: ("hg", n, regular_incidence(rng, n, 3 * n, 4)) for key, n in (("h40", 40), ("h60", 60), ("h100", 100))}
    data["cw"] = ("cw", (40, 80, 40), [signed_level(rng, 40, 80, 4), signed_level(rng, 80, 40, 4)])
    data.update(fig1=ref.FIG1, fig2=ref.FIG2)
    paths = write_inputs(workdir, data)
    spec = [("h40", "vertex", 0, k) for k in (6, 8, 10, 12, 16, 20, 24, 32)]
    spec += [("h60", "vertex", 0, 8), ("h60", "vertex", 0, 32), ("h100", "vertex", 0, 6), ("h40", "edge", 0, 8)]
    spec += [("cw", "lower", 0, k) for k in (6, 16, 32)] + [("cw", "upper", 1, k) for k in (6, 16, 32)]
    spec += [("cw", "upper", 0, 8), ("cw", "lower", 1, 8)]
    spec += [("fig1", "vertex", 0, 4000), ("fig1", "edge", 0, 3000), ("fig2", "upper", 1, 6000),
             ("fig2", "lower", 0, 5000)]
    queries = []
    for key, kind, level, k in spec:
        item = data[key]
        side = "row" if kind in ("vertex", "lower") else "col"
        if item[0] == "hg":
            size = item[1] if side == "row" else len(item[2])
        else:
            size = item[1][level] if side == "row" else item[1][level + 1]
        i, j = rng.randint(1, size), rng.randint(1, size)
        queries.append((key, kind, level, i, j, k, ref.power_entry(triples_of(item, level), side, i, j, k)))

    def ops(loaded):
        out = []
        for key, kind, level, i, j, k, expected in queries:
            count = "count_walks" if kind in ("vertex", "edge") else "signed_count"

            def run(count=count, obj=loaded[key], q=hl.WalkQuery(kind, i, j, k, level)):
                return getattr(hl, count)(obj, q).value

            out.append(Op(f"{kind} {key} d={level} {i}->{j} k={k}", run, lambda v, e=expected: v == e))
        return out

    return Plan(setup=loader(hl, paths), ops=ops, setup_passes=7)


# ---------------------------------------------------------------- verify

INVALID_HYPERGRAPH = "cross_check accepts Hypergraph(n=2, edges=((1, 1), (2, 1)))"


def verify(seed: int, workdir: str, hl) -> Plan:
    """Full cross-checks, matrix route against the enumerator, on small
    hypergraphs, single-level and multi-level CW-hypergraphs."""
    rng = random.Random(f"verify-{seed}")
    data, kmax = {}, {}
    for t in range(12):
        data[f"h{t}"] = ("hg", 8, regular_incidence(rng, 8, 8, 2))
        kmax[f"h{t}"] = 4
    for t in range(12):
        data[f"s{t}"] = ("cw", (6, 6), [signed_level(rng, 6, 6, 2)])
        kmax[f"s{t}"] = 4
    for t in range(12):
        data[f"m{t}"] = ("cw", (4, 6, 4), [signed_level(rng, 4, 6, 2), signed_level(rng, 6, 4, 3)])
        kmax[f"m{t}"] = 3
    paths = write_inputs(workdir, data)

    def rejects_invalid():
        try:
            hl.cross_check(hl.Hypergraph(n=2, edges=((1, 1), (2, 1))), 1)
        except hl.HyperlapError:
            return "rejected"
        return "accepted"

    def ops(loaded):
        out = []
        for key, item in data.items():
            obj = loaded[key]
            parse = hl.parse_hg if item[0] == "hg" else hl.parse_cw
            round_trip = parse(hl.serialize(obj)) == obj
            counts = (item[1], len(item[2])) if item[0] == "hg" else item[1]
            checked = ref.checked_triples(counts, kmax[key])

            def check(report, ok=round_trip, checked=checked):
                return ok and report.mismatches == () and report.checked == checked

            out.append(Op(f"cross_check {key} kmax={kmax[key]}",
                          lambda obj=obj, k=kmax[key]: hl.cross_check(obj, k), check))
        out.append(Op("cross_check invalid hypergraph", rejects_invalid, lambda r: r == "rejected",
                      fault=INVALID_HYPERGRAPH))
        return out

    return Plan(setup=loader(hl, paths), ops=ops, setup_passes=7)


# ---------------------------------------------------------------- evolve

def evolve(seed: int, workdir: str, hl) -> Plan:
    """U(theta) on the supersymmetric Laplacian and the partition trace, over
    theta from 0.01 to 10 (more squarings as theta grows), on hypergraphs of
    dimension n+m 150, 240 and 300. Each operation builds its Laplacian."""
    rng = random.Random(f"evolve-{seed}")
    data = {f"e{3 * n}": ("hg", n, regular_incidence(rng, n, 2 * n, 4)) for n in (50, 80, 100)}
    paths = write_inputs(workdir, data)
    spectra, probes = {}, {}
    vector_rng = np.random.default_rng(rng.getrandbits(64))
    for key, item in data.items():
        triples, rows, cols = triples_of(item), item[1], len(item[2])
        even, odd = ref.gram(triples, rows, cols, "row"), ref.gram(triples, rows, cols, "col")
        spectra[key] = (ref.spectrum(ref.block_sum(even, odd)), ref.spectrum(even), ref.spectrum(odd))
        probes[key] = ref.probe_vectors(vector_rng, rows + cols)
    spec = [("operator", "e150", t) for t in (0.01, 0.1, 1.0, 10.0)] + [("trace", "e150", t) for t in (0.03, 0.3, 3.0)]
    spec += [("operator", "e240", 0.3), ("operator", "e240", 10.0), ("trace", "e240", 1.0)]
    spec += [("operator", "e300", 3.0), ("trace", "e300", 0.01)]
    stats = {"unitarity_err": 0.0}

    # U is checked through a few unit vectors, so the check's temporaries are
    # dim x 4 and cannot set the workload's peak RSS
    def check_operator(u, key, theta):
        vs = probes[key]
        err = ref.unitarity_error(u, vs)
        stats["unitarity_err"] = max(stats["unitarity_err"], err)
        want = ref.evolve_vectors(spectra[key][0], theta, vs)
        return err < 1e-10 and float(np.abs(u @ vs - want).max()) < 1e-9

    def check_trace(z, key, theta):
        return abs(z - ref.partition_trace(spectra[key][1], spectra[key][2], theta)) < 1e-8

    def ops(loaded):
        out = []
        for what, key, theta in spec:
            h = loaded[key]
            if what == "operator":
                run = lambda h=h, t=theta: hl.evolution_operator(hl.susy_laplacian(h), t)
                check = lambda u, k=key, t=theta: check_operator(u, k, t)
            else:
                run = lambda h=h, t=theta: hl.partition_trace(h, t)
                check = lambda z, k=key, t=theta: check_trace(z, k, t)
            out.append(Op(f"{what} {key} theta={theta}", run, check))
        return out

    return Plan(setup=loader(hl, paths), ops=ops, setup_passes=7, stats=stats)


# ---------------------------------------------------------------- cli

NON_FINITE_THETA = "evolve accepts theta=nan and prints nan+nani"
UNCAUGHT = "cli.main lets ValueError/UnicodeDecodeError escape as a traceback"


class Cli:
    """Runs `python -m hyperlap.cli` one invocation at a time; with a trace
    directory set, runs it under trace_child.py instead."""

    def __init__(self, src: str, workdir: str):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.workdir = workdir
        self.trace_dir = None
        self.invocations = 0

    def __call__(self, *args: str, env: dict | None = None):
        cmd = [sys.executable, "-m", "hyperlap.cli", *args]
        full_env = dict(self.env, **(env or {}))
        if self.trace_dir is not None:
            out = os.path.join(self.trace_dir, f"{self.invocations}.json")
            cmd = [sys.executable, TRACE_CHILD, out, *args]
            full_env["PERFBENCH_OP"] = str(self.invocations)
        self.invocations += 1
        proc = subprocess.run(cmd, capture_output=True, text=True, env=full_env, cwd=self.workdir, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _one_error_line(result) -> bool:
    rc, _out, err = result
    lines = err.splitlines()
    return rc == 1 and len(lines) == 1 and lines[0].startswith("error:")


def _complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def cli(seed: int, workdir: str, src: str) -> Plan:
    """One CLI invocation per operation: every subcommand, on the fixtures and
    on generated input files, plus five invocations that must end with exit
    1 and one `error:` line. A round has 19 operations."""
    rng = random.Random(f"cli-{seed}")
    data = {"g": ("hg", 12, regular_incidence(rng, 12, 36, 4)),
            "small": ("hg", 6, regular_incidence(rng, 6, 6, 2)),
            "c": ("cw", (6, 12, 6), [signed_level(rng, 6, 12, 2), signed_level(rng, 12, 6, 4)])}
    paths = write_inputs(workdir, data)
    bad = os.path.join(workdir, "bad.hg")
    with open(bad, "wb") as fh:
        fh.write(b"vertices 2\nedge e\xff 1 2\n")
    data.update(fig1=ref.FIG1, fig2=ref.FIG2)
    run = Cli(src, workdir)
    ops = []

    def add(name, args, check, env=None, fault=""):
        ops.append(Op(name, lambda a=tuple(args), e=env: run(*a, env=e), check, fault))

    def source(key):
        return ["--fixture", key] if key.startswith("fig") else ["--input", paths[key]]

    def fields_are(**want):
        want = {k: str(v) for k, v in want.items()}
        return lambda result: result[0] == 0 and _fields(result[1]) == want

    # (input, level, kind, from, to, length); the fixture queries must give
    # the published values 5886, 384, 0, +1 and +5, the others the reference
    walk_queries = [("fig1", 0, "vertex", 1, 3, 4), ("fig1", 0, "edge", 7, 9, 3),
                    ("fig2", 1, "lower", 1, 6, 4), ("fig2", 1, "upper", 1, 3, 1), ("fig2", 1, "upper", 1, 3, 2),
                    ("g", 0, "vertex", rng.randint(1, 12), rng.randint(1, 12), 8),
                    ("c", 0, "upper", rng.randint(1, 12), rng.randint(1, 12), 6)]
    for key, d, kind, i, j, k in walk_queries:
        side = "row" if kind in ("vertex", "lower") else "col"
        value = ref.PUBLISHED.get((key, d, side, i, j, k))
        if value is None:
            value = ref.power_entry(triples_of(data[key], d), side, i, j, k)
        where = ["--from", str(i), "--to", str(j), "--length", str(k), "--machine"]
        if kind in ("vertex", "edge"):
            add(f"count {key} {kind} {i}->{j} k={k}", ["count", *source(key), "--kind", kind, *where],
                fields_are(count=value))
        else:
            add(f"signed-count {key} d={d} {kind} {i}->{j} k={k}",
                ["signed-count", *source(key), "--dim", str(d), "--kind", kind, *where], fields_are(sum=value))

    for key, d, kind, i, j, k in (("fig1", 0, "vertex", 1, 3, 2), ("c", 1, "lower", 1, 12, 2)):
        triples = triples_of(data[key], d)
        side = "row" if kind in ("vertex", "lower") else "col"
        total = ref.power_entry(triples, side, i, j, k, signed=False)
        signed_sum = ref.power_entry(triples, side, i, j, k) if kind == "lower" else None

        def listed(result, total=total, signed_sum=signed_sum):
            f = _fields(result[1])
            walks = [line for line in result[1].splitlines() if line.startswith("walk=")]
            return (result[0] == 0 and f.get("total") == str(total) and len(walks) == total
                    and (signed_sum is None or f.get("sum") == str(signed_sum)))

        dim = ["--dim", str(d)] if kind == "lower" else []
        add(f"enumerate {key} {kind}", ["enumerate", *source(key), *dim, "--kind", kind, "--from", str(i),
                                        "--to", str(j), "--length", str(k), "--machine"], listed)

    add("check small", ["check", *source("small"), "--max-length", "3", "--machine"],
        fields_are(mismatches=0, checked=ref.checked_triples((6, 6), 3)))

    odd = ref.gram(triples_of(data["g"]), 12, 36, "col")
    add("laplacian g odd", ["laplacian", *source("g"), "--which", "odd", "--machine"],
        fields_are(**{f"row{r}": " ".join(map(str, row)) for r, row in enumerate(odd, start=1)}))

    theta = round(rng.uniform(0.01, 10.0), 6)
    g = triples_of(data["g"])
    want = ref.partition_trace(ref.spectrum(ref.gram(g, 12, 36, "row")), ref.spectrum(odd), theta)

    def trace_ok(result):
        f = _fields(result[1])
        return result[0] == 0 and "trace" in f and abs(_complex(f["trace"]) - want) < 1e-8

    add(f"evolve g theta={theta}", ["evolve", *source("g"), "--theta", str(theta), "--trace", "--machine"], trace_ok)

    zero = "true" if ref.composes_to_zero(*data["c"][2]) else "false"

    def valid(result):
        lines = result[1].splitlines()
        return result[0] == 0 and lines[:1] == ["ok=true"] and f"boundary_squared_zero.level1={zero}" in lines

    add("validate c", ["validate", *source("c"), "--machine"], valid)
    add("fixture fig2 --emit", ["fixture", "--name", "fig2", "--emit"],
        lambda result: result[0] == 0 and ref.read_structure(result[1]) == ref.FIG2)

    fig1 = ["--fixture", "fig1", "--kind", "vertex", "--from", "1", "--to", "3"]
    add("count --length -1", ["count", *fig1, "--length", "-1"], _one_error_line, fault=UNCAUGHT)
    add("check --max-length 0", ["check", "--fixture", "fig1", "--max-length", "0"], _one_error_line, fault=UNCAUGHT)
    add("HYPERLAP_BUDGET=abc enumerate", ["enumerate", *fig1, "--length", "1"], _one_error_line,
        env={"HYPERLAP_BUDGET": "abc"}, fault=UNCAUGHT)
    add("validate non-UTF-8 input", ["validate", "--input", bad], _one_error_line, fault=UNCAUGHT)
    add("evolve --theta nan", ["evolve", "--fixture", "fig1", "--theta", "nan", "--trace"], _one_error_line,
        fault=NON_FINITE_THETA)

    def warm_up():
        rc, _out, err = run("validate", "--fixture", "fig2", "--machine")
        if rc != 0:
            raise RuntimeError(f"warm-up invocation failed: {err.strip()}")

    def trace_children(directory):
        run.trace_dir = directory

    return Plan(setup=warm_up, ops=lambda _state: ops, setup_passes=9, children=True,
                trace_children=trace_children)


WORKLOADS = ("query", "verify", "evolve", "cli")


def build(name: str, seed: int, workdir: str, hl, src: str) -> Plan:
    if name == "cli":
        return cli(seed, workdir, src)
    return {"query": query, "verify": verify, "evolve": evolve}[name](seed, workdir, hl)
