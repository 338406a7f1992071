"""Spans around calls into hyperlap's layers, recorded from outside the program.

`Tracer.install()` wraps every module-level function without a leading
underscore in the six library modules, and rebinds each wrapper in every
hyperlap namespace that references the original, so that internal calls
(walkcount -> laplacian.mat_mul) nest. A span is (name, start, end, parent,
op), where op is the number of the benchmark operation that caused it (-1
during set-up). Spans stay in memory in flat arrays and are written out once,
at the end.

`layer_metrics` turns spans into the per-layer metrics: self times (a
span's duration minus that of its direct children), call counts and sizes,
summed over the names each metric covers. A name that no longer exists
reports 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

MODULES = ("formats", "model", "laplacian", "walkcount", "enumeration", "evolve")

# metric -> span names whose self times (ms) it sums
SELF_MS = {
    "formats.parse_ms": ("formats.parse_hg", "formats.parse_cw"),
    "model.validate_ms": ("model.validate",),
    "laplacian.build_ms": ("laplacian.incidence", "laplacian.d_incidence", "laplacian.hypergraph_laplacian",
                           "laplacian.cw_laplacian", "laplacian.susy_laplacian"),
    "laplacian.mat_mul_ms": ("laplacian.mat_mul",),
    "walkcount.power_ms": ("walkcount.matrix_power", "walkcount.power_table"),
    "walkcount.query_ms": ("walkcount.count_walks", "walkcount.signed_count"),
    "enumeration.enum_ms": ("enumeration.enum_walks", "enumeration.enum_signed_walks", "enumeration.walk_sign"),
    "enumeration.cross_check_ms": ("enumeration.cross_check",),
    "evolve.operator_ms": ("evolve.evolution_operator",),
    "evolve.trace_ms": ("evolve.partition_trace",),
}
# metric -> span names whose call counts it sums
CALLS = {
    "laplacian.builds": ("laplacian.hypergraph_laplacian", "laplacian.cw_laplacian", "laplacian.susy_laplacian"),
    "laplacian.mat_mul_calls": ("laplacian.mat_mul",),
    "enumeration.enum_calls": ("enumeration.enum_walks", "enumeration.enum_signed_walks"),
}
# span name -> (metric, size taken from the call's arguments and result)
AMOUNTS = {
    "formats.parse_hg": ("formats.bytes_parsed", lambda args, result: len(args[0])),
    "formats.parse_cw": ("formats.bytes_parsed", lambda args, result: len(args[0])),
    "enumeration.enum_walks": ("enumeration.walks_listed", lambda args, result: len(result)),
    "enumeration.enum_signed_walks": ("enumeration.walks_listed", lambda args, result: len(result)),
    "enumeration.cross_check": ("triples_checked", lambda args, result: result.checked),
}
COLUMNS = {"name_id": "q", "start": "d", "end": "d", "parent": "q", "op": "q", "amount": "q", "entries": "q"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {key: array(code) for key, code in COLUMNS.items()}
        self.current_op = -1
        self._stack = [-1]

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        size = AMOUNTS.get(name, (None, None))[1]
        clock = time.perf_counter
        c = self.cols
        ids, start, end, parent, ops, amount, entries = (
            c["name_id"], c["start"], c["end"], c["parent"], c["op"], c["amount"], c["entries"])
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            ops.append(self.current_op)
            amount.append(0)
            entries.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size is not None:
                amount[idx] = size(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the library's public functions in every hyperlap namespace,
        and count dim^2 of every ExactMatrix built against the open span."""
        replace = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"hyperlap.{short}")
            except ModuleNotFoundError:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replace[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperlap" or mod_name.startswith("hyperlap.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
        matrix = getattr(sys.modules.get("hyperlap.laplacian"), "ExactMatrix", None)
        if matrix is not None:
            init, entries, stack = matrix.__init__, self.cols["entries"], self._stack

            def counted_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                if stack[-1] >= 0:
                    entries[stack[-1]] += obj.dim * obj.dim

            matrix.__init__ = counted_init

    def spans(self) -> dict:
        """The recorded spans as numpy columns, plus the span names."""
        out = {key: np.array(col, dtype=col.typecode) for key, col in self.cols.items()}
        out["names"] = list(self.names)
        return out


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets from several processes into one."""
    names: list[str] = []
    cols: dict[str, list] = {key: [] for key in COLUMNS}
    base = 0
    for p in parts:
        for nm in p["names"]:
            if nm not in names:
                names.append(nm)
        remap = np.array([names.index(nm) for nm in p["names"]] or [0], dtype=np.int64)
        for key in COLUMNS:
            col = np.asarray(p[key], dtype=COLUMNS[key])
            if key == "name_id":
                col = remap[col]
            elif key == "parent":
                col = np.where(col >= 0, col + base, -1)
            cols[key].append(col)
        base += len(p["start"])
    out = {key: np.concatenate(v) if v else np.zeros(0, dtype=COLUMNS[key]) for key, v in cols.items()}
    out["names"] = names
    return out


def layer_metrics(spans: dict, setup_passes: int, rounds: int) -> dict[str, float]:
    """Per-layer metrics for one set-up pass plus one round of operations:
    set-up spans (op -1) are divided by the number of set-up passes traced,
    the others by the number of rounds."""
    names = spans["names"]
    ids = spans["name_id"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    setup = spans["op"] < 0
    phases = ((setup, max(setup_passes, 1)), (~setup, max(rounds, 1)))

    def phase_sum(values):
        return sum(float(values[m].sum()) / per for m, per in phases)

    def per_name(values):
        total = sum(np.bincount(ids[m], weights=values[m], minlength=len(names)) / per for m, per in phases)
        return {n: float(total[i]) for i, n in enumerate(names)}

    self_ms = per_name((dur - child) * 1000.0)
    calls = per_name(np.ones(len(dur)))
    amounts = per_name(spans["amount"].astype(float))
    out = {m: sum(self_ms.get(n, 0.0) for n in ns) for m, ns in SELF_MS.items()}
    out.update({m: sum(calls.get(n, 0.0) for n in ns) for m, ns in CALLS.items()})
    sizes: dict[str, float] = {}
    for n, (metric, _) in AMOUNTS.items():
        sizes[metric] = sizes.get(metric, 0.0) + amounts.get(n, 0.0)
    out["formats.bytes_parsed"] = sizes["formats.bytes_parsed"]
    out["enumeration.walks_listed"] = sizes["enumeration.walks_listed"]
    out["laplacian.entries_built"] = phase_sum(spans["entries"])
    # enumerator calls made directly by cross_check, per (i, j, k) triple it compared
    by_check = nested & np.isin(ids, [names.index(n) for n in CALLS["enumeration.enum_calls"] if n in names])
    by_check[by_check] = np.array(names, dtype=object)[ids[parent[by_check]]] == "enumeration.cross_check"
    triples = sizes["triples_checked"]
    out["enumeration.enum_calls_per_triple"] = phase_sum(by_check) / triples if triples else 0.0
    out["trace.spans"] = phase_sum(np.ones(len(ids)))
    return out


def save(spans: dict, path) -> None:
    """Write spans as compressed numpy columns; the names go in as JSON."""
    np.savez_compressed(path, names=json.dumps(spans["names"]), **{k: spans[k] for k in COLUMNS})


def to_json(spans: dict) -> dict:
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in spans.items()}
