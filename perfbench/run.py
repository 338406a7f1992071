"""hyperlap benchmark: one closed-loop workload per invocation.

usage: python3 perfbench/run.py --workload {query,verify,evolve,cli}
                                --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from the `src/` directory next to
this one. Every input is made from --seed. One client runs one operation at a
time, in whole rounds of the same operations, until S seconds have passed
(and at least 100 operations). Every output is checked against the reference
computations in reference.py. End-to-end times are scaled to a fixed
machine speed measured by a calibration computation (see CALIBRATION_S);
stdout also prints them as measured. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 spends half of S on the
untraced loop and half on the loop with every library call traced (see
spans.py), and reports the per-layer metrics for one set-up pass plus one
round, with the tracing overhead; the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

# numpy's BLAS would otherwise start a thread per core and compete with the
# client; the variables must be set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import reference as ref  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "formats.parse_ms": "ms", "formats.bytes_parsed": "B", "model.validate_ms": "ms",
    "laplacian.build_ms": "ms", "laplacian.builds": "count", "laplacian.entries_built": "count",
    "laplacian.mat_mul_ms": "ms", "laplacian.mat_mul_calls": "count",
    "walkcount.power_ms": "ms", "walkcount.query_ms": "ms",
    "enumeration.enum_ms": "ms", "enumeration.enum_calls": "count", "enumeration.walks_listed": "count",
    "enumeration.enum_calls_per_triple": "calls/triple", "enumeration.cross_check_ms": "ms",
    "evolve.operator_ms": "ms", "evolve.trace_ms": "ms", "evolve.unitarity_err": "max_abs",
    "cli.import_ms": "ms", "cli.numpy_import_ms": "ms", "cli.bare_start_ms": "ms",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s", "trace.overhead_pct": "%",
    "trace.spans": "count", "machine.calibration_ms": "ms",
}
# the tail is the highest of these percentiles with at least ten samples beyond it
TAIL_LEVELS = (99.9, 99.0, 90.0, 75.0)
# every workload does 100 to 999 operations in a run, so its tail is always
# p90: a run that ended on either side of a rung would read another percentile
MIN_OPS = 100

# The machine's speed drifts by 15-50 % over minutes, so runs made in a fast
# and in a slow stretch would differ by more than any bound. Before every
# round the loop times a fixed computation made apart from the program (a
# reference walk count), and every end-to-end time is scaled by
# CALIBRATION_S / (the run's median piece time): times read as on the machine
# at the speed where one piece takes CALIBRATION_S, the median piece time on
# the machine the benchmark was built on.
CALIBRATION_S = 0.0062
CALIBRATION_TRIPLES = ref.hypergraph_triples(workloads.regular_incidence(random.Random("calibration"), 30, 60, 3))


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    return next(p for p in TAIL_LEVELS if n * (100.0 - p) / 100.0 >= 10)


def calibrate() -> list[float]:
    """Times of eight runs of the calibration computation. The first is
    dropped: it runs on whatever the last operation left in the caches. The
    collector is off, so the size of the program's heap does not slow it."""
    times = []
    gc.disable()
    try:
        for _ in range(8):
            t0 = time.perf_counter()
            ref.power_entry(CALIBRATION_TRIPLES, "row", 1, 2, 60)
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times[1:]


def run_loop(ops, seconds: float, min_ops: int = MIN_OPS, before_op=None, between_rounds=None) -> dict:
    """Whole rounds of `ops`, one at a time, until `seconds` have passed and
    at least `min_ops` operations ran. Only the operation itself is timed;
    the calibration runs before every round, `between_rounds` before every
    round but the first. An operation that raises or gives a wrong output
    counts as failed if it exercises a known fault, and as wrong otherwise."""
    latencies: list[float] = []
    failed: dict[str, int] = {}
    wrong: dict[str, int] = {}
    rounds = 0
    min_rounds = math.ceil(min_ops / len(ops))
    calibration: list[float] = []
    clock = time.perf_counter
    began = clock()
    while rounds < min_rounds or clock() - began < seconds:
        if rounds and between_rounds is not None:
            between_rounds()
        calibration += calibrate()
        for op in ops:
            if before_op is not None:
                before_op(len(latencies))
            t0 = clock()
            try:
                out, error = op.run(), None
            except Exception as exc:  # failed if the op exercises a known fault, wrong otherwise
                out, error = None, exc
            latencies.append(clock() - t0)
            if error is None and op.check(out):
                continue
            cause = (op.fault or "wrong output") if error is None else f"{type(error).__name__}: {error}"
            tally = failed if op.fault else wrong
            key = f"{op.name}: {cause}"
            tally[key] = tally.get(key, 0) + 1
        rounds += 1
    return {"latencies": latencies, "failed": failed, "wrong": wrong, "rounds": rounds, "calibration": calibration}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def median_wall_ms(cmd: list[str], reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, capture_output=True, env=child_env(), timeout=60, check=True)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def import_times(reps: int = 5) -> tuple[float, float]:
    """Median cumulative import time of hyperlap.cli and of numpy within it,
    from `python -X importtime`."""
    cli_ms, numpy_ms = [], []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperlap.cli"],
                              capture_output=True, text=True, env=child_env(), timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        cli_ms.append(cumulative.get("hyperlap.cli", 0) / 1000.0)
        numpy_ms.append(cumulative.get("numpy", 0) / 1000.0)
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def end_to_end(loop: dict, setup_times: list[float], children: bool) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics as measured, and with times scaled to the
    calibration speed."""
    lat = sorted(loop["latencies"])
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    measured = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": percentile(lat, 50.0) * 1000.0,
        "op_tail_ms": percentile(lat, tail_level(len(lat))) * 1000.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }
    scale = CALIBRATION_S / statistics.median(loop["calibration"])
    scaled = {name: value * scale for name, value in measured.items()}
    scaled["ops_per_s"] = measured["ops_per_s"] / scale
    scaled["peak_rss_mib"] = measured["peak_rss_mib"]
    return measured, scaled


def traced(plan, ops, seconds: float, untraced: dict, workdir: str, trace_path: str) -> tuple[dict, dict]:
    """The traced loop and the per-layer metrics it gives."""
    import spans

    if plan.children:
        child_dir = os.path.join(workdir, "spans")
        os.makedirs(child_dir)
        plan.trace_children(child_dir)
        loop = run_loop(ops, seconds, min_ops=1)
        parts = []
        for name in os.listdir(child_dir):
            with open(os.path.join(child_dir, name), encoding="utf-8") as fh:
                parts.append(json.load(fh))
        recorded = spans.merge(parts)
    else:
        tracer = spans.Tracer()
        tracer.install()
        plan.setup()
        loop = run_loop(ops, seconds, min_ops=1, before_op=lambda i: setattr(tracer, "current_op", i))
        recorded = tracer.spans()
    spans.save(recorded, trace_path)
    metrics = spans.layer_metrics(recorded, setup_passes=1, rounds=loop["rounds"])
    metrics["evolve.unitarity_err"] = plan.stats.get("unitarity_err", 0.0)
    metrics["cli.import_ms"], metrics["cli.numpy_import_ms"] = import_times()
    metrics["cli.bare_start_ms"] = median_wall_ms([sys.executable, "-c", "pass"])
    before = len(untraced["latencies"]) / sum(untraced["latencies"])
    after = len(loop["latencies"]) / sum(loop["latencies"])
    metrics["trace.untraced_ops_per_s"] = before
    metrics["trace.traced_ops_per_s"] = after
    metrics["trace.overhead_pct"] = (before / after - 1.0) * 100.0
    metrics["machine.calibration_ms"] = statistics.median(untraced["calibration"] + loop["calibration"]) * 1000.0
    return loop, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hyperlap", "__init__.py")):
        print(f"error: no hyperlap sources at {SRC}; run from a hyperlap checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hyperlap

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = workloads.build(args.workload, args.seed, workdir, hyperlap, SRC)
        setup_times = []

        def set_up():
            t0 = time.perf_counter()
            state = plan.setup()
            setup_times.append(time.perf_counter() - t0)
            return state

        # CLI warm-ups all run before timing; an in-process workload loads its
        # inputs again before every round, so set-up is timed across the run
        # as the operations are, and its median sees the same machine phases.
        for _ in range(plan.setup_passes if plan.children else 1):
            state = set_up()
        ops = plan.ops(state)
        if args.trace:
            loops = [run_loop(ops, args.seconds / 2, min_ops=1)]
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
            loop, metrics = traced(plan, ops, args.seconds / 2, loops[0], workdir, trace_path)
            loops.append(loop)
            units = PER_LAYER
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            loops = [run_loop(ops, args.seconds, between_rounds=None if plan.children else set_up)]
            while len(setup_times) < plan.setup_passes:
                set_up()
            measured, metrics = end_to_end(loops[0], setup_times, plan.children)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop["latencies"]) for loop in loops)
    failed: dict[str, int] = {}
    wrong: dict[str, int] = {}
    for loop in loops:
        for key, n in loop["failed"].items():
            failed[key] = failed.get(key, 0) + n
        for key, n in loop["wrong"].items():
            wrong[key] = wrong.get(key, 0) + n
    for key, n in sorted(failed.items()):
        print(f"failed x{n}: {key}", file=sys.stderr)
    for key, n in sorted(wrong.items()):
        print(f"WRONG OUTPUT x{n}: {key}", file=sys.stderr)
    n_ops = len(loops[0]["latencies"])
    tail = "" if args.trace else f" tail=p{tail_level(n_ops):g}"
    print(f"workload={args.workload} seed={args.seed} ops/round={len(ops)} rounds={loops[0]['rounds']} "
          f"ops={n_ops}{tail}")
    if not args.trace:
        piece = statistics.median(loops[0]["calibration"])
        print(f"calibration piece {piece * 1000:.4g} ms against {CALIBRATION_S * 1000:g} ms; as measured: "
              + ", ".join(f"{name} = {value:.6g} {END_TO_END[name]}" for name, value in measured.items()))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
