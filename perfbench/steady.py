"""Run the benchmark over sets of seeds and report how steady it is.

usage: python3 perfbench/steady.py --workloads query,verify,evolve,cli --seeds 1-10 [--seeds 11-20]

Each run is `run.py --trace 0` for BENCHMARK.json's run_seconds. The runs
are interleaved: the i-th seed of every set, on every workload, before the
(i+1)-th, so that each set sees the same stretches of the machine's speed.
For each workload and metric it prints, per set, the median and the spread:
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median. With two sets it also prints how much worse
the second median is than the first, and marks with `!` a spread (other
than setup_s's) or a change beyond the metric's bound. It also checks that
every run is correct and that the share of failed operations is the same in
every run of a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=seeds, action="append", required=True,
                        help="a set of seeds, a seed or a range like 1-10; give it once or twice")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    sets = args.seeds
    if len(sets) > 2 or len({len(s) for s in sets}) != 1:
        parser.error("give one or two --seeds sets of the same size")

    results = {(w, s): [] for w in workloads for s in range(len(sets))}
    for i in range(len(sets[0])):
        for s, chosen in enumerate(sets):
            for w in workloads:
                result = run(w, chosen[i], bench["run_seconds"])
                results[(w, s)].append(result)
                print(f"{w} set {'AB'[s]} seed {chosen[i]}: correct={result['correct']} "
                      f"failed/attempted={result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    head = " | ".join(f"{'AB'[s]} median | {'AB'[s]} spread" for s in range(len(sets)))
    print(f"\n| workload | metric | {head} |" + (" B worse than A |" if len(sets) == 2 else ""))
    print("|---|---|" + "---|---|" * len(sets) + ("---|" if len(sets) == 2 else ""))
    for w in workloads:
        for name, spec in metrics.items():
            cells, medians = [], []
            for s in range(len(sets)):
                med, spr = spread([r["metrics"][name]["value"] for r in results[(w, s)]])
                flag = " !" if name != "setup_s" and spr > spec["bound"] else ""
                cells.append(f"{med:.4g} | {spr:.3f}{flag}")
                medians.append(med)
            row = f"| {w} | `{name}` ({spec['unit']}) | {' | '.join(cells)} |"
            if len(sets) == 2:
                worse = (medians[1] / medians[0] - 1) * (1 if spec["better"] == "lower" else -1)
                row += f" {worse * 100:+.1f} %{' !' if worse > spec['bound'] else ''} |"
            print(row)
        runs = [r for s in range(len(sets)) for r in results[(w, s)]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"| {w} | failed share; all correct | {', '.join(f'{x:.6f}' for x in sorted(shares))}"
              f"{'' if len(shares) == 1 else ' DIFFERS !'}; {all(r['correct'] for r in runs)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
