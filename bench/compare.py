"""Two sets of runs of the same code, compared against BENCHMARK.json's bounds.

    python3 bench/compare.py --runs 10 --sets 2

Each set runs every workload of BENCHMARK.json `--runs` times untraced, for
BENCHMARK.json's `run_seconds`, each run with its own seed (set s, run i uses
seed 1000*s + i), workloads taking turns so that a slow spell of the host
falls on all of them. Per-run results are kept under bench/out/results/. For
each workload and end-to-end metric it prints each set's median and spread
(interquartile range over median, as `statistics.quantiles(values, n=4)`
gives the quartiles), the change of the last set's median from the first's in
the metric's worse direction, and the bound. A spread above the bound, a
drift above the bound, or a failed share that differs between sets marks the
row FAIL.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "out", "results")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{proc.stderr}")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")
    workloads = [w["name"] for w in spec["workloads"]]
    os.makedirs(RESULTS, exist_ok=True)

    results = {(s, w): [] for s in range(1, args.sets + 1) for w in workloads}
    for s in range(1, args.sets + 1):
        for i in range(1, args.runs + 1):
            for w in workloads:
                seed = 1000 * s + i
                result = run_once(w, seed, spec["run_seconds"])
                results[(s, w)].append(result)
                with open(os.path.join(RESULTS, f"{w}-{seed}.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(result, fh)
                print(f"set {s} run {i} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)

    ok = True
    header = ["workload", "metric"]
    for s in range(1, args.sets + 1):
        header += [f"median{s}", f"spread{s}"]
    header += ["drift", "bound", "failed/attempted", "verdict"]
    print("\t".join(header))
    for w in workloads:
        shares = {s: {r["failed"] / r["attempted"] for r in results[(s, w)]}
                  for s in range(1, args.sets + 1)}
        share_ok = len(set().union(*shares.values())) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = [w, name]
            medians, verdict = [], share_ok
            for s in range(1, args.sets + 1):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                medians.append(statistics.median(values))
                sp = spread(values)
                row += [f"{medians[-1]:.6g}", f"{sp:.3f}"]
                if sp > bound:
                    verdict = False
            worse = medians[-1] / medians[0] - 1.0
            if metric["better"] == "higher":
                worse = -worse
            verdict = verdict and worse <= bound
            ok = ok and verdict
            row += [f"{worse:+.3f}", f"{bound}",
                    "/".join(sorted(f"{x:.4f}" for x in set().union(*shares.values()))),
                    "ok" if verdict else "FAIL"]
            print("\t".join(row))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
