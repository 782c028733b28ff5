"""Benchmark of codiscover: one workload per run, one JSON result line.

    python3 bench/run.py --workload train-c7 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. `--trace 0` prints the end-to-end metrics of BENCHMARK.json, measured
untraced. `--trace 1` prints the per-layer metrics: half the time runs
untraced and half traced (which gives `trace.overhead_pct`), then a separate
counting pass gives the exact counts. Times are reported at the reference
host speed (see `common.calibrate`). Spans go to bench/out/. Every run also
checks the program's outputs; the last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from common import (  # noqa: E402
    at_reference_speed, calibrate, no_span, reference_scale, setup_layer_metrics,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def import_program():
    """Import codiscover from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "codiscover", "__init__.py")):
        raise SystemExit(f"error: no codiscover sources under {SRC}")
    sys.path.insert(0, SRC)
    import codiscover
    import codiscover.cli
    import codiscover.core
    import codiscover.evaluation
    import codiscover.training

    if not os.path.abspath(codiscover.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: codiscover was imported from {codiscover.__file__}")
    return codiscover


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_blocks(workload, seconds: float, tally: list, log: dict) -> list[float]:
    """Run whole blocks until `seconds` have passed, each right after one
    calibration chunk; returns each block's time at the reference speed.
    `tally` accumulates [attempted, failed]; `log` keeps the raw times."""
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        chunk = calibrate()
        elapsed, failed = workload.run_block()
        times.append(at_reference_speed(elapsed, chunk))
        log["chunk_s"].append(chunk)
        log["block_s"].append(elapsed)
        tally[0] += workload.ops_per_block
        tally[1] += failed
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    specs = load_metric_specs()
    cd = import_program()
    from cli_roundtrip import CliRoundtrip
    from eval_wide import EvalWide
    from train_c7 import TrainC7

    workloads = {"train-c7": TrainC7, "eval-wide": EvalWide, "cli-roundtrip": CliRoundtrip}

    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads[args.workload](cd, args.seed, OUT_DIR)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        span = tracer.span if tracer else no_span
        log = {"setup_chunk_s": [], "setup_s": [], "chunk_s": [], "block_s": []}
        setup_times = []
        calibrate()  # the first chunk in a process runs cold
        for _ in range(workload.setups):
            chunk = calibrate()
            start = time.perf_counter()
            workload.setup(span)
            elapsed = time.perf_counter() - start
            setup_times.append(at_reference_speed(elapsed, chunk))
            log["setup_chunk_s"].append(chunk)
            log["setup_s"].append(elapsed)

        tally = [0, 0]
        # Warm-up block, untimed; its result is the one the checks inspect.
        _, failed = workload.run_block()
        tally[0] += workload.ops_per_block
        tally[1] += failed
        first = workload.first_result

        if not args.trace:
            times = run_blocks(workload, args.seconds, tally, log)
            metrics = {
                "throughput": workload.items_per_block / statistics.median(times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = specs["end_to_end"]
            with open(os.path.join(OUT_DIR, f"blocks-{args.workload}-{args.seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(log, fh)
        else:
            plain = run_blocks(workload, args.seconds / 2, tally, log)
            workload.install_trace(tracer)
            try:
                traced = run_blocks(workload, args.seconds / 2, tally, log)
            finally:
                tracer.unwrap_all()
                workload.tracer = None
            metrics = dict.fromkeys((m["name"] for m in specs["per_layer"]), 0.0)
            metrics.update(setup_layer_metrics(tracer))
            metrics.update(workload.layer_metrics(tracer))
            scale = reference_scale(log["setup_chunk_s"] + log["chunk_s"])
            for m in specs["per_layer"]:
                if m["unit"] in ("ms", "us"):
                    metrics[m["name"]] *= scale
            metrics.update(workload.count_pass())
            metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced)
                                                     / statistics.median(plain) - 1.0)
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
            wanted = specs["per_layer"]

        errors = workload.check(first)
    finally:
        workload.close()

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": tally[0],
        "failed": tally[1],
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
