"""Pieces shared by the workloads."""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

# Host speed changes by up to ~40% between runs on a shared 2-core VM: the
# CPU runs slower while neighbours are busy, and CPU time tracks wall time,
# so it is not stolen time. A run therefore times a fixed chunk of reference
# work just before each set-up and each block, and reports that interval at
# the reference speed: the speed at which the chunk takes CAL_REF_S. The
# chunk uses numpy and the interpreter the way the program does, and nothing
# of the program.
CAL_REF_S = 0.020
_CAL_RNG = np.random.default_rng(20231025)
_CAL_A = _CAL_RNG.standard_normal((16, 112))
_CAL_W = _CAL_RNG.standard_normal((128, 112))
_CAL_V = _CAL_RNG.standard_normal(128)


def calibrate() -> float:
    """Seconds one chunk of reference work takes on the host right now."""
    start = time.perf_counter()
    acc = 0.0
    tally: dict[int, int] = {}
    for i in range(400):
        z = np.maximum(_CAL_A @ _CAL_W.T, 0.0) @ _CAL_V
        e = np.exp(z - z.max())
        acc += float((e / e.sum()) @ z)
        order = np.argsort(-_CAL_A[:, :16], axis=1)
        acc += float(np.take_along_axis(_CAL_A[:, :16], order, axis=1)[0, 0])
        tally[i % 7] = tally.get(i % 7, 0) + 1
        acc += sum(tally.values())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration work went non-finite")
    return elapsed


def at_reference_speed(seconds: float, chunk: float) -> float:
    """An interval of `seconds` that followed a chunk of `chunk` seconds,
    rescaled to the reference host speed."""
    return seconds * CAL_REF_S / chunk


def reference_scale(chunks: list[float]) -> float:
    """Factor that rescales the span times of a run to the reference speed.

    Spans cannot each be paired with a chunk, so they share the run's median.
    """
    return CAL_REF_S / statistics.median(chunks)


# Seed of the counting pass. Counts are read on worlds of this seed, not of
# the run's seed, so they repeat exactly across runs and across commits.
COUNT_SEED = 0


def derive_seeds(seed: int, count: int) -> list[int]:
    """Independent program seeds derived from one workload seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


@contextlib.contextmanager
def no_span(_name: str):
    yield


def setup_layer_metrics(tracer) -> dict[str, float]:
    """Median time of the set-up's own world generation and index build."""
    out = {}
    for name in ("scenario.generate_scenario", "corpus.build_concept_index"):
        values = [end - start for _, tid, _, n, start, end in tracer.spans
                  if n == name and tid == 0]
        if values:
            out[f"{name}.ms"] = 1e3 * statistics.median(values)
    return out


class Workload:
    """A workload runs whole blocks of the same operations.

    Subclasses set the class attributes and define `setup(span)`, `block()`,
    `install_trace(tracer)` (which sets `self.tracer`), `layer_metrics(tracer)`,
    `count_pass()` and `check(first_result)`.
    """

    items_per_block = 0
    ops_per_block = 0
    setups = 1
    first_result = None
    # The tracer while the traced phase runs, else None.
    tracer = None

    def run_block(self) -> tuple[float, int]:
        """Run one block; returns (timed seconds, failed operations)."""
        start = time.perf_counter()
        result = self.block()
        elapsed = time.perf_counter() - start
        self.after_block(result)
        if self.first_result is None:
            self.first_result = result
        return elapsed, 0

    def after_block(self, result) -> None:
        pass

    def close(self) -> None:
        pass
