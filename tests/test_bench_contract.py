"""The benchmark's workloads run against this tree: each set-up, one block and
its output checks pass, so a rename of what `bench/` reads fails here.

The workload modules are imported from `bench/` directly; `bench/run.py`,
which pins BLAS thread variables for its own process, is not imported.
"""

import importlib
import os
import sys

import pytest

import codiscover
import codiscover.cli
import codiscover.core
import codiscover.evaluation
import codiscover.training

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _tree(top: str) -> list[tuple[str, int]]:
    return sorted((os.path.join(base, name), os.stat(os.path.join(base, name)).st_mtime_ns)
                  for base, _, files in os.walk(top) for name in files)


@pytest.mark.parametrize("module, name", [("train_c7", "TrainC7"), ("eval_wide", "EvalWide"),
                                          ("cli_roundtrip", "CliRoundtrip")])
def test_bench_workload_runs_one_checked_block(module, name, tmp_path, monkeypatch):
    before = _tree(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    workload = getattr(importlib.import_module(module), name)(codiscover, 1, str(tmp_path))
    try:
        workload.setup(importlib.import_module("common").no_span)
        _, failed = workload.run_block()
        errors = workload.check(workload.first_result)
    finally:
        workload.close()
    assert failed == 0
    assert errors == []
    assert _tree(BENCH) == before
