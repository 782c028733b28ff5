"""cli-roundtrip: the command-line pipeline, called in-process through
`codiscover.cli.main`, then every artifact read back with the library loaders.

One block (a round) is, in order:
  1. gen-synthetic --tsv of a box world (60 concepts x 10 images);
  2. build-index on the written corpus and lexicon;
  3. train: K=2, unsorted rows, hidden 32, 20 steps, cover evaluated every 10;
  4. eval of the checkpoint, box mode, all four strategies;
  5. load_features, load_features_tsv, load_text_embeddings, load_index and
     load_checkpoint on what was written;
  6. eval of the same checkpoint against a world with 11 images per concept.

Steps 1-5 are the pipeline and are timed; an item is one image of the world
carried through it. Each command and each loader call is one operation, ten
per round. Step 6 must exit 1 or 2 with a one-line message; it is counted as
a failed operation whenever it does not, and it is not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import tempfile
import time

import numpy as np

from common import COUNT_SEED, Workload, derive_seeds

SETUPS = 9
STEPS = 20
EVAL_INTERVAL = 10

_CONFIG = """\
seed = {seed}
scenario.num_concepts = 60
scenario.images_per_concept = {images}
scenario.d = 32
scenario.n = 16
scenario.distractor_count = 4
scenario.noise_sigma = 0.05
scenario.multi_concept_rate = 0.3
scenario.with_boxes = true
train.group_size = 2
train.sorted_rows = false
train.hidden = 32
train.steps = {steps}
train.eval_interval = {interval}
eval.mode = box
"""
IMAGES = 10
MISMATCH_IMAGES = 11
COMMANDS = ("gen-synthetic", "build-index", "train", "eval")
LOADERS = ("load_features", "load_features_tsv", "load_text_embeddings", "load_index",
           "load_checkpoint")
_TERM = re.compile(r"concept(\d+)")


class CliRoundtrip(Workload):
    setups = SETUPS
    ops_per_block = len(COMMANDS) + len(LOADERS) + 1

    def __init__(self, cd, seed: int, out_dir: str):
        self.cd = cd
        (self.master_seed,) = derive_seeds(seed, 1)
        self.tmp = tempfile.mkdtemp(prefix="cli-roundtrip-", dir=out_dir)
        self.round = 0
        self.digests: list[dict] = []
        self.configs = self._write_configs(self.tmp, self.master_seed)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @staticmethod
    def _write_configs(directory: str, seed: int) -> dict[str, str]:
        paths = {}
        for name, images in (("run", IMAGES), ("mismatch", MISMATCH_IMAGES)):
            paths[name] = os.path.join(directory, f"{name}.cfg")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(_CONFIG.format(seed=seed, images=images, steps=STEPS,
                                        interval=EVAL_INTERVAL))
        return paths

    def setup(self, span) -> None:
        """Config resolution and the world it names, generated in memory: the
        reference that every artifact is compared with."""
        cd = self.cd
        pairs = cd.cli.parse_config_file(self.configs["run"])
        self.resolved = cd.cli.resolve_run_config(pairs)
        with span("scenario.generate_scenario"):
            self.scenario = cd.generate_scenario(self.resolved.scenario)
        with span("corpus.build_concept_index"):
            self.index = cd.build_concept_index(self.scenario.records, self.scenario.lexicon,
                                                self.resolved.corpus_min_freq)
        self.items_per_block = len(self.scenario.feature_sets)

    # -- one round --------------------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _main(self, argv) -> tuple[object, str]:
        """(exit code or the exception raised, standard error) of one command."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with self._span(f"cli.{argv[0]}"):
                try:
                    code = self.cd.cli.main(argv)
                except Exception as exc:  # the pipeline records it as a failed operation
                    code = exc
        return code, err.getvalue()

    def pipeline(self, directory: str, configs: dict[str, str]) -> dict:
        cd = self.cd
        world = os.path.join(directory, "world")
        run = os.path.join(directory, "run")
        report = os.path.join(directory, "eval")
        codes = {
            "gen-synthetic": self._main(["gen-synthetic", "--config", configs["run"],
                                         "--out", world, "--tsv"]),
            "build-index": self._main(["build-index", "--corpus", f"{world}/corpus.tsv",
                                       "--lexicon", f"{world}/lexicon.txt", "--min-freq", "1",
                                       "--out", f"{world}/index_built.tsv"]),
            "train": self._main(["train", "--config", configs["run"], "--out", run]),
            "eval": self._main(["eval", "--config", configs["run"], "--checkpoint",
                                f"{run}/checkpoint.codc", "--out", report]),
        }
        loaded = {}
        for name, module, path in (
            ("load_features", cd.scenario, f"{world}/features.codf"),
            ("load_features_tsv", cd.scenario, f"{world}/features.tsv"),
            ("load_text_embeddings", cd.scenario, f"{world}/text_embeddings.codt"),
            ("load_index", cd.corpus, f"{world}/index.tsv"),
            ("load_checkpoint", cd.training, f"{run}/checkpoint.codc"),
        ):
            with self._span(f"{module.__name__.split('.')[-1]}.{name}"):
                try:
                    loaded[name] = getattr(module, name)(path)
                except Exception as exc:  # a loader that raises is a failed operation
                    loaded[name] = exc
        return {"codes": codes, "loaded": loaded, "dirs": (world, run, report)}

    def mismatched_eval(self, directory: str, configs: dict[str, str]):
        return self._main(["eval", "--config", configs["mismatch"], "--checkpoint",
                           os.path.join(directory, "run", "checkpoint.codc"),
                           "--out", os.path.join(directory, "eval-mismatch")])

    def run_block(self) -> tuple[float, int]:
        self.round += 1
        if self.tracer:
            self.tracer.trace_id = self.round
        start = time.perf_counter()
        result = self.pipeline(self.tmp, self.configs)
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.trace_id = -self.round
        code, err = self.mismatched_eval(self.tmp, self.configs)
        failed = int(not (code in (1, 2) and len(err.strip().splitlines()) == 1))
        failed += sum(code != 0 for code, _ in result["codes"].values())
        failed += sum(isinstance(v, Exception) for v in result["loaded"].values())
        self.digests.append(tree_digest(result["dirs"]))
        if self.first_result is None:
            self.first_result = result
        return elapsed, failed

    # -- tracing --------------------------------------------------------------

    def install_trace(self, tracer) -> None:
        cli = self.cd.cli
        self.tracer = tracer
        for attr, name in (
            ("generate_scenario", "scenario.generate_scenario"),
            ("build_concept_index", "corpus.build_concept_index"),
            ("parse_corpus", "corpus.parse_corpus"),
            ("save_index", "corpus.save_index"),
            ("save_features", "scenario.save_features"),
            ("save_features_tsv", "scenario.save_features_tsv"),
            ("save_text_embeddings", "scenario.save_text_embeddings"),
            ("save_checkpoint", "training.save_checkpoint"),
            ("load_checkpoint", "training.load_checkpoint"),
            ("write_metrics_csv", "training.write_metrics_csv"),
        ):
            tracer.wrap(cli, attr, name)

    def layer_metrics(self, tracer) -> dict[str, float]:
        """Per pipeline: the median over traced rounds of each layer's summed time."""
        from tracing import median_over, per_trace_sums

        rounds = sorted({tid for _, tid, _, name, _, _ in tracer.spans
                         if name == "cli.gen-synthetic" and tid > 0})
        if not rounds:
            return {}
        names = ["scenario.generate_scenario", "corpus.build_concept_index",
                 "scenario.save_features", "scenario.load_features",
                 "scenario.save_features_tsv", "scenario.load_features_tsv",
                 "scenario.save_text_embeddings", "scenario.load_text_embeddings",
                 "corpus.parse_corpus", "corpus.save_index", "corpus.load_index",
                 "training.save_checkpoint", "training.load_checkpoint",
                 "training.write_metrics_csv"] + [f"cli.{c}" for c in COMMANDS]
        sums = per_trace_sums(tracer, names)
        out = {f"{name}.ms": 1e3 * median_over(sums[name], rounds) for name in names}
        calls = [sum(1 for _, tid, _, name, _, _ in tracer.spans
                     if name == "scenario.generate_scenario" and tid == r) for r in rounds]
        out["scenario.generate_scenario.calls"] = float(statistics.median(calls))
        return out

    def count_pass(self) -> dict[str, float]:
        """Bytes of every artifact one pipeline writes, for the pinned counting seed."""
        directory = tempfile.mkdtemp(prefix="count-", dir=self.tmp)
        configs = self._write_configs(directory, COUNT_SEED)
        result = self.pipeline(directory, configs)
        size = 0
        for top in result["dirs"]:
            for base, _, files in os.walk(top):
                size += sum(os.path.getsize(os.path.join(base, f)) for f in files)
        shutil.rmtree(directory, ignore_errors=True)
        return {"cli.artifact_bytes": float(size)}

    # -- correctness ----------------------------------------------------------

    def check(self, result) -> list[str]:
        cd = self.cd
        errors: list[str] = []
        for name, (code, err) in result["codes"].items():
            if code != 0:
                errors.append(f"{name} ended with {code!r}: {err.strip()}")
        if any(d != self.digests[0] for d in self.digests[1:]):
            errors.append("rounds wrote different artifacts from the same config")
        loaded = result["loaded"]
        for name, value in loaded.items():
            if isinstance(value, Exception):
                errors.append(f"{name} raised {value!r}")
        if errors:
            return errors
        world, run, report_dir = result["dirs"]
        scenario = self.scenario

        for name in ("load_features", "load_features_tsv"):
            sets = loaded[name]
            if [fs.image_id for fs in sets] != [fs.image_id for fs in scenario.feature_sets]:
                errors.append(f"{name}: image ids differ from the world")
                continue
            for got, want in zip(sets, scenario.feature_sets):
                if any(a.tobytes() != b.tobytes() for a, b in
                       ((got.features, want.features), (got.boxes, want.boxes),
                        (got.areas, want.areas))):
                    errors.append(f"{name}: {got.image_id} differs from the world")
                    break

        table = loaded["load_text_embeddings"]
        want = scenario.text_table
        if (sorted(table.embeddings) != sorted(want.embeddings)
                or table.rule_tag != want.rule_tag
                or any(table.embeddings[c].tobytes() != want.embeddings[c].tobytes()
                       for c in want.embeddings)):
            errors.append("load_text_embeddings: table differs from the world")

        with open(f"{world}/corpus.tsv", encoding="utf-8") as fh:
            corpus = [line.rstrip("\n").split("\t") for line in fh]
        if corpus != [[r.image_id, r.caption] for r in scenario.records]:
            errors.append("corpus.tsv differs from the world's captions")
        with open(f"{world}/lexicon.txt", encoding="utf-8") as fh:
            if fh.read().split("\n")[:-1] != scenario.lexicon.terms:
                errors.append("lexicon.txt differs from the world's lexicon")
        truth = set()
        with open(f"{world}/truth.tsv", encoding="utf-8") as fh:
            for line in fh:
                image_id, cid, region = line.split("\t")
                truth.add((image_id, int(region), int(cid)))
        if truth != {(i, r, c) for i, pairs in scenario.truth.true_pairs.items()
                     for r, c in pairs}:
            errors.append("truth.tsv differs from the world's truth")

        recount: dict[int, list[str]] = {}
        for image_id, caption in corpus:
            for cid in dict.fromkeys(int(m) for m in _TERM.findall(caption)):
                recount.setdefault(cid, []).append(image_id)
        index = loaded["load_index"]
        if index.groups != recount or index.groups != self.index.groups:
            errors.append("index.tsv differs from a recount of the captions")
        with open(f"{world}/index.tsv", "rb") as a, open(f"{world}/index_built.tsv", "rb") as b:
            if a.read() != b.read():
                errors.append("build-index output differs from gen-synthetic's index.tsv")

        state = loaded["load_checkpoint"]
        ids = sorted(recount)
        rows = np.array([scenario.text_table.embeddings[c] for c in ids])
        rows = rows / np.sqrt(np.sum(rows * rows, axis=1))[:, None]
        if (state.classifier.concept_ids != ids
                or np.max(np.abs(state.classifier.weights - rows)) > 1e-15
                or list(state.features) != [fs.image_id for fs in scenario.feature_sets]
                or state.head.w1.shape != (32, 16) or state.head.sorted_rows):
            errors.append("checkpoint does not match the world and the train config")

        with open(f"{run}/metrics.csv", encoding="utf-8") as fh:
            rows_csv = [line.rstrip("\n").split(",") for line in fh][1:]
        covered = [int(r[0]) for r in rows_csv if r[4]]
        if ([int(r[0]) for r in rows_csv] != list(range(1, STEPS + 1))
                or covered != list(range(EVAL_INTERVAL, STEPS + 1, EVAL_INTERVAL))
                or not all(0.0 <= float(r[4]) <= 1.0 for r in rows_csv if r[4])):
            errors.append("metrics.csv does not hold one row per step with cover at the "
                          "evaluation interval")

        with open(f"{report_dir}/report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        if (sorted(report["cover_rates"]) != sorted(cd.evaluation.STRATEGIES)
                or report["samples"] != sum(len(v) for v in recount.values())):
            errors.append("report.json does not cover every strategy and group member")
        return errors


def tree_digest(dirs) -> dict:
    """File name -> sha256 of every file under `dirs`."""
    out = {}
    for top in dirs:
        for base, _, files in os.walk(top):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, os.path.dirname(top))] = hashlib.sha256(
                        fh.read()).hexdigest()
    return out
