"""eval-wide: `compare_strategies`, all four strategies, box mode, on a world
of many concepts with few images each.

World: 800 concepts x 6 images with boxes, d=32, n=16, 4 distractors,
sigma=0.05, one concept per caption. Head: `init_model` with K=4, sorted
rows, hidden 128 (untrained). A timed block is one `compare_strategies` pass
over every member image of every concept. An item and an operation are both
one query.
"""

from __future__ import annotations

import re

import numpy as np

from common import COUNT_SEED, Workload, derive_seeds

SETUPS = 3
GROUP_SIZE = 4
# The heuristic baseline covers every query of this low-noise world on the
# seeds tried (0-3); a similarity bug drops it far below.
HEURISTIC_FLOOR = 0.95

_TERM = re.compile(r"concept(\d+)")


class EvalWide(Workload):
    setups = SETUPS

    def __init__(self, cd, seed: int, out_dir: str):
        self.cd = cd
        self.world_seed, self.model_seed, self.eval_seed = derive_seeds(seed, 3)
        self.reports = []

    def _world(self, seed: int):
        return self.cd.ScenarioConfig(
            num_concepts=800, d=32, n=16, images_per_concept=6, distractor_count=4,
            noise_sigma=0.05, with_boxes=True, seed=seed,
        )

    def _model(self, scenario, index, seed: int):
        config = self.cd.TrainConfig(group_size=GROUP_SIZE, sorted_rows=True, hidden=128,
                                     seed=seed)
        return self.cd.init_model(scenario, index, config, np.random.default_rng(seed))

    def setup(self, span) -> None:
        cd = self.cd
        with span("scenario.generate_scenario"):
            self.scenario = cd.generate_scenario(self._world(self.world_seed))
        with span("corpus.build_concept_index"):
            self.index = cd.build_concept_index(self.scenario.records, self.scenario.lexicon, 1)
        with span("training.init_model"):
            self.state = self._model(self.scenario, self.index, self.model_seed)
        self.items_per_block = self.ops_per_block = sum(
            len(members) for members in self.index.groups.values())

    def _compare(self, state, scenario, index, seed):
        return self.cd.compare_strategies(state, scenario, index, self.cd.evaluation.STRATEGIES,
                                          group_size=GROUP_SIZE, seed=seed, mode="box")

    def block(self):
        if self.tracer is None:
            return self._compare(self.state, self.scenario, self.index, self.eval_seed)
        self.tracer.trace_id += 1
        with self.tracer.span("evaluation.compare_strategies"):
            return self._compare(self.state, self.scenario, self.index, self.eval_seed)

    def after_block(self, result) -> None:
        self.reports.append((result.cover_rates, result.per_concept, result.samples))

    # -- tracing --------------------------------------------------------------

    def install_trace(self, tracer) -> None:
        evaluation, core = self.cd.evaluation, self.cd.core
        self.tracer = tracer
        for attr in ("build_similarity_matrix", "discover_prototype", "heuristic_discovery",
                     "baseline_region_word", "baseline_max_size"):
            tracer.wrap(evaluation, attr, f"core.{attr}")
        tracer.wrap(core, "head_forward", "core.head_forward")
        tracer.wrap(evaluation, "cover_rate", "evaluation.cover_rate")

    def layer_metrics(self, tracer) -> dict[str, float]:
        from tracing import median_over, per_trace_sums

        names = ("core.build_similarity_matrix", "core.discover_prototype", "core.head_forward",
                 "core.heuristic_discovery", "core.baseline_region_word",
                 "core.baseline_max_size", "evaluation.cover_rate")
        passes = sorted({tid for _, tid, _, name, _, _ in tracer.spans
                         if name == "evaluation.compare_strategies"})
        if not passes:
            return {}
        per_query = 1e6 / self.items_per_block
        sums = per_trace_sums(tracer, names)
        selfs = per_trace_sums(tracer, ("evaluation.compare_strategies",), self_time=True)
        out = {f"{name}.us": per_query * median_over(sums[name], passes) for name in names}
        out["evaluation.compare_strategies.self_us"] = per_query * median_over(
            selfs["evaluation.compare_strategies"], passes)
        return out

    def count_pass(self) -> dict[str, float]:
        """Exact counts of one pass on the world of the pinned counting seed."""
        from tracing import count_calls

        cd = self.cd
        scenario = cd.generate_scenario(self._world(COUNT_SEED))
        index = cd.build_concept_index(scenario.records, scenario.lexicon, 1)
        state = self._model(scenario, index, COUNT_SEED)
        targets = {
            "evaluation.cover_rate.calls": (cd.evaluation, "cover_rate", "codiscover.evaluation"),
            "evaluation.iou.calls": (cd.evaluation, "iou", "codiscover.evaluation"),
        }
        queries = sum(len(members) for members in index.groups.values())
        total, counts = count_calls(lambda: self._compare(state, scenario, index, COUNT_SEED),
                                    targets)
        out = {name: float(count) for name, count in counts.items()}
        out["evaluation.py_calls_per_query"] = total / queries
        return out

    # -- correctness ----------------------------------------------------------

    def check(self, report) -> list[str]:
        errors: list[str] = []
        if any(r != self.reports[0] for r in self.reports[1:]):
            errors.append("repeated passes gave different reports")
        scenario, state = self.scenario, self.state

        members: dict[int, list[str]] = {}
        for record in scenario.records:
            for cid in dict.fromkeys(int(m) for m in _TERM.findall(record.caption)):
                members.setdefault(cid, []).append(record.image_id)
        total = sum(len(ids) for ids in members.values())
        if report.samples != total:
            errors.append(f"{report.samples} samples, captions name {total} group members")

        for name, by_concept in report.per_concept.items():
            counts = {cid: count for cid, (_, count) in by_concept.items()}
            if counts != {cid: len(ids) for cid, ids in members.items()}:
                errors.append(f"{name}: per-concept sample counts differ from the captions")
            weighted = sum(rate * count for rate, count in by_concept.values()) / total
            if abs(weighted - report.cover_rates[name]) > 1e-12:
                errors.append(f"{name}: overall rate {report.cover_rates[name]!r} is not the "
                              f"sample-weighted mean of per-concept rates {weighted!r}")

        feature_map = scenario.feature_map()
        rows = state.classifier.row_of
        for name in ("region_word", "max_size"):
            hits_by = {}
            for cid, ids in members.items():
                w_c = state.classifier.weights[rows[cid]]
                w_c = w_c / np.sqrt(np.sum(w_c * w_c))
                hits = 0
                for image_id in ids:
                    fs = feature_map[image_id]
                    if name == "region_word":
                        unit = fs.features / np.sqrt(np.sum(fs.features ** 2, axis=1))[:, None]
                        pick = int(np.argmax(unit @ w_c))
                    else:
                        pick = int(np.argmax(fs.areas))
                    truth = scenario.truth.gt_boxes.get((image_id, cid), [])
                    hits += any(box_iou(fs.boxes[pick], g) > 0.5 for g in truth)
                hits_by[cid] = hits
            expected = sum(hits_by.values()) / total
            if report.cover_rates[name] != expected:
                errors.append(f"{name}: cover {report.cover_rates[name]!r}, recomputed "
                              f"{expected!r}")
            for cid, hits in hits_by.items():
                if report.per_concept[name][cid] != (hits / len(members[cid]), len(members[cid])):
                    errors.append(f"{name}: concept {cid} cover differs from the recount")
                    break

        if report.cover_rates["heuristic"] < HEURISTIC_FLOOR:
            errors.append(f"heuristic cover {report.cover_rates['heuristic']:.4f} is below "
                          f"{HEURISTIC_FLOOR}")
        return errors


def box_iou(a, b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes."""
    w = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    h = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = w * h
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union
