"""Discovery-quality scoring: IoU, cover rate, strategy comparison, ablations."""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._binio import atomic_writer
from .core import (
    baseline_max_size,
    baseline_region_word,
    concept_guide,
    head_forward,
    heuristic_picks,
    similarity_rows,
    unit_rows,
)
from .corpus import ConceptGroupIndex
from .scenario import Scenario, ScenarioTruth
from .training import ModelState, TrainConfig, run_training

STRATEGIES = ("region_region", "region_word", "max_size", "heuristic")


@dataclass
class EvalReport:
    cover_rates: dict[str, float]
    per_concept: dict[str, dict[int, tuple[float, int]]]
    samples: int
    config_echo: dict


@dataclass
class AblationRow:
    axis: str
    value: object
    cover_rates: dict[str, float]


def iou(box_a, box_b) -> np.ndarray:
    """Intersection over union of (x1, y1, x2, y2) boxes along the last axis,
    broadcast over the leading axes."""
    a = np.asarray(box_a, dtype=np.float64)
    b = np.asarray(box_b, dtype=np.float64)
    for box in (a, b):
        if box.shape[-1:] != (4,):
            raise ValueError(f"degenerate box array of shape {box.shape}, not (..., 4)")
        bad = np.flatnonzero(np.any(box[..., 2:] <= box[..., :2], axis=-1))
        if bad.size:
            x1, y1, x2, y2 = box.reshape(-1, 4)[bad[0]].tolist()
            raise ValueError(f"degenerate box {bad[0]}: ({x1}, {y1}, {x2}, {y2})")
    overlap = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    inter = np.prod(np.maximum(overlap, 0.0), axis=-1)
    area_a = np.prod(a[..., 2:] - a[..., :2], axis=-1)
    area_b = np.prod(b[..., 2:] - b[..., :2], axis=-1)
    return inter / (area_a + area_b - inter)


def _covered(keys, regions, boxes, truth: ScenarioTruth, mode: str) -> np.ndarray:
    """Which labels, given as (image_id, concept_id) keys with their picked
    region indices (index mode) or (L, 4) boxes (box mode), match oracle
    truth. A box needs IoU > 0.5 with some ground-truth box of its key; all
    pairs are scored in one IoU."""
    if mode == "index":
        return np.array([truth.is_true(i, int(r), c) for (i, c), r in zip(keys, regions)],
                        dtype=bool)
    if mode != "box":
        raise ValueError(f"unknown cover mode {mode!r}")
    gt = [(k, g) for k, key in enumerate(keys) for g in truth.gt_boxes.get(key, [])]
    owner = np.array([k for k, _ in gt], dtype=int)
    covered = np.zeros(len(keys), dtype=bool)
    covered[owner[iou(boxes[owner], np.array([g for _, g in gt]).reshape(-1, 4)) > 0.5]] = True
    return covered


def _stack_present(values: list, image_ids: list[str], what: str) -> np.ndarray:
    """Stack per-image optional arrays (boxes, areas), all of which must be set."""
    for image_id, value in zip(image_ids, values):
        if value is None:
            raise ValueError(f"image {image_id!r} carries no {what}")
    return np.stack(values)


def _sample_supports(pool: list[str], query_id: str, m: int,
                     rng: np.random.Generator) -> list[str]:
    """m supports for the query from the other images of its group, drawn with
    replacement when there are fewer than m. The only support of a singleton
    group's query is the query itself, and it draws nothing from rng."""
    others = [i for i in pool if i != query_id]
    if not others:
        return [query_id] * m
    replace = len(others) < m
    picks = rng.choice(len(others), size=m, replace=replace)
    return [others[int(i)] for i in picks]


# Queries per batched forward. Every concept's rows are (group_size-1)*n wide,
# so a batch may span concepts; the cap bounds a pass's peak memory (about
# 2.4 MB at n=16, K=4, hidden 128) however large a concept's group is.
_BATCH = 32


def compare_strategies(
    state: ModelState,
    scenario: Scenario,
    index: ConceptGroupIndex,
    strategies=STRATEGIES,
    group_size: int = 8,
    seed: int = 0,
    mode: str = "index",
    text_guidance: bool = True,
) -> EvalReport:
    """Pick one pseudo-label region per (concept, member image, strategy) and score
    cover rates. Every member image serves as query once, with supports
    resampled from its group under a fixed evaluation seed; the queries go
    through the similarity, the head and the baselines in batches of up to
    _BATCH queries, which may span concepts."""
    strategies = tuple(strategies)
    if not strategies:
        raise ValueError("strategies must be nonempty")
    for name in strategies:
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}")
    concepts = index.concept_ids()
    if not concepts:
        raise ValueError("the index holds no concepts to evaluate")
    member_ids = dict.fromkeys(i for cid in concepts for i in index.groups[cid])
    missing = [i for i in member_ids if i not in state.features]
    if missing:
        raise ValueError(
            f"the model has no features for {len(missing)} of the index's {len(member_ids)} "
            f"member images (e.g. {missing[0]!r}); was it trained on another world?"
        )
    feature_map = scenario.feature_map()
    hits = {name: np.zeros(len(concepts), dtype=np.int64) for name in strategies}
    queries = _queries(state, index, concepts, group_size, np.random.default_rng(seed))
    while batch := list(itertools.islice(queries, _BATCH)):
        _score_batch(batch, state, feature_map, scenario.truth, strategies, mode,
                     text_guidance, hits)

    samples = sum(len(index.groups[cid]) for cid in concepts)
    counts = {name: hits[name].tolist() for name in strategies}
    rates = {name: sum(counts[name]) / samples for name in strategies}
    per_concept = {
        name: {cid: (count / len(index.groups[cid]), len(index.groups[cid]))
               for cid, count in zip(concepts, counts[name])}
        for name in strategies
    }
    echo = {
        "strategies": list(strategies),
        "group_size": group_size,
        "seed": seed,
        "mode": mode,
        "text_guidance": text_guidance,
    }
    return EvalReport(rates, per_concept, samples, echo)


def _queries(state: ModelState, index: ConceptGroupIndex, concepts: list[int],
             group_size: int, rng: np.random.Generator):
    """Yield (query id, support ids, classifier row, concept id, concept
    position) for every member image of every concept, in index order, drawing
    each query's supports as it is yielded."""
    for k, cid in enumerate(concepts):
        row = state.classifier.row_of.get(cid)
        if row is None:
            raise ValueError(f"concept {cid} not in classifier")
        members = index.groups[cid]
        if not members:
            raise ValueError(f"concept {cid} has no member images")
        for query_id in members:
            yield query_id, _sample_supports(members, query_id, group_size - 1, rng), row, cid, k


def _score_batch(batch, state: ModelState, feature_map, truth: ScenarioTruth, strategies,
                 mode: str, text_guidance: bool, hits: dict[str, np.ndarray]) -> None:
    """Pick and score one region per strategy for a batch of (query id, support
    ids, classifier row, concept id, concept position) entries, through one
    call of each batched op, and add the hits to each concept's count."""
    query_ids, support_ids, class_rows, cids, positions = zip(*batch)
    images = list(dict.fromkeys(i for q, s in zip(query_ids, support_ids) for i in (q, *s)))
    try:
        hat = unit_rows(np.stack([state.features[i] for i in images]), "batch")
    except ValueError:
        # Name the first concept of the batch that holds a zero feature row.
        for query_id, supports, cid in zip(query_ids, support_ids, cids):
            for image_id in (query_id, *supports):
                unit_rows(state.features[image_id], f"concept {cid}")
        raise
    slot = {image_id: j for j, image_id in enumerate(images)}
    query_hat = hat[[slot[i] for i in query_ids]]
    # int-typed even when empty, so group_size=1 gives (Q, 0) supports and
    # similarity_rows refuses them.
    supports = np.array([[slot[i] for i in ids] for ids in support_ids], dtype=int)
    w = state.classifier.weights[list(class_rows)]
    picks = {}
    if {"region_region", "heuristic"} & set(strategies):
        _, rows = similarity_rows(query_hat, hat[supports],
                                  concept_guide(w, text_guidance)[:, None, :])
        if "region_region" in strategies:
            picks["region_region"] = head_forward(rows, state.head).p.argmax(axis=1)
        if "heuristic" in strategies:
            picks["heuristic"] = heuristic_picks(rows)
    if "region_word" in strategies:
        picks["region_word"] = baseline_region_word(query_hat, w)
    if "max_size" in strategies:
        picks["max_size"] = baseline_max_size(
            _stack_present([feature_map[i].areas for i in query_ids], query_ids, "areas"))
    boxes = (_stack_present([feature_map[i].boxes for i in query_ids], query_ids, "boxes")
             if mode == "box" else None)
    keys = list(zip(query_ids, cids))
    owners = np.array(positions)
    for name, pick in picks.items():
        picked = None if boxes is None else boxes[np.arange(len(batch)), pick]
        covered = _covered(keys, pick, picked, truth, mode)
        hits[name] += np.bincount(owners[covered], minlength=hits[name].size)


def ablate(
    index: ConceptGroupIndex,
    scenario: Scenario,
    base_config: TrainConfig,
    axis: str,
    values,
    strategies=("region_region",),
    eval_seed: int = 0,
    mode: str = "index",
) -> list[AblationRow]:
    """Train one variant per axis value with a shared seed and report final
    cover rates side by side. Axes: text_guidance (bool) or group_size (int)."""
    if axis not in ("text_guidance", "group_size"):
        raise ValueError(f"unknown ablation axis {axis!r}")
    rows = []
    for value in values:
        config = dataclasses.replace(base_config, **{axis: value})
        state, _ = run_training(index, scenario, config, eval_seed=eval_seed)
        report = compare_strategies(
            state, scenario, index, strategies, group_size=config.group_size,
            seed=eval_seed, mode=mode, text_guidance=config.text_guidance,
        )
        rows.append(AblationRow(axis, value, dict(report.cover_rates)))
    return rows


def write_report_json(report: EvalReport, path: str) -> None:
    doc = {
        "cover_rates": report.cover_rates,
        "per_concept": {
            name: {
                str(cid): {"cover_rate": rate, "samples": count}
                for cid, (rate, count) in sorted(by_concept.items())
            }
            for name, by_concept in report.per_concept.items()
        },
        "samples": report.samples,
        "config": report.config_echo,
    }
    with atomic_writer(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(report: EvalReport, path: str) -> None:
    """Flat per-concept rows: `strategy,concept_id,cover_rate,samples`."""
    with atomic_writer(path, "w") as fh:
        fh.write("strategy,concept_id,cover_rate,samples\n")
        for name in sorted(report.per_concept):
            for cid, (rate, count) in sorted(report.per_concept[name].items()):
                fh.write(f"{name},{cid},{rate!r},{count}\n")


def write_ablation_csv(rows: list[AblationRow], path: str) -> None:
    with atomic_writer(path, "w") as fh:
        fh.write("axis,value,strategy,cover_rate\n")
        for row in rows:
            for name in sorted(row.cover_rates):
                fh.write(f"{row.axis},{row.value},{name},{row.cover_rates[name]!r}\n")
