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
    head_forward,
    heuristic_picks,
    sorted_blocks,
)
from .corpus import ConceptGroupIndex
from .scenario import Scenario
from .training import ModelState, TrainConfig, query_rows, run_training

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


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of float64 (x1, y1, x2, y2) boxes already known to be
    well formed, along the last axis, broadcast over the leading axes."""
    wh = np.maximum(np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2]), 0.0)
    ext_a, ext_b, inter = a[..., 2:] - a[..., :2], b[..., 2:] - b[..., :2], wh[..., 0] * wh[..., 1]
    return inter / (ext_a[..., 0] * ext_a[..., 1] + ext_b[..., 0] * ext_b[..., 1] - inter)


def _covered(owner: np.ndarray, boxes: np.ndarray | None, concepts: np.ndarray,
             regions: np.ndarray, mode: str) -> np.ndarray:
    """Which picked regions (..., Q) of Q queries, with owner rows (Q, n), box
    rows (Q, n, 4) or None and query concepts (Q,), cover their concept;
    leading axes hold several strategies' picks. In index mode the picked
    region must instantiate the concept. In box mode its box needs IoU > 0.5
    with a true box of the concept in the query image: every such box is
    gathered once and scored against the picks in one IoU."""
    if mode == "index":
        return owner[np.arange(len(concepts)), regions] == concepts
    if mode != "box":
        raise ValueError(f"unknown cover mode {mode!r}")
    q, j = np.nonzero(owner == concepts[:, None])
    # Rows of the world's box block, which Scenario checked when it was built.
    *picks, pair = np.nonzero(_iou(boxes[q, regions[..., q]], boxes[q, j]) > 0.5)
    covered = np.zeros(regions.shape, dtype=bool)
    covered[(*picks, q[pair])] = True
    return covered


def _words(rng: np.random.Generator, chunk: int = 256):
    """rng's next 32-bit words: integers(0, 2**32, chunk, uint64) reads them chunk at a
    time as choice reads them one at a time, through PCG64's next_uint32; all in C."""
    chunks = itertools.starmap(rng.integers, itertools.repeat((0, 1 << 32, chunk, np.uint64)))
    return itertools.chain.from_iterable(map(np.ndarray.tolist, chunks))


def _sample_supports(pool: list[str], query_id: str, m: int, words) -> list[str]:
    """m supports for the query from the other images of its group, drawn with
    replacement when there are fewer than m: the picks of rng.choice(len(others),
    size=m, replace=len(others) < m) over rng's words. The only support of a
    singleton group's query is the query itself, and it reads no word."""
    others = [i for i in pool if i != query_id]
    if not (n := len(others)):
        return [query_id] * m
    # choice's Lemire draws: m below n, or Floyd's below n-m+1..n then its shuffle's
    # below m..2, or past 10,000 others with m > n // 50 a shuffle of range(n) to n-m.
    tail = n > 10000 and m > n // 50
    bounds = ([n] * m if n < m else range(n, max(n - m, 1), -1) if tail
              else [*range(n - m + 1, n + 1), *range(m, 1, -1)])
    draws = []
    for bound in bounds:
        product = 0  # a bound of 1 reads no word
        while bound > 1:  # retry while the word's low half is below 2**32 % bound
            product = next(words) * bound
            if (low := product & 0xFFFFFFFF) >= bound or low >= (1 << 32) % bound:
                break
        draws.append(product >> 32)
    if n < m:
        return list(map(others.__getitem__, draws))
    floyd = {}  # an ordered set: a value drawn again gives way to j, which none is
    for j, value in zip(range(n - m, n) if not tail else (), draws):
        floyd[j if value in floyd else value] = None
    picks = list(range(n)) if tail else list(floyd)
    for i, j in zip(range(len(picks) - 1, 0, -1), draws[len(floyd):]):
        picks[i], picks[j] = picks[j], picks[i]
    return list(map(others.__getitem__, picks[len(picks) - m:]))


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
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
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
    missing = [i for i in member_ids if i not in state.row_of]
    if missing:
        raise ValueError(
            f"the model has no features for {len(missing)} of the index's {len(member_ids)} "
            f"member images (e.g. {missing[0]!r}); was it trained on another world?"
        )
    for cid in concepts:
        if cid not in state.classifier.row_of:
            raise ValueError(f"concept {cid} not in classifier")
        if not index.groups[cid]:
            raise ValueError(f"concept {cid} has no member images")
    hits = {name: np.zeros(len(concepts), dtype=np.int64) for name in strategies}
    queries = _queries(state, index, concepts, group_size - 1, _words(np.random.default_rng(seed)))
    while batch := list(itertools.islice(queries, _BATCH)):
        _score_batch(batch, state, scenario, strategies, mode, text_guidance, hits)

    sizes = [len(index.groups[cid]) for cid in concepts]
    samples = sum(sizes)
    counts = {name: hits[name].tolist() for name in strategies}
    rates = {name: sum(counts[name]) / samples for name in strategies}
    cells = {}  # concepts of equal (hits, group size) share one (rate, count) tuple
    per_concept = {
        name: {cid: cells.setdefault((hit, size), (hit / size, size))
               for cid, hit, size in zip(concepts, counts[name], sizes)}
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
             m: int, words):
    """Yield ((query id, *m support ids), classifier row, concept id, concept
    position) for every member image of every concept, in index order, drawing
    each query's supports as it is yielded."""
    for k, cid in enumerate(concepts):
        row, members = state.classifier.row_of[cid], index.groups[cid]
        for query_id in members:
            yield (query_id, *_sample_supports(members, query_id, m, words)), row, cid, k


def _score_batch(batch, state: ModelState, scenario: Scenario, strategies, mode: str,
                 text_guidance: bool, hits: dict[str, np.ndarray]) -> None:
    """Pick and score one region per strategy for a batch of ((query id, *support
    ids), classifier row, concept id, concept position) entries, through one call
    of query_rows and each batched op, and add the hits to each concept's count."""
    queries, class_rows, cids, positions = map(list, zip(*batch))
    _, _, _, hat, slots, _, _, rows = query_rows(state, queries, class_rows, text_guidance)
    picks = {}
    if {"region_region", "heuristic"} & set(strategies):
        blocks = sorted_blocks(rows)  # for an unsorted head too: cheaper than a block max
        if "region_region" in strategies:
            picks["region_region"] = head_forward(rows, state.head, blocks).p.argmax(axis=1)
        if "heuristic" in strategies:
            picks["heuristic"] = heuristic_picks(rows, blocks)
    if "region_word" in strategies:
        picks["region_word"] = baseline_region_word(hat[slots[:, 0]],
                                                    state.classifier.weights[class_rows])
    world_rows = [scenario.row_of[query[0]] for query in queries]
    if "max_size" in strategies:
        picks["max_size"] = baseline_max_size(scenario.areas[world_rows])
    if mode == "box" and scenario.boxes is None:
        raise ValueError(f"image {queries[0][0]!r} carries no boxes")
    boxes = scenario.boxes[world_rows] if mode == "box" else None
    covered = _covered(scenario.owner[world_rows], boxes, np.array(cids),
                       np.array(list(picks.values())), mode)
    owners = np.array(positions)
    for name, hit in zip(picks, covered):
        hits[name] += np.bincount(owners[hit], minlength=hits[name].size)


def ablate(
    index: ConceptGroupIndex,
    scenario: Scenario,
    base_config: TrainConfig,
    axis: str,
    values,
    eval_seed: int = 0,
    mode: str = "index",
) -> list[AblationRow]:
    """Train one variant per axis value with a shared seed and report final
    region_region cover rates side by side. Axes: text_guidance (bool) or group_size (int)."""
    if axis not in ("text_guidance", "group_size"):
        raise ValueError(f"unknown ablation axis {axis!r}")
    rows = []
    for value in values:
        config = dataclasses.replace(base_config, **{axis: value})
        state, _ = run_training(index, scenario, config, eval_seed=eval_seed)
        report = compare_strategies(
            state, scenario, index, ("region_region",), group_size=config.group_size,
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


def write_ablation_csv(rows: list[AblationRow], path: str) -> None:
    with atomic_writer(path, "w") as fh:
        fh.write("axis,value,strategy,cover_rate\n")
        for row in rows:
            for name in sorted(row.cover_rates):
                fh.write(f"{row.axis},{row.value},{name},{row.cover_rates[name]!r}\n")
