"""Discovery-quality scoring: IoU, cover rate, strategy comparison, ablations."""

from __future__ import annotations

import dataclasses
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
    q, j = np.nonzero(owner == concepts[:, None])
    # Rows of the world's box block, which Scenario checked when it was built.
    *picks, pair = np.nonzero(_iou(boxes[q, regions[..., q]], boxes[q, j]) > 0.5)
    covered = np.zeros(regions.shape, dtype=bool)
    covered[(*picks, q[pair])] = True
    return covered


def _draw_supports(rng: np.random.Generator, others: np.ndarray, m: int) -> np.ndarray:
    """(Q, m) picks among each query's others[q] other group members, in query order:
    the picks of one rng.choice(others[q], size=m, replace=others[q] < m) call per query,
    from the same words. A singleton group's query, with no other member, supports
    itself: its picks read -1, and it reads no word."""
    # choice's bounded draws: m below n with replacement; Floyd's below n-m+1..n then
    # its shuffle's below m..2; or past 10,000 others with m > n // 50, a shuffle of
    # range(n) down to max(n-m, 1), below n..max(n-m, 1)+1.
    replace = (others > 0) & (others < m)
    tail = (others > 10000) & (m > others // 50)
    floyd = (others >= m) & ~tail
    counts = np.select([replace, floyd, tail], [m, 2 * m - 1, others - np.maximum(others - m, 1)])
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(others)), counts)
    t, n = np.arange(counts.sum()) - starts[owner], others[owner]
    bounds = np.select([replace[owner], tail[owner], t < m], [n, n - t, n - m + 1 + t], 2 * m - t)
    # Lemire draws from 32-bit words: integers(0, 2**32, N, uint64) reads the words that
    # choice reads one at a time through PCG64's next_uint32. A bound of 1 draws 0 and
    # reads no word. A word whose low half of word * bound is below 2**32 % bound is
    # rejected, and that draw and every later one move on by a word, read then.
    draws, live = np.zeros(len(bounds), dtype=np.int64), bounds > 1
    bound = bounds[live].astype(np.uint64)
    threshold = (1 << 32) % bound
    words = rng.integers(0, 1 << 32, len(bound), dtype=np.uint64)
    word_of, start = np.arange(len(bound)), 0
    while (rejected := np.flatnonzero(
            (words[word_of[start:]] * bound[start:] & 0xFFFFFFFF) < threshold[start:])).size:
        start += int(rejected[0])
        word_of[start:] += 1
        words = np.append(words, rng.integers(0, 1 << 32, 1, dtype=np.uint64))
    draws[live] = words[word_of] * bound >> 32

    picks = np.full((len(others), m), -1, dtype=np.int64)
    picks[replace] = draws[starts[replace, None] + np.arange(m)]
    # Floyd's algorithm, one pick column at a time over every query: a value drawn
    # again gives way to j, which none is; then the Fisher-Yates swaps of the shuffle.
    floyd_draws = draws[starts[floyd, None] + np.arange(2 * m - 1)]
    chosen, last = np.empty((len(floyd_draws), m), dtype=np.int64), others[floyd] - m
    for c in range(m):
        value = floyd_draws[:, c]
        chosen[:, c] = np.where((chosen[:, :c] == value[:, None]).any(axis=1), last + c, value)
    row = np.arange(len(chosen))
    for i, j in zip(range(m - 1, 0, -1), floyd_draws[:, m:].T):
        chosen[:, i], chosen[row, j] = chosen[row, j], chosen[:, i].copy()
    picks[floyd] = chosen
    for q in np.flatnonzero(tail):  # rare: a shuffle as long as the group
        n, order = int(others[q]), list(range(others[q]))
        for i, j in zip(range(n - 1, 0, -1), draws[starts[q]:starts[q] + counts[q]].tolist()):
            order[i], order[j] = order[j], order[i]
        picks[q] = order[n - m:]
    return picks


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
    if mode not in ("index", "box"):
        raise ValueError(f"unknown cover mode {mode!r}")
    concepts = index.concept_ids()
    if not concepts:
        raise ValueError("the index holds no concepts to evaluate")
    members = [i for cid in concepts for i in index.groups[cid]]
    member_ids = dict.fromkeys(members)
    missing = [i for i in member_ids if i not in state.row_of]
    if missing:
        raise ValueError(
            f"the model has no features for {len(missing)} of the index's {len(member_ids)} "
            f"member images (e.g. {missing[0]!r}); was it trained on another world?"
        )
    if state.block.shape[1] != scenario.owner.shape[1]:
        raise ValueError(f"the model's images hold {state.block.shape[1]} regions and the "
                         f"world's {scenario.owner.shape[1]}; was it trained on another world?")
    for cid in concepts:
        if cid not in state.classifier.row_of:
            raise ValueError(f"concept {cid} not in classifier")
        if not index.groups[cid]:
            raise ValueError(f"concept {cid} has no member images")
    if mode == "box" and scenario.boxes is None:
        raise ValueError(f"image {index.groups[concepts[0]][0]!r} carries no boxes")

    # Pick p among a query's others is member p of its group, counted from the
    # group's first member, or p+1 past the query itself; -1 is the query itself.
    sizes = [len(index.groups[cid]) for cid in concepts]
    query = np.arange(len(members))[:, None]
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)[:, None]
    picks = _draw_supports(np.random.default_rng(seed), np.repeat(sizes, sizes) - 1,
                           group_size - 1)
    support = np.where(picks < 0, query, first + picks + (first + picks >= query))
    queries = np.array([state.row_of[i] for i in members])[np.hstack([query, support])]
    class_rows = np.repeat([state.classifier.row_of[cid] for cid in concepts], sizes)
    world_rows = np.array([scenario.row_of[i] for i in members])
    cids, positions = np.repeat(concepts, sizes), np.repeat(np.arange(len(concepts)), sizes)
    hits = {name: np.zeros(len(concepts), dtype=np.int64) for name in strategies}
    for start in range(0, len(members), _BATCH):
        # One call of query_rows and of each batched op per slice of the pass's arrays.
        batch = slice(start, start + _BATCH)
        world = world_rows[batch]
        _, _, _, hat, slots, _, _, rows = query_rows(state, queries[batch], class_rows[batch],
                                                     text_guidance)
        picks = {}
        if {"region_region", "heuristic"} & set(strategies):
            blocks = sorted_blocks(rows)  # for an unsorted head too: cheaper than a block max
            if "region_region" in strategies:
                picks["region_region"] = head_forward(rows, state.head, blocks).p.argmax(axis=1)
            if "heuristic" in strategies:
                picks["heuristic"] = heuristic_picks(rows, blocks)
        if "region_word" in strategies:
            picks["region_word"] = baseline_region_word(
                hat[slots[:, 0]], state.classifier.weights[class_rows[batch]])
        if "max_size" in strategies:
            picks["max_size"] = baseline_max_size(scenario.areas[world])
        boxes = scenario.boxes[world] if mode == "box" else None
        covered = _covered(scenario.owner[world], boxes, cids[batch],
                           np.array(list(picks.values())), mode)
        for name, hit in zip(picks, covered):
            hits[name] += np.bincount(positions[batch][hit], minlength=len(concepts))

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
