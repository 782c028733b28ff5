"""Tests for IoU, cover rate, strategy comparison, and ablation plumbing."""

import json

import numpy as np
import pytest

from codiscover import (
    EvalReport,
    ScenarioConfig,
    ScenarioTruth,
    TrainConfig,
    ablate,
    build_concept_index,
    compare_strategies,
    generate_scenario,
    init_model,
    iou,
    run_training,
)
from codiscover.evaluation import (
    STRATEGIES,
    AblationRow,
    _covered,
    _sample_supports,
    write_ablation_csv,
    write_report_csv,
    write_report_json,
)


def small_world(**overrides):
    defaults = dict(num_concepts=4, d=8, n=5, images_per_concept=5,
                    distractor_count=2, noise_sigma=0.05, multi_concept_rate=0.0,
                    seed=3)
    defaults.update(overrides)
    config = ScenarioConfig(**defaults)
    scenario = generate_scenario(config)
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    return scenario, index


# ---------------------------------------------------------------------- IoU


def test_iou_hand_cases():
    a = [0.0, 0.0, 2.0, 2.0]
    assert iou(a, a) == 1.0
    assert iou(a, [5.0, 5.0, 6.0, 6.0]) == 0.0
    assert iou(a, [2.0, 0.0, 4.0, 2.0]) == 0.0  # edge contact is not overlap
    # [DERIVED] intersection 1, union 4 + 4 - 1 = 7.
    assert iou(a, [1.0, 1.0, 3.0, 3.0]) == pytest.approx(1.0 / 7.0, abs=1e-15)
    with pytest.raises(ValueError, match="degenerate"):
        iou(a, [1.0, 1.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="degenerate"):
        iou([0.0, 0.0, 1.0], a)
    # Leading axes broadcast: (3, 1, 4) against (2, 4) gives (3, 2), each
    # entry equal to the single-pair value.
    left = np.array([[a], [[1.0, 1.0, 3.0, 3.0]], [[5.0, 5.0, 6.0, 6.0]]])
    right = np.array([a, [0.0, 0.0, 4.0, 4.0]])
    table = iou(left, right)
    assert table.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            assert table[i, j] == iou(left[i, 0], right[j])
    with pytest.raises(ValueError, match="degenerate"):
        iou(right, [a, [3.0, 0.0, 1.0, 2.0]])


# ---------------------------------------------------------- scoring rule


def test_covered_index_mode():
    truth = ScenarioTruth({"a": {(0, 1), (2, 1)}, "b": {(1, 2)}})
    keys = [("a", 1), ("a", 1), ("b", 2), ("b", 1)]
    # Hit; miss (region 1 is not true for 1); hit; miss (wrong concept).
    covered = _covered(keys, [0, 1, 1, 1], None, truth, "index")
    assert covered.tolist() == [True, False, True, False]
    with pytest.raises(ValueError, match="unknown cover mode"):
        _covered(keys, [0, 1, 1, 1], None, truth, "pixel")


def test_covered_box_mode():
    gt = {("a", 1): [np.array([0.0, 0.0, 2.0, 2.0])],
          ("b", 1): [np.array([20.0, 20.0, 22.0, 22.0]), np.array([0.0, 0.0, 2.0, 2.0])]}
    truth = ScenarioTruth({"a": {(0, 1)}}, gt_boxes=gt)
    exact = [0.0, 0.0, 2.0, 2.0]
    near = [0.1, 0.0, 2.0, 2.0]  # IoU 0.95 with the ground truth
    far = [10.0, 10.0, 12.0, 12.0]

    def covered(keys, boxes):
        return _covered(keys, [0] * len(keys), np.array(boxes), truth, "box").tolist()

    assert covered([("a", 1), ("a", 1)], [exact, near]) == [True, True]
    assert covered([("a", 1)], [far]) == [False]
    assert covered([("a", 9)], [exact]) == [False]  # no gt boxes
    # The best of an image's ground-truth boxes counts, whichever it is.
    assert covered([("b", 1), ("a", 1), ("a", 1), ("a", 9)],
                   [exact, far, exact, exact]) == [True, False, True, False]
    # A bad box is named on one line by its index among the boxes scored.
    with pytest.raises(ValueError, match=r"^degenerate box 1: \(2\.0, 0\.0, 1\.0, 1\.0\)$"):
        covered([("a", 1), ("a", 1)], [exact, [2.0, 0.0, 1.0, 1.0]])


# --------------------------------------------------------- support sampling


def test_sample_supports_excludes_query_and_falls_back():
    rng = np.random.default_rng(0)
    pool = ["a", "b", "c", "d"]
    for _ in range(100):
        picks = _sample_supports(pool, "b", 2, rng)
        assert len(picks) == 2
        assert "b" not in picks
    # Fewer others than m: sample with replacement from the others.
    picks = _sample_supports(["a", "b"], "a", 4, rng)
    assert picks == ["b"] * 4
    # Degenerate singleton group: the query supports itself.
    assert _sample_supports(["a"], "a", 3, rng) == ["a", "a", "a"]


def test_singleton_group_query_is_its_only_support_in_evaluation():
    # Rare-concept rule of evaluation: a singleton group's query is its own
    # and only support, and drawing it consumes no randomness, so the
    # supports of every later query are the same as without the singleton.
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert _sample_supports(["solo"], "solo", 7, rng) == ["solo"] * 7
    assert rng.bit_generator.state == before


# --------------------------------------------------------------- comparison


def test_compare_strategies_report_structure_and_aligned_world():
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    report = compare_strategies(state, scenario, index, STRATEGIES,
                                group_size=3, seed=9)
    assert set(report.cover_rates) == set(STRATEGIES)
    members = sum(len(index.groups[c]) for c in index.concept_ids())
    assert report.samples == members
    for name in STRATEGIES:
        per = report.per_concept[name]
        assert set(per) == set(index.concept_ids())
        assert sum(count for _, count in per.values()) == members
        for rate, _ in per.values():
            assert 0.0 <= rate <= 1.0
    # Text embeddings equal the visual prototypes here, so the region-word
    # baseline is essentially perfect while max-size is near chance.
    assert report.cover_rates["region_word"] == 1.0
    assert report.cover_rates["max_size"] < 0.9
    assert report.config_echo["group_size"] == 3
    assert report.config_echo["text_guidance"] is True


def test_compare_strategies_weights_and_determinism():
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    a = compare_strategies(state, scenario, index, ("region_region", "heuristic"),
                           group_size=3, seed=4)
    b = compare_strategies(state, scenario, index, ("region_region", "heuristic"),
                           group_size=3, seed=4)
    assert a.cover_rates == b.cover_rates
    c = compare_strategies(state, scenario, index, ("region_region", "heuristic"),
                           group_size=3, seed=5)
    assert a.config_echo != c.config_echo


def test_compare_strategies_validates_strategies():
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    with pytest.raises(ValueError, match="unknown strategy"):
        compare_strategies(state, scenario, index, ("region_region", "oracle"),
                           group_size=3)
    with pytest.raises(ValueError, match="nonempty"):
        compare_strategies(state, scenario, index, (), group_size=3)
    with pytest.raises(ValueError, match="at least one support"):
        compare_strategies(state, scenario, index, ("heuristic",), group_size=1)


def test_compare_strategies_box_mode():
    scenario, index = small_world(with_boxes=True)
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    report = compare_strategies(state, scenario, index, ("region_word",),
                                group_size=3, seed=2, mode="box")
    # Perfectly aligned text: the chosen region is a true region, whose box
    # self-matches its ground truth (IoU 1 > 0.5).
    assert report.cover_rates["region_word"] == 1.0
    boxless, _ = small_world()
    with pytest.raises(ValueError, match="carries no boxes"):
        compare_strategies(state, boxless, index, ("region_word",), group_size=3, mode="box")


def test_compare_strategies_label_matches_manual_pipeline():
    # Shrink the index to one single-member group: the report then scores
    # exactly one label, which a by-hand replay of the pipeline must equal.
    from codiscover import ConceptGroupIndex, head_forward, similarity_rows, unit_rows
    from codiscover.core import text_guide_weights

    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    cid = index.concept_ids()[0]
    query_id = index.groups[cid][0]
    solo = ConceptGroupIndex(groups={cid: [query_id]}, terms={cid: index.terms[cid]})

    # A singleton group supports itself, so no randomness is involved.
    w_c = state.classifier.weights[state.classifier.row_of[cid]]
    guide = text_guide_weights(w_c)
    query = unit_rows(state.features[query_id], "query")
    _, rows = similarity_rows(query[None], np.stack([query] * 2)[None], guide)
    p = head_forward(rows, state.head).p[0]
    manual_hit = scenario.truth.is_true(query_id, int(np.argmax(p)), cid)

    report = compare_strategies(state, scenario, solo, ("region_region",),
                                group_size=3, seed=6)
    assert report.samples == 1
    assert report.cover_rates["region_region"] == float(manual_hit)


def _replay_per_query(state, scenario, index, strategies, group_size, seed, mode,
                      text_guidance):
    """compare_strategies replayed one query at a time (Q=1) through the
    public batched ops, and each label scored on its own: a truth lookup in
    index mode, IoU > 0.5 with any ground-truth box of its key in box mode."""
    from codiscover import (
        EvalReport,
        baseline_max_size,
        baseline_region_word,
        head_forward,
        heuristic_picks,
        similarity_rows,
        unit_rows,
    )
    from codiscover.core import concept_guide

    rng = np.random.default_rng(seed)
    feature_map = scenario.feature_map()
    hits = {name: [] for name in strategies}
    for cid in index.concept_ids():
        w_c = state.classifier.weights[state.classifier.row_of[cid]]
        guide = concept_guide(w_c, text_guidance)
        members = index.groups[cid]
        for query_id in members:
            support_ids = _sample_supports(members, query_id, group_size - 1, rng)
            query = unit_rows(state.features[query_id], "query")[None]
            supports = unit_rows(np.stack([state.features[i] for i in support_ids]), "support")
            _, rows = similarity_rows(query, supports[None], guide)
            fs = feature_map[query_id]
            for name in strategies:
                if name == "region_region":
                    idx = int(np.argmax(head_forward(rows, state.head).p[0]))
                elif name == "heuristic":
                    idx = int(heuristic_picks(rows)[0])
                elif name == "region_word":
                    idx = int(baseline_region_word(query, w_c)[0])
                else:
                    idx = int(baseline_max_size(fs.areas[None])[0])
                if mode == "index":
                    hit = scenario.truth.is_true(query_id, idx, cid)
                else:
                    hit = any(iou(fs.boxes[idx], g) > 0.5
                              for g in scenario.truth.gt_boxes.get((query_id, cid), []))
                hits[name].append((cid, hit))
    per_concept = {
        name: {cid: (sum(hit for c, hit in hits[name] if c == cid) / len(index.groups[cid]),
                     len(index.groups[cid]))
               for cid in index.concept_ids()}
        for name in strategies
    }
    rates = {name: sum(hit for _, hit in hits[name]) / len(hits[name]) for name in strategies}
    echo = {"strategies": list(strategies), "group_size": group_size, "seed": seed,
            "mode": mode, "text_guidance": text_guidance}
    return EvalReport(rates, per_concept, len(hits[strategies[0]]), echo)


@pytest.mark.parametrize("sorted_rows", [False, True])
@pytest.mark.parametrize("text_guidance", [True, False])
def test_compare_strategies_equals_per_query_replay(sorted_rows, text_guidance):
    from codiscover import ConceptGroupIndex

    scenario, full = small_world(with_boxes=True, num_concepts=5, multi_concept_rate=0.4,
                                 noise_sigma=0.3)
    cids = full.concept_ids()
    # A singleton group, a group smaller than K=4, and full groups.
    groups = {cid: list(full.groups[cid]) for cid in cids}
    groups[cids[0]] = groups[cids[0]][:1]
    groups[cids[1]] = groups[cids[1]][:2]
    index = ConceptGroupIndex(groups, {c: full.terms[c] for c in cids})
    config = TrainConfig(group_size=4, hidden=16, steps=0, sorted_rows=sorted_rows)
    state = init_model(scenario, index, config)
    for seed, mode in ((3, "box"), (4, "index")):
        report = compare_strategies(state, scenario, index, STRATEGIES, group_size=4,
                                    seed=seed, mode=mode, text_guidance=text_guidance)
        assert report == _replay_per_query(state, scenario, index, STRATEGIES, 4, seed,
                                           mode, text_guidance)


@pytest.mark.parametrize("sorted_rows", [False, True])
@pytest.mark.parametrize("text_guidance", [True, False])
def test_compare_strategies_across_batch_boundaries_equals_replay(sorted_rows, text_guidance):
    # Evaluation runs its queries in batches of 32 that span concepts; here a
    # concept spans batches, images sit in two groups, and a singleton group
    # and a group smaller than K=4 share batches with full ones.
    from codiscover import ConceptGroupIndex

    scenario, full = small_world(with_boxes=True, num_concepts=5, images_per_concept=36,
                                 multi_concept_rate=0.4, noise_sigma=0.3)
    cids = full.concept_ids()
    groups = {cid: list(full.groups[cid]) for cid in cids}
    groups[cids[0]] = groups[cids[0]][:1]
    groups[cids[1]] = groups[cids[1]][:2]
    index = ConceptGroupIndex(groups, {c: full.terms[c] for c in cids})
    sizes = [len(g) for g in groups.values()]
    assert max(sizes) > 32 and sum(sizes) > 64
    assert sum(sizes) > len({i for g in groups.values() for i in g})
    config = TrainConfig(group_size=4, hidden=16, steps=0, sorted_rows=sorted_rows)
    state = init_model(scenario, index, config)
    for seed, mode in ((3, "box"), (4, "index")):
        report = compare_strategies(state, scenario, index, STRATEGIES, group_size=4,
                                    seed=seed, mode=mode, text_guidance=text_guidance)
        assert report == _replay_per_query(state, scenario, index, STRATEGIES, 4, seed,
                                           mode, text_guidance)


def test_compare_strategies_calls_the_forward_and_iou_once_per_batch(monkeypatch):
    import codiscover.evaluation as evaluation

    scenario, index = small_world(with_boxes=True, num_concepts=20)
    assert sum(len(index.groups[c]) for c in index.concept_ids()) == 100
    config = TrainConfig(group_size=4, hidden=16, steps=0)
    state = init_model(scenario, index, config)
    calls = {"head_forward": 0, "iou": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(evaluation, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(evaluation, name, counted)
    compare_strategies(state, scenario, index, STRATEGIES, group_size=4, seed=1, mode="box")
    # 100 queries make batches of 32, 32, 32 and 4.
    assert calls == {"head_forward": 4, "iou": 4 * len(STRATEGIES)}


@pytest.mark.parametrize("num_concepts,images_per_concept", [(200, 6), (1, 300)])
def test_compare_strategies_peak_memory_is_bounded(num_concepts, images_per_concept):
    # The batches cap the pass's working set, whatever a concept's group size.
    import tracemalloc

    scenario = generate_scenario(ScenarioConfig(
        num_concepts=num_concepts, d=32, n=16, images_per_concept=images_per_concept,
        distractor_count=4, noise_sigma=0.05, with_boxes=True, seed=1))
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    config = TrainConfig(group_size=4, sorted_rows=True, hidden=128, steps=0)
    state = init_model(scenario, index, config)
    tracemalloc.start()
    try:
        compare_strategies(state, scenario, index, STRATEGIES, group_size=4, seed=2, mode="box")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_compare_strategies_names_the_concept_of_a_zero_feature_row():
    # All 20 queries share one batch; the zero row belongs to the third
    # concept's member, so the error names that concept, not the first.
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    cid = index.concept_ids()[2]
    member = index.groups[cid][1]
    state.features[member] = state.features[member].copy()
    state.features[member][3] = 0.0
    with pytest.raises(ValueError, match=rf"^concept {cid}: zero feature row$"):
        compare_strategies(state, scenario, index, STRATEGIES, group_size=3, seed=1)


def test_compare_strategies_rejects_features_of_another_world():
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    gone = index.groups[index.concept_ids()[0]][0]
    del state.features[gone]
    with pytest.raises(ValueError, match=f"no features for 1 of .*{gone}"):
        compare_strategies(state, scenario, index, ("max_size",), group_size=3)


# ----------------------------------------------------------------- ablation


def test_ablate_group_size_and_text_guidance():
    scenario, index = small_world()
    base = TrainConfig(group_size=3, mini_groups_per_batch=2, steps=4,
                       hidden=16, eval_interval=0, seed=1)
    rows = ablate(index, scenario, base, "group_size", (2, 3), eval_seed=8)
    assert [row.value for row in rows] == [2, 3]
    assert all(row.axis == "group_size" for row in rows)
    assert all(set(row.cover_rates) == {"region_region"} for row in rows)

    rows = ablate(index, scenario, base, "text_guidance", (True, False),
                  eval_seed=8)
    assert [row.value for row in rows] == [True, False]

    with pytest.raises(ValueError, match="unknown ablation axis"):
        ablate(index, scenario, base, "noise_sigma", (0.1,))


def test_ablate_matches_direct_training_run():
    scenario, index = small_world()
    base = TrainConfig(group_size=3, mini_groups_per_batch=2, steps=3,
                       hidden=16, eval_interval=0, seed=2)
    rows = ablate(index, scenario, base, "group_size", (3,), eval_seed=12)
    state, _ = run_training(index, scenario, base, eval_seed=12)
    direct = compare_strategies(state, scenario, index, ("region_region",),
                                group_size=3, seed=12)
    assert rows[0].cover_rates["region_region"] == \
        direct.cover_rates["region_region"]


# ------------------------------------------------------------------ writers


def test_write_report_json_and_csv(tmp_path):
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    report = compare_strategies(state, scenario, index,
                                ("region_word", "max_size"), group_size=3, seed=1)

    json_path = tmp_path / "report.json"
    write_report_json(report, str(json_path))
    doc = json.loads(json_path.read_text())
    assert doc["cover_rates"] == report.cover_rates
    assert doc["samples"] == report.samples
    assert doc["config"]["seed"] == 1
    for name, per in report.per_concept.items():
        for cid, (rate, count) in per.items():
            entry = doc["per_concept"][name][str(cid)]
            assert entry == {"cover_rate": rate, "samples": count}

    csv_path = tmp_path / "report.csv"
    write_report_csv(report, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "strategy,concept_id,cover_rate,samples"
    assert len(lines) == 1 + 2 * len(index.concept_ids())
    name, cid, rate, count = lines[1].split(",")
    assert name == "max_size"  # strategies sorted in the flat file
    assert (float(rate), int(count)) == report.per_concept[name][int(cid)]


def test_write_ablation_csv(tmp_path):
    rows = [
        AblationRow("group_size", 2, {"region_region": 0.5}),
        AblationRow("group_size", 4, {"region_region": 0.75}),
    ]
    path = tmp_path / "ablate.csv"
    write_ablation_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines == [
        "axis,value,strategy,cover_rate",
        "group_size,2,region_region,0.5",
        "group_size,4,region_region,0.75",
    ]


def test_eval_report_is_plain_data():
    report = EvalReport({"max_size": 0.5}, {"max_size": {0: (0.5, 2)}}, 2,
                        {"seed": 0})
    assert report.cover_rates["max_size"] == 0.5
