"""Tests for IoU, cover rate, strategy comparison, and ablation plumbing."""

import dataclasses
import json

import numpy as np
import pytest

from codiscover import (
    CaptionRecord,
    ConceptGroupIndex,
    EvalReport,
    ModelState,
    ScenarioConfig,
    TextEmbeddingTable,
    TrainConfig,
    ablate,
    build_concept_index,
    compare_strategies,
    generate_scenario,
    init_model,
    run_training,
)
from codiscover.evaluation import (
    STRATEGIES,
    AblationRow,
    _covered,
    _draw_supports,
    write_ablation_csv,
    write_report_json,
)

from oracles import iou, unit_rows


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
    # Image a owns concept 1 at regions 0 and 2, image b concept 2 at region 1.
    a, b = [1, -1, 1], [-1, 2, -1]
    owner = np.array([a, a, b, b])
    concepts = np.array([1, 1, 2, 1])
    # Hit; miss (region 1 is not true for 1); hit; miss (wrong concept).
    covered = _covered(owner, None, concepts, np.array([0, 1, 1, 1]), "index")
    assert covered.tolist() == [True, False, True, False]
    # A leading axis holds a second strategy's picks.
    regions = np.array([[0, 1, 1, 1], [2, 0, 0, 1]])
    assert _covered(owner, None, concepts, regions, "index").tolist() == \
        [[True, False, True, False], [True, True, False, False]]


def test_covered_box_mode():
    exact = [0.0, 0.0, 2.0, 2.0]
    near = [0.1, 0.0, 2.0, 2.0]  # IoU 0.95 with exact
    far = [10.0, 10.0, 12.0, 12.0]
    # Image a: one true box of concept 1 and a near distractor; image b: two
    # true boxes of concept 1; image c: a true box and a degenerate distractor.
    images = {"a": ([1, -1, -1], [exact, near, far]),
              "b": ([1, 1, -1], [[20.0, 20.0, 22.0, 22.0], exact, far]),
              "c": ([1, -1, -1], [exact, [2.0, 0.0, 1.0, 1.0], far])}

    def covered(queries, picks):
        owner, boxes = zip(*(images[image] for image, _ in queries))
        concepts = np.array([c for _, c in queries])
        return _covered(np.array(owner), np.array(boxes), concepts, np.array(picks),
                        "box").tolist()

    assert covered([("a", 1), ("a", 1)], [0, 1]) == [True, True]
    assert covered([("a", 1)], [2]) == [False]
    assert covered([("a", 9)], [0]) == [False]  # no true box
    # The best of an image's true boxes counts, whichever it is.
    assert covered([("b", 1), ("a", 1), ("a", 1), ("a", 9)], [1, 2, 0, 0]) == \
        [True, False, True, False]
    # A distractor region whose box overlaps a true box covers in box mode.
    assert covered([("a", 1), ("a", 1)], [[1, 0], [2, 1]]) == [[True, True], [False, True]]
    # _covered scores the boxes as given: they are rows of the world's block,
    # which the Scenario checked when it was built. The oracle iou, given the same
    # pick and true boxes, names the bad one on one line by its index.
    with pytest.raises(ValueError, match=r"^degenerate box 1: \(2\.0, 0\.0, 1\.0, 1\.0\)$"):
        iou([exact, images["c"][1][1]], [exact, exact])


def test_no_library_path_builds_the_truth_view():
    # Generation, scoring and training read the owner block; the per-image
    # truth tables are built only when something asks for them.
    scenario, index = small_world(with_boxes=True, multi_concept_rate=0.3)
    assert "truth" not in scenario.__dict__
    config = TrainConfig(group_size=3, hidden=16, steps=3, eval_interval=2)
    state, _ = run_training(index, scenario, config, eval_seed=1)
    compare_strategies(state, scenario, index, STRATEGIES, group_size=3, mode="box")
    assert "truth" not in scenario.__dict__


# --------------------------------------------------------- support sampling


def test_sample_supports_excludes_query_and_falls_back():
    # Picks index a query's other members: three others and m=2 give two
    # distinct picks among them, one other and m=4 that one four times (with
    # replacement), and a singleton group's query its own row, -1.
    picks = _draw_supports(np.random.default_rng(0), np.array([3] * 100 + [1, 0]), 2)
    assert picks.shape == (102, 2)
    assert np.all((picks[:100] >= 0) & (picks[:100] < 3))
    assert np.all(picks[:100, 0] != picks[:100, 1])
    assert picks[100:].tolist() == [[0, 0], [-1, -1]]
    assert _draw_supports(np.random.default_rng(0), np.array([1]), 4).tolist() == [[0] * 4]


def test_singleton_group_query_is_its_only_support_in_evaluation():
    # Rare-concept rule of evaluation: a singleton group's query is its own
    # and only support, and drawing it consumes no randomness, so the
    # supports of every later query are the same as without the singleton.
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert _draw_supports(rng, np.array([0]), 7).tolist() == [[-1] * 7]
    assert rng.bit_generator.state == before
    with_solo = _draw_supports(np.random.default_rng(5), np.array([4, 0, 0, 6]), 3)
    without = _draw_supports(np.random.default_rng(5), np.array([4, 6]), 3)
    assert with_solo[[0, 3]].tolist() == without.tolist()
    assert with_solo[1:3].tolist() == [[-1] * 3] * 2


def _choice_supports(pool, query_id, m, rng):
    """A query's supports drawn with one Generator.choice call: the picks that
    _draw_supports must make, query after query on the same seed."""
    others = [i for i in pool if i != query_id]
    if not others:
        return [query_id] * m
    picks = rng.choice(len(others), size=m, replace=len(others) < m)
    return [others[int(i)] for i in picks]


def _assert_picks_are_choices(others, m, reference, generator):
    """One _draw_supports pass over queries with others[q] other members
    equals one Generator.choice call per query on reference, and reads the
    same words: generator and reference start and end in the same state."""
    picks = _draw_supports(generator, np.array(others), m)
    assert picks.shape == (len(others), m)
    for n, row in zip(others, picks.tolist()):
        # _choice_supports' draw over n others, without building a pool of n ids.
        want = [-1] * m if not n else reference.choice(n, size=m, replace=n < m).tolist()
        assert row == want, (n, m)
    assert generator.bit_generator.state == reference.bit_generator.state
    return reference


@pytest.mark.parametrize("pass_size", [1, 2, 3, 256])
def test_sample_supports_picks_what_generator_choice_picks(pass_size):
    # Queries of one m each on one seed, cut into passes of pass_size queries
    # drawn one after another from one generator: pools of 0-40 others and
    # 1-12 supports (both replace branches and the singleton), then Floyd at
    # its largest m past 10,000 others and the tail branch above it, beside
    # small pools. However the queries are cut into passes, every pass makes
    # the picks and reads the words of one Generator.choice call per query.
    cases = []
    for m in range(1, 13):
        others = list(range(41))
        np.random.default_rng(m).shuffle(others)
        cases.append((others, m))
    cases += [([10001, 3, 0, 10001], 200), ([5, 10001], 201), ([10050], 10050),
              ([20000, 40, 20000], 450)]
    for seed in (0, 7):
        reference, generator = np.random.default_rng(seed), np.random.default_rng(seed)
        for others, m in cases:
            for start in range(0, len(others), pass_size):
                _assert_picks_are_choices(others[start:start + pass_size], m,
                                          reference, generator)


def test_sample_supports_rejection_branch_picks_what_generator_choice_picks():
    # Below 3 * 2**30 others a Lemire draw rejects a word whose low half is
    # below 2**32 % (3 * 2**30) = 2**30, about one word in four: the draw and
    # every later one move on by a word.
    big = 3 * 2**30
    for seed in range(5):
        others = [big] * 40 + [0, 7, big, 1]
        reference = _assert_picks_are_choices(others, 5, np.random.default_rng(seed),
                                              np.random.default_rng(seed))
        # Floyd's 5 draws and the shuffle's 4 per big pool, the small pools'
        # 9 and 0: with no word rejected, the pass would read 378 words.
        plain = np.random.default_rng(seed)
        plain.integers(0, 1 << 32, 378, dtype=np.uint64)
        extra = 0
        while plain.bit_generator.state != reference.bit_generator.state:
            plain.integers(0, 1 << 32, 1, dtype=np.uint64)
            extra += 1
            assert extra <= 378
        assert extra >= 20, (seed, extra)


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
    with pytest.raises(ValueError, match="group_size must be >= 2"):
        compare_strategies(state, scenario, index, ("heuristic",), group_size=1)


def test_compare_strategies_refuses_group_size_below_two_before_any_draw(monkeypatch):
    # Below 2 a query has no support to compare with: the message is
    # TrainConfig's, and it comes before any support is drawn.
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)

    def no_draw(*_):
        raise AssertionError("supports drawn")

    monkeypatch.setattr("codiscover.evaluation._draw_supports", no_draw)
    for group_size in (1, 0, -3):
        with pytest.raises(ValueError, match="^group_size must be >= 2$"):
            compare_strategies(state, scenario, index, STRATEGIES, group_size=group_size)


def test_compare_strategies_refuses_a_bad_index_before_any_draw(monkeypatch):
    # Each bad concept sorts after good ones, whose queries would be scored
    # first if its refusal waited for its turn.
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)
    last = index.concept_ids()[-1]

    def no_draw(*_):
        raise AssertionError("supports drawn")

    monkeypatch.setattr("codiscover.evaluation._draw_supports", no_draw)
    for groups, message in (({**index.groups, 99: index.groups[last]},
                             "^concept 99 not in classifier$"),
                            ({**index.groups, last: []}, f"^concept {last} has no member images$"),
                            ({}, "^the index holds no concepts to evaluate$")):
        bad = ConceptGroupIndex(groups, {cid: f"term{cid}" for cid in groups})
        with pytest.raises(ValueError, match=message):
            compare_strategies(state, scenario, bad, STRATEGIES, group_size=3)


def test_compare_strategies_refuses_a_bad_mode_before_any_draw(monkeypatch):
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(scenario, index, config)

    def no_draw(*_):
        raise AssertionError("supports drawn")

    monkeypatch.setattr("codiscover.evaluation._draw_supports", no_draw)
    with pytest.raises(ValueError, match="^unknown cover mode 'pixel'$"):
        compare_strategies(state, scenario, index, STRATEGIES, group_size=3, mode="pixel")
    # The message names the pass's first query image, whose boxes are looked for first.
    first = index.groups[index.concept_ids()[0]][0]
    with pytest.raises(ValueError, match=f"^image '{first}' carries no boxes$"):
        compare_strategies(state, scenario, index, STRATEGIES, group_size=3, mode="box")


@pytest.mark.parametrize("model_n", [3, 8])
def test_compare_strategies_refuses_another_region_count_before_any_draw(monkeypatch, model_n):
    # A model of another world with the same image ids: more regions per image
    # than the world's would index past its truth, fewer would score the
    # model's picks against regions it never saw.
    scenario, index = small_world()
    other, other_index = small_world(n=model_n)
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    state = init_model(other, other_index, config)

    def no_draw(*_):
        raise AssertionError("supports drawn")

    monkeypatch.setattr("codiscover.evaluation._draw_supports", no_draw)
    with pytest.raises(ValueError, match=f"^the model's images hold {model_n} regions and the "
                                         "world's 5; was it trained on another world\\?$"):
        compare_strategies(state, scenario, index, STRATEGIES, group_size=3)


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
    from codiscover import ConceptGroupIndex, head_forward, similarity_rows
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
    manual_hit = (int(np.argmax(p)), cid) in scenario.truth.true_pairs[query_id]

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
            support_ids = _choice_supports(members, query_id, group_size - 1, rng)
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
                    hit = (idx, cid) in scenario.truth.true_pairs[query_id]
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
    # Box mode scores each batch with the IoU arithmetic, `_iou`, and never
    # re-checks boxes that are rows of the world's block, which the Scenario
    # checked when it was built: the checked iou is a test oracle only.
    assert not hasattr(evaluation, "iou")
    calls = {"query_rows": 0, "head_forward": 0, "_iou": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(evaluation, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(evaluation, name, counted)
    compare_strategies(state, scenario, index, STRATEGIES, group_size=4, seed=1, mode="box")
    # 100 queries make batches of 32, 32, 32 and 4, each through the query
    # forward training shares.
    assert calls == {"query_rows": 4, "head_forward": 4, "_iou": 4}


def test_compare_strategies_sorted_head_builds_no_perm(monkeypatch):
    # Eval hands the sorted head its values-only blocks; the p it gets equals,
    # byte for byte, the p of the training path's argsort, gather and perm.
    import codiscover.evaluation as evaluation
    from codiscover import head_forward

    scenario, index = small_world(with_boxes=True, num_concepts=20, noise_sigma=0.3)
    config = TrainConfig(group_size=4, hidden=16, steps=0, sorted_rows=True)
    state = init_model(scenario, index, config)
    passes = []

    def recorded(*args, _original=evaluation.head_forward):
        passes.append((args[0], _original(*args)))
        return passes[-1][1]

    monkeypatch.setattr(evaluation, "head_forward", recorded)
    compare_strategies(state, scenario, index, STRATEGIES, group_size=4, seed=1, mode="box")
    assert len(passes) == 4
    for rows, fwd in passes:
        assert fwd.perm is None
        training = head_forward(rows, state.head)
        assert training.perm is not None
        assert fwd.p.tobytes() == training.p.tobytes()
        assert fwd.net.tobytes() == training.net.tobytes()


def test_compare_strategies_reports_share_their_per_concept_cells():
    # A kept report holds one (rate, count) tuple per distinct (hits, group
    # size), not one per concept and strategy.
    import tracemalloc

    scenario = generate_scenario(ScenarioConfig(
        num_concepts=200, d=32, n=16, images_per_concept=6, distractor_count=4,
        noise_sigma=0.05, with_boxes=True, seed=1))
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    config = TrainConfig(group_size=4, sorted_rows=True, hidden=128, steps=0)
    state = init_model(scenario, index, config)

    def run(seed):
        return compare_strategies(state, scenario, index, STRATEGIES, group_size=4, seed=seed,
                                  mode="box")

    run(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [run(seed) for seed in range(10)]
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for report in reports:
        cells = [cell for by in report.per_concept.values() for cell in by.values()]
        assert len(cells) == 200 * len(STRATEGIES)
        assert len({id(cell) for cell in cells}) == len(set(cells))
    assert live <= 10 * 60e3


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
    state.features[member][3] = 0.0
    with pytest.raises(ValueError, match=rf"^concept {cid}: zero feature row$"):
        compare_strategies(state, scenario, index, STRATEGIES, group_size=3, seed=1)


# --------------------------------------------------------------- invariances


@pytest.fixture(scope="module")
def trained_partner_world():
    # 60 sorted-head steps on a box world whose captions pair adjacent concepts.
    scenario, index = small_world(num_concepts=6, d=16, n=8, images_per_concept=8,
                                  multi_concept_rate=0.5, second_concept="partner",
                                  with_boxes=True)
    config = TrainConfig(group_size=4, mini_groups_per_batch=4, steps=60, seed=2, hidden=32,
                         sorted_rows=True, eval_interval=0)
    state, _ = run_training(index, scenario, config)
    return scenario, index, config, state


def _reports(state, scenario, index):
    return [compare_strategies(state, scenario, index, STRATEGIES, group_size=4, seed=9,
                               mode=mode) for mode in ("index", "box")]


def test_reports_are_invariant_to_a_region_permutation(trained_partner_world):
    # The sorted head sorts each support block and scores each query region
    # on its own, so permuting every image's regions moves each pick with
    # its region.
    scenario, index, _, state = trained_partner_world
    perm = np.argsort(np.random.default_rng(4).random(scenario.owner.shape), axis=1)
    assert not np.all(perm == np.arange(perm.shape[1]))

    def permuted(block):
        return np.take_along_axis(block, perm.reshape(perm.shape + (1,) * (block.ndim - 2)),
                                  axis=1)

    world = dataclasses.replace(scenario, features=permuted(scenario.features),
                                boxes=permuted(scenario.boxes), areas=permuted(scenario.areas),
                                owner=permuted(scenario.owner))
    model = ModelState(state.head, state.classifier, state.image_ids, permuted(state.block))
    assert _reports(model, world, index) == _reports(state, scenario, index)


def test_reports_are_invariant_to_scaling_a_text_embedding(trained_partner_world):
    # Scaling by a power of two is exact, so the unit classifier rows, and
    # with them every guide and region-word pick, are bit-equal.
    scenario, index, config, state = trained_partner_world
    cid = index.concept_ids()[1]
    embeddings = dict(scenario.text_table.embeddings)
    embeddings[cid] = embeddings[cid] * 8.0
    world = dataclasses.replace(scenario, text_table=TextEmbeddingTable(embeddings))
    classifier = init_model(world, index, config).classifier
    assert classifier.weights.tobytes() == state.classifier.weights.tobytes()
    model = ModelState(state.head, classifier, state.image_ids, state.block)
    assert _reports(model, world, index) == _reports(state, scenario, index)


def test_training_and_reports_are_invariant_to_renaming_the_images(trained_partner_world):
    # Image ids are keys only: a renaming that reverses their sorted order
    # trains the same model and scores the same reports.
    scenario, index, config, state = trained_partner_world
    new = {image_id: f"x{len(scenario.image_ids) - r:03d}"
           for r, image_id in enumerate(scenario.image_ids)}
    records = [CaptionRecord(new[r.image_id], r.caption, list(r.concepts))
               for r in scenario.records]
    world = dataclasses.replace(scenario, records=records,
                                image_ids=[new[i] for i in scenario.image_ids])
    renamed = build_concept_index(world.records, world.lexicon, 1)
    assert renamed.groups == {c: [new[i] for i in g] for c, g in index.groups.items()}
    model, _ = run_training(renamed, world, config)
    assert model.block.tobytes() == state.block.tobytes()
    assert model.head.w1.tobytes() == state.head.w1.tobytes()
    assert _reports(model, world, renamed) == _reports(state, scenario, index)


def test_compare_strategies_rejects_features_of_another_world():
    scenario, index = small_world()
    config = TrainConfig(group_size=3, hidden=16, steps=0, eval_interval=0)
    gone = index.groups[index.concept_ids()[0]][0]
    keep = [r for r, image_id in enumerate(scenario.image_ids) if image_id != gone]
    without = dataclasses.replace(scenario, image_ids=[scenario.image_ids[r] for r in keep],
                                  features=scenario.features[keep], areas=scenario.areas[keep],
                                  owner=scenario.owner[keep])
    state = init_model(without, index, config)
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


def test_write_report_json(tmp_path):
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
