"""Tests for the synthetic scenario generator and feature/text codecs."""

import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from codiscover import (
    FormatError,
    Scenario,
    ScenarioConfig,
    ScenarioTruth,
    TextEmbeddingTable,
    extract_concepts,
    generate_scenario,
    load_features,
    load_features_tsv,
    load_text_embeddings,
    save_features,
    save_features_tsv,
    save_text_embeddings,
)
from codiscover import scenario as scenario_module
from codiscover._binio import atomic_writer
from codiscover.scenario import _check_rows, concept_term

from oracles import iou


def _random_blocks(rng, count=3, n=4, d=5, with_boxes=False):
    """(image_ids, features, boxes, areas) as the feature savers take them,
    each image's values drawn in turn."""
    features, boxes, areas = [], [], []
    for _ in range(count):
        features.append(rng.standard_normal((n, d)) + 0.1)
        if with_boxes:
            x1 = rng.uniform(0, 50, size=n)
            y1 = rng.uniform(0, 50, size=n)
            w = rng.uniform(1, 5, size=n)
            h = rng.uniform(1, 5, size=n)
            boxes.append(np.stack([x1, y1, x1 + w, y1 + h], axis=1))
            areas.append(w * h)
        else:
            areas.append(rng.uniform(1, 2, size=n))
    return ([f"img{i}" for i in range(count)], np.array(features),
            np.array(boxes) if with_boxes else None, np.array(areas))


FEATURE_SAVERS = ((save_features, load_features, "x.codf"),
                  (save_features_tsv, load_features_tsv, "x.tsv"))


def _one_image(features, boxes=None, areas=None):
    """Blocks of the one image 'a' whose rows are these."""
    return (["a"], *(None if a is None else np.array([a], dtype=float)
                     for a in (features, boxes, areas)))


def _saved_by_both(tmp_path, blocks):
    """What each feature loader reads back of what its saver wrote of blocks."""
    loaded = []
    for save, load, name in FEATURE_SAVERS:
        save(*blocks, str(tmp_path / name))
        loaded.append(load(str(tmp_path / name)))
        (tmp_path / name).unlink()
    return loaded


def _refused_by_both(tmp_path, blocks, message):
    for save, _, name in FEATURE_SAVERS:
        with pytest.raises(ValueError, match=message):
            save(*blocks, str(tmp_path / name))
        assert not (tmp_path / name).exists()


# ---------------------------------------------------------------- containers


def test_atomic_writer_leaves_nothing_when_its_body_raises(tmp_path):
    path = tmp_path / "out.bin"
    with pytest.raises(RuntimeError, match="^mid-write$"):
        with atomic_writer(str(path)) as fh:
            fh.write(b"partial")
            raise RuntimeError("mid-write")
    assert list(tmp_path.iterdir()) == []


def test_feature_savers_refuse_bad_features(tmp_path):
    for (fs,) in _saved_by_both(tmp_path, _one_image([[1.0, 0.0], [0.0, 2.0]])):
        assert fs.features.shape == (2, 2) and fs.boxes is None and fs.areas is None
    for features, message in (
            ([1.0, 2.0], "features must be a non-empty 2-D matrix"),
            ([[1.0, np.nan]], "non-finite feature values"),
            ([[1.0, 1.0], [0.0, 0.0]], "zero feature row"),
            # A row whose squares underflow has zero norm too.
            ([[1.0, 1.0], [1e-200, 1e-200]], "zero feature row")):
        _refused_by_both(tmp_path, _one_image(features), f"^image 'a': {re.escape(message)}$")


def test_feature_savers_refuse_bad_boxes_and_areas(tmp_path):
    features = [[1.0, 0.0], [0.0, 1.0]]
    boxes = [[0.0, 0.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0]]
    for (fs,) in _saved_by_both(tmp_path, _one_image(features, boxes, [6.0, 1.0])):
        assert fs.boxes.shape == (2, 4)
    disagree = "^image 'a': areas disagree with box extents$"
    for box_rows, areas, message in (
            ([[0.0, 0.0, 1.0, 1.0]], None, r"^image 'a': boxes must have shape \(2, 4\)$"),
            ([[0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 2.0, 2.0]], None,
             "^" + re.escape("image 'a': degenerate box (x1<x2, y1<y2 required)") + "$"),
            (None, [1.0, -1.0], "^image 'a': areas must be positive finite$"),
            (boxes, [5.0, 1.0], disagree),
            # Areas must match the extents to 1e-9 relative.
            (boxes, [6.0 * (1 + 2e-9), 1.0], disagree),
            # Finite corners whose extent, or whose extents' product, overflows
            # give no finite area to agree with; the refusal comes without an
            # overflow warning.
            ([[-1e308, 0.0, 1e308, 1e308], [1.0, 1.0, 2.0, 2.0]], [1e308, 1.0], disagree),
            ([[0.0, 0.0, 1e200, 1e200], [1.0, 1.0, 2.0, 2.0]], [1e308, 1.0], disagree)):
        _refused_by_both(tmp_path, _one_image(features, box_rows, areas), message)
    _saved_by_both(tmp_path, _one_image(features, boxes, [6.0 * (1 + 5e-10), 1.0]))


def test_text_embedding_table_lookup_and_caption_proxy():
    table = TextEmbeddingTable({0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])})
    assert np.array_equal(table.vector(1), [0.0, 1.0])
    with pytest.raises(ValueError, match="no text embedding"):
        table.vector(9)
    # [DERIVED] mean of e0 and e1 normalized = (1, 1)/sqrt(2).
    proxy = table.caption_embedding([0, 1])
    assert np.allclose(proxy, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)
    assert abs(np.linalg.norm(proxy) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="no embeddable"):
        table.caption_embedding([])


def test_caption_embedding_rejects_zero_mean():
    table = TextEmbeddingTable({0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])})
    with pytest.raises(ValueError, match="zero vector"):
        table.caption_embedding([0, 1])


def test_caption_embeddings_match_row_by_row_proxies():
    scenario = generate_scenario(ScenarioConfig(num_concepts=6, d=8, n=8, images_per_concept=5,
                                                multi_concept_rate=0.5, seed=4))
    table = scenario.text_table
    lists = [record.concepts for record in scenario.records]
    assert any(len(concepts) > 1 for concepts in lists)
    batch = table.caption_embeddings(lists)
    assert batch.shape == (len(lists), 8)
    for row, concepts in zip(batch, lists):
        assert np.array_equal(row, table.caption_embedding(concepts))
    # The batch raises the one-caption errors.
    with pytest.raises(ValueError, match="no embeddable"):
        table.caption_embeddings([[0], []])
    with pytest.raises(ValueError, match="concept 99 has no text embedding"):
        table.caption_embeddings([[0], [1, 99]])
    opposed = TextEmbeddingTable({0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])})
    with pytest.raises(ValueError, match="zero vector"):
        opposed.caption_embeddings([[0], [0, 1]])


def test_text_embedding_table_rejects_bad_vectors():
    with pytest.raises(ValueError, match="finite nonzero"):
        TextEmbeddingTable({0: np.array([0.0, 0.0])})
    with pytest.raises(ValueError, match="finite nonzero"):
        TextEmbeddingTable({0: np.array([np.inf, 1.0])})


def _hand_owned(owner, with_boxes=False):
    """A generated two-image world, n=3, with the ownership block replaced."""
    scenario = generate_scenario(ScenarioConfig(num_concepts=2, d=4, n=3, images_per_concept=1,
                                                distractor_count=1, with_boxes=with_boxes))
    return dataclasses.replace(scenario, owner=np.array(owner))


def test_scenario_truth_helpers():
    scenario = _hand_owned([[3, 4, 3], [-1, -1, -1]], with_boxes=True)
    img, other = scenario.image_ids
    assert isinstance(scenario.truth, ScenarioTruth)
    pairs = scenario.truth.true_pairs
    assert (1, 4) in pairs[img]
    assert (0, 3) in pairs[img] and (2, 3) in pairs[img]
    assert (1, 3) not in pairs[img]
    assert (0, 9) not in pairs[img]
    assert pairs[other] == set()
    assert "other" not in pairs
    # True boxes are the block's rows, in ascending region order.
    assert set(scenario.truth.gt_boxes) == {(img, 3), (img, 4)}
    first, third = scenario.truth.gt_boxes[(img, 3)]
    assert np.shares_memory(first, scenario.boxes)
    assert first.tolist() == scenario.boxes[0, 0].tolist()
    assert third.tolist() == scenario.boxes[0, 2].tolist()
    assert _hand_owned([[3, 4, 3], [-1, -1, -1]]).truth.gt_boxes == {}


def test_scenario_refuses_a_bad_owner_block():
    for owner in ([[0, -1, 1]], [[0.0, -1.0, 1.0], [1.0, 1.0, -1.0]], [[0, -2, 1], [1, 1, -1]]):
        with pytest.raises(ValueError, match=r"^owner must be an integer block of shape "
                                             r"\(2, 3\) with values >= -1$"):
            _hand_owned(owner)


def test_truth_view_agrees_with_the_owner_block():
    scenario = generate_scenario(ScenarioConfig(num_concepts=6, d=8, n=8, images_per_concept=5,
                                                distractor_count=2, multi_concept_rate=0.3,
                                                with_boxes=True, seed=9))
    owner, truth = scenario.owner, scenario.truth
    assert owner.shape == scenario.features.shape[:2] and (owner < 0).any()
    assert any(len(record.concepts) == 2 for record in scenario.records)
    assert list(truth.true_pairs) == scenario.image_ids
    for r, image_id in enumerate(scenario.image_ids):
        pairs = truth.true_pairs[image_id]
        assert all(owner[r, j] == c for j, c in pairs)
        assert {(j, int(owner[r, j])) for j in np.flatnonzero(owner[r] >= 0)} == pairs
        assert {c for _, c in pairs} == set(scenario.records[r].concepts)
        for c in scenario.records[r].concepts:
            assert np.array_equal(np.array(truth.gt_boxes[(image_id, c)]),
                                  scenario.boxes[r][owner[r] == c])
    assert len(truth.gt_boxes) == sum(len(record.concepts) for record in scenario.records)


def test_scenario_config_validation():
    ScenarioConfig()
    with pytest.raises(ValueError, match="num_concepts"):
        ScenarioConfig(num_concepts=0)
    with pytest.raises(ValueError, match="multi_concept_rate"):
        ScenarioConfig(multi_concept_rate=1.5)
    with pytest.raises(ValueError, match="noise_sigma"):
        ScenarioConfig(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="max_size_bias"):
        ScenarioConfig(max_size_bias=-0.2)
    with pytest.raises(ValueError, match="misaligned"):
        ScenarioConfig(misaligned_text_degrees=-1.0)
    with pytest.raises(ValueError, match="second_concept"):
        ScenarioConfig(second_concept="nearest")
    # Region budget: n must fit the caption concepts plus the distractor floor.
    with pytest.raises(ValueError, match="distractor_count"):
        ScenarioConfig(n=4, distractor_count=4, multi_concept_rate=0.0)
    with pytest.raises(ValueError, match="distractor_count"):
        ScenarioConfig(n=5, distractor_count=4, multi_concept_rate=0.5)
    ScenarioConfig(n=5, distractor_count=4, multi_concept_rate=0.0)


# ---------------------------------------------------------------- generator


def test_generate_scenario_oracle_consistency():
    # With one concept, a caption drawn to name a second one has none to name.
    for config in (ScenarioConfig(num_concepts=6, d=8, n=6, images_per_concept=4,
                                  distractor_count=2, noise_sigma=0.05,
                                  multi_concept_rate=0.5, seed=2),
                   ScenarioConfig(num_concepts=1, d=8, n=6, images_per_concept=4,
                                  distractor_count=2, multi_concept_rate=1.0, seed=2)):
        scenario = generate_scenario(config)
        count = config.num_concepts * config.images_per_concept
        assert len(scenario.feature_sets) == len(scenario.records) == count
        feature_map = scenario.feature_map()

        for record in scenario.records:
            # Captions parse back to exactly the concepts the oracle recorded.
            assert extract_concepts(record.caption, scenario.lexicon) == record.concepts
            assert record.concepts[0] == int(record.image_id.split("_")[1])
            assert len(set(record.concepts)) == len(record.concepts) \
                <= min(2, config.num_concepts)
            fs = feature_map[record.image_id]
            truth_pairs = scenario.truth.true_pairs[record.image_id]
            labelled = {c for _, c in truth_pairs}
            assert labelled == set(record.concepts)
            total_instances = 0
            for cid in record.concepts:
                regions = [r for r, c in truth_pairs if c == cid]
                assert scenario_module._INSTANCES_MIN <= len(regions) \
                    <= scenario_module._INSTANCES_MAX
                total_instances += len(regions)
            # Remaining regions are distractors; the floor is a minimum.
            assert len(fs.features) - total_instances >= config.distractor_count
            assert fs.areas is not None and fs.areas.shape == (config.n,)


def test_generate_scenario_true_regions_cluster_around_prototypes():
    config = ScenarioConfig(
        num_concepts=5, d=16, n=6, images_per_concept=6, distractor_count=2,
        noise_sigma=0.02, multi_concept_rate=0.0, seed=4,
    )
    scenario = generate_scenario(config)
    feature_map = scenario.feature_map()
    # Concepts fit in d, so prototypes are decorrelated and equal the text
    # embeddings (no misalignment configured).
    by_concept = {}
    for image_id, pairs in scenario.truth.true_pairs.items():
        for region, cid in pairs:
            by_concept.setdefault(cid, []).append(feature_map[image_id].features[region])
    for cid, rows in by_concept.items():
        rows = np.stack(rows)
        proto = scenario.text_table.vector(cid)
        # [DERIVED] each true region is prototype + sigma*N(0, I_d); distances
        # concentrate near sigma*sqrt(d)=0.08 and stay below a 6-sigma bound.
        dists = np.linalg.norm(rows - proto, axis=1)
        assert dists.max() < config.noise_sigma * (np.sqrt(config.d) + 6.0)


def test_generated_text_embeddings_are_orthonormal_when_they_fit():
    config = ScenarioConfig(num_concepts=6, d=8, n=6, images_per_concept=2,
                            distractor_count=2, seed=0)
    scenario = generate_scenario(config)
    rows = np.stack([scenario.text_table.vector(c) for c in range(6)])
    gram = rows @ rows.T
    assert np.allclose(gram, np.eye(6), atol=1e-9)


def test_generated_text_embeddings_are_unit_but_correlated_when_they_do_not_fit():
    config = ScenarioConfig(num_concepts=9, d=8, n=6, images_per_concept=1,
                            distractor_count=2, seed=1)
    rows = np.stack([generate_scenario(config).text_table.vector(c) for c in range(9)])
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    gram = rows @ rows.T - np.eye(9)
    assert np.abs(gram).max() > 1e-6  # plain normalized draws stay correlated


def test_misaligned_text_rotates_away_from_prototypes():
    base = dict(num_concepts=40, d=256, n=6, images_per_concept=1,
                distractor_count=2, seed=9)
    aligned = generate_scenario(ScenarioConfig(**base))
    rotated = generate_scenario(ScenarioConfig(**base, misaligned_text_degrees=60.0))
    # Same seed: the prototype draws coincide, so the aligned table exposes
    # the prototypes the rotated table was built from.
    cosines = [
        float(np.dot(aligned.text_table.vector(c), rotated.text_table.vector(c)))
        for c in range(40)
    ]
    # [DERIVED] rotation by 60 degrees against an independent random unit
    # vector: cosine concentrates near 0.5 with O(d^-1/2) spread.
    assert all(0.2 < c < 0.8 for c in cosines)
    assert abs(np.mean(cosines) - 0.5) < 0.05


def test_partner_mode_pairs_adjacent_concepts():
    config = ScenarioConfig(num_concepts=6, d=8, n=6, images_per_concept=3,
                            distractor_count=2, multi_concept_rate=1.0,
                            second_concept="partner", seed=3)
    scenario = generate_scenario(config)
    for record in scenario.records:
        first = record.concepts[0]
        expected = first + 1 if first % 2 == 0 else first - 1
        assert record.concepts == [first, expected]


def test_partner_mode_odd_concept_count_keeps_captions_valid():
    config = ScenarioConfig(num_concepts=5, d=8, n=6, images_per_concept=2,
                            distractor_count=2, multi_concept_rate=1.0,
                            second_concept="partner", seed=3)
    scenario = generate_scenario(config)
    for record in scenario.records:
        assert 1 <= len(record.concepts) <= 2
        if record.concepts[0] == 4:  # the unpaired trailing concept
            assert record.concepts == [4, 3]


def test_max_size_bias_extremes_control_largest_region():
    base = dict(num_concepts=4, d=8, n=6, images_per_concept=5,
                distractor_count=2, seed=6)
    biased = generate_scenario(ScenarioConfig(**base, max_size_bias=1.0))
    for fs in biased.feature_sets:
        largest = int(np.argmax(fs.areas))
        pairs = biased.truth.true_pairs[fs.image_id]
        assert largest in {region for region, _ in pairs}
    unbiased = generate_scenario(ScenarioConfig(**base, max_size_bias=0.0))
    for fs in unbiased.feature_sets:
        largest = int(np.argmax(fs.areas))
        pairs = unbiased.truth.true_pairs[fs.image_id]
        assert largest not in {region for region, _ in pairs}


def test_with_boxes_areas_match_extents_and_truth_boxes_score():
    config = ScenarioConfig(num_concepts=3, d=8, n=6, images_per_concept=4,
                            distractor_count=2, with_boxes=True, seed=8)
    scenario = generate_scenario(config)
    labels = 0
    for fs in scenario.feature_sets:
        extents = (fs.boxes[:, 2] - fs.boxes[:, 0]) * (fs.boxes[:, 3] - fs.boxes[:, 1])
        assert np.array_equal(fs.areas, extents)
        for region, cid in scenario.truth.true_pairs[fs.image_id]:
            gt = scenario.truth.gt_boxes[(fs.image_id, cid)]
            assert any(np.array_equal(fs.boxes[region], g) for g in gt)
            # A label sitting exactly on its ground-truth box has IoU 1 > 0.5.
            assert any(iou(fs.boxes[region], g) > 0.5 for g in gt)
            labels += 1
    assert labels > 0


def test_generate_scenario_is_deterministic_per_seed():
    config = ScenarioConfig(num_concepts=3, d=8, n=6, images_per_concept=2,
                            distractor_count=2, seed=12)
    a = generate_scenario(config)
    b = generate_scenario(config)
    for fa, fb in zip(a.feature_sets, b.feature_sets):
        assert np.array_equal(fa.features, fb.features)
        assert np.array_equal(fa.areas, fb.areas)
    c = generate_scenario(ScenarioConfig(**{**config.__dict__, "seed": 13}))
    assert not np.array_equal(a.feature_sets[0].features, c.feature_sets[0].features)


def test_generate_scenario_builds_its_blocks_in_place():
    # Every image's arrays are views of the world's blocks, and generation
    # holds little beyond the blocks at its peak: building per-image arrays
    # and stacking them would add a second copy of the features.
    config = ScenarioConfig(num_concepts=20, d=64, n=16, images_per_concept=20,
                            with_boxes=True, multi_concept_rate=0.3, seed=5)
    tracemalloc.start()
    try:
        scenario = generate_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = (scenario.features, scenario.boxes, scenario.areas)
    assert scenario.features.shape == (400, 16, 64)
    for r, fs in enumerate(scenario.feature_sets):
        assert scenario.row_of[fs.image_id] == r
        for view, block in zip((fs.features, fs.boxes, fs.areas), blocks):
            assert np.shares_memory(view, block)
    assert peak <= 1.25 * sum(block.nbytes for block in blocks) + 512 * 1024


def test_generate_scenario_peak_memory_stays_at_the_old_generators():
    # Eval-wide's peak_rss_mb is set while its second world is generated, so
    # generation must not grow. The bound is this test's reading (numpy 2.4.6,
    # CPython 3.11.7) under the generator that did its arithmetic inside the
    # per-image loop: 14,642,204 bytes. Moving that arithmetic after the loop
    # adds no (N, n, d) temporary.
    config = ScenarioConfig(num_concepts=400, d=32, n=16, images_per_concept=6,
                            distractor_count=4, noise_sigma=0.05, with_boxes=True)
    generate_scenario(config)  # one-time allocations stay out of the count
    tracemalloc.start()
    try:
        generate_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14_642_204, peak


def test_scenario_names_the_first_bad_image_and_its_first_failed_check():
    config = ScenarioConfig(num_concepts=2, d=4, n=5, images_per_concept=3,
                            distractor_count=2, with_boxes=True, seed=1)
    scenario = generate_scenario(config)
    ids = scenario.image_ids

    def refused(features=scenario.features, boxes=scenario.boxes, areas=scenario.areas):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(scenario, features=features.copy(), boxes=boxes.copy(),
                                areas=areas.copy())
        return str(info.value)

    zero_then_nan = scenario.features.copy()
    zero_then_nan[1, 2] = 0.0
    zero_then_nan[3, 0, 1] = np.nan
    zero_then_nan[3, 4] = 0.0
    assert refused(features=zero_then_nan) == f"image {ids[1]!r}: zero feature row"
    zero_then_nan[1, 2] = 1.0
    assert refused(features=zero_then_nan) == f"image {ids[3]!r}: non-finite feature values"
    flipped = scenario.boxes.copy()
    flipped[4, 1, [0, 2]] = flipped[4, 1, [2, 0]]
    assert refused(boxes=flipped) == \
        f"image {ids[4]!r}: degenerate box (x1<x2, y1<y2 required)"
    areas = scenario.areas.copy()
    areas[2, 3] *= 1.5
    assert refused(areas=areas) == f"image {ids[2]!r}: areas disagree with box extents"
    areas[0, 0] = -1.0
    assert refused(areas=areas) == f"image {ids[0]!r}: areas must be positive finite"
    with pytest.raises(ValueError, match=f"^duplicate image id {re.escape(repr(ids[0]))}$"):
        dataclasses.replace(scenario, image_ids=[ids[0]] * len(ids))
    # The first id seen twice is named, as the savers name it.
    repeated = list(ids)
    repeated[2], repeated[4] = ids[1], ids[0]
    with pytest.raises(ValueError, match=f"^duplicate image id {re.escape(repr(ids[1]))}$"):
        dataclasses.replace(scenario, image_ids=repeated)
    with pytest.raises(ValueError, match="^one feature row per image id needed: 5 rows, 6 ids$"):
        dataclasses.replace(scenario, features=scenario.features[:5])


def test_check_rows_names_the_first_bad_image_past_the_first_chunk(monkeypatch):
    # Values are checked two images at a time here: nine images make four
    # full chunks and one of a single image.
    monkeypatch.setattr(scenario_module, "_CHECK_CHUNK", 2)
    scenario = generate_scenario(ScenarioConfig(num_concepts=3, d=4, n=5, images_per_concept=3,
                                                distractor_count=2, with_boxes=True, seed=4))
    ids, features, boxes, areas = (scenario.image_ids, scenario.features.copy(),
                                   scenario.boxes.copy(), scenario.areas.copy())

    def message():
        with pytest.raises(ValueError) as info:
            _check_rows(ids, features, boxes, areas)
        return str(info.value)

    # Image 5 is the second of the third chunk, and fails two checks; image 7,
    # in the next chunk, fails a check listed earlier than image 5's second.
    features[5, 1, 2] = np.nan
    boxes[5, 0, [0, 2]] = boxes[5, 0, [2, 0]]
    features[7, 3] = 0.0
    assert message() == f"image {ids[5]!r}: non-finite feature values"
    features[5] = scenario.features[5]
    assert message() == f"image {ids[5]!r}: degenerate box (x1<x2, y1<y2 required)"
    boxes[5] = scenario.boxes[5]
    assert message() == f"image {ids[7]!r}: zero feature row"
    features[7] = scenario.features[7]
    areas[8, 0] = -1.0
    assert message() == f"image {ids[8]!r}: areas must be positive finite"
    areas[8] = scenario.areas[8]
    _check_rows(ids, features, boxes, areas)
    # A block of no images passes, as it did unchunked.
    _check_rows([], features[:0], boxes[:0], areas[:0])


def test_check_rows_refuses_a_bad_block_of_no_images():
    # With no image to name, the shape messages stand alone.
    features, flat = np.empty((0, 2, 3)), "features must be a non-empty 2-D matrix"
    for blocks, message in (((np.empty((0, 0, 3)),), flat), ((np.empty((0, 2, 0)),), flat),
                            ((np.empty((0, 4)),), flat),
                            ((features, np.empty((0, 2, 3))), "boxes must have shape (2, 4)"),
                            ((features, None, np.empty((0, 3))), "areas must have shape (2,)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_rows([], *blocks)


def test_check_rows_messages_do_not_depend_on_the_chunk(monkeypatch):
    # Seeded corruptions of one to three cells each: every chunk size names
    # the same image and check as one chunk holding every image.
    scenario = generate_scenario(ScenarioConfig(num_concepts=4, d=3, n=4, images_per_concept=4,
                                                distractor_count=1, with_boxes=True, seed=6))
    rng = np.random.default_rng(11)
    count = len(scenario.image_ids)
    for _ in range(40):
        blocks = [scenario.features.copy(), scenario.boxes.copy(), scenario.areas.copy()]
        for _ in range(int(rng.integers(1, 4))):
            block = blocks[int(rng.integers(3))]
            cell = tuple(int(rng.integers(size)) for size in block.shape)
            block[cell] = rng.choice([np.nan, np.inf, 0.0, -1.0, 1e300])
        messages = set()
        for chunk in (1, 2, 3, count, count + 1):
            monkeypatch.setattr(scenario_module, "_CHECK_CHUNK", chunk)
            try:
                _check_rows(scenario.image_ids, *blocks)
                messages.add(None)
            except ValueError as exc:
                messages.add(str(exc))
        assert len(messages) == 1, messages


def _world_digest(scenario: Scenario) -> str:
    """sha256 of everything a world holds, as little-endian float64 bytes."""
    h = hashlib.sha256()

    def put(*parts):
        for part in parts:
            if isinstance(part, np.ndarray):
                h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
            else:
                h.update(repr(part).encode())

    for fs in scenario.feature_sets:
        put(fs.image_id, fs.features, fs.boxes is None, fs.areas)
        if fs.boxes is not None:
            put(fs.boxes)
    for record in scenario.records:
        put(record.image_id, record.caption, record.concepts)
    for image_id in sorted(scenario.truth.true_pairs):
        put(image_id, sorted(scenario.truth.true_pairs[image_id]))
    for key in sorted(scenario.truth.gt_boxes):
        put(key, *scenario.truth.gt_boxes[key])
    for cid in sorted(scenario.text_table.embeddings):
        put(cid, scenario.text_table.embeddings[cid])
    return h.hexdigest()


@pytest.mark.parametrize("overrides, digest", [
    # Boxes, some captions naming a random second concept.
    (dict(with_boxes=True, multi_concept_rate=0.3),
     "f01a4f175a57a737c23fdec8f41155eac274721c49cc7f3ba219e762ed04c457"),
    # Partner mode with an odd concept count: the last concept pairs backwards.
    (dict(num_concepts=5, multi_concept_rate=0.7, second_concept="partner"),
     "dc71b8862d363dfc57a3a33ad91c3a022c6b453363e3f21da52c14c0333a8246"),
    # Two concepts, both named in every caption: no prototype is left for
    # distractors, which fall back to fresh random directions.
    (dict(num_concepts=2, multi_concept_rate=1.0),
     "58596cea5f6b78244c57772a876ee67f56155958f3e55cf455e96f912377540e"),
    # Text rotated away from the prototypes draws extra directions first.
    (dict(misaligned_text_degrees=35.0, max_size_bias=0.8),
     "61e504ac00b3602d52589c70344a42faff0be02696f98129438763777f747ba1"),
    # Boxes, two named concepts per caption, and the largest region always one
    # of a named concept's instances.
    (dict(with_boxes=True, multi_concept_rate=1.0, max_size_bias=1.0),
     "ddca2643bfc854d72e25e38feea193cc051cf4e0967f7b51190b91be8d4884f9"),
    # Boxes, and the largest region always a distractor.
    (dict(with_boxes=True, max_size_bias=0.0),
     "9aaf47e2c9134249c7989781bbe215d1473f95a031e008421bd059b7b37b2539"),
], ids=["boxes", "partner-odd", "every-concept-named", "rotated-text", "largest-named",
        "largest-distractor"])
def test_generate_scenario_worlds_are_pinned(overrides, digest):
    # A world is defined by the generator's draw order: changing any rng call,
    # its arguments or their order changes every later value. A restructured
    # generator must reproduce these digests exactly.
    config = ScenarioConfig(**{**dict(num_concepts=7, d=6, n=7, images_per_concept=3,
                                      distractor_count=3, seed=21), **overrides})
    assert _world_digest(generate_scenario(config)) == digest


# ------------------------------------------------------------------- codecs


def test_feature_codec_binary_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    for with_boxes in (False, True):
        image_ids, features, boxes, areas = _random_blocks(rng, with_boxes=with_boxes)
        path = tmp_path / f"features_{with_boxes}.codf"
        save_features(image_ids, features, boxes, areas, str(path))
        loaded = load_features(str(path))
        assert [fs.image_id for fs in loaded] == image_ids
        for r, back in enumerate(loaded):
            assert np.array_equal(features[r], back.features)
            assert np.array_equal(areas[r], back.areas)
            if with_boxes:
                assert np.array_equal(boxes[r], back.boxes)
            else:
                assert back.boxes is None


def test_feature_codec_tsv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    blocks = image_ids, features, boxes, areas = _random_blocks(rng, with_boxes=True)
    # Values where repr switches notation or keeps a sign: the exponent
    # boundaries, the smallest subnormal, negative zero and the largest float.
    edge = [1e16, 9.999e-05, 1e-05, 5e-324, -0.0, 1.7976931348623157e308]
    features[1].flat[:len(edge)] = edge
    path = tmp_path / "features.tsv"
    save_features_tsv(*blocks, str(path))
    loaded = load_features_tsv(str(path))
    assert [fs.image_id for fs in loaded] == image_ids
    for r, back in enumerate(loaded):
        for want, got in ((features, back.features), (boxes, back.boxes), (areas, back.areas)):
            assert want[r].tobytes() == got.tobytes()
    # Every row, edge values included, is written value by value with repr.
    expected = ["# CODF-TSV\tn=4\td=5\tboxes=1\tareas=1\n"]
    for i, image_id in enumerate(image_ids):
        for r in range(features.shape[1]):
            expected.append("\t".join([image_id, str(r),
                                       " ".join(repr(float(v)) for v in features[i, r]),
                                       " ".join(repr(float(v)) for v in boxes[i, r]),
                                       repr(float(areas[i, r]))]) + "\n")
    assert path.read_bytes() == "".join(expected).encode()
    assert "img1\t0\t1e+16 9.999e-05 1e-05 5e-324 -0.0\t" in expected[5]
    assert expected[6].startswith("img1\t1\t1.7976931348623157e+308 ")


def _save_both(blocks, tmp_path):
    codf, tsv = tmp_path / "features.codf", tmp_path / "features.tsv"
    save_features(*blocks, str(codf))
    save_features_tsv(*blocks, str(tsv))
    return codf, tsv


def test_feature_loaders_return_rows_of_one_block(tmp_path):
    rng = np.random.default_rng(6)
    for with_boxes in (False, True):
        blocks = _random_blocks(rng, with_boxes=with_boxes)
        for path, load in zip(_save_both(blocks, tmp_path), (load_features, load_features_tsv)):
            first, *_, last = load(str(path))
            # Rows of one block do not overlap, so each is checked against
            # the block that the first set's row is a view of.
            for name in ("features", "boxes", "areas") if with_boxes else ("features", "areas"):
                block = getattr(first, name).base
                assert block.shape[0] == len(blocks[0])
                assert np.shares_memory(block, getattr(last, name))
            if not with_boxes:
                assert first.boxes is None and last.boxes is None


def test_feature_loaders_hold_little_beyond_the_blocks(tmp_path):
    # A cli-sized world: building the blocks from per-image arrays stays
    # within 2.5x the blocks, where keeping every row as Python floats until
    # the end of the file would hold several times more.
    scenario = generate_scenario(ScenarioConfig(num_concepts=60, images_per_concept=10,
                                                d=32, n=16, distractor_count=4,
                                                with_boxes=True, seed=8))
    paths = _save_both((scenario.image_ids, scenario.features, scenario.boxes, scenario.areas),
                       tmp_path)
    blocks = sum(a.nbytes for a in (scenario.features, scenario.boxes, scenario.areas))
    for path, load in zip(paths, (load_features, load_features_tsv)):
        tracemalloc.start()
        try:
            loaded = load(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [fs.image_id for fs in loaded] == scenario.image_ids
        for name in ("features", "boxes", "areas"):
            got = np.stack([getattr(fs, name) for fs in loaded])
            assert got.tobytes() == getattr(scenario, name).tobytes()
        assert peak <= 2.5 * blocks + (1 << 20), (load.__name__, peak / blocks)
        if load is load_features:
            # CODF records are read straight into blocks sized by the header.
            assert peak <= 1.25 * blocks + (1 << 20), peak / blocks


def test_feature_loaders_name_the_first_bad_image(tmp_path):
    rng = np.random.default_rng(7)
    blocks = _random_blocks(rng, count=3, with_boxes=True)
    codf, tsv = _save_both(blocks, tmp_path)
    value = blocks[1][1, 2, 3]
    blob = codf.read_bytes()
    assert blob.count(value.tobytes()) == 1
    codf.write_bytes(blob.replace(value.tobytes(), np.float64(np.nan).tobytes()))
    text = tsv.read_text()
    assert text.count(repr(float(value))) == 1
    tsv.write_text(text.replace(repr(float(value)), "nan"))
    for path, load in ((codf, load_features), (tsv, load_features_tsv)):
        with pytest.raises(ValueError, match="^image 'img1': non-finite feature values$"):
            load(str(path))


def test_feature_loaders_read_a_file_of_no_images(tmp_path):
    import struct

    path = tmp_path / "empty.codf"
    path.write_bytes(b"CODF" + struct.pack("<5I", 1, 0, 4, 5, 3))
    assert load_features(str(path)) == []
    path = tmp_path / "empty.tsv"
    path.write_text("# CODF-TSV\tn=4\td=5\tboxes=1\tareas=1\n")
    assert load_features_tsv(str(path)) == []


def test_save_features_validates_inputs(tmp_path):
    rng = np.random.default_rng(2)
    image_ids, features, boxes, areas = _random_blocks(rng, count=2, n=3, with_boxes=True)
    for blocks, message in (
            (([], features[:0], boxes[:0], areas[:0]), "^no images to save$"),
            ((image_ids[:1], features, boxes, areas),
             "^one feature row per image id needed: 2 rows, 1 ids$"),
            # A block of another image count than the features' is refused.
            ((image_ids, features, boxes[:1], areas),
             r"^image 'img0': boxes must have shape \(3, 4\)$"),
            ((image_ids, features, None, areas[:1]),
             r"^image 'img0': areas must have shape \(3,\)$")):
        _refused_by_both(tmp_path, blocks, message)


def test_feature_savers_refuse_a_repeated_image_id(tmp_path):
    # Both loaders refuse a repeated id, so neither saver writes one.
    rng = np.random.default_rng(9)
    _, features, _, areas = _random_blocks(rng, count=2)
    _refused_by_both(tmp_path, (["img0", "img0"], features, None, areas),
                     "^duplicate image id 'img0'$")


def test_save_features_tsv_rejects_separators_in_image_ids(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "x.tsv"
    for bad in ("a\tb", "a\nb", "a\rb"):
        image_ids, *blocks = _random_blocks(rng, count=2)
        image_ids[1] = bad
        with pytest.raises(ValueError, match=re.escape(f"image id {bad!r} contains a separator")):
            save_features_tsv(image_ids, *blocks, str(path))
        assert not path.exists()


def test_load_features_rejects_corruption(tmp_path):
    rng = np.random.default_rng(3)
    image_ids, *blocks = _random_blocks(rng, count=2)
    path = tmp_path / "features.codf"
    save_features(image_ids, *blocks, str(path))
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.codf"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        load_features(str(bad_magic))

    bad_version = tmp_path / "bad_version.codf"
    bad_version.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(FormatError, match="version"):
        load_features(str(bad_version))

    truncated = tmp_path / "truncated.codf"
    truncated.write_bytes(blob[:-9])
    with pytest.raises(FormatError, match="unexpected end"):
        load_features(str(truncated))

    # An oversized n is caught before a buffer of that size is allocated.
    huge_n = bytearray(blob)
    huge_n[12:16] = (0x7FFFFFFF).to_bytes(4, "little")
    for data, message in ((bytes(huge_n), "unexpected end"), (blob + b"\0", "trailing bytes")):
        bad = tmp_path / "bad.codf"
        bad.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            load_features(str(bad))

    # An image id that is not UTF-8 is a format error, not a decode error.
    at = blob.index(image_ids[0].encode())
    bad.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(FormatError, match="not valid UTF-8"):
        load_features(str(bad))
    bad.write_bytes(blob.replace(b"img1", b"img0"))
    with pytest.raises(FormatError, match="duplicate image id 'img0'"):
        load_features(str(bad))

    # NaN payload passes framing but fails the per-image validation.
    nan_blob = bytearray(blob)
    nan_blob[-8:] = np.array([np.nan]).tobytes()
    nan_path = tmp_path / "nan.codf"
    nan_path.write_bytes(bytes(nan_blob))
    with pytest.raises(ValueError, match="positive finite"):
        load_features(str(nan_path))


def test_load_features_rejects_zero_header_dims(tmp_path):
    import struct

    path = tmp_path / "zero.codf"
    path.write_bytes(b"CODF" + struct.pack("<5I", 1, 0, 0, 5, 0))
    with pytest.raises(FormatError, match="header dimensions"):
        load_features(str(path))


def test_load_features_refuses_a_count_the_file_cannot_hold(tmp_path):
    import struct

    # Blocks are sized by the header's count only once the file is long
    # enough to hold that many records of the shortest kind.
    path = tmp_path / "huge.codf"
    path.write_bytes(b"CODF" + struct.pack("<5I", 1, 2**32 - 1, 1, 1, 0) + b"\0" * 12)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="unexpected end of file"):
            load_features(str(path))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


TSV_HEADER_MESSAGE = ("line 1: expected the header '# CODF-TSV\\tn=N\\td=D\\tboxes=0|1"
                      "\\tareas=0|1' (N, D >= 1, no leading zeros)")


def test_load_features_tsv_rejects_corruption(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("not a header\n")
    with pytest.raises(FormatError, match="header"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=1\td=2\tboxes=0\tareas=0\nimg0\t0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=1\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n")
    with pytest.raises(FormatError, match=f"^{re.escape(TSV_HEADER_MESSAGE)}$"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=1\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n"
                    "img0\t1\t1.0 2.0\n")
    with pytest.raises(FormatError, match="^line 3: image 'img0' needs row labels 0..0 in order; "
                                          "row 1 is labelled '1'$"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=2\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n"
                    "img0\t0\t3.0 4.0\n")
    with pytest.raises(FormatError, match="^line 3: image 'img0' needs row labels 0..1 in order; "
                                          "row 1 is labelled '0'$"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=2\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0 3.0\n")
    with pytest.raises(FormatError, match="line 2.*expected 2 feature values"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=2\td=2\tboxes=0\tareas=0\nimg0\t1\t1.0 2.0\n")
    with pytest.raises(FormatError, match="^line 2: image 'img0' needs row labels 0..1 in order; "
                                          "row 0 is labelled '1'$"):
        load_features_tsv(str(path))
    # An image's rows must be contiguous: one that comes back is refused.
    path.write_text("# CODF-TSV\tn=1\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n"
                    "img1\t0\t1.0 2.0\nimg0\t0\t1.0 2.0\n")
    with pytest.raises(FormatError, match="^line 4: duplicate image id 'img0'$"):
        load_features_tsv(str(path))
    # Rows are kept as they are read, so an n larger than the file holds
    # allocates nothing of size n and is refused when the image ends.
    path.write_text("# CODF-TSV\tn=2147483647\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^image 'img0' has 1 of its 2147483647 rows$"):
            load_features_tsv(str(path))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # Values that are not numbers, and a box of other than 4 values.
    header = "# CODF-TSV\tn=1\td=2\tboxes=1\tareas=1\n"
    for row, message in (("1.0 abc\t0 0 1 1\t1.0", "line 2: could not convert.*'abc'"),
                         ("1.0 2.0\t0 0 x 1\t1.0", "line 2: could not convert.*'x'"),
                         ("1.0 2.0\t0 0 1 1\tbig", "line 2: could not convert.*'big'"),
                         ("1.0 2.0\t0 0 1\t1.0", "line 2: expected 4 box values"),
                         ("1.0 2.0\t1\t1.0", "line 2: expected 4 box values")):
        path.write_text(f"{header}img0\t0\t{row}\n")
        with pytest.raises(FormatError, match=message):
            load_features_tsv(str(path))
    # Flags other than 0 and 1, and a key given twice, are refused on line 1.
    for fields in ("n=1\td=2\tboxes=true\tareas=0", "n=1\td=2\tboxes=0\tareas=",
                   "n=1\td=2\tboxes=0\tn=2\tareas=0"):
        path.write_text(f"# CODF-TSV\t{fields}\nimg0\t0\t1.0 2.0\n")
        with pytest.raises(FormatError, match=f"^{re.escape(TSV_HEADER_MESSAGE)}$"):
            load_features_tsv(str(path))
    for line, data in ((1, b"# CODF-TSV\tn=1\xff\n"), (2, header.encode() + b"\xff\n")):
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^line {line}: not valid UTF-8$"):
            load_features_tsv(str(path))


def test_load_features_tsv_accepts_only_the_writers_grammar(tmp_path):
    path = tmp_path / "features.tsv"
    # An image id may hold any character but a separator; values are ASCII.
    path.write_text("# CODF-TSV\tn=2\td=2\tboxes=0\tareas=1\n"
                    "img\u00e9_1\t0\t1.0 2.0\t0.5\nimg\u00e9_1\t1\t-3.0 4e-05\t2.0\n",
                    encoding="utf-8")
    (loaded,) = load_features_tsv(str(path))
    assert loaded.image_id == "img\u00e9_1"
    assert loaded.features.tolist() == [[1.0, 2.0], [-3.0, 4e-05]]
    assert loaded.boxes is None and loaded.areas.tolist() == [0.5, 2.0]
    # The header is the writer's: its four fields, in order, nothing else;
    # dimensions in ASCII digits with no leading zero.
    for fields in ("n=1\td=2\tboxes=0\tareas=0\txyz\tfoo=bar", "d=2\tn=1\tboxes=0\tareas=0",
                   "n=01\td=2\tboxes=0\tareas=0", "n=\u0661\td=2\tboxes=0\tareas=0",
                   "n=1\td=2\tboxes=0\tareas=0\t", "n=1\td=2\tboxes=0\tarea=1\tareas=0"):
        path.write_text(f"# CODF-TSV\t{fields}\nimg0\t0\t1.0 2.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(TSV_HEADER_MESSAGE)}$"):
            load_features_tsv(str(path))
    # A row's label is the count of its image's rows before it, below n.
    header = "# CODF-TSV\tn=2\td=2\tboxes=0\tareas=0\n"
    for rows, line, k, label in ((("0", "01"), 3, 1, "01"), (("\u0660",), 2, 0, "\u0660"),
                                 (("0", "+1"), 3, 1, "+1"), (("0", "1", "2"), 4, 2, "2")):
        path.write_text(header + "".join(f"img0\t{r}\t1.0 2.0\n" for r in rows),
                        encoding="utf-8")
        message = (f"line {line}: image 'img0' needs row labels 0..1 in order; "
                   f"row {k} is labelled {label!r}")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_features_tsv(str(path))
    # float() reads digit separators and non-ASCII digits; repr writes neither.
    header = "# CODF-TSV\tn=1\td=2\tboxes=1\tareas=1\n"
    for row in ("1_0.0 2.0\t0 0 1 1\t1.0", "1.0 2.0\t0 0 1 1\t\u0662.5",
                "1.0 2.0\t0 0 1_0 1\t10.0"):
        path.write_text(f"{header}img0\t0\t{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 2: values must be ASCII and hold no '_'$"):
            load_features_tsv(str(path))


def test_load_features_tsv_refuses_blank_lines_and_stray_spaces(tmp_path):
    # The writer parts values by one space and writes no blank line; float()
    # and str.split() would read both past it.
    path = tmp_path / "features.tsv"
    header = "# CODF-TSV\tn=2\td=2\tboxes=1\tareas=1\n"
    good = ("img0\t0\t+1E0 .5\t0.0 0.0 1.0 1.0\t1.0\n", "img0\t1\t3.0 4.0\t0.0 0.0 1.0 1.0\t1.0\n")
    path.write_text(header + "".join(good), encoding="utf-8")
    (loaded,) = load_features_tsv(str(path))
    assert loaded.features.tolist() == [[1.0, 0.5], [3.0, 4.0]]  # repr never writes these
    # A blank line is a row of one empty field; between an image's rows it
    # also cuts the image short.
    path.write_text(header + "".join(good) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="^line 4: expected 5 fields$"):
        load_features_tsv(str(path))
    path.write_text(header + good[0] + "\n" + good[1], encoding="utf-8")
    with pytest.raises(FormatError, match="^image 'img0' has 1 of its 2 rows$"):
        load_features_tsv(str(path))
    for values, boxes in (("3.0  4.0", "0.0 0.0 1.0 1.0"), (" 3.0 4.0", "0.0 0.0 1.0 1.0"),
                          ("3.0 4.0 ", "0.0 0.0 1.0 1.0"), ("3.0 4.0", "0.0 0.0  1.0 1.0"),
                          ("3.0 4.0", "0.0 0.0 1.0 1.0 ")):
        path.write_text(f"{header}{good[0]}img0\t1\t{values}\t{boxes}\t1.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 3: could not convert string to float: ''$"):
            load_features_tsv(str(path))
    for area in (" 1.0", "1.0 ", "1.0\x0c"):
        path.write_text(f"{header}{good[0]}img0\t1\t3.0 4.0\t0.0 0.0 1.0 1.0\t{area}\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="^line 3: whitespace around the area value$"):
            load_features_tsv(str(path))


def test_load_features_tsv_refuses_control_characters_in_values(tmp_path):
    # float() strips a form feed or vertical tab at the edge of a value, so
    # "1.0\x0c" would read as 1.0; the writer writes only printable ASCII.
    path = tmp_path / "features.tsv"
    header = "# CODF-TSV\tn=1\td=2\tboxes=1\tareas=1\n"
    for row in ("1.0\x0c 2.0\x0b\t0 0 1 1\t1.0", "1.0 2.0\t0 0\x0b 1 1\t1.0",
                "1.0 \x7f2.0\t0 0 1 1\t1.0", "\x001.0 2.0\t0 0 1 1\t1.0"):
        path.write_text(f"{header}img0\t0\t{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 2: values hold a control character$"):
            load_features_tsv(str(path))


def test_text_embedding_codec_round_trip(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    table = TextEmbeddingTable({cid: rng.standard_normal(6) for cid in (4, 0, 2)})
    path = tmp_path / "text.codt"
    save_text_embeddings(table, str(path))
    loaded = load_text_embeddings(str(path))
    assert loaded.rule_tag == "unit-mean-of-concept-embeddings"
    assert sorted(loaded.embeddings) == [0, 2, 4]
    for cid in table.embeddings:
        assert np.array_equal(table.embeddings[cid], loaded.embeddings[cid])
    # caption_embeddings implements only the unit mean, so a file naming
    # another caption-proxy rule is refused.
    monkeypatch.setattr(TextEmbeddingTable, "rule_tag", "custom-rule")
    save_text_embeddings(table, str(path))
    monkeypatch.undo()
    with pytest.raises(FormatError, match="^unknown caption-proxy rule 'custom-rule'$"):
        load_text_embeddings(str(path))


def test_text_embedding_codec_errors(tmp_path):
    with pytest.raises(ValueError, match="no embeddings"):
        save_text_embeddings(TextEmbeddingTable({}), str(tmp_path / "x.codt"))
    table = TextEmbeddingTable({0: np.ones(3), 1: np.ones(4)})
    with pytest.raises(ValueError, match="inconsistent"):
        save_text_embeddings(table, str(tmp_path / "x.codt"))
    path = tmp_path / "text.codt"
    save_text_embeddings(TextEmbeddingTable({0: np.ones(3)}), str(path))
    blob = path.read_bytes()
    bad = tmp_path / "bad.codt"
    bad.write_bytes(b"CODX" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        load_text_embeddings(str(bad))
    huge_d = bytearray(blob)
    huge_d[12:16] = (0x7FFFFFFF).to_bytes(4, "little")
    tag = blob.index(b"unit-mean")
    for data, message in ((bytes(huge_d), "unexpected end"), (blob + b"\0", "trailing bytes"),
                          (blob[:tag] + b"\xff" + blob[tag + 1:], "not valid UTF-8")):
        bad.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            load_text_embeddings(str(bad))
    # A zero dimension is refused as CODF refuses it, before any record.
    zero_d = bytearray(blob)
    zero_d[12:16] = (0).to_bytes(4, "little")
    bad.write_bytes(bytes(zero_d))
    with pytest.raises(FormatError, match="^invalid header dimension d=0$"):
        load_text_embeddings(str(bad))
    # Two records for one concept id: the header says 2, both are concept 0.
    save_text_embeddings(TextEmbeddingTable({0: np.ones(3), 1: np.ones(3)}), str(path))
    blob = path.read_bytes()
    second = len(blob) - (4 + 8 * 3)
    assert blob[second:second + 4] == (1).to_bytes(4, "little")
    bad.write_bytes(blob[:second] + (0).to_bytes(4, "little") + blob[second + 4:])
    with pytest.raises(FormatError, match="duplicate concept id 0"):
        load_text_embeddings(str(bad))
