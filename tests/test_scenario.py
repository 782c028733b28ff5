"""Tests for the synthetic scenario generator and feature/text codecs."""

import hashlib
import re

import numpy as np
import pytest

from codiscover import (
    FormatError,
    RegionFeatureSet,
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
from codiscover.evaluation import iou
from codiscover.scenario import concept_term


def _random_feature_sets(rng, count=3, n=4, d=5, with_boxes=False):
    sets = []
    for i in range(count):
        features = rng.standard_normal((n, d)) + 0.1
        if with_boxes:
            x1 = rng.uniform(0, 50, size=n)
            y1 = rng.uniform(0, 50, size=n)
            w = rng.uniform(1, 5, size=n)
            h = rng.uniform(1, 5, size=n)
            boxes = np.stack([x1, y1, x1 + w, y1 + h], axis=1)
            areas = w * h
        else:
            boxes = None
            areas = rng.uniform(1, 2, size=n)
        sets.append(RegionFeatureSet(f"img{i}", features, boxes, areas))
    return sets


# ---------------------------------------------------------------- containers


def test_region_feature_set_validation():
    good = RegionFeatureSet("a", [[1.0, 0.0], [0.0, 2.0]])
    assert (good.n, good.d) == (2, 2)
    with pytest.raises(ValueError, match="2-D"):
        RegionFeatureSet("a", [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        RegionFeatureSet("a", [[1.0, np.nan]])
    with pytest.raises(ValueError, match="zero feature row"):
        RegionFeatureSet("a", [[1.0, 1.0], [0.0, 0.0]])
    # A row whose squares underflow has zero norm too.
    with pytest.raises(ValueError, match="zero feature row"):
        RegionFeatureSet("a", [[1.0, 1.0], [1e-200, 1e-200]])


def test_region_feature_set_box_and_area_validation():
    features = [[1.0, 0.0], [0.0, 1.0]]
    boxes = [[0.0, 0.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0]]
    fs = RegionFeatureSet("a", features, boxes, [6.0, 1.0])
    assert fs.boxes.shape == (2, 4)
    with pytest.raises(ValueError, match="shape"):
        RegionFeatureSet("a", features, [[0.0, 0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="degenerate"):
        RegionFeatureSet("a", features, [[0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 2.0, 2.0]])
    with pytest.raises(ValueError, match="positive"):
        RegionFeatureSet("a", features, None, [1.0, -1.0])
    with pytest.raises(ValueError, match="disagree"):
        RegionFeatureSet("a", features, boxes, [5.0, 1.0])
    # Areas must match the extents to 1e-9 relative.
    RegionFeatureSet("a", features, boxes, [6.0 * (1 + 5e-10), 1.0])
    with pytest.raises(ValueError, match="disagree"):
        RegionFeatureSet("a", features, boxes, [6.0 * (1 + 2e-9), 1.0])
    # Finite corners whose extent, or whose extents' product, overflows give no
    # finite area to agree with; the refusal comes without an overflow warning.
    for box in ([-1e308, 0.0, 1e308, 1e308], [0.0, 0.0, 1e200, 1e200]):
        with pytest.raises(ValueError, match="disagree"):
            RegionFeatureSet("a", features, [box, [1.0, 1.0, 2.0, 2.0]], [1e308, 1.0])


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


def test_scenario_truth_helpers():
    truth = ScenarioTruth({"img": {(0, 3), (2, 3), (1, 4)}})
    assert truth.is_true("img", 1, 4)
    assert truth.is_true("img", 0, 3) and truth.is_true("img", 2, 3)
    assert not truth.is_true("img", 1, 3)
    assert not truth.is_true("img", 0, 9)
    assert not truth.is_true("other", 0, 3)


def test_scenario_config_validation():
    ScenarioConfig()
    with pytest.raises(ValueError, match="num_concepts"):
        ScenarioConfig(num_concepts=0)
    with pytest.raises(ValueError, match="multi_concept_rate"):
        ScenarioConfig(multi_concept_rate=1.5)
    with pytest.raises(ValueError, match="noise_sigma"):
        ScenarioConfig(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="instances_min"):
        ScenarioConfig(instances_min=3, instances_max=2)
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
    config = ScenarioConfig(
        num_concepts=6, d=8, n=6, images_per_concept=4, distractor_count=2,
        noise_sigma=0.05, multi_concept_rate=0.5, seed=2,
    )
    scenario = generate_scenario(config)
    assert len(scenario.feature_sets) == 6 * 4
    assert len(scenario.records) == 6 * 4
    feature_map = scenario.feature_map()

    for record in scenario.records:
        # Captions parse back to exactly the concepts the oracle recorded.
        assert extract_concepts(record.caption, scenario.lexicon) == record.concepts
        assert record.concepts[0] == int(record.image_id.split("_")[1])
        fs = feature_map[record.image_id]
        truth_pairs = scenario.truth.true_pairs[record.image_id]
        labelled = {c for _, c in truth_pairs}
        assert labelled == set(record.concepts)
        total_instances = 0
        for cid in record.concepts:
            regions = [r for r, c in truth_pairs if c == cid]
            assert config.instances_min <= len(regions) <= config.instances_max
            total_instances += len(regions)
        # Remaining regions are distractors; the floor is a minimum.
        assert fs.n - total_instances >= config.distractor_count
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
], ids=["boxes", "partner-odd", "every-concept-named", "rotated-text"])
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
        sets = _random_feature_sets(rng, with_boxes=with_boxes)
        path = tmp_path / f"features_{with_boxes}.codf"
        save_features(sets, str(path))
        loaded = load_features(str(path))
        assert [fs.image_id for fs in loaded] == [fs.image_id for fs in sets]
        for orig, back in zip(sets, loaded):
            assert np.array_equal(orig.features, back.features)
            assert np.array_equal(orig.areas, back.areas)
            if with_boxes:
                assert np.array_equal(orig.boxes, back.boxes)
            else:
                assert back.boxes is None


def test_feature_codec_tsv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    sets = _random_feature_sets(rng, with_boxes=True)
    path = tmp_path / "features.tsv"
    save_features_tsv(sets, str(path))
    loaded = load_features_tsv(str(path))
    for orig, back in zip(sets, loaded):
        assert orig.image_id == back.image_id
        assert np.array_equal(orig.features, back.features)
        assert np.array_equal(orig.boxes, back.boxes)
        assert np.array_equal(orig.areas, back.areas)


def test_save_features_validates_inputs(tmp_path):
    with pytest.raises(ValueError, match="no feature sets"):
        save_features([], str(tmp_path / "x.codf"))
    rng = np.random.default_rng(2)
    sets = _random_feature_sets(rng, count=2, n=3)
    sets[1] = RegionFeatureSet("img1", rng.standard_normal((4, 5)) + 3.0)
    with pytest.raises(ValueError, match="inconsistent shape"):
        save_features(sets, str(tmp_path / "x.codf"))
    mixed = _random_feature_sets(rng, count=2)
    mixed[1] = RegionFeatureSet("img1", mixed[1].features, None, None)
    with pytest.raises(ValueError, match="inconsistent optional"):
        save_features(mixed, str(tmp_path / "x.codf"))
    assert not (tmp_path / "x.codf").exists()
    # The debug TSV writer applies the same layout rule.
    with pytest.raises(ValueError, match="inconsistent optional"):
        save_features_tsv(mixed, str(tmp_path / "x.tsv"))
    assert not (tmp_path / "x.tsv").exists()


def test_save_features_tsv_rejects_separators_in_image_ids(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "x.tsv"
    for bad in ("a\tb", "a\nb", "a\rb"):
        sets = _random_feature_sets(rng, count=2)
        sets[1].image_id = bad
        with pytest.raises(ValueError, match=re.escape(f"image id {bad!r} contains a separator")):
            save_features_tsv(sets, str(path))
        assert not path.exists()


def test_load_features_rejects_corruption(tmp_path):
    rng = np.random.default_rng(3)
    sets = _random_feature_sets(rng, count=2)
    path = tmp_path / "features.codf"
    save_features(sets, str(path))
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
    at = blob.index(sets[0].image_id.encode())
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


def test_load_features_tsv_rejects_corruption(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("not a header\n")
    with pytest.raises(FormatError, match="header"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=1\td=2\tboxes=0\tareas=0\nimg0\t0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=1\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n")
    with pytest.raises(FormatError, match="line 1.*no d= field"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=1\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n"
                    "img0\t1\t1.0 2.0\n")
    with pytest.raises(FormatError, match="line 3.*row index '1'"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=2\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n"
                    "img0\t0\t3.0 4.0\n")
    with pytest.raises(FormatError, match="line 3.*duplicate row 0 of image 'img0'"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=2\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0 3.0\n")
    with pytest.raises(FormatError, match="line 2.*expected 2 feature values"):
        load_features_tsv(str(path))
    path.write_text("# CODF-TSV\tn=2\td=2\tboxes=0\tareas=0\nimg0\t1\t1.0 2.0\n")
    with pytest.raises(FormatError, match="image 'img0' has 1 of its 2 rows"):
        load_features_tsv(str(path))
    # An n larger than the file can hold is refused before rows are allocated.
    path.write_text("# CODF-TSV\tn=2147483647\td=2\tboxes=0\tareas=0\nimg0\t0\t1.0 2.0\n")
    with pytest.raises(FormatError, match="line 2: n=2147483647, d=2 do not fit"):
        load_features_tsv(str(path))
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
    for line, data in ((1, b"# CODF-TSV\tn=1\xff\n"), (2, header.encode() + b"\xff\n")):
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^line {line}: not valid UTF-8$"):
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
    # Two records for one concept id: the header says 2, both are concept 0.
    save_text_embeddings(TextEmbeddingTable({0: np.ones(3), 1: np.ones(3)}), str(path))
    blob = path.read_bytes()
    second = len(blob) - (4 + 8 * 3)
    assert blob[second:second + 4] == (1).to_bytes(4, "little")
    bad.write_bytes(blob[:second] + (0).to_bytes(4, "little") + blob[second + 4:])
    with pytest.raises(FormatError, match="duplicate concept id 0"):
        load_text_embeddings(str(bad))
