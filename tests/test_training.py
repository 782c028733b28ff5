"""Tests for the training loop, analytic gradients, and persistence."""

import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from codiscover import (
    FormatError,
    MiniGroup,
    ScenarioConfig,
    TrainConfig,
    build_concept_index,
    caption_batch_loss,
    compare_strategies,
    finite_diff_check,
    generate_scenario,
    head_forward,
    init_model,
    load_checkpoint,
    load_features,
    run_training,
    sample_mini_group,
    save_checkpoint,
    save_features,
    sgd_step,
    similarity_rows,
    text_guide_weights,
    write_metrics_csv,
)
from codiscover.training import (
    GradientBundle,
    _sum_by_owner,
    caption_proxies,
)

from oracles import image_text_loss, region_word_loss, unit_rows


def small_setup(sorted_rows=False, **train_overrides):
    scenario_config = ScenarioConfig(
        num_concepts=4, d=8, n=5, images_per_concept=5, distractor_count=2,
        noise_sigma=0.1, multi_concept_rate=0.5, seed=3,
    )
    scenario = generate_scenario(scenario_config)
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    kwargs = dict(group_size=3, mini_groups_per_batch=2, steps=4, seed=1,
                  hidden=16, eval_interval=2, sorted_rows=sorted_rows)
    kwargs.update(train_overrides)
    return scenario, index, TrainConfig(**kwargs)


def make_batch(scenario, index, config, num_groups=2, seed=5):
    rng = np.random.default_rng(seed)
    concepts = index.concept_ids()
    groups = [
        sample_mini_group(index, concepts[int(rng.integers(len(concepts)))],
                          config.group_size, rng)
        for _ in range(num_groups)
    ]
    return groups, caption_proxies(scenario)


# ------------------------------------------------------------- configuration


def test_train_config_validation():
    TrainConfig()
    cases = [
        ({"group_size": 1}, "group_size"),
        ({"mini_groups_per_batch": 0}, "mini_groups_per_batch"),
        ({"steps": -1}, "steps"),
        ({"learning_rate": -0.1}, "learning_rate"),
        ({"momentum": 1.0}, "momentum"),
        ({"lambda_region_word": -1.0}, "loss weights"),
        ({"lambda_image_text": -0.5}, "loss weights"),
        ({"hidden": 0}, "hidden"),
        ({"temperature": 0.0}, "temperature"),
        ({"eval_interval": -1}, "eval_interval"),
    ]
    for kwargs, pattern in cases:
        with pytest.raises(ValueError, match=pattern):
            TrainConfig(**kwargs)


def test_init_model_builds_consistent_state():
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    assert state.classifier.concept_ids == index.concept_ids()
    for cid in index.concept_ids():
        w = scenario.text_table.vector(cid)
        expected = w / np.linalg.norm(w)
        assert np.allclose(state.classifier.weights[state.classifier.row_of[cid]],
                           expected, atol=1e-12)
    assert state.head.in_dim == (config.group_size - 1) * scenario.features.shape[1]
    assert state.head.hidden == config.hidden
    # Features are an independent learnable copy.
    image_id = scenario.feature_sets[0].image_id
    state.features[image_id][0, 0] += 100.0
    assert scenario.feature_sets[0].features[0, 0] != state.features[image_id][0, 0]


def test_init_model_copies_the_world_block_once():
    # The model's features are views of its own block, which is one copy of
    # the world's: per-image copies stacked into a block would double the peak.
    scenario = generate_scenario(ScenarioConfig(num_concepts=20, d=64, n=16,
                                                images_per_concept=20, seed=5))
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    config = TrainConfig(group_size=3, hidden=16)
    tracemalloc.start()
    try:
        state = init_model(scenario, index, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.image_ids == scenario.image_ids
    assert not np.shares_memory(state.block, scenario.features)
    for image_id, features in state.features.items():
        assert np.shares_memory(features, state.block)
        assert np.array_equal(features, scenario.feature_sets[state.row_of[image_id]].features)
    assert peak <= 1.1 * state.block.nbytes


def test_init_model_rejects_empty_index():
    scenario, _, config = small_setup()
    empty = build_concept_index(scenario.records, scenario.lexicon, min_freq=10**6)
    with pytest.raises(ValueError, match="no concepts"):
        init_model(scenario, empty, config)


# ------------------------------------------------------------------- losses


@pytest.mark.parametrize("sorted_rows", [False, True])
@pytest.mark.parametrize("text_guidance", [True, False])
def test_caption_batch_loss_matches_compositional_reference(sorted_rows, text_guidance):
    # [DERIVED] oracle: rebuild the loss from the public building blocks
    # (Q=1 similarity rows -> head -> prototype -> region-word loss; image-text
    # loss over the deduplicated batch) and compare.
    scenario, index, config = small_setup(sorted_rows=sorted_rows,
                                          text_guidance=text_guidance)
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    loss, _ = caption_batch_loss(state, groups, caption_vectors, config)

    rw_terms = []
    for group in groups:
        row = state.classifier.row_of[group.concept_id]
        w_c = state.classifier.weights[row]
        guide = text_guide_weights(w_c) if text_guidance else np.ones(w_c.size)
        per_position = []
        for q, qid in enumerate(group.image_ids):
            support_ids = [i for j, i in enumerate(group.image_ids) if j != q]
            query = state.features[qid]
            supports = np.stack([state.features[i] for i in support_ids])
            _, rows = similarity_rows(unit_rows(query, "query")[None],
                                      unit_rows(supports, "support")[None], guide)
            p = head_forward(rows, state.head).p[0]
            per_position.append(region_word_loss(p @ query, state.classifier,
                                                 group.concept_id))
        rw_terms.append(sum(per_position) / len(per_position))
    rw_expected = sum(rw_terms) / len(rw_terms)

    batch_ids = []
    for group in groups:
        for image_id in group.image_ids:
            if image_id not in batch_ids:
                batch_ids.append(image_id)
    v = np.stack([state.features[i].mean(axis=0) for i in batch_ids])
    t = np.stack([caption_vectors[i] for i in batch_ids])
    it_expected = image_text_loss(v, t, config.temperature)

    assert loss.region_word == pytest.approx(rw_expected, rel=1e-12)
    assert loss.image_text == pytest.approx(it_expected, rel=1e-12)
    assert loss.total == pytest.approx(
        config.lambda_region_word * rw_expected
        + config.lambda_image_text * it_expected,
        rel=1e-12,
    )


def test_caption_batch_loss_zero_weights_zero_gradients():
    scenario, index, config = small_setup(lambda_region_word=0.0,
                                          lambda_image_text=0.0)
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    loss, grads = caption_batch_loss(state, groups, caption_vectors, config)
    # Components are reported unweighted even when the weights are zero.
    assert loss.total == 0.0
    assert loss.region_word > 0.0
    assert loss.image_text > 0.0
    for arr in (grads.w1, grads.b1, grads.w2, grads.b2):
        assert not np.any(arr)
    assert all(not np.any(g) for g in grads.features.values())


def test_caption_batch_loss_input_validation():
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    with pytest.raises(ValueError, match="no mini-groups"):
        caption_batch_loss(state, [], caption_vectors, config)
    alien = MiniGroup(99, groups[0].image_ids)
    with pytest.raises(ValueError, match="not in classifier"):
        caption_batch_loss(state, [alien], caption_vectors, config)
    short = MiniGroup(groups[1].concept_id, groups[1].image_ids[:2])
    with pytest.raises(ValueError, match="mini-groups of 3 and 2 images in one batch"):
        caption_batch_loss(state, [groups[0], short], caption_vectors, config)
    # Nonzero region rows that sum to zero give a zero image-text vector.
    rows = state.features[groups[0].image_ids[0]]
    rows[-1] = -rows[:-1].sum(axis=0)
    with pytest.raises(ValueError, match="^zero row in the image-text batch$"):
        caption_batch_loss(state, groups, caption_vectors, config)
    rows[0] = 0.0
    with pytest.raises(ValueError, match="zero feature row"):
        caption_batch_loss(state, groups, caption_vectors, config)


def test_caption_batch_loss_names_the_concept_of_a_zero_feature_row():
    # The zero row is in an image of the second group only, so the first query
    # whose images hold it is one of that group's, whose concept is named.
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config, seed=2)
    image_id = next(i for i in groups[1].image_ids if i not in groups[0].image_ids)
    assert groups[0].concept_id != groups[1].concept_id
    state.features[image_id][2] = 0.0
    cid = groups[1].concept_id
    with pytest.raises(ValueError, match=rf"^concept {cid}: zero feature row$"):
        caption_batch_loss(state, groups, caption_vectors, config)


def test_caption_batch_loss_makes_one_call_of_each_core_op(monkeypatch):
    import codiscover.training as training_module

    scenario, index, config = small_setup(sorted_rows=True, mini_groups_per_batch=4)
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config, num_groups=4)
    calls = {}
    for name in ("similarity_rows", "head_forward", "head_backward", "similarity_backward"):
        def counted(*args, _real=getattr(training_module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(training_module, name, counted)
    caption_batch_loss(state, groups, caption_vectors, config)
    assert calls == {"similarity_rows": 1, "head_forward": 1, "head_backward": 1,
                     "similarity_backward": 1}


def test_sum_by_owner_matches_add_at_on_repeated_owners():
    # Two groups of four over five images; image 0 is held twice in the
    # second group, so it is one of its own supports there.
    pos = np.array([0, 1, 2, 1, 3, 0, 0, 4])
    others = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])  # of each position
    supports = pos.reshape(-1, 4)[:, others].ravel()
    assert np.any(supports.reshape(8, 3) == pos[:, None])
    rng = np.random.default_rng(21)
    for owner in (pos, supports, np.concatenate([pos, supports])):
        scale = rng.uniform(0.1, 10.0, (owner.size, 1, 1))
        terms = rng.standard_normal((owner.size, 3, 2)) * scale
        want = np.zeros((6, 3, 2))
        np.add.at(want, owner, terms)
        got = _sum_by_owner(terms, owner, 6)
        assert got.shape == want.shape
        assert np.all(got[5] == 0.0)  # image 5 owns no term
        assert _rel_diff(got, want) <= 1e-15


# ---------------------------------------------------------------- gradients


@pytest.mark.parametrize("sorted_rows", [False, True])
def test_finite_diff_check_passes_all_selectors(sorted_rows):
    scenario, index, config = small_setup(sorted_rows=sorted_rows)
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    for selector in ("w1", "b1", "w2", "b2", "features"):
        err = finite_diff_check(state, groups, caption_vectors, config, selector,
                                num_coords=24, rng=np.random.default_rng(7))
        assert err < 1e-4, (selector, err)


def test_finite_diff_check_flags_a_wrong_gradient(monkeypatch):
    # Sanity check that the checker can fail: report a tampered analytic
    # gradient and confirm the relative error blows up.
    import codiscover.training as training_module

    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    real = training_module.caption_batch_loss

    def tampered(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads.w2 = grads.w2 * 3.0 + 0.01
        return loss, grads

    monkeypatch.setattr(training_module, "caption_batch_loss", tampered)
    err = finite_diff_check(state, groups, caption_vectors, config, "w2",
                            num_coords=8, rng=np.random.default_rng(0))
    assert err > 1e-2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_finite_diff_check_flags_a_non_finite_gradient(monkeypatch, bad):
    # A NaN relative error compares below no bound and above none, so min and
    # max would drop it and the check would read 0.0; it counts as inf.
    import codiscover.training as training_module

    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    real = training_module.caption_batch_loss

    def tampered(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads.w2 = np.full_like(grads.w2, bad)
        return loss, grads

    monkeypatch.setattr(training_module, "caption_batch_loss", tampered)
    err = finite_diff_check(state, groups, caption_vectors, config, "w2",
                            num_coords=8, rng=np.random.default_rng(0))
    assert err == np.inf


@pytest.mark.parametrize("sorted_rows", [False, True])
def test_finite_diff_check_flags_one_w1_entry_off_by_a_thousandth(monkeypatch, sorted_rows):
    # The retries, smaller and larger steps alike, must not absorb a small
    # error in one entry: scaled by 1.001, its relative error is about 5e-4.
    import codiscover.training as training_module

    scenario, index, config = small_setup(sorted_rows=sorted_rows)
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    real = training_module.caption_batch_loss
    entry = np.argmax(np.abs(real(state, groups, caption_vectors, config)[1].w1))

    def scaled(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads.w1.flat[entry] *= 1.001
        return loss, grads

    monkeypatch.setattr(training_module, "caption_batch_loss", scaled)
    err = finite_diff_check(state, groups, caption_vectors, config, "w1",
                            num_coords=state.head.w1.size, rng=np.random.default_rng(0))
    assert 3e-4 < err < 1e-3


def test_finite_diff_check_flags_a_dropped_similarity_path(monkeypatch):
    # A region feature reaches the prototype directly and through the
    # similarity matrix; a backward that loses the second path must fail.
    import codiscover.training as training_module

    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    real = training_module.similarity_backward
    monkeypatch.setattr(training_module, "similarity_backward",
                        lambda *args: tuple(np.zeros_like(g) for g in real(*args)))
    err = finite_diff_check(state, groups, caption_vectors, config, "features",
                            rng=np.random.default_rng(0))
    assert err > 1e-2


def test_finite_diff_check_validates_arguments():
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    groups, caption_vectors = make_batch(scenario, index, config)
    with pytest.raises(ValueError, match="selector"):
        finite_diff_check(state, groups, caption_vectors, config, "w3")
    # A non-finite loss is refused, where every relative error read NaN and passed.
    hot = dataclasses.replace(config, temperature=1e308)
    with pytest.raises(ValueError, match="^non-finite batch loss inf$"):
        finite_diff_check(state, groups, caption_vectors, hot, "w1")


# -------------------------------------------------------------- optimization


def test_sgd_step_momentum_arithmetic():
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    image_id = next(iter(state.features))
    w2_0 = state.head.w2.copy()
    f_0 = state.features[image_id].copy()

    def bundle(value):
        return GradientBundle(
            np.zeros_like(state.head.w1), np.zeros_like(state.head.b1),
            np.full_like(state.head.w2, value), np.zeros_like(state.head.b2),
            {image_id: np.full_like(state.features[image_id], value)},
        )

    lr, momentum = 0.1, 0.5
    velocity = sgd_step(state, bundle(1.0), lr, momentum)
    # [DERIVED] v1 = g1 = 1, p1 = p0 - lr*1.
    assert np.allclose(state.head.w2, w2_0 - lr, atol=1e-15)
    assert np.allclose(state.features[image_id], f_0 - lr, atol=1e-15)
    # The velocity has the head's shapes and one dense feature block shaped
    # like the model's, whose rows for images without a gradient stay zero.
    assert velocity.w1.shape == state.head.w1.shape
    assert velocity.features.shape == state.block.shape
    assert not np.delete(velocity.features, state.row_of[image_id], axis=0).any()
    velocity = sgd_step(state, bundle(2.0), lr, momentum, velocity)
    # [DERIVED] v2 = 0.5*1 + 2 = 2.5, p2 = p1 - lr*2.5.
    assert np.allclose(state.head.w2, w2_0 - lr - lr * 2.5, atol=1e-15)
    assert np.allclose(state.features[image_id], f_0 - lr - lr * 2.5, atol=1e-15)
    assert np.allclose(velocity.w2, 2.5, atol=1e-15)


def test_sgd_step_rejects_non_finite_updates():
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    bad = GradientBundle(
        np.full_like(state.head.w1, np.inf), np.zeros_like(state.head.b1),
        np.zeros_like(state.head.w2), np.zeros_like(state.head.b2), {},
    )
    with pytest.raises(ValueError, match="non-finite head parameter w1"):
        sgd_step(state, bad, 0.1, 0.9)
    image_id = next(iter(state.features))
    state.head.w1[...] = 0.0  # the failed update left w1 non-finite
    bad.w1 = np.zeros_like(state.head.w1)
    bad.features = {image_id: np.full_like(state.features[image_id], np.nan)}
    with pytest.raises(ValueError, match=f"non-finite features for image {image_id!r}"):
        sgd_step(state, bad, 0.1, 0.9)


# ------------------------------------------------------------- training loop


def _trained_state_digest(sorted_rows):
    # 50 steps of a criterion-7-shaped run: K=8, B=4. The digest pins the
    # trained head and features bit for bit, so a change to the step's
    # arithmetic, such as the order of a sum or of the feature update, moves it.
    scenario = generate_scenario(ScenarioConfig(
        num_concepts=50, d=32, n=16, images_per_concept=25, distractor_count=4,
        noise_sigma=0.05, multi_concept_rate=0.3, misaligned_text_degrees=50.0, seed=3))
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    config = TrainConfig(group_size=8, mini_groups_per_batch=4, steps=50, seed=7,
                         sorted_rows=sorted_rows, hidden=128, eval_interval=0)
    state, _ = run_training(index, scenario, config)
    h = hashlib.sha256()
    for arr in (state.head.w1, state.head.b1, state.head.w2, state.head.b2):
        h.update(arr.tobytes())
    for fs in scenario.feature_sets:
        h.update(fs.image_id.encode())
        h.update(state.features[fs.image_id].tobytes())
    return h.hexdigest()


def test_trained_state_is_pinned():
    digest = "cf94c8168a99fa238138c8f13e84f6ef466354588be6b94518a43f9ef179362b"
    assert _trained_state_digest(sorted_rows=True) == digest


def test_unsorted_trained_state_is_pinned():
    digest = "fc9a54dddcdcf1171253be486765117aef31934ba2eac00e86502fb238531dcd"
    assert _trained_state_digest(sorted_rows=False) == digest


def test_run_training_metric_schedule_and_determinism():
    scenario, index, config = small_setup(steps=5, eval_interval=2)
    state_a, metrics_a = run_training(index, scenario, config, eval_seed=11)
    assert [row.step for row in metrics_a] == [1, 2, 3, 4, 5]
    # Cover rate appears at interval steps and always on the final step.
    assert [row.cover_rate is not None for row in metrics_a] == [
        False, True, False, True, True,
    ]
    for row in metrics_a:
        assert math.isfinite(row.total_loss)
        assert row.total_loss == pytest.approx(
            config.lambda_region_word * row.region_word_loss
            + config.lambda_image_text * row.image_text_loss, rel=1e-12,
        )
    state_b, metrics_b = run_training(index, scenario, config, eval_seed=11)
    for a, b in zip(metrics_a, metrics_b):
        assert a.total_loss == b.total_loss  # bitwise reproducibility
        assert a.cover_rate == b.cover_rate
    assert np.array_equal(state_a.head.w1, state_b.head.w1)
    for image_id in state_a.features:
        assert np.array_equal(state_a.features[image_id], state_b.features[image_id])


def test_run_training_eval_interval_zero_disables_eval():
    scenario, index, config = small_setup(steps=3, eval_interval=0)
    _, metrics = run_training(index, scenario, config, eval_seed=11)
    assert all(row.cover_rate is None for row in metrics)


def test_run_training_stops_at_a_non_finite_batch_loss():
    # A temperature of 1e308 overflows the first batch's BCE logits; the
    # refusal names the step.
    scenario, index, config = small_setup(steps=2, eval_interval=0, temperature=1e308)
    with pytest.raises(ValueError, match="^step 1: non-finite batch loss inf$"):
        run_training(index, scenario, config)


def test_numeric_faults_are_refused_without_a_warning():
    # Each overflow ends in one ValueError, with no RuntimeWarning before it.
    # A learning rate of 1e308 leaves finite parameters after step 1 and
    # overflows the prototype logits of step 2.
    world = dict(num_concepts=4, d=8, n=5, images_per_concept=5, distractor_count=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for overrides, message in (({"temperature": 1e308},
                                    "^step 1: non-finite batch loss inf$"),
                                   ({"learning_rate": 1e308},
                                    "^step 2: non-finite prototype logits$")):
            scenario, index, config = small_setup(steps=2, eval_interval=0, **overrides)
            with pytest.raises(ValueError, match=message):
                run_training(index, scenario, config)
        with pytest.raises(ValueError, match="^image 'img_000_000': non-finite feature values$"):
            generate_scenario(ScenarioConfig(**world, noise_sigma=1e308))


def test_run_training_default_eval_seed_is_derived_from_master():
    scenario, index, config = small_setup(steps=2, eval_interval=1)
    derived = int(np.random.SeedSequence(entropy=config.seed,
                                         spawn_key=(1,)).generate_state(1)[0])
    _, implicit = run_training(index, scenario, config)
    _, explicit = run_training(index, scenario, config, eval_seed=derived)
    assert [r.cover_rate for r in implicit] == [r.cover_rate for r in explicit]


def test_training_reduces_loss_on_easy_scenario():
    scenario_config = ScenarioConfig(
        num_concepts=4, d=8, n=5, images_per_concept=6, distractor_count=2,
        noise_sigma=0.05, multi_concept_rate=0.0, seed=7,
    )
    scenario = generate_scenario(scenario_config)
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    config = TrainConfig(group_size=3, mini_groups_per_batch=2, steps=60,
                         seed=2, hidden=16, eval_interval=0)
    _, metrics = run_training(index, scenario, config, eval_seed=5)
    first = np.mean([r.region_word_loss for r in metrics[:5]])
    last = np.mean([r.region_word_loss for r in metrics[-5:]])
    assert last < first


# -------------------------------------------------------------- persistence


def test_write_metrics_csv_round_trips_floats(tmp_path):
    scenario, index, config = small_setup(steps=3, eval_interval=2)
    _, metrics = run_training(index, scenario, config, eval_seed=11)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,total_loss,region_word_loss,image_text_loss,cover_rate"
    assert len(lines) == 1 + len(metrics)
    for row, line in zip(metrics, lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == row.step
        assert float(fields[1]) == row.total_loss  # repr round-trip is exact
        assert float(fields[2]) == row.region_word_loss
        assert float(fields[3]) == row.image_text_loss
        if row.cover_rate is None:
            assert fields[4] == ""
        else:
            assert float(fields[4]) == row.cover_rate


def test_checkpoint_round_trip_is_exact(tmp_path):
    scenario, index, config = small_setup(steps=2, eval_interval=0, sorted_rows=True)
    state, _ = run_training(index, scenario, config, eval_seed=11)
    path = tmp_path / "checkpoint.codc"
    save_checkpoint(state, str(path))
    loaded = load_checkpoint(str(path))
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(loaded.head, name), getattr(state.head, name))
    assert loaded.head.sorted_rows is True
    assert loaded.classifier.concept_ids == state.classifier.concept_ids
    assert np.array_equal(loaded.classifier.weights, state.classifier.weights)
    assert set(loaded.features) == set(state.features)
    for image_id in state.features:
        assert np.array_equal(loaded.features[image_id], state.features[image_id])


@pytest.mark.parametrize("sorted_rows", [False, True])
@pytest.mark.parametrize("text_guidance", [True, False])
def test_checkpoint_flag_bits_0_1_are_written_set_and_ignored(tmp_path, sorted_rows,
                                                              text_guidance):
    scenario, index, config = small_setup(sorted_rows=sorted_rows, text_guidance=text_guidance)
    state = init_model(scenario, index, config)
    path = tmp_path / "checkpoint.codc"
    save_checkpoint(state, str(path))
    blob = path.read_bytes()
    # Header u32s after the magic: version, hidden, in_dim, d, k, n, flags. Bit 3
    # marks an unguided classifier, so a file of an older writer loads as guided.
    high = (sorted_rows << 2) | ((not text_guidance) << 3)
    assert int.from_bytes(blob[28:32], "little") == 3 | high
    # Older writers cleared bits 0-1 for a frozen head or frozen features.
    cleared = tmp_path / "cleared.codc"
    cleared.write_bytes(blob[:28] + high.to_bytes(4, "little") + blob[32:])
    a, b = load_checkpoint(str(path)), load_checkpoint(str(cleared))
    assert a.head.sorted_rows is b.head.sorted_rows is sorted_rows
    assert a.classifier.text_guidance is b.classifier.text_guidance is text_guidance
    assert np.array_equal(a.classifier.guides, state.classifier.guides)
    assert np.array_equal(b.classifier.guides, state.classifier.guides)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a.head, name), getattr(b.head, name))
    assert a.classifier.concept_ids == b.classifier.concept_ids
    assert np.array_equal(a.classifier.weights, b.classifier.weights)
    assert list(a.features) == list(b.features)
    assert all(np.array_equal(a.features[i], b.features[i]) for i in a.features)


def test_checkpoint_rejects_corruption(tmp_path):
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    path = tmp_path / "checkpoint.codc"
    save_checkpoint(state, str(path))
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.codc"
    bad_magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(str(bad_magic))

    bad_version = tmp_path / "bad_version.codc"
    bad_version.write_bytes(blob[:4] + b"\x2a\x00\x00\x00" + blob[8:])
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(str(bad_version))

    truncated = tmp_path / "truncated.codc"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="unexpected end"):
        load_checkpoint(str(truncated))

    # Header u32s after the magic: version, hidden, in_dim, d, k, n, flags.
    for field, offset in (("hidden", 8), ("in_dim", 12), ("n", 24)):
        huge = bytearray(blob)
        huge[offset:offset + 4] = (0x7FFFFFFF).to_bytes(4, "little")
        bad = tmp_path / f"huge_{field}.codc"
        bad.write_bytes(bytes(huge))
        with pytest.raises(FormatError, match="unexpected end"):
            load_checkpoint(str(bad))
    # A head of no hidden units (its w1, b1 and w2 cut) picks region 0 for
    # every query; a feature block of no proposals cannot be scored.
    zero_hidden = tmp_path / "zero_hidden.codc"
    zero_hidden.write_bytes(blob[:8] + bytes(4) + blob[12:32]
                            + blob[32 + 8 * (state.head.w1.size + 2 * state.head.hidden):])
    with pytest.raises(ValueError, match=r"^head dimensions hidden=0, in_dim=\d+ must be >= 1$"):
        load_checkpoint(str(zero_hidden))
    # The bytes of an (R, 0, d) block, which save_checkpoint refuses: header
    # n = 0 and records of ids only.
    no_proposals = tmp_path / "no_proposals.codc"
    d = state.block.shape[2]
    records = blob.index(state.image_ids[0].encode()) - 4
    ids_only = b"".join(len(i).to_bytes(4, "little") + i for i in map(str.encode, state.image_ids))
    no_proposals.write_bytes(blob[:24] + bytes(4) + blob[28:records] + ids_only)
    with pytest.raises(FormatError, match=rf"^invalid header dimensions n=0, d={d}$"):
        load_checkpoint(str(no_proposals))
    trailing = tmp_path / "trailing.codc"
    trailing.write_bytes(blob + b"\0")
    with pytest.raises(FormatError, match="trailing bytes"):
        load_checkpoint(str(trailing))
    at = blob.index(next(iter(state.features)).encode())
    trailing.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(FormatError, match="not valid UTF-8"):
        load_checkpoint(str(trailing))
    # A second record under the first image's id (ids of equal length).
    first, second = (image_id.encode() for image_id in list(state.features)[:2])
    trailing.write_bytes(blob.replace(second, first))
    with pytest.raises(FormatError, match=f"duplicate image id {first.decode()!r}"):
        load_checkpoint(str(trailing))
    # The last feature value of the last image, then a classifier weight.
    last = list(state.features)[-1]
    nan = np.array([np.nan], "<f8").tobytes()
    trailing.write_bytes(blob[:-8] + nan)
    with pytest.raises(ValueError, match=f"^image {last!r}: non-finite feature values$"):
        load_checkpoint(str(trailing))
    head = state.head
    at = 32 + 8 * (head.w1.size + head.b1.size + head.w2.size + 1) \
        + 4 * len(state.classifier.concept_ids)
    assert blob[at:at + 8] == state.classifier.weights[0, :1].astype("<f8").tobytes()
    trailing.write_bytes(blob[:at] + nan + blob[at + 8:])
    with pytest.raises(ValueError, match="unit-normalized"):
        load_checkpoint(str(trailing))


def test_save_checkpoint_refuses_what_load_checkpoint_refuses(tmp_path):
    # A repeated image id and a non-finite or zero feature row are refused with
    # the loader's messages; a block of no proposals or of another width than
    # the classifier's, which the loader cannot read, is refused too. No file
    # is left at the path.
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    path = tmp_path / "checkpoint.codc"
    rows, n, d = state.block.shape
    repeated = dataclasses.replace(state, image_ids=["a", "a"], block=state.block[:2])
    nan, zero = state.block.copy(), state.block.copy()
    nan[3, 1, 2] = np.nan
    zero[4, 2] = 0.0
    for bad, message in ((repeated, "duplicate image id 'a'"),
                         (dataclasses.replace(state, block=nan),
                          f"image {state.image_ids[3]!r}: non-finite feature values"),
                         (dataclasses.replace(state, block=zero),
                          f"image {state.image_ids[4]!r}: zero feature row"),
                         (dataclasses.replace(state, block=np.empty((rows, 0, d))),
                          f"image {state.image_ids[0]!r}: features must be a non-empty "
                          "2-D matrix"),
                         (dataclasses.replace(state, block=np.ones((rows, n, d + 1))),
                          f"feature rows of width {d + 1} do not match the classifier "
                          f"width {d}")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_checkpoint(bad, str(path))
        assert not path.exists() and not list(tmp_path.iterdir())


def test_load_checkpoint_refuses_a_bad_row_as_load_features_does(tmp_path):
    # The last image's last feature row zeroed in a checkpoint and in a CODF
    # file of the same block: both loaders raise the same ValueError.
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    d = state.block.shape[2]
    checkpoint, codf = tmp_path / "checkpoint.codc", tmp_path / "features.codf"
    save_checkpoint(state, str(checkpoint))
    save_features(state.image_ids, state.block, None, None, str(codf))
    message = f"^image {state.image_ids[-1]!r}: zero feature row$"
    for path, load in ((checkpoint, load_checkpoint), (codf, load_features)):
        path.write_bytes(path.read_bytes()[:-8 * d] + bytes(8 * d))
        with pytest.raises(ValueError, match=message):
            load(str(path))


def test_model_features_are_block_rows_that_cannot_be_rebound(tmp_path):
    # No image can take another shape: the mapping refuses a rebinding, and an
    # edit through an image's view is an edit of the block that save_checkpoint
    # writes.
    scenario, index, config = small_setup()
    state = init_model(scenario, index, config)
    image_id = list(state.features)[1]
    with pytest.raises(TypeError):
        state.features[image_id] = np.ones((2, 2))
    state.features[image_id][0, 0] = 7.0
    assert state.block[state.row_of[image_id], 0, 0] == 7.0
    path = str(tmp_path / "checkpoint.codc")
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.image_ids == state.image_ids
    assert np.array_equal(loaded.block, state.block)


def test_library_paths_leave_the_feature_mapping_unbuilt(tmp_path):
    # Evaluation and the features gradient check read block rows by row_of;
    # the mapping is built on first read, and its views then write through.
    scenario, index, config = small_setup()
    path = str(tmp_path / "checkpoint.codc")
    save_checkpoint(init_model(scenario, index, config), path)
    groups, captions = make_batch(scenario, index, config)
    for state in (init_model(scenario, index, config), load_checkpoint(path)):
        compare_strategies(state, scenario, index, group_size=config.group_size, seed=3)
        assert finite_diff_check(state, groups, captions, config, "features",
                                 num_coords=8) < 1e-4
        assert "features" not in vars(state)
        image_id = state.image_ids[2]
        state.features[image_id][1, 0] = 5.0
        assert state.block[2, 1, 0] == 5.0
        assert state.features is state.features


# ------------------------------------------- equivalence with the loop oracle


def _loop_head_forward(values, head):
    """Per-query MLP + softmax over (n, m*n) rows, each block sorted by its own
    argsort: the loop form the batched core.head_forward replaced."""
    n = values.shape[0]
    perms = None
    net = values
    if head.sorted_rows:
        perms, cols = [], []
        for k in range(head.in_dim // n):
            block = values[:, k * n : (k + 1) * n]
            idx = np.argsort(-block, axis=1)
            cols.append(np.take_along_axis(block, idx, axis=1))
            perms.append(idx)
        net = np.concatenate(cols, axis=1)
    z1 = net @ head.w1.T + head.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ head.w2 + head.b2[0]
    exp = np.exp(logits - logits.max())
    return net, z1, hidden, exp / exp.sum(), perms


def _loop_caption_batch_loss(state, mini_groups, caption_vectors, config):
    """The caption-branch loss and gradients written as Python loops over
    groups x query positions x support blocks: the oracle for the batched
    caption_batch_loss."""
    from codiscover.core import sigmoid, softplus

    head = state.head
    weights = state.classifier.weights
    batch_ids = list(dict.fromkeys(i for g in mini_groups for i in g.image_ids))
    raw = {i: state.features[i] for i in batch_ids}
    norms = {i: np.linalg.norm(raw[i], axis=1, keepdims=True) for i in batch_ids}
    hat = {i: raw[i] / norms[i] for i in batch_ids}
    grads = {"w1": np.zeros_like(head.w1), "b1": np.zeros_like(head.b1),
             "w2": np.zeros_like(head.w2), "b2": np.zeros_like(head.b2)}
    gfeat = {i: np.zeros_like(raw[i]) for i in batch_ids}
    ghat = {i: np.zeros_like(raw[i]) for i in batch_ids}
    num_groups = len(mini_groups)
    rw_mean = 0.0
    for group in mini_groups:
        row = state.classifier.row_of[group.concept_id]
        guide = (text_guide_weights(weights[row]) if config.text_guidance
                 else np.ones(weights.shape[1]))
        ids = group.image_ids
        scale = config.lambda_region_word / (num_groups * len(ids))
        group_total = 0.0
        for q in range(len(ids)):
            qid = ids[q]
            support_ids = [ids[j] for j in range(len(ids)) if j != q]
            qw = hat[qid] * guide
            values = np.concatenate([qw @ hat[sid].T for sid in support_ids], axis=1)
            net, z1, hidden, p, perms = _loop_head_forward(values, head)
            f_p = p @ raw[qid]
            s = weights @ f_p
            group_total += float(softplus(-s[row]) + softplus(s).sum() - softplus(s[row]))
            ds = sigmoid(s)
            ds[row] -= 1.0
            ds *= scale
            dfp = weights.T @ ds
            dp = raw[qid] @ dfp
            gfeat[qid] += np.outer(p, dfp)
            dlogits = p * (dp - p @ dp)
            grads["w2"] += hidden.T @ dlogits
            grads["b2"] += dlogits.sum()
            dz1 = np.outer(dlogits, head.w2) * (z1 > 0.0)
            grads["w1"] += dz1.T @ net
            grads["b1"] += dz1.sum(axis=0)
            dnet = dz1 @ head.w1
            n = values.shape[0]
            dvalues = dnet
            if perms is not None:
                dvalues = np.empty_like(dnet)
                for k, idx in enumerate(perms):
                    np.put_along_axis(dvalues[:, k * n : (k + 1) * n], idx,
                                      dnet[:, k * n : (k + 1) * n], axis=1)
            dqw = np.zeros_like(qw)
            for k, sid in enumerate(support_ids):
                dblock = dvalues[:, k * n : (k + 1) * n]
                dqw += dblock @ hat[sid]
                ghat[sid] += dblock.T @ qw
            ghat[qid] += dqw * guide
        rw_mean += group_total / len(ids)
    rw_mean /= num_groups

    v = np.stack([raw[i].mean(axis=0) for i in batch_ids])
    t = np.stack([caption_vectors[i] for i in batch_ids])
    vnorm = np.linalg.norm(v, axis=1, keepdims=True)
    vhat, that = v / vnorm, t / np.linalg.norm(t, axis=1, keepdims=True)
    logits = config.temperature * (vhat @ that.T)
    diag = np.diag(logits)
    batch = len(batch_ids)
    it_loss = float((softplus(-diag).sum() + softplus(logits).sum() - softplus(diag).sum())
                    / batch)
    dlogits = sigmoid(logits)
    dlogits[np.diag_indices(batch)] -= 1.0
    dlogits *= config.lambda_image_text / batch
    dvhat = config.temperature * (dlogits @ that)
    dv = (dvhat - (dvhat * vhat).sum(axis=1, keepdims=True) * vhat) / vnorm
    for a, i in enumerate(batch_ids):
        gfeat[i] += dv[a] / raw[i].shape[0]
    for i in batch_ids:
        proj = (ghat[i] * hat[i]).sum(axis=1, keepdims=True)
        gfeat[i] += (ghat[i] - proj * hat[i]) / norms[i]
    return rw_mean, it_loss, grads, gfeat


def _rel_diff(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("group_size", [2, 3, 8])
@pytest.mark.parametrize("sorted_rows", [False, True])
@pytest.mark.parametrize("text_guidance", [True, False])
def test_caption_batch_loss_matches_loop_oracle(group_size, sorted_rows, text_guidance):
    scenario, index, config = small_setup(sorted_rows=sorted_rows, text_guidance=text_guidance,
                                          group_size=group_size, lambda_region_word=1.0)
    state = init_model(scenario, index, config)
    # Members are 5 per concept, so K=8 draws with replacement; the extra
    # group repeats an image by hand at every K.
    groups, caption_vectors = make_batch(scenario, index, config, num_groups=3)
    cid = index.concept_ids()[1]
    members = index.groups[cid]
    groups.append(MiniGroup(cid, [members[0]] + [members[j % len(members)]
                                                 for j in range(group_size - 1)]))
    assert any(len(set(g.image_ids)) < len(g.image_ids) for g in groups)

    loss, grads = caption_batch_loss(state, groups, caption_vectors, config)
    rw, it, head_grads, feature_grads = _loop_caption_batch_loss(
        state, groups, caption_vectors, config)
    assert loss.region_word == pytest.approx(rw, rel=1e-10)
    assert loss.image_text == pytest.approx(it, rel=1e-10)
    for name in ("w1", "b1", "w2"):
        assert _rel_diff(getattr(grads, name), head_grads[name]) <= 1e-10, name
    # The softmax is shift-invariant: b2's gradient is rounding noise around 0.
    assert np.max(np.abs(grads.b2 - head_grads["b2"])) <= 1e-12
    assert list(grads.features) == list(feature_grads)
    for image_id, want in feature_grads.items():
        assert _rel_diff(grads.features[image_id], want) <= 1e-10, image_id
