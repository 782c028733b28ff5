"""Acceptance suite: ten pinned criteria covering formula exactness, gradient
correctness, oracle agreement, end-to-end discovery quality, ablation
directions, and determinism. Each criterion is one test so the verbose pytest
report shows one pass/fail line per criterion; each enforces its own runtime
budget.
"""

import math
import time

import numpy as np

from codiscover import (
    DiscoveryHead,
    Lexicon,
    OpenVocabClassifier,
    ScenarioConfig,
    TrainConfig,
    ablate,
    build_concept_index,
    compare_strategies,
    finite_diff_check,
    generate_scenario,
    head_forward,
    heuristic_picks,
    init_model,
    parse_corpus,
    run_training,
    sample_mini_group,
    similarity_rows,
    text_guide_weights,
    write_ablation_csv,
)
from codiscover.cli import main

from oracles import region_word_loss, text_guided_similarity, unit_rows


class Stopwatch:
    """Asserts the wrapped block stayed under a wall-clock budget."""

    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.elapsed = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self._start
        if exc_type is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.budget}s"
            )
        return False


def _make_world(scenario_config: ScenarioConfig):
    scenario = generate_scenario(scenario_config)
    index = build_concept_index(scenario.records, scenario.lexicon, 1)
    return scenario, index


def test_criterion_01_guided_similarity_matches_naive_formula():
    """1000 random triples per d in {2, 8, 64} agree with a scalar re-derivation
    within 1e-12, and uniform-magnitude guidance reduces to plain cosine."""
    rng = np.random.default_rng(20260815)
    with Stopwatch(1.0) as watch:
        worst = 0.0
        for d in (2, 8, 64):
            for _ in range(1000):
                f_i = rng.standard_normal(d)
                f_j = rng.standard_normal(d)
                w_c = rng.standard_normal(d)
                got = text_guided_similarity(f_i, f_j, text_guide_weights(w_c))
                # Independent scalar evaluation from the raw vectors.
                ni = math.sqrt(math.fsum(x * x for x in f_i))
                nj = math.sqrt(math.fsum(x * x for x in f_j))
                nw = math.sqrt(math.fsum(x * x for x in w_c))
                naive = math.fsum(
                    math.sqrt(d) * abs(w_c[k]) / nw * (f_i[k] / ni) * (f_j[k] / nj)
                    for k in range(d)
                )
                worst = max(worst, abs(got - naive))
        assert worst < 1e-12

        worst_cosine = 0.0
        for d in (2, 8, 64):
            for _ in range(200):
                f_i = rng.standard_normal(d)
                f_j = rng.standard_normal(d)
                scale = float(rng.uniform(0.1, 5.0))
                signs = rng.choice((-1.0, 1.0), size=d)
                uniform_w = scale * signs
                got = text_guided_similarity(f_i, f_j, text_guide_weights(uniform_w))
                cosine = float(
                    np.dot(f_i, f_j) / (np.linalg.norm(f_i) * np.linalg.norm(f_j))
                )
                worst_cosine = max(worst_cosine, abs(got - cosine))
        assert worst_cosine < 1e-12
    print(f"criterion 1: naive dev {worst:.3e}, cosine dev {worst_cosine:.3e}, "
          f"{watch.elapsed:.2f}s")


def test_criterion_02_vocabulary_loss_matches_naive_bce():
    """Stabilized vocabulary BCE matches the textbook form within 1e-9 for
    logits up to |10|; the all-zero-logit case equals K*ln 2 within 1e-12."""
    rng = np.random.default_rng(7)
    with Stopwatch(1.0) as watch:
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            logits = rng.uniform(-10.0, 10.0, size=k)
            positive = int(rng.integers(0, k))
            # Identity rows turn the prototype directly into the logit vector.
            classifier = OpenVocabClassifier(np.eye(k), list(range(k)))
            got = region_word_loss(logits, classifier, positive)
            naive = 0.0
            for j in range(k):
                sig = 1.0 / (1.0 + math.exp(-logits[j]))
                naive -= math.log(sig) if j == positive else math.log(1.0 - sig)
            worst = max(worst, abs(got - naive))
        assert worst < 1e-9

        worst_zero = 0.0
        for k in (1, 2, 5, 17, 100):
            classifier = OpenVocabClassifier(np.eye(k), list(range(k)))
            got = region_word_loss(np.zeros(k), classifier, 0)
            worst_zero = max(worst_zero, abs(got - k * math.log(2.0)))
        assert worst_zero < 1e-12
    print(f"criterion 2: naive dev {worst:.3e}, zero-logit dev {worst_zero:.3e}, "
          f"{watch.elapsed:.2f}s")


def _single_query_rows(query, supports, guide):
    """Similarity rows (1, n, m*n) of one query (n, d) against m supports."""
    return similarity_rows(unit_rows(query, "query")[None],
                           unit_rows(np.stack(supports), "support")[None], guide)[1]


def test_criterion_03_prototype_is_a_proper_convex_combination():
    """1000 random heads/inputs: weights sum to one, stay positive, and the
    prototype lies in the coordinate-wise hull of the query's regions."""
    rng = np.random.default_rng(11)
    with Stopwatch(5.0) as watch:
        worst_sum = 0.0
        for trial in range(1000):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
            hidden = int(rng.integers(4, 17))
            head = DiscoveryHead.initialize(
                m=m, n=n, hidden=hidden, rng=rng, sorted_rows=bool(trial % 2)
            )
            query = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
            supports = [rng.standard_normal((n, d)) for _ in range(m)]
            guide = text_guide_weights(rng.standard_normal(d))
            rows = _single_query_rows(query, supports, guide)
            p = head_forward(rows, head).p[0]
            f_p = p @ query
            worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
            assert np.all(p > 0.0)
            assert np.all(f_p >= query.min(axis=0) - 1e-12)
            assert np.all(f_p <= query.max(axis=0) + 1e-12)
        assert worst_sum <= 1e-9
    print(f"criterion 3: worst |sum(p)-1| = {worst_sum:.3e}, {watch.elapsed:.2f}s")


def test_criterion_04_analytic_gradients_match_finite_differences():
    """All analytic gradients (head parameters and region features, through
    both loss branches) stay within 1e-4 relative error of central differences
    at eps=1e-5 over 20 random model states."""
    with Stopwatch(30.0) as watch:
        worst = 0.0
        worst_case = None
        for trial in range(20):
            scenario_config = ScenarioConfig(
                num_concepts=3,
                d=5 + trial % 3,
                n=4,
                images_per_concept=4,
                distractor_count=1,
                noise_sigma=0.2,
                multi_concept_rate=0.4,
                seed=trial,
            )
            scenario, index = _make_world(scenario_config)
            train_config = TrainConfig(
                group_size=3,
                mini_groups_per_batch=2,
                steps=1,
                seed=trial,
                hidden=6 + trial % 11,
                sorted_rows=bool(trial % 2),
                eval_interval=0,
            )
            rng = np.random.default_rng(1000 + trial)
            state = init_model(scenario, index, train_config, rng)
            caption_vectors = {
                record.image_id: scenario.text_table.caption_embedding(record.concepts)
                for record in scenario.records
            }
            concepts = index.concept_ids()
            groups = [
                sample_mini_group(index, concepts[int(i)], train_config.group_size, rng)
                for i in rng.integers(0, len(concepts),
                                      size=train_config.mini_groups_per_batch)
            ]
            for selector in ("w1", "b1", "w2", "b2", "features"):
                err = finite_diff_check(
                    state, groups, caption_vectors, train_config, selector,
                    rng=np.random.default_rng(trial),
                )
                if err > worst:
                    worst, worst_case = err, (trial, selector)
        assert worst < 1e-4, f"worst rel err {worst:.3e} at {worst_case}"
    print(f"criterion 4: worst rel err {worst:.3e} at {worst_case}, "
          f"{watch.elapsed:.2f}s")


def test_criterion_05_heuristic_matches_brute_force_enumeration():
    """heuristic_picks agrees with an explicit max-within-support,
    mean-over-supports, argmax loop on 500 random instances and is invariant
    to support order."""
    rng = np.random.default_rng(23)
    with Stopwatch(2.0) as watch:
        for _ in range(500):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            d = int(rng.integers(2, 7))
            query = rng.standard_normal((n, d))
            supports = [rng.standard_normal((n, d)) for _ in range(m)]
            guide = text_guide_weights(rng.standard_normal(d))
            rows = _single_query_rows(query, supports, guide)

            best_index, best_score = 0, -math.inf
            for i in range(n):
                per_support = []
                for j in range(m):
                    block = [rows[0, i, j * n + k] for k in range(n)]
                    per_support.append(max(block))
                score = sum(per_support) / m
                if score > best_score:
                    best_index, best_score = i, score
            assert heuristic_picks(rows)[0] == best_index

            order = rng.permutation(m)
            shuffled = _single_query_rows(query, [supports[int(j)] for j in order], guide)
            assert heuristic_picks(shuffled)[0] == best_index
    print(f"criterion 5: 500 instances matched, {watch.elapsed:.2f}s")


def test_criterion_06_concept_index_matches_brute_force_recount():
    """On a generated 5000-caption corpus the retained concepts and their
    memberships equal an independent recount, including exact min_freq
    boundary behavior."""
    rng = np.random.default_rng(31)
    min_freq = 8
    with Stopwatch(5.0) as watch:
        terms = [f"thing{i:02d}" for i in range(60)]
        fillers = ["a", "the", "near", "shiny", "old", "small", "red", "on"]
        lines = []
        captions = []
        for i in range(5000):
            # Zipf-ish draw so a fair share of terms land under the threshold.
            count = int(rng.integers(1, 4))
            ranks = np.minimum(rng.zipf(1.6, size=count) - 1, len(terms) - 1)
            words = []
            for rank in ranks:
                words.append(str(rng.choice(fillers)))
                words.append(terms[int(rank)])
            captions.append(" ".join(words))

        # Exactly min_freq captions gain a kept marker term; exactly
        # min_freq - 1 gain a dropped one.
        specials = rng.choice(5000, size=2 * min_freq - 1, replace=False)
        for pos in specials[:min_freq]:
            captions[int(pos)] += " boundarykept"
        for pos in specials[min_freq:]:
            captions[int(pos)] += " boundarydrop"
        for i, caption in enumerate(captions):
            lines.append(f"img{i:05d}\t{caption}")

        lexicon = Lexicon(terms + ["boundarykept", "boundarydrop"])
        records = parse_corpus("\n".join(lines))
        index = build_concept_index(records, lexicon, min_freq)

        # Independent recount straight from the caption text.
        term_set = set(lexicon.terms)
        memberships: dict[str, list[str]] = {}
        for i, caption in enumerate(captions):
            seen = set()
            for token in caption.split():
                if token in term_set and token not in seen:
                    seen.add(token)
                    memberships.setdefault(token, []).append(f"img{i:05d}")
        expected = {term: ids for term, ids in memberships.items()
                    if len(ids) >= min_freq}

        got = {index.terms[cid]: members for cid, members in index.groups.items()}
        assert got == expected
        assert all(index.frequencies[cid] == len(index.groups[cid])
                   for cid in index.groups)
        kept_terms = set(got)
        assert "boundarykept" in kept_terms
        assert len(got["boundarykept"]) == min_freq
        assert "boundarydrop" not in kept_terms
        assert len(memberships["boundarydrop"]) == min_freq - 1
    print(f"criterion 6: {len(got)} concepts matched recount, {watch.elapsed:.2f}s")


def test_criterion_07_trained_discovery_beats_untrained_heuristic():
    """On the pinned separable scenario, 2000 steps reach cover >= 0.9 and the
    trained region-region strategy beats the untrained heuristic baseline."""
    with Stopwatch(120.0) as watch:
        scenario_config = ScenarioConfig(
            num_concepts=50,
            d=32,
            n=16,
            images_per_concept=25,
            distractor_count=4,
            noise_sigma=0.05,
            multi_concept_rate=0.3,
            misaligned_text_degrees=50.0,
            seed=3,
        )
        train_config = TrainConfig(
            group_size=8,
            mini_groups_per_batch=4,
            steps=2000,
            seed=7,
            sorted_rows=True,
            eval_interval=0,
        )
        scenario, index = _make_world(scenario_config)
        trained, _ = run_training(index, scenario, train_config)
        trained_report = compare_strategies(
            trained, scenario, index, ("region_region",),
            group_size=train_config.group_size, seed=99,
        )
        untrained = init_model(scenario, index, train_config,
                               np.random.default_rng(train_config.seed))
        heuristic_report = compare_strategies(
            untrained, scenario, index, ("heuristic",),
            group_size=train_config.group_size, seed=99,
        )
        trained_cover = trained_report.cover_rates["region_region"]
        heuristic_cover = heuristic_report.cover_rates["heuristic"]
        assert trained_cover >= 0.9
        assert trained_cover > heuristic_cover
    print(f"criterion 7: trained {trained_cover:.4f} > untrained heuristic "
          f"{heuristic_cover:.4f}, {watch.elapsed:.1f}s")


def test_criterion_08_text_guidance_beats_uniform_weights():
    """On the two-concepts-per-caption scenario the guided runs end at least
    0.05 cover above the unguided runs, averaged over three seeds."""
    with Stopwatch(300.0) as watch:
        gaps = []
        for seed in (0, 1, 2):
            scenario_config = ScenarioConfig(
                num_concepts=16,
                d=32,
                n=16,
                images_per_concept=20,
                distractor_count=4,
                noise_sigma=0.1,
                multi_concept_rate=1.0,
                second_concept="partner",
                seed=seed,
            )
            scenario, index = _make_world(scenario_config)
            covers = {}
            for guided in (True, False):
                train_config = TrainConfig(
                    group_size=4,
                    mini_groups_per_batch=4,
                    steps=600,
                    seed=seed + 100,
                    text_guidance=guided,
                    sorted_rows=True,
                    eval_interval=0,
                )
                state, _ = run_training(index, scenario, train_config)
                report = compare_strategies(
                    state, scenario, index, ("region_region",),
                    group_size=train_config.group_size, seed=seed + 200,
                )
                covers[guided] = report.cover_rates["region_region"]
            gaps.append(covers[True] - covers[False])
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap >= 0.05, f"per-seed gaps {gaps}"
    print(f"criterion 8: guided-minus-unguided gaps {[f'{g:+.3f}' for g in gaps]}, "
          f"mean {mean_gap:+.3f}, {watch.elapsed:.1f}s")


def test_criterion_09_group_size_ablation_completes_and_orders(tmp_path):
    """The group_size ablation over {2, 4, 8} completes, emits a table, and
    size 8 covers at least as well as size 2."""
    with Stopwatch(600.0) as watch:
        scenario_config = ScenarioConfig(
            num_concepts=20,
            d=32,
            n=16,
            images_per_concept=15,
            distractor_count=4,
            noise_sigma=0.3,
            multi_concept_rate=0.3,
            seed=5,
        )
        base_config = TrainConfig(
            group_size=8,
            mini_groups_per_batch=4,
            steps=500,
            seed=9,
            sorted_rows=True,
            eval_interval=0,
        )
        scenario, index = _make_world(scenario_config)
        rows = ablate(index, scenario, base_config, "group_size", (2, 4, 8),
                      eval_seed=31)
        assert [row.value for row in rows] == [2, 4, 8]
        path = tmp_path / "ablate.csv"
        write_ablation_csv(rows, str(path))
        table = path.read_text().splitlines()
        assert table[0] == "axis,value,strategy,cover_rate"
        assert len(table) == 4
        covers = {row.value: row.cover_rates["region_region"] for row in rows}
        assert covers[8] >= covers[2]
    print(f"criterion 9: cover by group_size {covers}, {watch.elapsed:.1f}s")


def test_criterion_10_identical_seed_gives_identical_artifacts(tmp_path):
    """Two CLI training runs from the same master seed produce byte-identical
    metrics CSV and checkpoint files."""
    with Stopwatch(120.0) as watch:
        config = tmp_path / "run.cfg"
        config.write_text(
            "seed = 2026\n"
            "scenario.num_concepts = 6\n"
            "scenario.d = 16\n"
            "scenario.n = 8\n"
            "scenario.images_per_concept = 6\n"
            "scenario.distractor_count = 2\n"
            "scenario.noise_sigma = 0.2\n"
            "train.group_size = 4\n"
            "train.mini_groups_per_batch = 2\n"
            "train.steps = 30\n"
            "train.hidden = 16\n"
            "train.eval_interval = 10\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(config), "--out", str(out_b)]) == 0
        metrics_a = (out_a / "metrics.csv").read_bytes()
        assert metrics_a == (out_b / "metrics.csv").read_bytes()
        checkpoint_a = (out_a / "checkpoint.codc").read_bytes()
        assert checkpoint_a == (out_b / "checkpoint.codc").read_bytes()
        assert len(metrics_a) > 0 and len(checkpoint_a) > 0
    print(f"criterion 10: {len(checkpoint_a)}-byte checkpoints identical, "
          f"{watch.elapsed:.1f}s")
