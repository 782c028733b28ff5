"""train-c7: `run_training` on the criterion-7 world.

World: 50 concepts x 25 images, d=32, n=16, 4 distractors, sigma=0.05,
multi-concept rate 0.3, text rotated 50 degrees from the prototypes. Training:
K=8, B=4, sorted rows, hidden 128, no evaluation during training.

A timed block is one `run_training` call of BLOCK_STEPS steps from the same
seed, so every block does the same work and ends in the same state. An item
is one mini-group; an operation is one training step.
"""

from __future__ import annotations

import hashlib
import math
import statistics

import numpy as np

from common import COUNT_SEED, Workload, derive_seeds

BLOCK_STEPS = 25
COUNT_STEPS = 8
SETUPS = 9


class TrainC7(Workload):
    items_per_block = BLOCK_STEPS * 4
    ops_per_block = BLOCK_STEPS
    setups = SETUPS

    def __init__(self, cd, seed: int, out_dir: str):
        self.cd = cd
        self.world_seed, self.train_seed = derive_seeds(seed, 2)
        self.config = cd.TrainConfig(
            group_size=8, mini_groups_per_batch=4, steps=BLOCK_STEPS, seed=self.train_seed,
            sorted_rows=True, hidden=128, eval_interval=0,
        )
        self.digests: list[str] = []

    def _world(self, seed: int):
        cd = self.cd
        return cd.ScenarioConfig(
            num_concepts=50, d=32, n=16, images_per_concept=25, distractor_count=4,
            noise_sigma=0.05, multi_concept_rate=0.3, misaligned_text_degrees=50.0, seed=seed,
        )

    def setup(self, span) -> None:
        """World generation, index build and model init: what `run_training`
        needs before its first step."""
        cd = self.cd
        with span("scenario.generate_scenario"):
            self.scenario = cd.generate_scenario(self._world(self.world_seed))
        with span("corpus.build_concept_index"):
            self.index = cd.build_concept_index(self.scenario.records, self.scenario.lexicon, 1)
        with span("training.init_model"):
            cd.init_model(self.scenario, self.index, self.config,
                          np.random.default_rng(self.train_seed))

    def block(self):
        return self.cd.run_training(self.index, self.scenario, self.config)

    def after_block(self, result) -> None:
        self.digests.append(state_digest(result[0]))

    # -- tracing --------------------------------------------------------------

    def install_trace(self, tracer) -> None:
        training = self.cd.training
        self.tracer = tracer

        def open_step():
            if tracer.top() != "training.step":
                tracer.trace_id += 1
                tracer.begin("training.step")

        def close_step():
            if tracer.top() == "training.step":
                tracer.end()

        tracer.wrap(training, "sample_mini_group", "corpus.sample_mini_group", before=open_step)
        tracer.wrap(training, "caption_batch_loss", "training.caption_batch_loss")
        tracer.wrap(training, "head_forward", "training.head_forward")
        tracer.wrap(training, "sgd_step", "training.sgd_step", after=close_step)

    def layer_metrics(self, tracer) -> dict[str, float]:
        from tracing import median_over, per_trace_sums

        steps = [(tid, end - start) for _, tid, _, name, start, end in tracer.spans
                 if name == "training.step"]
        ids = [tid for tid, _ in steps]
        if not steps:
            return {}
        durations = [d for _, d in steps]
        sums = per_trace_sums(tracer, ("training.head_forward", "training.sgd_step",
                                       "corpus.sample_mini_group"))
        selfs = per_trace_sums(tracer, ("training.caption_batch_loss",), self_time=True)
        return {
            "training.step.ms_p50": 1e3 * statistics.median(durations),
            "training.step.ms_p90": 1e3 * statistics.quantiles(durations, n=10)[8],
            "training.caption_batch_loss.self_ms":
                1e3 * median_over(selfs["training.caption_batch_loss"], ids),
            "training.head_forward.ms": 1e3 * median_over(sums["training.head_forward"], ids),
            "training.sgd_step.ms": 1e3 * median_over(sums["training.sgd_step"], ids),
            "corpus.sample_mini_group.ms":
                1e3 * median_over(sums["corpus.sample_mini_group"], ids),
        }

    def count_pass(self) -> dict[str, float]:
        """Exact counts per step on the world of the pinned counting seed.

        The counts of a zero-step `run_training` are subtracted, so model
        init is not charged to the steps.
        """
        from tracing import count_calls

        cd = self.cd
        scenario = cd.generate_scenario(self._world(COUNT_SEED))
        index = cd.build_concept_index(scenario.records, scenario.lexicon, 1)
        targets = {"training.head_forward.calls": (cd.core, "head_forward", "codiscover.training")}
        totals = []
        for steps in (0, COUNT_STEPS):
            config = cd.TrainConfig(group_size=8, mini_groups_per_batch=4, steps=steps,
                                    seed=COUNT_SEED, sorted_rows=True, hidden=128,
                                    eval_interval=0)
            totals.append(count_calls(lambda: cd.run_training(index, scenario, config), targets))
        (base_total, base_counts), (total, counts) = totals
        return {
            "training.head_forward.calls":
                (counts["training.head_forward.calls"]
                 - base_counts["training.head_forward.calls"]) / COUNT_STEPS,
            "training.py_calls_per_step": (total - base_total) / COUNT_STEPS,
        }

    # -- correctness ----------------------------------------------------------

    def check(self, first_result) -> list[str]:
        cd = self.cd
        errors: list[str] = []
        if len(set(self.digests)) != 1:
            errors.append(f"repeated blocks ended in {len(set(self.digests))} different states")

        config = self.config
        rng = np.random.default_rng(config.seed)
        state = cd.init_model(self.scenario, self.index, config, rng)
        captions = caption_vectors(self.scenario)
        concepts = self.index.concept_ids()
        batches = []
        for _ in range(config.steps):
            picks = rng.integers(0, len(concepts), size=config.mini_groups_per_batch)
            batches.append([cd.sample_mini_group(self.index, concepts[int(i)],
                                                 config.group_size, rng) for i in picks])
        first = batches[0]
        loss, grads = cd.caption_batch_loss(state, first, captions, config)
        params = Params.of(state)
        ref = reference_loss(params, first, captions, state.classifier, config)
        logged = first_result[1][0].total_loss
        for what, value in (("caption_batch_loss", loss.total), ("run_training step 1", logged)):
            if abs(value - ref) > 1e-10 * max(1.0, abs(ref)):
                errors.append(f"{what} loss {value!r} differs from the numpy re-derivation "
                              f"{ref!r}")

        worst = gradient_error(params, grads, first, captions, state.classifier, config,
                               np.random.default_rng(config.seed))
        if worst >= 1e-4:
            errors.append(f"central differences disagree with the analytic gradient: "
                          f"relative error {worst:.3e}")

        # Training must lower the loss: the first tenth of the block's batches,
        # scored again with the state the block ended in, must score lower
        # than when they were drawn.
        trained, metrics = first_result
        tenth = math.ceil(config.steps / 10)
        before = float(np.mean([row.total_loss for row in metrics[:tenth]]))
        after = float(np.mean([cd.caption_batch_loss(trained, batch, captions, config)[0].total
                               for batch in batches[:tenth]]))
        if not after < before:
            errors.append(f"training did not lower the loss of its first batches "
                          f"({before:.6f} -> {after:.6f})")
        return errors


def state_digest(state) -> str:
    h = hashlib.sha256()
    for arr in (state.head.w1, state.head.b1, state.head.w2, state.head.b2):
        h.update(arr.tobytes())
    for image_id in sorted(state.features):
        h.update(image_id.encode())
        h.update(state.features[image_id].tobytes())
    return h.hexdigest()


def caption_vectors(scenario) -> dict[str, np.ndarray]:
    """Caption proxy per image: unit mean of its concepts' text embeddings."""
    out = {}
    for record in scenario.records:
        mean = np.mean([scenario.text_table.embeddings[c] for c in record.concepts], axis=0)
        out[record.image_id] = mean / np.sqrt(np.sum(mean * mean))
    return out


class Params:
    """The trainable parameters, copied so they can be perturbed."""

    def __init__(self, w1, b1, w2, b2, features):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.features = features

    @classmethod
    def of(cls, state) -> "Params":
        h = state.head
        return cls(h.w1.copy(), h.b1.copy(), h.w2.copy(), h.b2.copy(),
                   {k: v.copy() for k, v in state.features.items()})


def _log1p_exp(x):
    return np.logaddexp(0.0, x)


def reference_loss(params: Params, groups, captions, classifier, config) -> float:
    """The caption-branch loss written out in plain numpy.

    For each mini-group and each query position: text-guided similarity of
    the query's regions to each support's regions, each support block sorted
    descending per row, a ReLU MLP per row, softmax pooling into a prototype,
    and the vocabulary BCE of the prototype. Then the in-batch image-text BCE
    over the batch's distinct images. Both terms are weighted and summed.
    """
    weights = classifier.weights
    d = weights.shape[1]
    rw_total = 0.0
    for group in groups:
        row = classifier.concept_ids.index(group.concept_id)
        w_c = weights[row]
        guide = math.sqrt(d) * np.abs(w_c) / math.sqrt(float(np.sum(w_c * w_c)))
        if not config.text_guidance:
            guide = np.ones(d)
        ids = group.image_ids
        unit = {i: params.features[i] / np.sqrt(np.sum(params.features[i] ** 2, axis=1))[:, None]
                for i in ids}
        group_sum = 0.0
        for q, query in enumerate(ids):
            blocks = []
            for j, support in enumerate(ids):
                if j == q:
                    continue
                block = (unit[query] * guide) @ unit[support].T
                blocks.append(-np.sort(-block, axis=1) if config.sorted_rows else block)
            rows = np.hstack(blocks)
            hidden = np.maximum(rows @ params.w1.T + params.b1, 0.0)
            scores = hidden @ params.w2 + params.b2[0]
            p = np.exp(scores - scores.max())
            p /= p.sum()
            logits = weights @ (p @ params.features[query])
            positive = np.zeros(len(logits), dtype=bool)
            positive[row] = True
            group_sum += float(np.sum(_log1p_exp(-logits[positive]))
                               + np.sum(_log1p_exp(logits[~positive])))
        rw_total += group_sum / len(ids)
    rw = rw_total / len(groups)

    order = list(dict.fromkeys(i for g in groups for i in g.image_ids))
    v = np.array([params.features[i].mean(axis=0) for i in order])
    t = np.array([captions[i] for i in order])
    v = v / np.sqrt(np.sum(v * v, axis=1))[:, None]
    t = t / np.sqrt(np.sum(t * t, axis=1))[:, None]
    logits = config.temperature * (v @ t.T)
    eye = np.eye(len(order), dtype=bool)
    it = float(np.sum(_log1p_exp(-logits[eye])) + np.sum(_log1p_exp(logits[~eye]))) / len(order)
    return config.lambda_region_word * rw + config.lambda_image_text * it


def gradient_error(params: Params, grads, groups, captions, classifier, config, rng,
                   per_group: int = 6) -> float:
    """Worst relative error of the analytic gradient against central
    differences of `reference_loss`, on coordinates sampled from each
    parameter group among those whose gradient is at least 1e-5 (below that,
    rounding in the loss dominates a central difference). A coordinate that
    misses is tried again with smaller steps, since a step can cross a ReLU
    kink; a wrong gradient does not improve that way."""
    image_ids = sorted(grads.features)
    picks = [(getattr(params, name), getattr(grads, name), per_group)
             for name in ("w1", "b1", "w2")]
    picks += [(params.features[image_ids[i]], grads.features[image_ids[i]], 1)
              for i in rng.choice(len(image_ids), size=2 * per_group, replace=False)]
    worst = 0.0
    for param, grad, count in picks:
        eligible = np.flatnonzero(np.abs(grad) >= 1e-5)
        for flat in rng.choice(eligible, size=min(count, eligible.size), replace=False):
            analytic = float(grad.flat[flat])
            best = math.inf
            for step in (1e-5, 1e-5 / 8, 1e-5 / 64):
                original = param.flat[flat]
                param.flat[flat] = original + step
                plus = reference_loss(params, groups, captions, classifier, config)
                param.flat[flat] = original - step
                minus = reference_loss(params, groups, captions, classifier, config)
                param.flat[flat] = original
                numeric = (plus - minus) / (2 * step)
                best = min(best, abs(analytic - numeric) / (abs(analytic) + abs(numeric)))
                if best < 1e-4:
                    break
            worst = max(worst, best)
    return worst
