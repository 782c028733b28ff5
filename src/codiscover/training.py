"""Mini-group training loop with hand-derived reverse-mode gradients.

The caption-branch loss is differentiated analytically through the chain
classifier logits -> prototype -> softmax -> MLP -> similarity entries ->
unit normalization -> raw region features, covering both paths by which a
region feature reaches the prototype (the direct weighted-sum term and the
term through the similarity matrix). `query_rows` is the one query forward,
from feature rows to similarity rows, that training and evaluation share; it
and the head stages run the batched ops of `core`. `finite_diff_check`
verifies the chain against central differences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._binio import (
    atomic_writer,
    read_container,
    read_f64_array,
    read_records,
    read_u32,
    write_container,
    write_f64_array,
    write_records,
    write_u32,
)
from .core import (
    DiscoveryHead,
    OpenVocabClassifier,
    concept_guide,
    head_backward,
    head_forward,
    sigmoid,
    similarity_backward,
    similarity_rows,
    softplus,
)
from .corpus import ConceptGroupIndex, MiniGroup, sample_mini_group
from .errors import FormatError
from .scenario import _check_rows

CHECKPOINT_MAGIC = b"CODC"
_CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    group_size: int = 8
    mini_groups_per_batch: int = 4
    steps: int = 2000
    learning_rate: float = 0.01
    momentum: float = 0.9
    lambda_region_word: float = 0.1
    lambda_image_text: float = 0.1
    seed: int = 0
    hidden: int = 128
    temperature: float = 10.0
    eval_interval: int = 200
    text_guidance: bool = True
    sorted_rows: bool = False

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.mini_groups_per_batch < 1:
            raise ValueError("mini_groups_per_batch must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.lambda_region_word < 0.0 or self.lambda_image_text < 0.0:
            raise ValueError("loss weights must be >= 0")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        if self.eval_interval < 0:
            raise ValueError("eval_interval must be >= 0")


@dataclass
class ModelState:
    """Head, frozen classifier, and the learnable features of image_ids[r] in
    block[r]. `features`, built on first read, maps an image id to a view of
    its row, which can be edited in place but not rebound; no library path
    reads it."""

    head: DiscoveryHead
    classifier: OpenVocabClassifier
    image_ids: list[str]
    block: np.ndarray
    row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.row_of = {image_id: r for r, image_id in enumerate(self.image_ids)}

    @functools.cached_property
    def features(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self.image_ids, self.block)))


@dataclass
class BatchLoss:
    total: float
    region_word: float
    image_text: float


@dataclass
class GradientBundle:
    """Per-parameter arrays shaped like the head and the features: the
    gradients of a batch, with `features` by batch image id, or the SGD
    velocity threaded through the steps, with `features` shaped like the block."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    features: dict[str, np.ndarray] | np.ndarray


_HEAD_PARAMS = ("w1", "b1", "w2", "b2")


@dataclass
class MetricRow:
    step: int
    total_loss: float
    region_word_loss: float
    image_text_loss: float
    cover_rate: float | None = None


def init_model(scenario, index: ConceptGroupIndex, config: TrainConfig,
               rng: np.random.Generator | None = None) -> ModelState:
    """Build the initial model: fresh head, frozen classifier over the index's
    retained concepts, and a learnable copy of the scenario's feature block."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    concept_ids = index.concept_ids()
    if not concept_ids:
        raise ValueError("index retains no concepts")
    classifier = OpenVocabClassifier.from_table(scenario.text_table, concept_ids)
    head = DiscoveryHead.initialize(
        m=config.group_size - 1, n=scenario.features.shape[1], hidden=config.hidden, rng=rng,
        sorted_rows=config.sorted_rows,
    )
    return ModelState(head, classifier, list(scenario.image_ids), scenario.features.copy())


def caption_proxies(scenario) -> dict[str, np.ndarray]:
    """Image id -> frozen caption embedding proxy of the image's concepts."""
    records = scenario.records
    vectors = scenario.text_table.caption_embeddings([record.concepts for record in records])
    return {record.image_id: vector for record, vector in zip(records, vectors)}


def query_rows(state: ModelState, queries, class_rows, text_guidance: bool):
    """Similarity forward of Q queries, each an image id and then its support ids,
    under the guides of their classifier rows (an int array or list of Q). The
    distinct images are gathered and unit-normalized once. Returns the distinct
    ids, their raw rows, norms and unit rows, each query's slots in ids (query
    first), the (Q, 1, d) guides, and similarity_rows' guided queries and rows."""
    ids = list(dict.fromkeys(i for query in queries for i in query))
    slot = {image_id: u for u, image_id in enumerate(ids)}
    raw = state.block[[state.row_of[image_id] for image_id in ids]]
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    slots = np.array([[slot[i] for i in query] for query in queries])
    zero = (norms == 0.0).any(axis=(1, 2))[slots].any(axis=1)
    if zero.any():
        # Name the concept of the first query whose images hold a zero row.
        cid = state.classifier.concept_ids[class_rows[zero.argmax()]]
        raise ValueError(f"concept {cid}: zero feature row")
    hat = raw / norms
    guide = concept_guide(state.classifier.weights[class_rows], text_guidance)[:, None, :]
    qw, rows = similarity_rows(hat[slots[:, 0]], hat[slots[:, 1:]], guide)
    return ids, raw, norms, hat, slots, guide, qw, rows


def _sum_by_owner(terms: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray:
    """Sum terms (L, ...) per owner (L,) into (count, ...) as one one-hot
    (count, L) matmul, so every owner's terms add in one fixed order."""
    onehot = (owner == np.arange(count)[:, None]).astype(np.float64)
    return (onehot @ terms.reshape(owner.size, -1)).reshape(count, *terms.shape[1:])


def _bce_rows(logits: np.ndarray, positive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row BCE of (Q, C) logits whose row q has its one positive label in
    column positive[q], and the gradient sigmoid(logits) - onehot."""
    rows = np.arange(logits.shape[0])
    pos = logits[rows, positive]
    losses = softplus(-pos) + softplus(logits).sum(axis=1) - softplus(pos)
    grad = sigmoid(logits)
    grad[rows, positive] -= 1.0
    return losses, grad


def _unit_backward(grad_hat: np.ndarray, hat: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backward of x -> x / ||x|| along the last axis, given hat = x / norms."""
    proj = (grad_hat * hat).sum(axis=-1, keepdims=True)
    return (grad_hat - proj * hat) / norms


def caption_batch_loss(
    state: ModelState,
    mini_groups: list[MiniGroup],
    caption_vectors: dict[str, np.ndarray],
    config: TrainConfig,
) -> tuple[BatchLoss, GradientBundle]:
    """Weighted caption-branch loss and its analytic gradients.

    Every image's features are materialized (and normalized) once per batch.
    All B*K query positions of the batch run through one call of each core
    forward and backward op, each under its group's concept guide (a guide
    per query), and the region-word term is averaged over them. The
    image-text term runs over the batch's distinct images and their captions.

    Args:
        state: current model parameters.
        mini_groups: sampled mini-groups of one size, of classifier concepts.
        caption_vectors: image id -> frozen caption embedding proxy.
        config: supplies loss weights, temperature, and the guidance flag.

    Returns:
        (BatchLoss with unweighted components, GradientBundle matching state).
    """
    if not mini_groups:
        raise ValueError("batch contains no mini-groups")
    weights = state.classifier.weights
    k = len(mini_groups[0].image_ids)
    for group in mini_groups:
        if group.concept_id not in state.classifier.row_of:
            raise ValueError(f"concept {group.concept_id} not in classifier")
        if len(group.image_ids) != k:
            raise ValueError(f"mini-groups of {k} and {len(group.image_ids)} images in one batch")

    # Query q is position q % k of group q // k, under that group's guide.
    concept_rows = np.repeat([state.classifier.row_of[g.concept_id] for g in mini_groups], k)
    queries = [(ids[i], *ids[:i], *ids[i + 1:])
               for ids in (group.image_ids for group in mini_groups) for i in range(k)]
    batch_ids, raw, norms, hat, slots, guide, qw, rows = query_rows(
        state, queries, concept_rows, config.text_guidance)
    pos, supports, q = slots[:, 0], slots[:, 1:], len(queries)
    fwd = head_forward(rows, state.head)
    del rows
    f_q = raw[pos]
    s = (fwd.p[:, None, :] @ f_q)[:, 0] @ weights.T
    losses, ds = _bce_rows(s, concept_rows)
    rw_mean = float(np.sum(losses)) / q
    ds *= config.lambda_region_word / q
    dfp = ds @ weights
    dp = (f_q @ dfp[:, :, None])[:, :, 0]
    drows, *head_grads = head_backward(fwd, dp, state.head)
    # Gradients per batch image, of the raw and of the unit-normalized features:
    # an image held at several positions sums the terms of all of them.
    batch = len(batch_ids)
    graw = _sum_by_owner(fwd.p[:, :, None] * dfp[:, None, :], pos, batch)
    del fwd
    dquery, dsupport = similarity_backward(drows, qw, hat[supports], guide)
    ghat = (_sum_by_owner(dquery, pos, batch)
            + _sum_by_owner(dsupport.reshape(-1, *raw.shape[1:]), supports.ravel(), batch))

    # Image-text branch over the batch's distinct images.
    v = raw.mean(axis=1)
    t = np.stack([caption_vectors[image_id] for image_id in batch_ids])
    vnorm = np.linalg.norm(v, axis=1, keepdims=True)
    tnorm = np.linalg.norm(t, axis=1, keepdims=True)
    if np.any(vnorm == 0.0) or np.any(tnorm == 0.0):
        raise ValueError("zero row in the image-text batch")
    vhat = v / vnorm
    that = t / tnorm
    logits = config.temperature * (vhat @ that.T)
    losses, dlogits = _bce_rows(logits, np.arange(batch))
    it_loss = float(losses.sum() / batch)
    dlogits *= config.lambda_image_text / batch
    dvhat = config.temperature * (dlogits @ that)
    graw += _unit_backward(dvhat, vhat, vnorm)[:, None, :] / raw.shape[1]

    # Region-feature normalization backward, once per image (linear in upstream).
    graw += _unit_backward(ghat, hat, norms)

    total = config.lambda_region_word * rw_mean + config.lambda_image_text * it_loss
    grads = GradientBundle(*head_grads, dict(zip(batch_ids, graw)))
    return BatchLoss(total, rw_mean, it_loss), grads


def sgd_step(
    state: ModelState,
    grads: GradientBundle,
    lr: float,
    momentum: float,
    velocity: GradientBundle | None = None,
) -> GradientBundle:
    """In-place SGD with momentum: v = momentum*v + g; param -= lr*v.

    Updates the head and, in one gather, update and scatter, the feature rows
    of the batch's images; the classifier stays frozen. A feature velocity row
    changes only when its image receives a gradient. Returns the velocity state
    to thread through subsequent steps.
    """
    if velocity is None:
        velocity = GradientBundle(*(np.zeros_like(getattr(state.head, name))
                                    for name in _HEAD_PARAMS), np.zeros(state.block.shape))
    for name in _HEAD_PARAMS:
        param, vel = getattr(state.head, name), getattr(velocity, name)
        vel *= momentum
        vel += getattr(grads, name)
        param -= lr * vel
        if not np.all(np.isfinite(param)):
            raise ValueError(f"non-finite head parameter {name} after update")
    image_ids = list(grads.features)
    rows = [state.row_of[image_id] for image_id in image_ids]
    grad = np.array(list(grads.features.values())).reshape(len(rows), *state.block.shape[1:])
    velocity.features[rows] = vel = momentum * velocity.features[rows] + grad
    state.block[rows] = param = state.block[rows] - lr * vel
    bad = ~np.isfinite(param).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"non-finite features for image {image_ids[bad.argmax()]!r} after update")
    return velocity


def run_training(
    index: ConceptGroupIndex,
    scenario,
    config: TrainConfig,
    eval_seed: int | None = None,
) -> tuple[ModelState, list[MetricRow]]:
    """Train for config.steps batches of uniformly sampled mini-groups.

    Emits one MetricRow per step; every config.eval_interval steps (and on the
    final step) the row carries the region-region cover rate computed with a
    fixed evaluation seed. A non-finite batch loss raises ValueError naming its step.
    """
    rng = np.random.default_rng(config.seed)
    state = init_model(scenario, index, config, rng)
    caption_vectors = caption_proxies(scenario)
    concepts = index.concept_ids()
    if eval_seed is None:
        eval_seed = int(np.random.SeedSequence(entropy=config.seed,
                                               spawn_key=(1,)).generate_state(1)[0])
    metrics: list[MetricRow] = []
    velocity: GradientBundle | None = None
    for step in range(1, config.steps + 1):
        picks = rng.integers(0, len(concepts), size=config.mini_groups_per_batch)
        groups = [
            sample_mini_group(index, concepts[int(i)], config.group_size, rng)
            for i in picks
        ]
        loss, grads = caption_batch_loss(state, groups, caption_vectors, config)
        if not np.isfinite(loss.total):
            raise ValueError(f"step {step}: non-finite batch loss {loss.total}")
        velocity = sgd_step(state, grads, config.learning_rate, config.momentum, velocity)
        cover = None
        if config.eval_interval > 0 and (step % config.eval_interval == 0
                                         or step == config.steps):
            from .evaluation import compare_strategies

            report = compare_strategies(
                state, scenario, index, ("region_region",),
                group_size=config.group_size, seed=eval_seed,
                text_guidance=config.text_guidance,
            )
            cover = report.cover_rates["region_region"]
        metrics.append(MetricRow(step, loss.total, loss.region_word, loss.image_text, cover))
    return state, metrics


def finite_diff_check(
    state: ModelState,
    mini_groups: list[MiniGroup],
    caption_vectors: dict[str, np.ndarray],
    config: TrainConfig,
    selector: str,
    eps: float = 1e-5,
    num_coords: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients to central finite differences.

    Args:
        selector: one of "w1", "b1", "w2", "b2", "features" (all images).
        eps: central-difference step, must lie in [1e-7, 1e-3].
        num_coords: coordinates sampled per parameter group (capped at the
            group's size).

    Returns:
        Max over sampled coordinates of |analytic - numeric| /
        max(1e-12, |analytic| + |numeric|). A coordinate at or above 1e-4 is
        retried with eps/8 and eps/64 (a step straddling a ReLU kink), then
        with eps*8 capped at 1e-3 (rounding on a tiny gradient), keeping the
        best estimate; a wrong analytic gradient improves under neither.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must be in [1e-7, 1e-3]")
    if rng is None:
        rng = np.random.default_rng(0)
    _, grads = caption_batch_loss(state, mini_groups, caption_vectors, config)
    if selector in _HEAD_PARAMS:
        pairs = [(getattr(state.head, selector), getattr(grads, selector))]
    elif selector == "features":
        pairs = [(state.block[state.row_of[i]], grads.features[i])
                 for i in sorted(grads.features)]
    else:
        raise ValueError(f"unknown parameter selector {selector!r}")

    cells = [(param, grad, flat_index) for param, grad in pairs
             for flat_index in range(param.size)]
    coords = rng.choice(len(cells), size=min(num_coords, len(cells)), replace=False)

    def numeric(param: np.ndarray, flat_index: int, step: float) -> float:
        original = param.flat[flat_index]
        param.flat[flat_index] = original + step
        plus = caption_batch_loss(state, mini_groups, caption_vectors, config)[0].total
        param.flat[flat_index] = original - step
        minus = caption_batch_loss(state, mini_groups, caption_vectors, config)[0].total
        param.flat[flat_index] = original
        return (plus - minus) / (2.0 * step)

    def rel_error(a: float, b: float) -> float:
        return abs(a - b) / max(1e-12, abs(a) + abs(b))

    worst = 0.0
    for coord in coords:
        param, grad, flat_index = cells[coord]
        analytic = float(grad.flat[flat_index])
        err = rel_error(analytic, numeric(param, flat_index, eps))
        for step in (eps / 8.0, eps / 64.0, min(eps * 8.0, 1e-3)):
            if err < 1e-4:
                break
            err = min(err, rel_error(analytic, numeric(param, flat_index, step)))
        worst = max(worst, err)
    return worst


def write_metrics_csv(metrics: list[MetricRow], path: str) -> None:
    """CSV stream `step,total_loss,region_word_loss,image_text_loss,cover_rate`;
    the cover column is blank between evaluation intervals."""
    with atomic_writer(path, "w") as fh:
        fh.write("step,total_loss,region_word_loss,image_text_loss,cover_rate\n")
        for row in metrics:
            cover = "" if row.cover_rate is None else repr(row.cover_rate)
            fh.write(f"{row.step},{row.total_loss!r},{row.region_word_loss!r},"
                     f"{row.image_text_loss!r},{cover}\n")


def save_checkpoint(state: ModelState, path: str) -> None:
    """Binary CODC container holding head, classifier, and feature block. Before
    `path` exists it refuses what load_checkpoint cannot read: a block that
    _check_rows refuses, or one whose width is not the classifier's."""
    head = state.head
    k, d = state.classifier.weights.shape
    _check_rows(state.image_ids, state.block)
    if state.block.shape[2] != d:
        raise ValueError(f"feature rows of width {state.block.shape[2]} do not match "
                         f"the classifier width {d}")
    # Bits 0-1 are always set, so checkpoints keep their bytes, and ignored on
    # load, where files of older writers may have them clear.
    flags = 3 | (int(head.sorted_rows) << 2)
    with write_container(path, CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                         (head.hidden, head.in_dim, d, k, state.block.shape[1], flags)) as fh:
        for arr in (head.w1, head.b1, head.w2, head.b2):
            write_f64_array(fh, arr)
        for cid in state.classifier.concept_ids:
            write_u32(fh, cid)
        write_f64_array(fh, state.classifier.weights)
        write_u32(fh, len(state.image_ids))
        write_records(fh, state.image_ids, [state.block])


def load_checkpoint(path: str) -> ModelState:
    with read_container(path, CHECKPOINT_MAGIC, _CHECKPOINT_VERSION) as fh:
        hidden, in_dim, d, k, n, flags = (read_u32(fh) for _ in range(6))
        if n < 1 or d < 1:
            raise FormatError(f"invalid header dimensions n={n}, d={d}")
        w1 = read_f64_array(fh, hidden * in_dim).reshape(hidden, in_dim)
        b1 = read_f64_array(fh, hidden)
        w2 = read_f64_array(fh, hidden)
        b2 = read_f64_array(fh, 1)
        head = DiscoveryHead(w1, b1, w2, b2, sorted_rows=bool(flags & 4))
        concept_ids = [read_u32(fh) for _ in range(k)]
        weights = read_f64_array(fh, k * d).reshape(k, d)
        classifier = OpenVocabClassifier(weights, concept_ids)
        image_ids, (block,) = read_records(fh, read_u32(fh), [(n, d)])
    _check_rows(image_ids, block)
    return ModelState(head, classifier, image_ids, block)
