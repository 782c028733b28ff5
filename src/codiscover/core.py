"""Text-guided similarity, prototype discovery, alignment losses, baselines.

All operations are pure float64 functions of their inputs; the discovery ops
take a leading query axis, and text_guided_similarity, region_word_loss and
image_text_loss are scalar reference definitions. Argmax ties break toward the
lowest index everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


def softplus(x) -> np.ndarray:
    """log(1 + exp(x)), stable for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function (array in, array out)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def unit_rows(matrix: np.ndarray, what: str) -> np.ndarray:
    """Feature rows (along the last axis) scaled to unit L2 norm."""
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(f"{what}: zero feature row")
    return matrix / norms


@dataclass
class DiscoveryHead:
    """Two-layer MLP scoring each similarity row: w1 (h x m*n), b1 (h),
    w2 (h), scalar bias b2 held as a 1-element array."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    sorted_rows: bool = False

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64).reshape(1)
        h = self.w1.shape[0]
        if self.w1.ndim != 2 or self.b1.shape != (h,) or self.w2.shape != (h,):
            raise ValueError("inconsistent head parameter shapes")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("head parameters must be finite")

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @classmethod
    def initialize(
        cls,
        m: int,
        n: int,
        hidden: int = 128,
        *,
        rng: np.random.Generator,
        sorted_rows: bool = False,
    ) -> "DiscoveryHead":
        """He initialization: N(0, sqrt(2/fan_in)) weights, zero biases."""
        in_dim = m * n
        w1 = rng.standard_normal((hidden, in_dim)) * np.sqrt(2.0 / in_dim)
        w2 = rng.standard_normal(hidden) * np.sqrt(2.0 / hidden)
        return cls(w1, np.zeros(hidden), w2, np.zeros(1), sorted_rows)


@dataclass
class OpenVocabClassifier:
    """Frozen open-vocabulary classifier: unit-normalized text embedding rows."""

    weights: np.ndarray
    concept_ids: list[int]
    row_of: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] != len(self.concept_ids):
            raise ValueError("classifier weights must have one row per concept id")
        norms = np.linalg.norm(self.weights, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("classifier rows must be unit-normalized within 1e-6")
        self.row_of = {cid: i for i, cid in enumerate(self.concept_ids)}
        if len(self.row_of) != len(self.concept_ids):
            raise ValueError("duplicate concept ids in classifier")

    @classmethod
    def from_table(cls, table, concept_ids: list[int]) -> "OpenVocabClassifier":
        rows = np.stack([table.vector(cid) for cid in concept_ids])
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        return cls(rows, list(concept_ids))


def text_guide_weights(w_c: np.ndarray) -> np.ndarray:
    """Guidance profile sqrt(d) * |w_c| / ||w_c|| along the last axis, so a
    (B, d) block of embeddings gives B profiles; each has L2 norm sqrt(d)."""
    w_c = np.asarray(w_c, dtype=np.float64)
    # One dot per row, as np.linalg.norm computes it for a single vector.
    norm = np.sqrt((w_c[..., None, :] @ w_c[..., :, None])[..., 0])
    if not norm.all():
        raise ValueError("text embedding is the zero vector")
    return np.sqrt(w_c.shape[-1]) * np.abs(w_c) / norm


def text_guided_similarity(f_i: np.ndarray, f_j: np.ndarray, w_bar: np.ndarray) -> float:
    """Weighted inner product of the Hadamard product of unit-normalized features."""
    f_i = np.asarray(f_i, dtype=np.float64)
    f_j = np.asarray(f_j, dtype=np.float64)
    ni, nj = np.linalg.norm(f_i), np.linalg.norm(f_j)
    if ni == 0.0 or nj == 0.0:
        raise ValueError("region feature is the zero vector")
    if f_i.shape != f_j.shape or f_i.shape != np.shape(w_bar):
        raise ValueError("dimension mismatch")
    return float(np.dot(w_bar, (f_i / ni) * (f_j / nj)))


def concept_guide(w_c: np.ndarray, text_guidance: bool = True) -> np.ndarray:
    """Guidance profile of w_c along the last axis, or uniform weights (plain
    cosine) of the same shape when unguided."""
    w_c = np.asarray(w_c, dtype=np.float64)
    return text_guide_weights(w_c) if text_guidance else np.ones(w_c.shape)


def similarity_rows(query_hat: np.ndarray, support_hat: np.ndarray, guide: np.ndarray):
    """Text-guided similarity of Q queries (Q, n, d) against their m supports
    (Q, m, n, d), both unit-normalized, under a guide (d,) or one per query
    (Q, 1, d). Returns (qw, rows): the guided queries query_hat * guide and
    rows (Q, n, m*n) with rows[q, i, k*n + j] = s(query_q region i, support_qk region j)."""
    q, m, n, d = support_hat.shape
    if m == 0:
        raise ValueError("at least one support image is required")
    if query_hat.shape != (q, n, d):
        raise ValueError(f"supports {support_hat.shape} do not match queries {query_hat.shape}")
    qw = query_hat * guide
    return qw, qw @ support_hat.reshape(q, m * n, d).swapaxes(1, 2)


def similarity_backward(drows: np.ndarray, qw: np.ndarray, support_hat: np.ndarray,
                        guide: np.ndarray):
    """Gradients of similarity_rows with respect to query_hat (Q, n, d) and
    support_hat (Q, m, n, d), one term per position, not yet summed per image;
    guide is the (d,) or (Q, 1, d) guide of the forward."""
    flat = support_hat.reshape(drows.shape[0], -1, support_hat.shape[3])
    return (drows @ flat) * guide, (drows.swapaxes(1, 2) @ qw).reshape(support_hat.shape)


class HeadPass(NamedTuple):
    """head_forward's results for Q queries of n proposals, kept for head_backward."""

    net: np.ndarray  # (Q*n, m*n) rows fed to the MLP, blocks sorted when the head sorts
    hidden: np.ndarray  # (Q*n, hidden) ReLU outputs, > 0 exactly where a unit is active
    logits: np.ndarray  # (Q, n)
    p: np.ndarray  # (Q, n) softmax over each query's proposals
    # (Q, n, m, n) flat index into the rows of each entry of net's sorted
    # blocks; None unsorted
    perm: np.ndarray | None


def head_forward(rows: np.ndarray, head: DiscoveryHead) -> HeadPass:
    """Run the MLP + softmax over (Q, n, m*n) similarity rows, each support
    block of each row sorted descending first when head.sorted_rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 3:
        raise ValueError(f"similarity rows of shape {rows.shape} are not (Q, n, m*n)")
    q, n, width = rows.shape
    if width != head.in_dim:
        raise ValueError(
            f"similarity rows of width {width} do not match head input width {head.in_dim}"
        )
    perm = None
    if head.sorted_rows:
        if width % n != 0:
            raise ValueError("row width is not a multiple of the proposal count")
        perm = np.argsort(-rows.reshape(-1, n), axis=1)
        perm += np.arange(0, rows.size, n)[:, None]
        rows = rows.reshape(-1)[perm]
        perm = perm.reshape(q, n, width // n, n)
    net = rows.reshape(q * n, width)
    hidden = np.maximum(net @ head.w1.T + head.b1, 0.0)
    logits = (hidden @ head.w2 + head.b2[0]).reshape(q, n)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite prototype logits")
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = exp / exp.sum(axis=1, keepdims=True)
    return HeadPass(net, hidden, logits, p, perm)


def head_backward(fwd: HeadPass, dp: np.ndarray, head: DiscoveryHead):
    """Reverse of head_forward (softmax, MLP, block sort) for the gradient dp
    (Q, n) of the weights p: returns (drows, dw1, db1, dw2, db2)."""
    dlogits = (fwd.p * (dp - (fwd.p * dp).sum(axis=1, keepdims=True))).reshape(-1)
    dz1 = np.outer(dlogits, head.w2) * (fwd.hidden > 0.0)
    dnet = dz1 @ head.w1
    if fwd.perm is not None:
        dsorted, dnet = dnet, np.empty(fwd.perm.size)
        dnet[fwd.perm.ravel()] = dsorted.ravel()
    return (dnet.reshape(*fwd.p.shape, -1), dz1.T @ fwd.net, dz1.sum(axis=0),
            fwd.hidden.T @ dlogits, dlogits.sum().reshape(1))


def region_word_loss(f_p: np.ndarray, classifier: OpenVocabClassifier, concept_id: int) -> float:
    """BCE over vocabulary logits s = W f_p: -log sig(s_c) - sum_{k!=c} log(1 - sig(s_k)),
    evaluated through softplus for stability."""
    row = classifier.row_of.get(concept_id)
    if row is None:
        raise ValueError(f"concept {concept_id} not in classifier")
    s = classifier.weights @ np.asarray(f_p, dtype=np.float64)
    return float(softplus(-s[row]) + softplus(s).sum() - softplus(s[row]))


def image_text_loss(
    image_features: np.ndarray, caption_features: np.ndarray, temperature: float = 10.0
) -> float:
    """In-batch contrastive BCE over cosine logits scaled by a fixed temperature.

    Row a treats caption a as the positive and every other caption in the
    batch as a negative; the result is averaged over rows.
    """
    v = np.atleast_2d(np.asarray(image_features, dtype=np.float64))
    t = np.atleast_2d(np.asarray(caption_features, dtype=np.float64))
    if v.shape != t.shape:
        raise ValueError("image and caption batches must have matching shapes")
    logits = temperature * (unit_rows(v, "image batch") @ unit_rows(t, "caption batch").T)
    diag = np.diag(logits)
    b = v.shape[0]
    return float((softplus(-diag).sum() + softplus(logits).sum() - softplus(diag).sum()) / b)


def heuristic_picks(rows: np.ndarray) -> np.ndarray:
    """Training-free baseline over (Q, n, m*n) similarity rows: per query
    region take the max similarity within each support image, average those
    maxima over supports, and return each query's argmax region."""
    q, n, _ = rows.shape
    return np.argmax(rows.reshape(q, n, -1, n).max(axis=3).mean(axis=2), axis=1)


def baseline_region_word(query_hat: np.ndarray, w_c: np.ndarray) -> np.ndarray:
    """Region-word baseline over Q queries' unit-normalized region features
    (Q, n, d): each query's argmax of cosine(f_i, w_c)."""
    w_c = np.asarray(w_c, dtype=np.float64)
    norm = np.linalg.norm(w_c)
    if norm == 0.0:
        raise ValueError("text embedding is the zero vector")
    return np.argmax(query_hat @ (w_c / norm), axis=1)


def baseline_max_size(areas: np.ndarray) -> np.ndarray:
    """Max-size baseline: each query's largest region, from areas (Q, n)."""
    areas = np.asarray(areas, dtype=np.float64)
    if areas.ndim != 2 or areas.shape[1] == 0:
        raise ValueError("areas must be a non-empty (Q, n) array")
    return np.argmax(areas, axis=1)
