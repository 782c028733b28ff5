"""Text-guided similarity, the prototype head and its backward, baselines.

All operations are pure float64 functions of their inputs, and every
discovery op takes a leading query axis. Argmax ties break toward the lowest
index everywhere.
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
        if h < 1 or self.w1.shape[1] < 1:
            raise ValueError(f"head dimensions hidden={h}, in_dim={self.w1.shape[1]} "
                             "must be >= 1")
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
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
            norms = np.linalg.norm(self.weights, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise ValueError("classifier rows must be unit-normalized within 1e-6")
        self.row_of = {cid: i for i, cid in enumerate(self.concept_ids)}
        if len(self.row_of) != len(self.concept_ids):
            raise ValueError("duplicate concept ids in classifier")

    @classmethod
    def from_table(cls, table, concept_ids: list[int]) -> "OpenVocabClassifier":
        rows = np.stack([table.vector(cid) for cid in concept_ids])
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        return cls(rows, list(concept_ids))


def _embedding_norms(w_c: np.ndarray) -> np.ndarray:
    """L2 norms of text embeddings along the last axis, kept as a trailing
    axis of length 1; refuses a zero embedding."""
    # One dot per row, as np.linalg.norm computes it for a single vector.
    norm = np.sqrt((w_c[..., None, :] @ w_c[..., :, None])[..., 0])
    if not norm.all():
        raise ValueError("text embedding is the zero vector")
    return norm


def text_guide_weights(w_c: np.ndarray) -> np.ndarray:
    """Guidance profile sqrt(d) * |w_c| / ||w_c|| along the last axis, so a
    (B, d) block of embeddings gives B profiles; each has L2 norm sqrt(d)."""
    w_c = np.asarray(w_c, dtype=np.float64)
    return np.sqrt(w_c.shape[-1]) * np.abs(w_c) / _embedding_norms(w_c)


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
    p: np.ndarray  # (Q, n) softmax over each query's proposals
    # (Q, n, m, n) flat index into the rows of each entry of net's sorted
    # blocks; None unsorted or when head_forward was given the sorted blocks
    perm: np.ndarray | None


def sorted_blocks(rows: np.ndarray) -> np.ndarray:
    """(Q, n, m*n) similarity rows as (Q, n, m, n) support blocks sorted descending (values)."""
    return -np.sort(-rows.reshape(*rows.shape[:2], -1, rows.shape[1]), axis=-1)


def head_forward(rows: np.ndarray, head: DiscoveryHead,
                 blocks: np.ndarray | None = None) -> HeadPass:
    """Run the MLP + softmax over (Q, n, m*n) similarity rows, each support block of each row
    sorted descending first when head.sorted_rows, or taken from blocks = sorted_blocks(rows)."""
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
        if blocks is None:
            perm = np.argsort(-rows.reshape(-1, n), axis=1)
            perm += np.arange(0, rows.size, n)[:, None]
            blocks = rows.reshape(-1)[perm]
            perm = perm.reshape(q, n, width // n, n)
        rows = blocks
    net = rows.reshape(q * n, width)
    hidden = net @ head.w1.T
    hidden += head.b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = (hidden @ head.w2 + head.b2[0]).reshape(q, n)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite prototype logits")
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = exp / exp.sum(axis=1, keepdims=True)
    return HeadPass(net, hidden, p, perm)


def head_backward(fwd: HeadPass, dp: np.ndarray, head: DiscoveryHead):
    """Reverse of head_forward (softmax, MLP, block sort) for the gradient dp
    (Q, n) of the weights p: returns (drows, dw1, db1, dw2, db2)."""
    if head.sorted_rows and fwd.perm is None:
        raise ValueError("a sorted head's pass given sorted blocks cannot be reversed")
    dlogits = (fwd.p * (dp - (fwd.p * dp).sum(axis=1, keepdims=True))).reshape(-1)
    dz1 = np.outer(dlogits, head.w2) * (fwd.hidden > 0.0)
    dnet = dz1 @ head.w1
    if fwd.perm is not None:
        dsorted, dnet = dnet, np.empty(fwd.perm.size)
        dnet[fwd.perm.ravel()] = dsorted.ravel()
    return (dnet.reshape(*fwd.p.shape, -1), dz1.T @ fwd.net, dz1.sum(axis=0),
            fwd.hidden.T @ dlogits, dlogits.sum().reshape(1))


def heuristic_picks(rows: np.ndarray, blocks: np.ndarray | None = None) -> np.ndarray:
    """Training-free baseline over (Q, n, m*n) finite similarity rows: per query region average
    over supports the max similarity within each support image (column 0 of blocks =
    sorted_blocks(rows)) and return each query's argmax region, the lowest on a tie."""
    blocks = sorted_blocks(rows) if blocks is None else blocks
    return np.argmax(blocks[..., 0].mean(axis=2), axis=1)


def baseline_region_word(query_hat: np.ndarray, w_c: np.ndarray) -> np.ndarray:
    """Region-word baseline over Q queries' unit-normalized region features
    (Q, n, d) and a text embedding w_c, one (d,) for all queries or one per
    query (Q, d) along the last axis: each query's argmax of cosine(f_i, w_c)."""
    w_c = np.asarray(w_c, dtype=np.float64)
    unit = (w_c / _embedding_norms(w_c))[..., None]
    return np.argmax((query_hat @ unit)[..., 0], axis=1)


def baseline_max_size(areas: np.ndarray) -> np.ndarray:
    """Max-size baseline: each query's largest region, from areas (Q, n)."""
    areas = np.asarray(areas, dtype=np.float64)
    if areas.ndim != 2 or areas.shape[1] == 0:
        raise ValueError("areas must be a non-empty (Q, n) array")
    return np.argmax(areas, axis=1)
