"""Scalar reference definitions the tests check the batched library ops against.

The library computes similarity rows, the alignment losses and box IoU in
batches (`similarity_rows`, `training._bce_rows`, `evaluation._covered`); the
functions here state each operation once per pair of vectors or boxes, as
the paper writes it, with its input checks.
"""

from __future__ import annotations

import numpy as np

from codiscover.core import OpenVocabClassifier, softplus
from codiscover.evaluation import _iou


def unit_rows(matrix: np.ndarray, what: str) -> np.ndarray:
    """Feature rows (along the last axis) scaled to unit L2 norm."""
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(f"{what}: zero feature row")
    return matrix / norms


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


def iou(box_a, box_b) -> np.ndarray:
    """Intersection over union of (x1, y1, x2, y2) boxes along the last axis,
    broadcast over the leading axes; refuses a degenerate box, then computes
    through the arithmetic that box-mode scoring runs."""
    a = np.asarray(box_a, dtype=np.float64)
    b = np.asarray(box_b, dtype=np.float64)
    for box in (a, b):
        if box.shape[-1:] != (4,):
            raise ValueError(f"degenerate box array of shape {box.shape}, not (..., 4)")
        bad = np.flatnonzero(np.any(box[..., 2:] <= box[..., :2], axis=-1))
        if bad.size:
            x1, y1, x2, y2 = box.reshape(-1, 4)[bad[0]].tolist()
            raise ValueError(f"degenerate box {bad[0]}: ({x1}, {y1}, {x2}, {y2})")
    return _iou(a, b)
