"""Oracle-labeled synthetic region-feature worlds and feature-file codecs.

The generator emulates grouped image-text data: each concept owns a latent
unit prototype in feature space, true regions are noisy copies of their
concept's prototype, distractor regions are noisy copies of prototypes the
caption does not mention, and the concept's text embedding equals its visual
prototype (optionally rotated to stress-test text guidance).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, NamedTuple

import numpy as np

from ._binio import (
    atomic_writer,
    read_container,
    read_records,
    read_str,
    read_u32,
    utf8_lines,
    write_container,
    write_records,
    write_str,
    write_u32,
)
from .corpus import CaptionRecord, Lexicon
from .errors import FormatError

FEATURE_MAGIC = b"CODF"
TEXT_MAGIC = b"CODT"
_FORMAT_VERSION = 1
_FLAG_BOXES = 1
_FLAG_AREAS = 2


class RegionFeatureSet(NamedTuple):
    """Views of one image's rows of the feature, box (x1, y1, x2, y2) and area
    blocks, as the loaders and Scenario.feature_sets give them; None for an absent block."""

    image_id: str
    features: np.ndarray
    boxes: np.ndarray | None
    areas: np.ndarray | None


# Images per chunk of _check_rows' value checks, so that no temporary grows
# with the number of images (a chunk's masks are 128 KB at n=16, d=32).
_CHECK_CHUNK = 256


def _check_rows(image_ids: list[str], features: np.ndarray, boxes: np.ndarray | None = None,
                areas: np.ndarray | None = None) -> None:
    """The one check of a feature block: N >= 0 distinct image ids, features
    (N, n, d), boxes (N, n, 4) and areas (N, n), the last two optional; the
    values _CHECK_CHUNK images at a time. Raises ValueError naming the first
    repeated id, or the first bad image and the first check it fails."""
    if len(features) != len(image_ids):
        raise ValueError(f"one feature row per image id needed: {len(features)} rows, "
                         f"{len(image_ids)} ids")
    if len(set(image_ids)) < len(image_ids):
        seen = set()
        repeat = next(i for i in image_ids if i in seen or seen.add(i))
        raise ValueError(f"duplicate image id {repeat!r}")
    prefix = f"image {image_ids[0]!r}: " if image_ids else ""
    n = features.shape[1] if features.ndim == 3 and features.shape[2] else 0
    if not n:
        raise ValueError(f"{prefix}features must be a non-empty 2-D matrix")
    if boxes is not None and boxes.shape != (*features.shape[:2], 4):
        raise ValueError(f"{prefix}boxes must have shape ({n}, 4)")
    if areas is not None and areas.shape != features.shape[:2]:
        raise ValueError(f"{prefix}areas must have shape ({n},)")
    for start in range(0, len(features), _CHECK_CHUNK):
        chunk = slice(start, start + _CHECK_CHUNK)
        _check_values(image_ids[chunk], features[chunk],
                      *(None if a is None else a[chunk] for a in (boxes, areas)))


def _check_values(image_ids: list[str], features: np.ndarray, boxes: np.ndarray | None,
                  areas: np.ndarray | None) -> None:
    """_check_rows' value checks over blocks of the shapes it checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        # A row's squares sum to zero exactly when its norm does (underflow
        # included), in any order of addition.
        bad = {"non-finite feature values": ~np.isfinite(features).all(axis=(1, 2)),
               "zero feature row": (np.einsum("ijk,ijk->ij", features, features) == 0).any(1)}
        if boxes is not None:
            bad["non-finite box values"] = ~np.isfinite(boxes).all(axis=(1, 2))
            bad["degenerate box (x1<x2, y1<y2 required)"] = \
                (boxes[..., 2:] <= boxes[..., :2]).any(axis=(1, 2))
        if areas is not None:
            bad["areas must be positive finite"] = ~(np.isfinite(areas) & (areas > 0.0)).all(1)
        if boxes is not None and areas is not None:
            # Relative agreement to 1e-9; extents or their product may overflow
            # to inf, which would pass the bound, so the product must be finite.
            extent = boxes[..., 2:] - boxes[..., :2]
            box_areas = extent[..., 0] * extent[..., 1]
            agree = np.isfinite(box_areas) & (np.abs(areas - box_areas) <= 1e-9 * box_areas)
            bad["areas disagree with box extents"] = ~agree.all(axis=1)
    table = np.array(list(bad.values()))
    if table.any():
        image = table.any(axis=0).argmax()
        raise ValueError(f"image {image_ids[image]!r}: {list(bad)[table[:, image].argmax()]}")


def _row_views(image_ids: list[str], *blocks: np.ndarray | None) -> list[RegionFeatureSet]:
    """RegionFeatureSets of views of the rows of blocks _check_rows passed."""
    return list(map(RegionFeatureSet, image_ids,
                    *(itertools.repeat(None) if b is None else b for b in blocks)))


@dataclass
class TextEmbeddingTable:
    """Concept id -> d-vector text embedding. `rule_tag` names the one
    caption-proxy rule, `caption_embeddings`, and is written into CODT files."""

    embeddings: dict[int, np.ndarray]
    rule_tag: ClassVar[str] = "unit-mean-of-concept-embeddings"

    def __post_init__(self) -> None:
        for cid, vec in self.embeddings.items():
            vec = np.asarray(vec, dtype=np.float64)
            # Non-finite values give a non-finite norm; finite ones may overflow to one.
            with np.errstate(over="ignore"):
                if vec.ndim != 1 or not 0.0 < np.linalg.norm(vec) < np.inf:
                    raise ValueError(f"concept {cid}: embedding must be a finite nonzero "
                                     "vector with a finite norm")
            self.embeddings[cid] = vec

    def vector(self, concept_id: int) -> np.ndarray:
        if concept_id not in self.embeddings:
            raise ValueError(f"concept {concept_id} has no text embedding")
        return self.embeddings[concept_id]

    def caption_embedding(self, concept_ids: Iterable[int]) -> np.ndarray:
        """Caption proxy: arithmetic mean of the concept embeddings, unit norm."""
        return self.caption_embeddings([concept_ids])[0]

    def caption_embeddings(self, concept_lists: Iterable[Iterable[int]]) -> np.ndarray:
        """Caption proxies (R, d) of R captions' concept lists, from one
        per-caption concept count matrix times the embeddings they name."""
        concept_lists = [list(ids) for ids in concept_lists]
        named = dict.fromkeys(cid for ids in concept_lists for cid in ids)
        column = {cid: j for j, cid in enumerate(named)}
        vecs = [self.vector(cid) for cid in column]
        counts = np.zeros((len(concept_lists), len(column)))
        for r, ids in enumerate(concept_lists):
            if not ids:
                raise ValueError("caption mentions no embeddable concepts")
            for cid in ids:
                counts[r, column[cid]] += 1.0
        mean = (counts @ np.array(vecs)) / counts.sum(axis=1, keepdims=True)
        # One dot per row, as np.linalg.norm computes it for a single vector.
        norm = np.sqrt((mean[:, None, :] @ mean[:, :, None])[:, 0])
        if not norm.all():
            raise ValueError("caption embedding collapsed to the zero vector")
        return mean / norm


@dataclass
class ScenarioTruth:
    """Oracle labels per image, as Scenario.truth derives them from `owner`."""

    true_pairs: dict[str, set[tuple[int, int]]]
    gt_boxes: dict[tuple[str, int], list[np.ndarray]]


@dataclass
class ScenarioConfig:
    """Shape and noise of a synthetic world. Concept prototypes are unit
    vectors, and orthonormal exactly when num_concepts <= d."""

    num_concepts: int = 20
    d: int = 32
    n: int = 16
    images_per_concept: int = 25
    distractor_count: int = 4
    noise_sigma: float = 0.1
    multi_concept_rate: float = 0.0
    seed: int = 0
    misaligned_text_degrees: float = 0.0
    max_size_bias: float = 0.5
    with_boxes: bool = False
    second_concept: str = "random"

    def __post_init__(self) -> None:
        for name in ("num_concepts", "d", "n", "images_per_concept", "distractor_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.multi_concept_rate <= 1.0:
            raise ValueError("multi_concept_rate must be in [0, 1]")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= self.max_size_bias <= 1.0:
            raise ValueError("max_size_bias must be in [0, 1]")
        if self.misaligned_text_degrees < 0.0:
            raise ValueError("misaligned_text_degrees must be >= 0")
        if self.second_concept not in ("random", "partner"):
            raise ValueError("second_concept must be 'random' or 'partner'")
        concepts_per_caption = 2 if self.multi_concept_rate > 0.0 else 1
        if self.n < self.distractor_count + concepts_per_caption:
            raise ValueError(
                "n must be >= distractor_count plus one region per caption concept"
            )


@dataclass
class Scenario:
    """A synthetic world whose region features are blocks, checked once when
    built, with row r for image_ids[r]: features (N, n, d), boxes (N, n, 4) or
    None, areas (N, n), and owner (N, n), the concept id each region
    instantiates or -1 for a distractor. `feature_sets`, built on first use,
    holds one RegionFeatureSet of views per row."""

    records: list[CaptionRecord]
    image_ids: list[str]
    features: np.ndarray
    boxes: np.ndarray | None
    areas: np.ndarray
    owner: np.ndarray
    text_table: TextEmbeddingTable
    lexicon: Lexicon
    row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_rows(self.image_ids, self.features, self.boxes, self.areas)
        self.row_of = {image_id: r for r, image_id in enumerate(self.image_ids)}
        shape = self.features.shape[:2]
        if not (np.issubdtype(self.owner.dtype, np.integer) and self.owner.shape == shape
                and (self.owner >= -1).all()):
            raise ValueError(f"owner must be an integer block of shape {shape} with values >= -1")

    @functools.cached_property
    def feature_sets(self) -> list[RegionFeatureSet]:
        return _row_views(self.image_ids, self.features, self.boxes, self.areas)

    @functools.cached_property
    def truth(self) -> ScenarioTruth:
        """Per image, its (region, concept) pairs; in box worlds, per (image,
        concept), the true boxes as rows of `boxes` in ascending region order."""
        rows, regions = np.nonzero(self.owner >= 0)
        true_pairs, gt_boxes = {image_id: set() for image_id in self.image_ids}, {}
        for r, j, c in zip(rows.tolist(), regions.tolist(), self.owner[rows, regions].tolist()):
            true_pairs[self.image_ids[r]].add((j, c))
            if self.boxes is not None:
                gt_boxes.setdefault((self.image_ids[r], c), []).append(self.boxes[r, j])
        return ScenarioTruth(true_pairs, gt_boxes)

    def feature_map(self) -> dict[str, RegionFeatureSet]:
        return {fs.image_id: fs for fs in self.feature_sets}


def concept_term(concept_id: int) -> str:
    return f"concept{concept_id:03d}"


def _make_prototypes(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    k, d = config.num_concepts, config.d
    raw = rng.standard_normal((k, d))
    if k <= d:
        q, r = np.linalg.qr(raw.T)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        return (q * signs).T
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _make_text_embeddings(prototypes: np.ndarray, config: ScenarioConfig,
                          rng: np.random.Generator) -> np.ndarray:
    if config.misaligned_text_degrees == 0.0:
        return prototypes
    theta = math.radians(config.misaligned_text_degrees)
    out = np.empty_like(prototypes)
    for c in range(prototypes.shape[0]):
        u = rng.standard_normal(prototypes.shape[1])
        u /= np.linalg.norm(u)
        v = math.cos(theta) * prototypes[c] + math.sin(theta) * u
        out[c] = v / np.linalg.norm(v)
    return out


def _partner(concept_id: int, num_concepts: int) -> int | None:
    other = concept_id + 1 if concept_id % 2 == 0 else concept_id - 1
    if other >= num_concepts:
        other = concept_id - 1
    return other if 0 <= other != concept_id else None


# Instances of each caption concept: uniform in [_INSTANCES_MIN, _INSTANCES_MAX],
# capped so that every concept after it keeps one region of the budget.
_INSTANCES_MIN, _INSTANCES_MAX = 1, 3


def _caption(concept_id: int, config: ScenarioConfig,
             rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """A caption's concept ids and each one's instance count."""
    concepts = [concept_id]
    if config.multi_concept_rate > 0.0 and rng.random() < config.multi_concept_rate:
        if config.second_concept == "partner":
            other = _partner(concept_id, config.num_concepts)
        elif config.num_concepts > 1:
            other = int(rng.integers(config.num_concepts - 1))
            other += other >= concept_id
        else:
            other = None
        if other is not None:
            concepts.append(other)
    budget, counts = config.n - config.distractor_count, []
    for j in range(len(concepts)):
        hi = min(_INSTANCES_MAX, budget - (len(concepts) - j - 1))
        counts.append(int(rng.integers(_INSTANCES_MIN, hi + 1)))
        budget -= counts[-1]
    return concepts, counts


@np.errstate(all="ignore")
def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Generate an oracle-labeled synthetic world from a generator seeded with
    config.seed. The per-image loop makes the draws; the draw-free arithmetic
    (largest region, box corners, areas) runs once over the blocks after it.
    numpy's floating-point warnings stay silent: Scenario refuses what overflows.

    Returns:
        A Scenario bundling caption records (concepts filled), region feature
        blocks, the region-ownership block, the text embedding table, and the
        term lexicon.
    """
    rng = np.random.default_rng(config.seed)
    prototypes = _make_prototypes(config, rng)
    text = _make_text_embeddings(prototypes, config, rng)
    k, d, n = config.num_concepts, config.d, config.n

    per_concept = config.images_per_concept
    image_ids = [f"img_{c:03d}_{i:03d}" for c in range(k) for i in range(per_concept)]
    features = np.empty((len(image_ids), n, d))
    boxes = np.empty((len(image_ids), n, 4)) if config.with_boxes else None
    areas = np.empty((len(image_ids), n))  # size targets until boxes are built
    owner = np.empty((len(image_ids), n), dtype=np.int64)
    # Per image, its largest region's owner label and rank among that label's
    # regions in region order.
    largest = np.empty((len(image_ids), 2), dtype=np.int64)
    records: list[CaptionRecord] = []

    # One image's regions before the permutation, caption instances first:
    # noise, bases, and prototype ids that become owner labels.
    noise, bases, labels = np.empty((n, d)), np.empty((n, d)), np.empty(n, dtype=np.int64)
    for row, image_id in enumerate(image_ids):
        concepts, counts = _caption(row // per_concept, config, rng)
        cursor = 0
        for cc, count in zip(concepts, counts):
            rng.standard_normal(out=noise[cursor : cursor + count])
            labels[cursor : cursor + count] = cc
            cursor += count
        # Distractors copy a prototype the caption does not name (the r-th
        # free concept id is r stepped past each smaller named id), or with
        # none free, a random direction.
        named = sorted(concepts)
        free = k - len(named)
        for j in range(cursor, n):
            if free:
                r = int(rng.integers(free))
                for cc in named:
                    r += r >= cc
                labels[j] = r
            else:
                base = rng.standard_normal(out=bases[j])
                base /= np.linalg.norm(base)
            rng.standard_normal(out=noise[j])
        gathered = n if free else cursor
        prototypes.take(labels[:gathered], axis=0, out=bases[:gathered])
        labels[cursor:] = -1
        noise *= config.noise_sigma
        noise += bases

        perm = rng.permutation(n)
        noise.take(perm, axis=0, out=features[row])
        labels.take(perm, out=owner[row])
        areas[row] = rng.uniform(1.0, 2.0, size=n)
        # The largest region is one of a named concept's instances, or a
        # distractor; config validation leaves every image at least one.
        if rng.random() < config.max_size_bias:
            c = int(rng.integers(len(concepts)))
            largest[row] = concepts[c], rng.integers(counts[c])
        else:
            largest[row] = -1, rng.integers(n - cursor)
        if boxes is not None:
            # Aspect ratios wait in the x2 column until the corners are built.
            boxes[row, :, 2] = rng.uniform(0.5, 2.0, size=n)
            boxes[row, :, 0] = rng.uniform(0.0, 100.0, size=n)
            boxes[row, :, 1] = rng.uniform(0.0, 100.0, size=n)

        caption = "a photo of a " + " and a ".join(concept_term(cc) for cc in concepts)
        records.append(CaptionRecord(image_id, caption, concepts))

    # A label's rank-th region is where its running count first exceeds rank.
    seen = np.cumsum(owner == largest[:, :1], axis=1) > largest[:, 1:]
    areas[np.arange(len(image_ids)), seen.argmax(axis=1)] = areas.max(axis=1) * 1.5 + 1.0
    if boxes is not None:
        x1, y1, x2, y2 = np.moveaxis(boxes, 2, 0)
        np.sqrt(np.multiply(x2, areas, out=x2), out=x2)  # width
        np.add(np.divide(areas, x2, out=y2), y1, out=y2)  # y1 + height
        x2 += x1
        np.multiply(x2 - x1, y2 - y1, out=areas)

    table = TextEmbeddingTable(dict(enumerate(text)))  # rows of one block
    lexicon = Lexicon([concept_term(c) for c in range(k)])
    return Scenario(records, image_ids, features, boxes, areas, owner, table, lexicon)


def save_features(image_ids: list[str], features: np.ndarray, boxes: np.ndarray | None,
                  areas: np.ndarray | None, path: str) -> None:
    """Write Scenario-like blocks of image_ids' rows (None for an absent one) as CODF."""
    if not image_ids:
        raise ValueError("no images to save")
    _check_rows(image_ids, features, boxes, areas)
    flags = (_FLAG_BOXES if boxes is not None else 0) | (_FLAG_AREAS if areas is not None else 0)
    with write_container(path, FEATURE_MAGIC, _FORMAT_VERSION,
                         (len(image_ids), *features.shape[1:], flags)) as fh:
        write_records(fh, image_ids, [features, boxes, areas])


def load_features(path: str) -> list[RegionFeatureSet]:
    """Read a CODF container straight into blocks sized by its header, once
    the file is long enough to hold that many records; after the last record,
    one check of shapes and values names the first bad image. Returns views
    of the rows."""
    with read_container(path, FEATURE_MAGIC, _FORMAT_VERSION) as fh:
        count, n, d, flags = (read_u32(fh) for _ in range(4))
        if n < 1 or d < 1:
            raise FormatError(f"invalid header dimensions n={n}, d={d}")
        image_ids, blocks = read_records(
            fh, count, [(n, d), (n, 4) if flags & _FLAG_BOXES else None,
                        (n,) if flags & _FLAG_AREAS else None])
    _check_rows(image_ids, *blocks)
    return _row_views(image_ids, *blocks)


# The one header line save_features_tsv writes, dimensions with no leading zero.
_TSV_HEADER = re.compile(
    r"# CODF-TSV\tn=([1-9][0-9]*)\td=([1-9][0-9]*)\tboxes=([01])\tareas=([01])\n?")


def save_features_tsv(image_ids: list[str], features: np.ndarray, boxes: np.ndarray | None,
                      areas: np.ndarray | None, path: str) -> None:
    """save_features' blocks in the equivalent debug TSV; repr keeps round-trips exact."""
    if not image_ids:
        raise ValueError("no images to save")
    _check_rows(image_ids, features, boxes, areas)
    for image_id in image_ids:
        if any(ch in image_id for ch in "\t\n\r"):
            raise ValueError(f"image id {image_id!r} contains a separator character")
    n, d = features.shape[1:]
    blocks = [a.reshape(len(a), n, -1) for a in (features, boxes, areas) if a is not None]
    with atomic_writer(path, "w") as fh:
        fh.write(f"# CODF-TSV\tn={n}\td={d}\tboxes={int(boxes is not None)}"
                 f"\tareas={int(areas is not None)}\n")
        for image_id, *rows in zip(image_ids, *blocks):
            columns = [[" ".join(map(repr, row)) for row in a.tolist()] for a in rows]
            fh.writelines("\t".join((image_id, str(r), *fields)) + "\n"
                          for r, fields in enumerate(zip(*columns)))


def load_features_tsv(path: str) -> list[RegionFeatureSet]:
    """Read, in one pass, the lines save_features_tsv writes: its one header, then
    each image's n rows together, labelled 0..n-1 in order, with printable ASCII
    values parted by single spaces; no blank line. Blocks and checks as load_features."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = utf8_lines(fh)
        header = _TSV_HEADER.fullmatch(next(lines, (1, ""))[1])
        if header is None:
            raise FormatError("line 1: expected the header '# CODF-TSV\\tn=N\\td=D\\tboxes=0|1"
                              "\\tareas=0|1' (N, D >= 1, no leading zeros)")
        n, d, has_boxes, has_areas = map(int, header.groups())
        shapes = [(n, d), (n, 4) if has_boxes else None, (n,) if has_areas else None]
        expected_fields = 3 + has_boxes + has_areas
        records = ((lineno, line.rstrip("\n").split("\t")) for lineno, line in lines)
        image_ids, columns = {}, ([], [], [])
        for image_id, group in itertools.groupby(records, key=lambda rec: rec[1][0]):
            features, boxes, areas = rows = ([], [], [])
            for lineno, fields in group:
                if len(fields) != expected_fields:
                    raise FormatError(f"line {lineno}: expected {expected_fields} fields")
                k = len(features)
                if k >= n or fields[1] != str(k):
                    raise FormatError(f"line {lineno}: image {image_id!r} needs row labels "
                                      f"0..{n - 1} in order; row {k} is labelled {fields[1]!r}")
                numbers = " ".join(fields[2:])
                if "_" in numbers or not numbers.isascii():
                    raise FormatError(f"line {lineno}: values must be ASCII and hold no '_'")
                if has_areas and fields[-1] != fields[-1].strip():
                    raise FormatError(f"line {lineno}: whitespace around the area value")
                if not numbers.isprintable():  # float() strips a form feed or vertical tab
                    raise FormatError(f"line {lineno}: values hold a control character")
                try:
                    features.append(list(map(float, fields[2].split(" "))))
                    boxes.append(list(map(float, fields[3].split(" "))) if has_boxes
                                 else [0.0] * 4)
                    areas.append(float(fields[-1]) if has_areas else 0.0)
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from None
                if len(features[-1]) != d:
                    raise FormatError(f"line {lineno}: expected {d} feature values")
                if len(boxes[-1]) != 4:
                    raise FormatError(f"line {lineno}: expected 4 box values")
            if image_id in image_ids:
                raise FormatError(f"line {lineno}: duplicate image id {image_id!r}")
            if len(features) != n:
                raise FormatError(f"image {image_id!r} has {len(features)} of its {n} rows")
            image_ids[image_id] = None
            for column, values, shape in zip(columns, rows, shapes):
                if shape:
                    column.append(np.array(values))
    blocks = [np.array(column).reshape(-1, *shape) if shape else None
              for column, shape in zip(columns, shapes)]
    _check_rows(list(image_ids), *blocks)
    return _row_views(list(image_ids), *blocks)


def save_text_embeddings(table: TextEmbeddingTable, path: str) -> None:
    """Write the binary CODT container, rows sorted by concept id."""
    if not table.embeddings:
        raise ValueError("no embeddings to save")
    ids = sorted(table.embeddings)
    d = table.embeddings[ids[0]].shape[0]
    for cid in ids:
        if table.embeddings[cid].shape != (d,):
            raise ValueError(f"concept {cid}: inconsistent embedding dimension")
    with write_container(path, TEXT_MAGIC, _FORMAT_VERSION, (len(ids), d)) as fh:
        write_str(fh, table.rule_tag)
        write_records(fh, ids, [[table.embeddings[cid] for cid in ids]], write_u32)


def load_text_embeddings(path: str) -> TextEmbeddingTable:
    with read_container(path, TEXT_MAGIC, _FORMAT_VERSION) as fh:
        count, d = read_u32(fh), read_u32(fh)
        if d < 1:
            raise FormatError(f"invalid header dimension d={d}")
        rule_tag = read_str(fh)
        if rule_tag != TextEmbeddingTable.rule_tag:
            raise FormatError(f"unknown caption-proxy rule {rule_tag!r}")
        cids, (vectors,) = read_records(fh, count, [(d,)], read_u32, "concept id")
        return TextEmbeddingTable(dict(zip(cids, vectors)))
