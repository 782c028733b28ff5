"""Oracle-labeled synthetic region-feature worlds and feature-file codecs.

The generator emulates grouped image-text data: each concept owns a latent
unit prototype in feature space, true regions are noisy copies of their
concept's prototype, distractor regions are noisy copies of prototypes the
caption does not mention, and the concept's text embedding equals its visual
prototype (optionally rotated to stress-test text guidance).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

import numpy as np

from ._binio import (
    atomic_writer,
    read_container,
    read_f64_array,
    read_str,
    read_u32,
    utf8_lines,
    write_f64_array,
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


@dataclass
class RegionFeatureSet:
    """Per-image region proposals: an n x d feature matrix plus optional
    boxes (x1, y1, x2, y2) and areas."""

    image_id: str
    features: np.ndarray
    boxes: np.ndarray | None = None
    areas: np.ndarray | None = None

    def __post_init__(self) -> None:
        features = self.features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError(f"image {self.image_id!r}: features must be a non-empty 2-D matrix")
        if not np.isfinite(features).all():
            raise ValueError(f"image {self.image_id!r}: non-finite feature values")
        # A row's squares sum to zero exactly when its norm does (underflow included).
        if ((features * features).sum(axis=1) == 0.0).any():
            raise ValueError(f"image {self.image_id!r}: zero feature row")
        n = features.shape[0]
        boxes = self.boxes
        if boxes is not None:
            boxes = self.boxes = np.asarray(boxes, dtype=np.float64)
            if boxes.shape != (n, 4):
                raise ValueError(f"image {self.image_id!r}: boxes must have shape ({n}, 4)")
            if not np.isfinite(boxes).all():
                raise ValueError(f"image {self.image_id!r}: non-finite box values")
            if (boxes[:, 2:] <= boxes[:, :2]).any():
                raise ValueError(f"image {self.image_id!r}: degenerate box (x1<x2, y1<y2 required)")
        if self.areas is not None:
            areas = self.areas = np.asarray(self.areas, dtype=np.float64)
            if areas.shape != (n,):
                raise ValueError(f"image {self.image_id!r}: areas must have shape ({n},)")
            if not np.isfinite(areas).all() or (areas <= 0.0).any():
                raise ValueError(f"image {self.image_id!r}: areas must be positive finite")
            if boxes is not None:
                # Relative agreement to 1e-9; extents or their product may
                # overflow to inf, which would pass the bound, so the product
                # must also be finite.
                with np.errstate(over="ignore"):
                    extent = boxes[:, 2:] - boxes[:, :2]
                    box_areas = extent[:, 0] * extent[:, 1]
                if not (np.isfinite(box_areas).all()
                        and (np.abs(areas - box_areas) <= 1e-9 * box_areas).all()):
                    raise ValueError(f"image {self.image_id!r}: areas disagree with box extents")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class TextEmbeddingTable:
    """Concept id -> d-vector text embedding. `rule_tag` names the one
    caption-proxy rule, `caption_embeddings`, and is written into CODT files."""

    embeddings: dict[int, np.ndarray]
    rule_tag: ClassVar[str] = "unit-mean-of-concept-embeddings"

    def __post_init__(self) -> None:
        for cid, vec in self.embeddings.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.ndim != 1 or not np.all(np.isfinite(vec)) or np.linalg.norm(vec) == 0.0:
                raise ValueError(f"concept {cid}: embedding must be a finite nonzero vector")
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
    """Oracle labels: which region indices instantiate which concept."""

    true_pairs: dict[str, set[tuple[int, int]]]
    gt_boxes: dict[tuple[str, int], list[np.ndarray]] = field(default_factory=dict)

    def is_true(self, image_id: str, region_index: int, concept_id: int) -> bool:
        return (region_index, concept_id) in self.true_pairs.get(image_id, set())


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
    instances_min: int = 1
    instances_max: int = 3
    seed: int = 0
    misaligned_text_degrees: float = 0.0
    max_size_bias: float = 0.5
    with_boxes: bool = False
    second_concept: str = "random"

    def __post_init__(self) -> None:
        for name in ("num_concepts", "d", "n", "images_per_concept", "distractor_count",
                     "instances_min", "instances_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.multi_concept_rate <= 1.0:
            raise ValueError("multi_concept_rate must be in [0, 1]")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.instances_min > self.instances_max:
            raise ValueError("instances_min must be <= instances_max")
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
    records: list[CaptionRecord]
    feature_sets: list[RegionFeatureSet]
    text_table: TextEmbeddingTable
    truth: ScenarioTruth
    lexicon: Lexicon

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


def _make_text_embeddings(
    prototypes: np.ndarray, config: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    if config.misaligned_text_degrees == 0.0:
        return prototypes.copy()
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


def _caption_concepts(
    concept_id: int, config: ScenarioConfig, rng: np.random.Generator
) -> list[int]:
    concepts = [concept_id]
    if config.multi_concept_rate > 0.0 and rng.random() < config.multi_concept_rate:
        if config.second_concept == "partner":
            other = _partner(concept_id, config.num_concepts)
        elif config.num_concepts > 1:
            other = int(rng.integers(config.num_concepts - 1))
            if other >= concept_id:
                other += 1
        else:
            other = None
        if other is not None:
            concepts.append(other)
    return concepts


def _instance_counts(
    num_caption_concepts: int, config: ScenarioConfig, rng: np.random.Generator
) -> list[int]:
    budget = config.n - config.distractor_count
    counts = []
    for j in range(num_caption_concepts):
        still_needed = num_caption_concepts - j - 1
        hi = min(config.instances_max, budget - still_needed)
        lo = min(config.instances_min, hi)
        counts.append(int(rng.integers(lo, hi + 1)))
        budget -= counts[-1]
    return counts


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Generate an oracle-labeled synthetic world from a generator seeded
    with config.seed.

    Returns:
        A Scenario bundling caption records (concepts filled), region feature
        sets, the text embedding table, oracle truth, and the term lexicon.
    """
    rng = np.random.default_rng(config.seed)
    prototypes = _make_prototypes(config, rng)
    text = _make_text_embeddings(prototypes, config, rng)
    k, d, n = config.num_concepts, config.d, config.n

    records: list[CaptionRecord] = []
    feature_sets: list[RegionFeatureSet] = []
    true_pairs: dict[str, set[tuple[int, int]]] = {}
    gt_boxes: dict[tuple[str, int], list[np.ndarray]] = {}

    for c in range(k):
        for i in range(config.images_per_concept):
            image_id = f"img_{c:03d}_{i:03d}"
            concepts = _caption_concepts(c, config, rng)
            counts = _instance_counts(len(concepts), config, rng)

            rows = np.empty((n, d))
            owner: list[int | None] = []
            cursor = 0
            for cc, count in zip(concepts, counts):
                rows[cursor : cursor + count] = prototypes[cc] + (
                    config.noise_sigma * rng.standard_normal((count, d))
                )
                owner.extend([cc] * count)
                cursor += count
            # Distractors copy a prototype the caption does not name: the r-th
            # free concept id is r stepped past each smaller named id.
            named = sorted(concepts)
            free = k - len(named)
            bases, noise = [], []
            for _ in range(n - cursor):
                if free:
                    r = int(rng.integers(free))
                    for cc in named:
                        r += r >= cc
                    bases.append(prototypes[r])
                else:
                    g = rng.standard_normal(d)
                    bases.append(g / np.linalg.norm(g))
                noise.append(rng.standard_normal(d))
            rows[cursor:] = np.array(bases) + config.noise_sigma * np.array(noise)
            owner.extend([None] * (n - cursor))

            perm = rng.permutation(n)
            rows = rows[perm]
            owner = [owner[j] for j in perm.tolist()]
            true_idx = [j for j in range(n) if owner[j] is not None]

            target = rng.uniform(1.0, 2.0, size=n)
            if rng.random() < config.max_size_bias:
                cc = concepts[int(rng.integers(len(concepts)))]
                cands = [j for j in true_idx if owner[j] == cc]
            else:
                cands = [j for j in range(n) if owner[j] is None] or list(range(n))
            boost = cands[int(rng.integers(len(cands)))]
            target[boost] = target.max() * 1.5 + 1.0

            if config.with_boxes:
                aspect = rng.uniform(0.5, 2.0, size=n)
                x1 = rng.uniform(0.0, 100.0, size=n)
                y1 = rng.uniform(0.0, 100.0, size=n)
                width = np.sqrt(target * aspect)
                height = target / width
                boxes = np.stack([x1, y1, x1 + width, y1 + height], axis=1)
                areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
            else:
                boxes = None
                areas = target

            feature_sets.append(RegionFeatureSet(image_id, rows, boxes, areas))
            true_pairs[image_id] = {(j, owner[j]) for j in true_idx}
            if boxes is not None:
                for cc in concepts:
                    gt_boxes[(image_id, cc)] = [
                        boxes[j].copy() for j in true_idx if owner[j] == cc
                    ]

            terms = [concept_term(cc) for cc in concepts]
            if len(terms) == 1:
                caption = f"a photo of a {terms[0]}"
            else:
                caption = f"a photo of a {terms[0]} and a {terms[1]}"
            records.append(CaptionRecord(image_id, caption, list(concepts)))

    table = TextEmbeddingTable({c: text[c].copy() for c in range(k)})
    lexicon = Lexicon([concept_term(c) for c in range(k)])
    return Scenario(records, feature_sets, table, ScenarioTruth(true_pairs, gt_boxes), lexicon)


def _feature_layout(feature_sets: list[RegionFeatureSet]) -> tuple[int, int, bool, bool]:
    """(n, d, has_boxes, has_areas), which every saved feature set must share."""
    if not feature_sets:
        raise ValueError("no feature sets to save")
    first = feature_sets[0]
    layout = (first.n, first.d, first.boxes is not None, first.areas is not None)
    for fs in feature_sets:
        if (fs.n, fs.d) != layout[:2]:
            raise ValueError(f"image {fs.image_id!r}: inconsistent shape")
        if (fs.boxes is not None, fs.areas is not None) != layout[2:]:
            raise ValueError(f"image {fs.image_id!r}: inconsistent optional fields")
    return layout


def save_features(feature_sets: list[RegionFeatureSet], path: str) -> None:
    """Write the binary CODF container (little-endian float64)."""
    n, d, has_boxes, has_areas = _feature_layout(feature_sets)
    flags = (_FLAG_BOXES if has_boxes else 0) | (_FLAG_AREAS if has_areas else 0)
    with atomic_writer(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        for value in (_FORMAT_VERSION, len(feature_sets), n, d, flags):
            write_u32(fh, value)
        for fs in feature_sets:
            write_str(fh, fs.image_id)
            write_f64_array(fh, fs.features)
            if has_boxes:
                write_f64_array(fh, fs.boxes)
            if has_areas:
                write_f64_array(fh, fs.areas)


def load_features(path: str) -> list[RegionFeatureSet]:
    """Read a CODF container, validating shapes and finiteness per image."""
    with read_container(path, FEATURE_MAGIC, _FORMAT_VERSION) as fh:
        count, n, d, flags = (read_u32(fh) for _ in range(4))
        if n < 1 or d < 1:
            raise FormatError(f"invalid header dimensions n={n}, d={d}")
        out: dict[str, RegionFeatureSet] = {}
        for _ in range(count):
            image_id = read_str(fh)
            if image_id in out:
                raise FormatError(f"duplicate image id {image_id!r}")
            features = read_f64_array(fh, n * d).reshape(n, d)
            boxes = read_f64_array(fh, n * 4).reshape(n, 4) if flags & _FLAG_BOXES else None
            areas = read_f64_array(fh, n) if flags & _FLAG_AREAS else None
            out[image_id] = RegionFeatureSet(image_id, features, boxes, areas)
        return list(out.values())


def save_features_tsv(feature_sets: list[RegionFeatureSet], path: str) -> None:
    """Equivalent debug TSV format; floats use repr so round-trips are exact."""
    n, d, has_boxes, has_areas = _feature_layout(feature_sets)
    for fs in feature_sets:
        if any(ch in fs.image_id for ch in "\t\n\r"):
            raise ValueError(f"image id {fs.image_id!r} contains a separator character")
    with atomic_writer(path, "w") as fh:
        fh.write(f"# CODF-TSV\tn={n}\td={d}\tboxes={int(has_boxes)}\tareas={int(has_areas)}\n")
        for fs in feature_sets:
            for r in range(n):
                fields = [fs.image_id, str(r),
                          " ".join(repr(float(v)) for v in fs.features[r])]
                if has_boxes:
                    fields.append(" ".join(repr(float(v)) for v in fs.boxes[r]))
                if has_areas:
                    fields.append(repr(float(fs.areas[r])))
                fh.write("\t".join(fields) + "\n")


def load_features_tsv(path: str) -> list[RegionFeatureSet]:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = utf8_lines(fh)
        header = next(lines, (1, ""))[1].rstrip("\n").split("\t")
        if not header or header[0] != "# CODF-TSV":
            raise FormatError("missing CODF-TSV header")
        opts = dict(part.partition("=")[::2] for part in header[1:])
        try:
            n, d = int(opts["n"]), int(opts["d"])
            has_boxes, has_areas = opts["boxes"] == "1", opts["areas"] == "1"
        except KeyError as exc:
            raise FormatError(f"line 1: the header has no {exc.args[0]}= field") from None
        except ValueError:
            raise FormatError("line 1: the header's n= and d= must be integers") from None
        if n < 1 or d < 1:
            raise FormatError(f"line 1: invalid header dimensions n={n}, d={d}")
        expected_fields = 3 + int(has_boxes) + int(has_areas)
        size = os.fstat(fh.fileno()).st_size
        rows: dict[str, dict] = {}
        for lineno, line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != expected_fields:
                raise FormatError(f"line {lineno}: expected {expected_fields} fields")
            image_id = fields[0]
            r = int(fields[1]) if fields[1].isdecimal() else n
            if r >= n:
                raise FormatError(f"line {lineno}: row index {fields[1]!r} is not in [0, {n})")
            if image_id not in rows:
                # Every image must give n rows of d values, each at least one
                # byte of the file, so what is allocated never outgrows the file.
                if (len(rows) + 1) * n * d > size:
                    raise FormatError(f"line {lineno}: n={n}, d={d} do not fit the file")
                rows[image_id] = {
                    "features": np.zeros((n, d)),
                    "boxes": np.zeros((n, 4)) if has_boxes else None,
                    "areas": np.zeros(n) if has_areas else None,
                    "seen": np.zeros(n, dtype=bool),
                }
            entry = rows[image_id]
            if entry["seen"][r]:
                raise FormatError(f"line {lineno}: duplicate row {r} of image {image_id!r}")
            entry["seen"][r] = True
            try:
                values = [float(v) for v in fields[2].split()]
                box = [float(v) for v in fields[3].split()] if has_boxes else [0.0] * 4
                area = float(fields[-1]) if has_areas else 0.0
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            if len(values) != d:
                raise FormatError(f"line {lineno}: expected {d} feature values")
            if len(box) != 4:
                raise FormatError(f"line {lineno}: expected 4 box values")
            for key, value in (("features", values), ("boxes", box), ("areas", area)):
                if entry[key] is not None:
                    entry[key][r] = value
    out = []
    for image_id, entry in rows.items():
        if not entry["seen"].all():
            raise FormatError(f"image {image_id!r} has {entry['seen'].sum()} of its {n} rows")
        out.append(RegionFeatureSet(image_id, entry["features"], entry["boxes"], entry["areas"]))
    return out


def save_text_embeddings(table: TextEmbeddingTable, path: str) -> None:
    """Write the binary CODT container, rows sorted by concept id."""
    if not table.embeddings:
        raise ValueError("no embeddings to save")
    ids = sorted(table.embeddings)
    d = table.embeddings[ids[0]].shape[0]
    for cid in ids:
        if table.embeddings[cid].shape != (d,):
            raise ValueError(f"concept {cid}: inconsistent embedding dimension")
    with atomic_writer(path, "wb") as fh:
        fh.write(TEXT_MAGIC)
        for value in (_FORMAT_VERSION, len(ids), d):
            write_u32(fh, value)
        write_str(fh, table.rule_tag)
        for cid in ids:
            write_u32(fh, cid)
            write_f64_array(fh, table.embeddings[cid])


def load_text_embeddings(path: str) -> TextEmbeddingTable:
    with read_container(path, TEXT_MAGIC, _FORMAT_VERSION) as fh:
        count, d = read_u32(fh), read_u32(fh)
        rule_tag = read_str(fh)
        if rule_tag != TextEmbeddingTable.rule_tag:
            raise FormatError(f"unknown caption-proxy rule {rule_tag!r}")
        embeddings = {}
        for _ in range(count):
            cid = read_u32(fh)
            if cid in embeddings:
                raise FormatError(f"duplicate concept id {cid}")
            embeddings[cid] = read_f64_array(fh, d)
        return TextEmbeddingTable(embeddings)
