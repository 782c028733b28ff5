"""Caption corpus ingestion and concept-group indexing.

Captions are matched against a user-supplied lexicon of object terms (the
stand-in for a language parser plus an object-hierarchy filter): text is
lowercased, ASCII punctuation is replaced by spaces, tokens are scanned
greedily longest-match-first so multi-word terms beat their own suffixes.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from ._binio import atomic_writer, utf8_lines
from .errors import FormatError

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase, replace ASCII punctuation with spaces, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass
class CaptionRecord:
    image_id: str
    caption: str
    concepts: list[int] = field(default_factory=list)


class Lexicon:
    """Ordered set of object terms; concept ids are dense in [0, len)."""

    def __init__(self, terms: Iterable[str]):
        self.terms: list[str] = []
        self._id_by_tokens: dict[tuple[str, ...], int] = {}
        self.max_phrase_len = 0
        for raw in terms:
            tokens = tuple(tokenize(raw))
            if not tokens:
                raise ValueError(f"lexicon term {raw!r} is empty after normalization")
            if tokens in self._id_by_tokens:
                raise ValueError(f"duplicate lexicon term {' '.join(tokens)!r}")
            self._id_by_tokens[tokens] = len(self.terms)
            self.terms.append(" ".join(tokens))
            self.max_phrase_len = max(self.max_phrase_len, len(tokens))
        if not self.terms:
            raise ValueError("lexicon is empty")

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, concept_id: int) -> str:
        return self.terms[concept_id]

    def lookup(self, tokens: tuple[str, ...]) -> int | None:
        return self._id_by_tokens.get(tokens)

    @classmethod
    def load(cls, path: str) -> "Lexicon":
        """Read one term per line; blank lines and `#` comments are skipped."""
        terms = []
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for _, line in utf8_lines(fh):
                line = line.strip()
                if line and not line.startswith("#"):
                    terms.append(line)
        return cls(terms)


@dataclass
class ConceptGroupIndex:
    """Concept id -> member image ids, with per-concept terms."""

    groups: dict[int, list[str]]
    terms: dict[int, str]

    def __post_init__(self) -> None:
        for cid in self.groups:
            if cid not in self.terms:
                raise ValueError(f"concept {cid}: missing term")

    @property
    def frequencies(self) -> dict[int, int]:
        """Concept id -> member count."""
        return {cid: len(ids) for cid, ids in self.groups.items()}

    def concept_ids(self) -> list[int]:
        return sorted(self.groups)


@dataclass
class MiniGroup:
    """Images drawn from one concept group; each serves once as the query
    against the others as supports."""

    concept_id: int
    image_ids: list[str]

    def __post_init__(self) -> None:
        if len(self.image_ids) < 2:
            raise ValueError("mini-group needs at least 2 images")


def parse_corpus(stream) -> list[CaptionRecord]:
    """Parse a caption corpus into records with empty concept lists.

    Args:
        stream: bytes, str, or a file object holding UTF-8 TSV lines of the
            form `image_id<TAB>caption`.

    Returns:
        One CaptionRecord per non-empty line, in corpus order.
    """
    if hasattr(stream, "read"):
        # A text stream's own decoding would fail before the line check.
        stream = getattr(stream, "buffer", stream).read()
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8", "surrogateescape")
    records: list[CaptionRecord] = []
    seen: set[str] = set()
    for lineno, line in utf8_lines(stream.split("\n")):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(
                f"line {lineno}: expected image_id<TAB>caption, found {len(fields)} fields"
            )
        image_id, caption = fields
        if image_id in seen:
            raise FormatError(f"line {lineno}: duplicate image id {image_id!r}")
        seen.add(image_id)
        records.append(CaptionRecord(image_id, caption))
    return records


def extract_concepts(caption: str, lexicon: Lexicon) -> list[int]:
    """Extract lexicon concept ids from a caption.

    Tokens are scanned greedily longest-match-first; multi-word terms match
    only when contiguous. Duplicates are dropped, keeping first occurrence.
    """
    tokens = tokenize(caption)
    found: list[int] = []
    seen: set[int] = set()
    i = 0
    while i < len(tokens):
        step = 1
        for length in range(min(lexicon.max_phrase_len, len(tokens) - i), 0, -1):
            cid = lexicon.lookup(tuple(tokens[i : i + length]))
            if cid is not None:
                if cid not in seen:
                    seen.add(cid)
                    found.append(cid)
                step = length
                break
        i += step
    return found


def build_concept_index(
    records: list[CaptionRecord], lexicon: Lexicon, min_freq: int = 1
) -> ConceptGroupIndex:
    """Extract concepts for every record and index groups with freq >= min_freq."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    groups: dict[int, list[str]] = {}
    for record in records:
        record.concepts = extract_concepts(record.caption, lexicon)
        for cid in record.concepts:
            groups.setdefault(cid, []).append(record.image_id)
    retained = {cid: ids for cid, ids in groups.items() if len(ids) >= min_freq}
    return ConceptGroupIndex(groups=retained,
                             terms={cid: lexicon.term(cid) for cid in retained})


def sample_mini_group(
    index: ConceptGroupIndex, concept_id: int, group_size: int, rng: np.random.Generator
) -> MiniGroup:
    """Draw `group_size` member images uniformly. A group smaller than
    `group_size` is drawn with replacement so rare concepts still contribute,
    and a query can then be its own support (a singleton group repeats its image)."""
    if concept_id not in index.groups:
        raise ValueError(f"concept {concept_id} not in index")
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    pool = index.groups[concept_id]
    replace = len(pool) < group_size
    picks = rng.choice(len(pool), size=group_size, replace=replace)
    return MiniGroup(concept_id, [pool[int(i)] for i in picks])


def save_index(index: ConceptGroupIndex, path: str) -> None:
    """Write `concept_id<TAB>term<TAB>member count<TAB>comma-joined ids`, sorted
    by id. Refuses, before creating the file, what load_index would refuse: an
    id or term holding a character it splits on, an empty or repeated id."""
    for cid, ids in index.groups.items():
        if any(ch in index.terms[cid] for ch in "\t\n\r"):
            raise ValueError(f"term {index.terms[cid]!r} contains a separator character")
        if "" in ids or len(set(ids)) != len(ids):
            raise ValueError(f"concept {cid}: empty or duplicate member id")
        for image_id in ids:
            if any(ch in image_id for ch in "\t\n\r,"):
                raise ValueError(f"image id {image_id!r} contains a separator character")
    with atomic_writer(path, "w") as fh:
        for cid in sorted(index.groups):
            ids = index.groups[cid]
            fh.write(f"{cid}\t{index.terms[cid]}\t{len(ids)}\t{','.join(ids)}\n")


def load_index(path: str) -> ConceptGroupIndex:
    groups: dict[int, list[str]] = {}
    terms: dict[int, str] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in utf8_lines(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise FormatError(f"line {lineno}: expected 4 tab-separated fields")
            if not (fields[0].isdecimal() and fields[2].isdecimal()):
                raise FormatError(f"line {lineno}: concept id and frequency must be integers")
            cid = int(fields[0])
            if cid in groups:
                raise FormatError(f"line {lineno}: duplicate concept id {cid}")
            ids = fields[3].split(",") if fields[3] else []
            if "" in ids or len(set(ids)) != len(ids):
                raise FormatError(f"line {lineno}: empty or duplicate member id")
            if int(fields[2]) != len(ids):
                raise FormatError(f"line {lineno}: frequency does not match id count")
            groups[cid] = ids
            terms[cid] = fields[1]
    return ConceptGroupIndex(groups, terms)
