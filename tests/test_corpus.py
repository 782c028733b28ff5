"""Tests for caption parsing, concept extraction, and group indexing."""

import io
import re

import numpy as np
import pytest

from codiscover import (
    CaptionRecord,
    ConceptGroupIndex,
    FormatError,
    Lexicon,
    MiniGroup,
    build_concept_index,
    extract_concepts,
    load_index,
    parse_corpus,
    sample_mini_group,
    save_index,
)
from codiscover.corpus import tokenize


def test_tokenize_lowercases_and_strips_punctuation():
    # [TRIVIAL] direct statement of the documented normalization.
    assert tokenize("A Fire-Truck, parked; NEAR the dog!") == [
        "a", "fire", "truck", "parked", "near", "the", "dog",
    ]
    assert tokenize("") == []
    assert tokenize("...") == []


def test_lexicon_normalizes_terms_and_assigns_dense_ids():
    lex = Lexicon(["Dog", "Fire-Truck", "traffic light"])
    assert lex.terms == ["dog", "fire truck", "traffic light"]
    assert len(lex) == 3
    assert lex.term(1) == "fire truck"
    assert lex.max_phrase_len == 2
    assert lex.lookup(("fire", "truck")) == 1
    assert lex.lookup(("truck",)) is None


def test_lexicon_rejects_duplicates_and_empty_terms():
    with pytest.raises(ValueError, match="duplicate"):
        Lexicon(["dog", "DOG!"])
    with pytest.raises(ValueError, match="empty"):
        Lexicon(["dog", "..."])
    with pytest.raises(ValueError, match="empty"):
        Lexicon([])


def test_lexicon_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("# animals\ndog\n\ncat\n  # vehicles\nfire truck\n")
    lex = Lexicon.load(str(path))
    assert lex.terms == ["dog", "cat", "fire truck"]
    path.write_bytes("dog\ncafé\n".encode("utf-8") + b"\xffox\n")
    with pytest.raises(FormatError, match="^line 3: not valid UTF-8$"):
        Lexicon.load(str(path))


def test_parse_corpus_accepts_str_bytes_and_file():
    text = "img1\ta dog\nimg2\ta cat\n"
    from_str = parse_corpus(text)
    from_bytes = parse_corpus(text.encode("utf-8"))
    from_file = parse_corpus(io.StringIO(text))
    for records in (from_str, from_bytes, from_file):
        assert [(r.image_id, r.caption) for r in records] == [
            ("img1", "a dog"), ("img2", "a cat"),
        ]
        assert all(r.concepts == [] for r in records)


def test_parse_corpus_skips_blank_lines_and_handles_crlf():
    records = parse_corpus("img1\ta dog\r\n\n   \nimg2\ta cat")
    assert [r.image_id for r in records] == ["img1", "img2"]
    assert records[0].caption == "a dog"


def test_parse_corpus_reports_line_numbers(tmp_path):
    with pytest.raises(FormatError, match="line 3"):
        parse_corpus("img1\ta dog\nimg2\ta cat\nbroken line\n")
    with pytest.raises(FormatError, match="line 2.*3 fields"):
        parse_corpus("img1\ta dog\nimg2\ta\tcat\n")
    with pytest.raises(FormatError, match="^line 2: not valid UTF-8$"):
        parse_corpus("img1\ta café\n".encode("utf-8") + b"img2\ta \xe9t\xe9\n")
    # A stream opened as UTF-8 text names the line too, also when the bad
    # byte lies past the first 8 KiB (400 lines of 25 bytes come before it).
    path = tmp_path / "corpus.tsv"
    for good_lines in (1, 400):
        good = b"".join(b"img%05d\ta dog and a cat\n" % i for i in range(good_lines))
        path.write_bytes(good + b"bad\ta \xff cat\n")
        with open(path, encoding="utf-8") as fh, pytest.raises(
                FormatError, match=f"^line {good_lines + 1}: not valid UTF-8$"):
            parse_corpus(fh)


def test_parse_corpus_rejects_duplicate_image_ids():
    with pytest.raises(FormatError, match="duplicate image id"):
        parse_corpus("img1\ta dog\nimg1\ta cat\n")


def test_extract_concepts_prefers_longest_match():
    lex = Lexicon(["truck", "fire truck", "dog"])
    # "fire truck" must win over its own suffix "truck" at the same position.
    found = extract_concepts("A FIRE TRUCK, a truck, and a dog.", lex)
    assert found == [1, 0, 2]


def test_extract_concepts_dedupes_keeping_first_occurrence():
    lex = Lexicon(["dog", "cat"])
    assert extract_concepts("a dog, a cat, and another dog", lex) == [0, 1]
    assert extract_concepts("nothing relevant here", lex) == []


def test_extract_concepts_requires_contiguous_phrases():
    lex = Lexicon(["traffic light"])
    assert extract_concepts("traffic light ahead", lex) == [0]
    assert extract_concepts("traffic at a light", lex) == []


def test_build_concept_index_counts_and_fills_records():
    lex = Lexicon(["dog", "cat", "bird"])
    records = [
        CaptionRecord("a", "a dog and a cat"),
        CaptionRecord("b", "the dog again"),
        CaptionRecord("c", "just a bird"),
    ]
    index = build_concept_index(records, lex, min_freq=2)
    assert index.groups == {0: ["a", "b"]}
    assert index.frequencies == {0: 2}
    assert index.terms == {0: "dog"}
    assert index.concept_ids() == [0]
    # Extraction side effect: every record's concept list is filled in place,
    # including concepts that fall below the frequency threshold.
    assert records[0].concepts == [0, 1]
    assert records[2].concepts == [2]


def test_build_concept_index_min_freq_boundary():
    lex = Lexicon(["dog", "cat"])
    records = [
        CaptionRecord("a", "dog and cat"),
        CaptionRecord("b", "dog"),
    ]
    kept_both = build_concept_index(records, lex, min_freq=1)
    assert set(kept_both.groups) == {0, 1}
    kept_dog = build_concept_index(records, lex, min_freq=2)
    assert set(kept_dog.groups) == {0}
    with pytest.raises(ValueError, match="min_freq"):
        build_concept_index(records, lex, min_freq=0)


def test_concept_group_index_validates_frequencies_and_terms():
    # Frequencies are the member counts, derived from the groups and not stored.
    index = ConceptGroupIndex(groups={0: ["a", "b"], 3: []}, terms={0: "dog", 3: "cat"})
    assert index.frequencies == {0: 2, 3: 0}
    index.groups[0].append("c")
    assert index.frequencies == {0: 3, 3: 0}
    with pytest.raises(AttributeError):
        index.frequencies = {0: 1, 3: 0}
    with pytest.raises(ValueError, match="missing term"):
        ConceptGroupIndex(groups={0: ["a"]}, terms={})


def test_mini_group_validation():
    MiniGroup(0, ["a", "b"])
    with pytest.raises(ValueError, match="at least 2"):
        MiniGroup(0, ["a"])


def test_sample_mini_group_draws_members_uniformly():
    index = ConceptGroupIndex(groups={7: ["a", "b", "c", "d"]}, terms={7: "dog"})
    rng = np.random.default_rng(123)
    counts = {name: 0 for name in "abcd"}
    draws = 8000
    for _ in range(draws):
        group = sample_mini_group(index, 7, 2, rng)
        assert group.concept_id == 7
        assert len(group.image_ids) == 2
        assert len(set(group.image_ids)) == 2  # no replacement when pool suffices
        for name in group.image_ids:
            counts[name] += 1
    # Each member appears in a draw with probability 2/4; seeded Monte Carlo
    # within 5% relative of the expectation.
    expected = draws * 2 / 4
    for name, count in counts.items():
        assert abs(count - expected) / expected < 0.05, (name, count)


def test_sample_mini_group_small_pool_falls_back_to_replacement():
    index = ConceptGroupIndex(groups={0: ["a", "b"]}, terms={0: "dog"})
    group = sample_mini_group(index, 0, 5, np.random.default_rng(0))
    assert len(group.image_ids) == 5
    assert set(group.image_ids) <= {"a", "b"}


def test_sample_mini_group_rare_concept_query_can_be_its_own_support():
    # Rare-concept rule of training: a group smaller than K is drawn with
    # replacement, so the query (position 0) can recur among its supports,
    # and a singleton group fills every position with its one image.
    index = ConceptGroupIndex(groups={0: ["solo"], 1: ["a", "b"]},
                              terms={0: "yak", 1: "dog"})
    rng = np.random.default_rng(1)
    assert sample_mini_group(index, 0, 4, rng).image_ids == ["solo"] * 4
    groups = [sample_mini_group(index, 1, 3, rng).image_ids for _ in range(50)]
    assert any(ids[0] in ids[1:] for ids in groups)


def test_sample_mini_group_errors():
    index = ConceptGroupIndex(groups={0: ["a", "b"]}, terms={0: "dog"})
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="not in index"):
        sample_mini_group(index, 9, 2, rng)
    with pytest.raises(ValueError, match="group_size"):
        sample_mini_group(index, 0, 1, rng)


def test_index_round_trips_through_tsv(tmp_path):
    index = ConceptGroupIndex(groups={3: ["img2", "img1"], 1: ["img1"]},
                              terms={3: "fire truck", 1: "dog"})
    path = tmp_path / "index.tsv"
    save_index(index, str(path))
    lines = path.read_text().splitlines()
    assert lines == ["1\tdog\t1\timg1", "3\tfire truck\t2\timg2,img1"]
    loaded = load_index(str(path))
    assert loaded.groups == index.groups
    assert loaded.frequencies == index.frequencies
    assert loaded.terms == index.terms


def test_save_index_rejects_separator_characters(tmp_path):
    # Each of these would write a file that load_index refuses.
    path = tmp_path / "index.tsv"
    for image_id in ("bad,id", "bad\tid", "bad\nid", "bad\rid"):
        index = ConceptGroupIndex(groups={0: [image_id]}, terms={0: "dog"})
        with pytest.raises(ValueError, match=re.escape(f"image id {image_id!r} contains")):
            save_index(index, str(path))
        assert not path.exists()
    for term in ("bad\tterm", "bad\nterm", "bad\rterm"):
        index = ConceptGroupIndex(groups={0: ["a"]}, terms={0: term})
        with pytest.raises(ValueError, match=re.escape(f"term {term!r} contains")):
            save_index(index, str(path))
        assert not path.exists()
    for ids in (["a", ""], ["a", "b", "a"]):
        index = ConceptGroupIndex(groups={0: ids}, terms={0: "dog"})
        with pytest.raises(ValueError, match="concept 0: empty or duplicate member id"):
            save_index(index, str(path))
        assert not path.exists()


def test_load_index_rejects_malformed_lines(tmp_path):
    path = tmp_path / "index.tsv"
    path.write_text("0\tdog\t1\n")
    with pytest.raises(FormatError, match="line 1.*4 tab-separated"):
        load_index(str(path))
    path.write_text("0\tdog\t3\timg1,img2\n")
    with pytest.raises(FormatError, match="frequency does not match"):
        load_index(str(path))
    path.write_text("0\tdog\t1\timg1\nx\tcat\t1\timg2\n")
    with pytest.raises(FormatError, match="line 2.*must be integers"):
        load_index(str(path))
    path.write_text("0\tdog\t1\timg1\n0\tcat\t1\timg2\n")
    with pytest.raises(FormatError, match="line 2.*duplicate concept id 0"):
        load_index(str(path))
    for members in ("a,a,", "a,a,b", ",a,b"):
        path.write_text(f"0\tdog\t1\timg1\n1\tx\t3\t{members}\n")
        with pytest.raises(FormatError, match="line 2: empty or duplicate member id"):
            load_index(str(path))
    path.write_bytes(b"0\tdog\t1\timg1\n1\tcat\t1\t\xffimg2\n")
    with pytest.raises(FormatError, match="^line 2: not valid UTF-8$"):
        load_index(str(path))
