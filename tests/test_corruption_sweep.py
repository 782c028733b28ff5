"""Corruption sweep over every file format the library reads back.

A small world is written through the CLI (`gen-synthetic --tsv`, then a
one-step `train`). Each of its CODF, CODT and CODC containers, its feature
TSV and its `index.tsv` is then truncated at every byte and loaded with one
byte flipped at a time: in the binary containers every bit of every byte, in
the text files every byte XOR a seeded random mask. A loader may accept a
corrupt file whose values still pass its checks, or refuse it with
FormatError or ValueError (which the CLI turns into one line and exit 1);
nothing else may come out, including a numpy warning, which the test
configuration turns into an error.
"""

import numpy as np
import pytest

from codiscover import (
    FormatError,
    load_checkpoint,
    load_features,
    load_features_tsv,
    load_index,
    load_text_embeddings,
)
from codiscover.cli import EXIT_OK, main

SWEEP_CONFIG = """
scenario.num_concepts = 3
scenario.d = 2
scenario.n = 3
scenario.images_per_concept = 2
scenario.distractor_count = 1
scenario.with_boxes = true
train.group_size = 2
train.mini_groups_per_batch = 1
train.steps = 1
train.hidden = 2
train.eval_interval = 0
seed = 9
"""

LOADERS = {
    "features.codf": load_features,
    "text_embeddings.codt": load_text_embeddings,
    "checkpoint.codc": load_checkpoint,
    "features.tsv": load_features_tsv,
    "index.tsv": load_index,
}
BINARY = ("features.codf", "text_embeddings.codt", "checkpoint.codc")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    config = root / "run.cfg"
    config.write_text(SWEEP_CONFIG)
    assert main(["gen-synthetic", "--config", str(config), "--out", str(root), "--tsv"]) \
        == EXIT_OK
    assert main(["train", "--config", str(config), "--out", str(root)]) == EXIT_OK
    return root


def _mutations(name: str, blob: bytes, rng: np.random.Generator):
    """(description, bytes) for every truncation and the byte flips of blob."""
    for size in range(len(blob)):
        yield f"truncated to {size} bytes", blob[:size]
    if name in BINARY:
        flips = [(at, 1 << bit) for at in range(len(blob)) for bit in range(8)]
    else:
        flips = list(enumerate(rng.integers(1, 256, size=len(blob)).tolist()))
    for at, mask in flips:
        yield (f"byte {at} xor {mask:#04x}",
               blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:])


@pytest.mark.parametrize("name", list(LOADERS))
def test_loaders_refuse_corrupt_files_only_with_format_or_value_errors(artifacts, tmp_path,
                                                                      name):
    load = LOADERS[name]
    blob = (artifacts / name).read_bytes()
    load(str(artifacts / name))  # the intact file loads
    path = tmp_path / name
    rng = np.random.default_rng(2024)
    refused = 0
    for what, data in _mutations(name, blob, rng):
        path.write_bytes(data)
        try:
            load(str(path))
        except (FormatError, ValueError):
            refused += 1
        except Exception as exc:  # noqa: BLE001 - the failure names the mutation
            pytest.fail(f"{name}, {what}: {type(exc).__name__}: {exc}")
    # Most truncations at least must be refused, or the sweep loads nothing.
    assert refused >= len(blob) // 2
