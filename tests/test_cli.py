"""End-to-end tests for the command-line interface and config plumbing."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from typing import get_type_hints

import numpy as np
import pytest

import codiscover
from codiscover import (
    ConfigError,
    ScenarioConfig,
    TrainConfig,
    build_concept_index,
    load_checkpoint,
    load_features,
    load_features_tsv,
    load_index,
    load_text_embeddings,
    parse_corpus,
)
from codiscover.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _FIELD_PARSERS,
    _RUN_KEYS,
    _field_parsers,
    _parse_bool,
    _parse_float,
    _parse_int,
    format_run_config,
    main,
    parse_config_file,
    resolve_run_config,
)
from codiscover.corpus import Lexicon

TINY_CONFIG = """
# tiny world for CLI tests
scenario.num_concepts = 4
scenario.d = 8
scenario.n = 5
scenario.images_per_concept = 4
scenario.distractor_count = 2
scenario.noise_sigma = 0.1
train.group_size = 3
train.mini_groups_per_batch = 2
train.steps = 4
train.hidden = 16
train.eval_interval = 2
seed = 5
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


# ------------------------------------------------------------ config parsing


def test_parse_config_file_skips_comments_and_strips(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\n  seed = 7 \ntrain.steps=12\n")
    assert parse_config_file(str(path)) == {"seed": "7", "train.steps": "12"}


def test_parse_config_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed 7\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(str(path))
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_file(str(path))
    path.write_bytes(b"# seed\nseed = \xff7\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: not valid UTF-8$"):
        parse_config_file(str(path))


def test_resolve_run_config_defaults_and_seed_derivation():
    config = resolve_run_config({})
    assert config.seed == 0
    assert config.corpus_min_freq == 1
    assert config.eval_mode == "index"
    # Derived stream seeds are distinct from each other and from the master.
    seeds = {config.scenario.seed, config.train.seed, config.eval_seed}
    assert len(seeds) == 3
    assert 0 not in seeds
    again = resolve_run_config({})
    assert again.scenario.seed == config.scenario.seed
    assert again.eval_seed == config.eval_seed
    other = resolve_run_config({"seed": "1"})
    assert other.scenario.seed != config.scenario.seed


def test_resolve_run_config_rejects_stream_seed_keys():
    for key in ("scenario.seed", "train.seed", "eval.seed"):
        with pytest.raises(ConfigError, match="master seed"):
            resolve_run_config({key: "3"})


def test_resolve_run_config_validates_keys_and_values():
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_run_config({"scenario.shape": "round"})
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_run_config({"volume": "11"})
    with pytest.raises(ConfigError, match="^train.steps: expected an integer, got 'many'$"):
        resolve_run_config({"train.steps": "many"})
    with pytest.raises(ConfigError, match="expected a boolean"):
        resolve_run_config({"train.sorted_rows": "sideways"})
    with pytest.raises(ConfigError, match="momentum"):
        resolve_run_config({"train.momentum": "1.5"})  # dataclass rule surfaces
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_run_config({"threads": "2"})
    for key in ("train", "eval.group_size", "corpus.steps", "scenario.orthogonalize",
                "train.train_head", "train.train_features", "eval.strategies",
                "scenario.instances_min", "scenario.instances_max"):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_run_config({key: "2"})
    with pytest.raises(ConfigError, match="min_freq"):
        resolve_run_config({"corpus.min_freq": "0"})
    with pytest.raises(ConfigError, match="eval.mode"):
        resolve_run_config({"eval.mode": "voxel"})
    with pytest.raises(ConfigError,
                       match="^eval.mode = box needs scenario.with_boxes = true$"):
        resolve_run_config({"eval.mode": "box"})
    float_keys = [f"{section}.{name}"
                  for section, cls in (("scenario", ScenarioConfig), ("train", TrainConfig))
                  for name, kind in get_type_hints(cls).items() if kind is float]
    assert len(float_keys) == 9
    for key in float_keys:
        for raw in ("nan", "inf", "-inf", "-NaN"):
            with pytest.raises(ConfigError,
                               match=f"^{key}: expected a finite number, got {raw!r}$"):
                resolve_run_config({key: raw})
    for pairs, override in (({"seed": "-3"}, None), ({"seed": "3"}, -3), ({}, -1)):
        with pytest.raises(ConfigError, match="^seed must be >= 0$"):
            resolve_run_config(pairs, seed_override=override)
    assert resolve_run_config({"seed": "-3"}, seed_override=0).seed == 0


def test_field_parsers_reject_a_type_without_parser():
    @dataclasses.dataclass
    class Knobs:
        sizes: list
        seed: int = 0

    with pytest.raises(KeyError):
        _field_parsers(Knobs)


def test_resolve_run_config_parses_typed_values():
    config = resolve_run_config({
        "scenario.misaligned_text_degrees": "22.5",
        "scenario.second_concept": "partner",
        "train.text_guidance": "off",
        "train.learning_rate": "0.25",
    })
    assert config.scenario.misaligned_text_degrees == 22.5
    assert config.scenario.second_concept == "partner"
    assert config.train.text_guidance is False
    assert config.train.learning_rate == 0.25


def test_resolve_run_config_overrides_win():
    config = resolve_run_config({"seed": "3"}, seed_override=9)
    assert config.seed == 9


def test_format_run_config_round_trips(tmp_path):
    original = resolve_run_config({
        "seed": "42",
        "corpus.min_freq": "2",
        "eval.mode": "box",
        "scenario.num_concepts": "6",
        "scenario.d": "12",
        "scenario.n": "9",
        "scenario.images_per_concept": "7",
        "scenario.distractor_count": "3",
        "scenario.noise_sigma": "0.15",
        "scenario.multi_concept_rate": "0.25",
        "scenario.misaligned_text_degrees": "12.5",
        "scenario.max_size_bias": "0.3",
        "scenario.with_boxes": "true",
        "scenario.second_concept": "partner",
        "train.group_size": "4",
        "train.mini_groups_per_batch": "3",
        "train.steps": "17",
        "train.learning_rate": "0.007",
        "train.momentum": "0.5",
        "train.lambda_region_word": "0.2",
        "train.lambda_image_text": "0.3",
        "train.hidden": "24",
        "train.temperature": "7.5",
        "train.eval_interval": "5",
        "train.text_guidance": "false",
        "train.sorted_rows": "true",
    })
    # Every section field but the derived seed is off its default, so each
    # one's formatting and parsing is exercised.
    for obj in (original.scenario, original.train):
        for f in dataclasses.fields(obj):
            assert f.name == "seed" or getattr(obj, f.name) != f.default, f.name
    text = format_run_config(original)
    assert "scenario.seed" not in text  # derived values stay derived
    assert "train.seed" not in text
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    reparsed = resolve_run_config(parse_config_file(str(path)))
    assert reparsed == original


# ------------------------------------------------------------------ commands


def test_cli_gen_synthetic_writes_world(tmp_path, tiny_config, capsys):
    out = tmp_path / "world"
    assert main(["gen-synthetic", "--config", tiny_config, "--out", str(out),
                 "--tsv"]) == EXIT_OK
    assert "generated 16 images" in capsys.readouterr().out

    features = load_features(str(out / "features.codf"))
    assert len(features) == 16
    assert features[0].features.shape == (5, 8)
    # Debug TSV mirrors the binary payload exactly.
    tsv = load_features_tsv(str(out / "features.tsv"))
    for a, b in zip(features, tsv):
        assert a.image_id == b.image_id
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.areas, b.areas)

    table = load_text_embeddings(str(out / "text_embeddings.codt"))
    assert sorted(table.embeddings) == [0, 1, 2, 3]

    records = parse_corpus((out / "corpus.tsv").read_text())
    assert len(records) == 16
    lexicon = Lexicon.load(str(out / "lexicon.txt"))
    assert lexicon.terms == ["concept000", "concept001", "concept002", "concept003"]

    index = load_index(str(out / "index.tsv"))
    rebuilt = build_concept_index(records, lexicon, 1)
    assert index.groups == rebuilt.groups

    truth_lines = (out / "truth.tsv").read_text().splitlines()
    ids = {fs.image_id for fs in features}
    for line in truth_lines:
        image_id, cid, region = line.split("\t")
        assert image_id in ids
        assert 0 <= int(cid) < 4
        assert 0 <= int(region) < 5

    resolved = parse_config_file(str(out / "config.txt"))
    assert resolved["seed"] == "5"
    assert resolved["scenario.num_concepts"] == "4"


def test_cli_gen_synthetic_is_deterministic(tmp_path, tiny_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-synthetic", "--config", tiny_config, "--out", str(out_a)]) == EXIT_OK
    assert main(["gen-synthetic", "--config", tiny_config, "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "features.codf").read_bytes() == (out_b / "features.codf").read_bytes()
    seeded = tmp_path / "c"
    assert main(["gen-synthetic", "--config", tiny_config, "--seed", "99",
                 "--out", str(seeded)]) == EXIT_OK
    assert (seeded / "features.codf").read_bytes() != (out_a / "features.codf").read_bytes()
    assert parse_config_file(str(seeded / "config.txt"))["seed"] == "99"


def test_cli_build_index(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("img1\ta dog by a tree\nimg2\tthe dog sleeps\nimg3\ta cat\n")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("dog\ncat\n")
    out = tmp_path / "index.tsv"
    assert main(["build-index", "--corpus", str(corpus), "--lexicon", str(lexicon),
                 "--min-freq", "2", "--out", str(out)]) == EXIT_OK
    assert "retained 1 concepts" in capsys.readouterr().out
    index = load_index(str(out))
    assert index.groups == {0: ["img1", "img2"]}
    assert index.terms == {0: "dog"}


def test_cli_build_index_names_the_line_of_a_bad_image_id(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("img1\ta dog\n\ta dog\n")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("dog\n")
    out = tmp_path / "index.tsv"
    assert main(["build-index", "--corpus", str(corpus), "--lexicon", str(lexicon),
                 "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "error: line 2: image id '' is empty or contains a separator character\n")
    assert not out.exists()


def test_cli_build_index_writes_utf8_under_an_ascii_locale(tmp_path):
    # Text artifacts are UTF-8 whatever the locale, as the loaders read them.
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("img\u00e9\ta dog\nimg2\tthe dog\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("dog\n")
    out = tmp_path / "index.tsv"
    src = os.path.dirname(os.path.dirname(codiscover.__file__))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "codiscover", "build-index", "--corpus", str(corpus),
         "--lexicon", str(lexicon), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert load_index(str(out)).groups == {0: ["img\u00e9", "img2"]}


def test_cli_train_eval_and_reports(tmp_path, tiny_config, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(train_out)]) == EXIT_OK
    assert "step 4:" in capsys.readouterr().out

    metrics = (train_out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,total_loss,region_word_loss,image_text_loss,cover_rate"
    assert len(metrics) == 5
    state = load_checkpoint(str(train_out / "checkpoint.codc"))
    assert state.head.hidden == 16

    eval_out = tmp_path / "eval"
    assert main(["eval", "--config", tiny_config, "--out", str(eval_out),
                 "--checkpoint", str(train_out / "checkpoint.codc")]) == EXIT_OK
    printed = capsys.readouterr().out
    for name in ("region_region", "region_word", "max_size", "heuristic"):
        assert f"{name}: cover_rate=" in printed
    report = json.loads((eval_out / "report.json").read_text())
    assert set(report["cover_rates"]) == {"region_region", "region_word",
                                          "max_size", "heuristic"}
    assert sorted(p.name for p in eval_out.iterdir()) == ["config.txt", "report.json"]


def test_cli_train_zero_steps_notes_initialization(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG.replace("train.steps = 4", "train.steps = 0"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert "checkpoint equals initialization" in capsys.readouterr().out
    assert (out / "checkpoint.codc").exists()
    assert (out / "metrics.csv").read_text().splitlines() == [
        "step,total_loss,region_word_loss,image_text_loss,cover_rate",
    ]


def test_cli_ablate_group_size(tmp_path, tiny_config, capsys):
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", tiny_config, "--axis", "group_size",
                 "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    for value in (2, 4, 8):
        assert f"group_size={value}:" in printed
    lines = (out / "ablate.csv").read_text().splitlines()
    assert lines[0] == "axis,value,strategy,cover_rate"
    assert [line.split(",")[1] for line in lines[1:]] == ["2", "4", "8"]


def test_cli_grad_check_passes(tmp_path, tiny_config, capsys):
    assert main(["grad-check", "--config", tiny_config]) == EXIT_OK
    printed = capsys.readouterr().out
    for selector in ("w1", "b1", "w2", "b2", "features"):
        assert f"{selector}: max_rel_err=" in printed
    assert "gradient check passed" in printed


def test_cli_grad_check_passes_sorted_k8(tmp_path, capsys):
    # The default world with sorted rows and K=8: one w1 coordinate has an
    # analytic gradient of 2.6e-8, where the default step's rounding read
    # 1.148e-04 and only a larger step agrees (3.2e-05).
    path = tmp_path / "k8.cfg"
    path.write_text("train.sorted_rows = true\ntrain.group_size = 8\n")
    assert main(["grad-check", "--config", str(path)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "w1: max_rel_err=3.204e-05" in printed
    assert "gradient check passed" in printed


def test_cli_grad_check_fails_on_a_wrong_gradient(tiny_config, capsys, monkeypatch):
    import codiscover.training as training_module

    real = training_module.caption_batch_loss

    def tampered(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads.w2 = grads.w2 * 3.0 + 0.01
        return loss, grads

    monkeypatch.setattr(training_module, "caption_batch_loss", tampered)
    assert main(["grad-check", "--config", tiny_config]) == EXIT_RUNTIME
    assert capsys.readouterr().out.splitlines()[-1] == \
        "gradient check FAILED (max relative error >= 1e-4)"


def test_cli_grad_check_fails_on_a_nan_gradient(tiny_config, capsys, monkeypatch):
    import codiscover.training as training_module

    real = training_module.caption_batch_loss

    def tampered(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads.w2 = np.full_like(grads.w2, np.nan)
        return loss, grads

    monkeypatch.setattr(training_module, "caption_batch_loss", tampered)
    assert main(["grad-check", "--config", tiny_config]) == EXIT_RUNTIME
    lines = capsys.readouterr().out.splitlines()
    assert "w2: max_rel_err=inf" in lines
    assert lines[-1] == "gradient check FAILED (max relative error >= 1e-4)"


def test_cli_grad_check_of_a_non_finite_loss_exits_1(tmp_path, capsys):
    # At 1e308 the image-text logits overflow and the batch loss is inf; every
    # relative error was NaN then, and NaN compares below no bound.
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + "train.temperature = 1e308\n")
    assert main(["grad-check", "--config", str(bad)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: non-finite batch loss inf\n"


def test_cli_grad_check_takes_no_eps_flag(tiny_config, capsys):
    # The central-difference step is fixed at 1e-5.
    assert main(["grad-check", "--config", tiny_config, "--eps", "1e-5"]) == EXIT_USAGE
    assert "unrecognized arguments: --eps 1e-5" in capsys.readouterr().err


# ---------------------------------------------------------------- exit codes


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train"]) == EXIT_USAGE  # --out is required
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.unknown_knob = 3\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err

    missing = tmp_path / "missing.cfg"
    assert main(["train", "--config", str(missing),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    # grad-check writes nothing, so it takes no --out.
    assert main(["grad-check", "--out", str(tmp_path / "g")]) == EXIT_USAGE
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("line, argv, message", [
    ("seed = -3", [], "seed must be >= 0"),
    ("seed = 5", ["--seed", "-3"], "seed must be >= 0"),
    ("train.temperature = nan", [], "expected a finite number, got 'nan'"),
    ("scenario.noise_sigma = nan", [], "expected a finite number, got 'nan'"),
    ("train.temperature = abc", [], "expected a number, got 'abc'"),
])
def test_cli_refused_config_values_exit_2(tmp_path, capsys, line, argv, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"train.steps = 0\n{line}\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(bad), "--out", str(out), *argv]) == EXIT_USAGE
    # A value its key's parser refuses is reported under the key; the seed's
    # sign is checked after parsing, so its message stands alone.
    key = line.partition(" = ")[0]
    expected = message if key == "seed" else f"{key}: {message}"
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["build-index", "--min-freq", "0"], "--min-freq must be >= 1, got 0"),
])
def test_cli_refused_flag_values_exit_2(tmp_path, capsys, argv, message):
    # A flag value is a usage error, as the same value in a config file is.
    corpus, lexicon, out = tmp_path / "corpus.tsv", tmp_path / "lexicon.txt", tmp_path / "o"
    corpus.write_text("img1\ta dog\n")
    lexicon.write_text("dog\n")
    argv = argv + ["--corpus", str(corpus), "--lexicon", str(lexicon), "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["scenario.orthogonalize", "train.train_head",
                                 "train.train_features", "eval.strategies",
                                 "scenario.instances_min", "scenario.instances_max"])
def test_cli_removed_config_keys_exit_2(tmp_path, capsys, key):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = true\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unknown config key {key!r}" in err
    assert not (tmp_path / "o").exists()


def test_cli_box_eval_of_a_world_without_boxes_exits_2(tmp_path, tiny_config, capsys):
    # The contradiction is refused with the config, before training would run.
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + "eval.mode = box\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "config error: eval.mode = box needs scenario.with_boxes = true\n"
    assert not out.exists()


@pytest.mark.parametrize("key, message", [
    ("scenario.noise_sigma", "image 'img_000_000': non-finite feature values"),
    ("train.learning_rate", "step 2: non-finite prototype logits"),
    ("train.temperature", "step 1: non-finite batch loss inf"),
], ids=["noise_sigma", "learning_rate", "temperature"])
def test_cli_numeric_fault_is_one_stderr_line(tmp_path, capsys, key, message):
    # numpy's floating-point warnings stay silent inside a command: the
    # finiteness check that follows them gives the one error line.
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("scenario.noise_sigma = 0.1\n", "") + f"{key} = 1e308\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {message}\n"


# The config sweep's base world, on which the whole sweep takes about a second.
# No int above 2 is tried, so no value makes it large.
SWEEP_BASE = {
    "scenario.num_concepts": "3", "scenario.images_per_concept": "3", "scenario.n": "4",
    "scenario.d": "4", "scenario.distractor_count": "2", "train.group_size": "2",
    "train.hidden": "4", "train.steps": "1",
}
SWEEP_VALUES = {
    _parse_int: ("0", "-1", "1", "2"),
    _parse_float: ("0", "-1", "1e308", "-0.0", "1e-308"),
    _parse_bool: ("true", "false"),
}
# The valid words of each string key; a new string key must be listed here.
SWEEP_CHOICES = {"scenario.second_concept": ("random", "partner"), "eval.mode": ("index", "box")}


def test_cli_config_sweep_ends_cleanly(tmp_path, capsys):
    # Every key the CLI takes, each set to edge values on the base world, through
    # train and then eval: each command exits 0, 1 or 2 with at most one stderr
    # line, and what a successful run writes is finite and loads.
    parsers = {f"{section}.{name}": parser for section, by_name in _FIELD_PARSERS.items()
               for name, parser in by_name.items()}
    parsers.update({key: parser for key, (_, parser) in _RUN_KEYS.items()})
    cases = [(key, value) for key, parser in parsers.items() for value in
             (SWEEP_CHOICES[key] + ("bogus",) if parser is str else SWEEP_VALUES[parser])]
    faults = []
    for i, (key, value) in enumerate(cases):
        out = tmp_path / str(i)
        out.mkdir()
        config = out / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in {**SWEEP_BASE, key: value}.items()))
        checkpoint = out / "train" / "checkpoint.codc"
        for argv in (["train", "--out", str(out / "train")],
                     ["eval", "--out", str(out / "eval"), "--checkpoint", str(checkpoint)]):
            where = f"{key} = {value}: {argv[0]}"
            try:
                code = main(argv + ["--config", str(config)])
            except Exception as exc:  # any escape is a fault
                faults.append(f"{where}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE) or err.count("\n") > 1:
                faults.append(f"{where}: exit {code}, stderr {err!r}")
            elif code == EXIT_OK and argv[0] == "train":
                rows = (out / "train" / "metrics.csv").read_text().splitlines()[1:]
                if not all(np.isfinite(float(v)) for row in rows
                           for v in row.split(",") if v):
                    faults.append(f"{where}: non-finite metrics {rows}")
                load_checkpoint(str(checkpoint))
    assert faults == []


def test_cli_missing_checkpoint_exits_2(tmp_path, tiny_config, capsys):
    code = main(["eval", "--config", tiny_config, "--out", str(tmp_path / "e"),
                 "--checkpoint", str(tmp_path / "nope.codc")])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_cli_corrupt_checkpoint_exits_1(tmp_path, tiny_config, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(train_out)]) == EXIT_OK
    blob = (train_out / "checkpoint.codc").read_bytes()
    huge_hidden = blob[:8] + (0x7FFFFFFF).to_bytes(4, "little") + blob[12:]
    state = load_checkpoint(str(train_out / "checkpoint.codc"))
    nan = np.array([np.nan], "<f8").tobytes()
    # The first classifier weight follows the header, the head and the concept ids.
    at = 32 + 8 * (state.head.w1.size + 2 * state.head.hidden + 1) \
        + 4 * len(state.classifier.concept_ids)
    last = list(state.features)[-1]
    for data, message in ((b"JUNKJUNKJUNK", "magic"), (huge_hidden, "unexpected end"),
                          (blob + b"\0", "trailing bytes"),
                          (blob[:-8] + nan, f"image {last!r}: non-finite feature values"),
                          (blob[:at] + nan + blob[at + 8:], "unit-normalized")):
        corrupt = tmp_path / "corrupt.codc"
        corrupt.write_bytes(data)
        capsys.readouterr()
        code = main(["eval", "--config", tiny_config, "--out", str(tmp_path / "e"),
                     "--checkpoint", str(corrupt)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0], err


def test_cli_checkpoint_weight_whose_norm_overflows_is_one_stderr_line(tmp_path, tiny_config):
    # A classifier weight of 1e200 squares to inf in its row's norm. In a
    # process with the default warning filters, the refusal is all of stderr.
    train_out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(train_out)]) == EXIT_OK
    state = load_checkpoint(str(train_out / "checkpoint.codc"))
    at = 32 + 8 * (state.head.w1.size + 2 * state.head.hidden + 1) \
        + 4 * len(state.classifier.concept_ids)
    blob = (train_out / "checkpoint.codc").read_bytes()
    huge = tmp_path / "huge.codc"
    huge.write_bytes(blob[:at] + np.array([1e200], "<f8").tobytes() + blob[at + 8:])
    src = os.path.dirname(os.path.dirname(codiscover.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "codiscover", "eval", "--config", tiny_config,
         "--out", str(tmp_path / "e"), "--checkpoint", str(huge)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.splitlines() == \
        ["error: classifier rows must be unit-normalized within 1e-6"], proc.stderr


def test_cli_eval_checkpoint_of_another_world_exits_1(tmp_path, tiny_config, capsys):
    # One image more per concept gives image ids the checkpoint never saw.
    train_out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(train_out)]) == EXIT_OK
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CONFIG.replace("scenario.images_per_concept = 4",
                                         "scenario.images_per_concept = 5"))
    capsys.readouterr()
    code = main(["eval", "--config", str(other), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(train_out / "checkpoint.codc")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "no features for" in err[0] and "member images" in err[0]
    # The resolved config is written before the work, and nothing after it.
    assert [p.name for p in (tmp_path / "e").iterdir()] == ["config.txt"]


@pytest.mark.parametrize("n", [3, 8])
def test_cli_eval_checkpoint_of_another_region_count_exits_1(tmp_path, tiny_config, capsys, n):
    # Same image ids, another number of regions per image than the checkpoint's 5.
    train_out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(train_out)]) == EXIT_OK
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CONFIG.replace("scenario.n = 5", f"scenario.n = {n}"))
    capsys.readouterr()
    code = main(["eval", "--config", str(other), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(train_out / "checkpoint.codc")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == (f"error: the model's images hold 5 regions and the "
                                       f"world's {n}; was it trained on another world?\n")
    assert [p.name for p in (tmp_path / "e").iterdir()] == ["config.txt"]


def test_cli_invalid_scenario_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.n = 3\nscenario.distractor_count = 4\n")
    assert main(["gen-synthetic", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


# Digests of what the CLI writes for TINY_CONFIG. The checkpoint and metrics
# pass through BLAS matmuls and are compared run against run instead
# (acceptance criterion 10). The eval reports hold hit counts over sample
# counts, which move only when a pick does. Every command writes the same
# resolved config.
CONFIG_TXT_SHA256 = "bab06c962cddeb024927832b92d13c6211f613dfa158dc882ee3e3d8c56a9a9e"
WORLD_SHA256 = {
    "config.txt": CONFIG_TXT_SHA256,
    "corpus.tsv": "f7edb09c87a685bc2e18fc4c06be6de5e8c862427611d5bae8ac16986a9d35fc",
    "features.codf": "b038fb16d1d2d7f507a07b4827c71788f012e31289421088ceea38b18ac837ec",
    "features.tsv": "9d2076d0c2d63e8560ec55d84777ad6aff23dfbf235bf2eef468858ee43557d1",
    "index.tsv": "972a3200b11dcd1a2f3f1769046839c8bb989a6228c14acd70fd9a77b5040a40",
    "lexicon.txt": "8c86aceacf3531164975aac72d7091c8d1271f19d70253c25b6a6c495f607488",
    "text_embeddings.codt": "9e84215c788778c671b4ebc4c92ac45648bada16c48ee7d6ea78e7c5eced6d04",
    "truth.tsv": "01ea864c5388c596247984b6a34f72398a9329f6a5b900c1464d0bdc32648333",
}
REPORT_SHA256 = {
    "config.txt": CONFIG_TXT_SHA256,
    "report.json": "6632cfbe1041eec97c96f7e7c5f7d94c696b9032b2208e5825aaa9e7190b0593",
}


def test_cli_artifact_bytes_are_pinned(tmp_path, tiny_config, capsys):
    def digests(directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.iterdir())}

    world, run, report, ablation = (tmp_path / name for name in ("w", "r", "e", "a"))
    assert main(["gen-synthetic", "--config", tiny_config, "--out", str(world),
                 "--tsv"]) == EXIT_OK
    assert main(["train", "--config", tiny_config, "--out", str(run)]) == EXIT_OK
    assert main(["eval", "--config", tiny_config, "--out", str(report),
                 "--checkpoint", str(run / "checkpoint.codc")]) == EXIT_OK
    assert main(["ablate", "--config", tiny_config, "--axis", "group_size",
                 "--out", str(ablation)]) == EXIT_OK
    capsys.readouterr()
    assert digests(world) == WORLD_SHA256
    assert digests(report) == REPORT_SHA256
    for directory in (run, report, ablation):
        assert digests(directory)["config.txt"] == CONFIG_TXT_SHA256, directory.name
