"""Command-line front end wiring corpus, scenario, training, and evaluation.

Config files are flat `key = value` text with dotted sections (for example
`train.group_size = 8`); flags override file values. Every field of
`ScenarioConfig` and `TrainConfig` except `seed` is a `scenario.*` or
`train.*` key, parsed by the type of its field. One master seed is split
deterministically into four streams: the first is reserved, and the scenario,
train and eval seeds come from the other three. So a run directory containing
the resolved config reproduces its outputs bit-identically.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from ._binio import atomic_writer, utf8_lines
from .corpus import Lexicon, build_concept_index, parse_corpus, sample_mini_group, save_index
from .errors import ConfigError, FormatError
from .evaluation import (
    ablate,
    compare_strategies,
    write_ablation_csv,
    write_report_csv,
    write_report_json,
)
from .scenario import (
    ScenarioConfig,
    generate_scenario,
    save_features,
    save_features_tsv,
    save_text_embeddings,
)
from .training import (
    TrainConfig,
    caption_proxies,
    finite_diff_check,
    init_model,
    load_checkpoint,
    run_training,
    save_checkpoint,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_TRUTHY = {"true", "1", "yes", "on"}
_FALSY = {"false", "0", "no", "off"}


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in _TRUTHY:
        return True
    if low in _FALSY:
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


_PARSER_BY_TYPE = {int: _parse_int, float: _parse_float, bool: _parse_bool, str: str}


def _field_parsers(cls) -> dict:
    """Field name -> parser of its type, for every field of a config dataclass
    except the seed, which the master seed derives. A type without a parser
    fails here, at import."""
    types = get_type_hints(cls)
    return {f.name: _PARSER_BY_TYPE[types[f.name]] for f in fields(cls) if f.name != "seed"}


# Section -> the parsers of its `section.field` keys.
_FIELD_PARSERS = {"scenario": _field_parsers(ScenarioConfig), "train": _field_parsers(TrainConfig)}


# The keys outside the sections: key -> (RunConfig field, parser).
_RUN_KEYS = {
    "corpus.min_freq": ("corpus_min_freq", _parse_int),
    "eval.mode": ("eval_mode", str),
    "seed": ("seed", _parse_int),
}


@dataclass
class RunConfig:
    scenario: ScenarioConfig
    train: TrainConfig
    eval_seed: int
    corpus_min_freq: int = 1
    eval_mode: str = "index"
    seed: int = 0


def parse_config_file(path: str) -> dict[str, str]:
    """Read flat `key = value` pairs; `#` comments and blank lines are skipped."""
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in utf8_lines(fh, f"{path}:", ConfigError):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value.strip()
    return pairs


def resolve_run_config(pairs: dict[str, str], seed_override: int | None = None) -> RunConfig:
    """Validate key/value pairs and derive per-stream seeds from the master seed."""
    run = {name: getattr(RunConfig, name) for name, _ in _RUN_KEYS.values()}
    kwargs: dict[str, dict] = {section: {} for section in _FIELD_PARSERS}
    for key, raw in pairs.items():
        if key in ("scenario.seed", "train.seed", "eval.seed"):
            raise ConfigError(f"{key} is derived from the master seed; set `seed` instead")
        section, _, name = key.partition(".")
        name, parser = _RUN_KEYS.get(key) or (name, _FIELD_PARSERS.get(section, {}).get(name))
        if parser is None:
            raise ConfigError(f"unknown config key {key!r}")
        values = run if key in _RUN_KEYS else kwargs[section]
        try:
            values[name] = parser(raw)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    if seed_override is not None:
        run["seed"] = seed_override
    if run["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    if run["corpus_min_freq"] < 1:
        raise ConfigError("corpus.min_freq must be >= 1")
    if run["eval_mode"] not in ("index", "box"):
        raise ConfigError(f"eval.mode must be index or box, got {run['eval_mode']!r}")

    # Four streams are spawned and the first is reserved, so the derived seeds
    # stay those of every earlier run.
    streams = np.random.SeedSequence(run["seed"]).spawn(4)[1:]
    scenario_seed, train_seed, eval_seed = (int(s.generate_state(1)[0]) for s in streams)
    try:
        scenario_config = ScenarioConfig(**kwargs["scenario"], seed=scenario_seed)
        train_config = TrainConfig(**kwargs["train"], seed=train_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if run["eval_mode"] == "box" and not scenario_config.with_boxes:
        raise ConfigError("eval.mode = box needs scenario.with_boxes = true")
    return RunConfig(scenario_config, train_config, eval_seed, **run)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_run_config(config: RunConfig) -> str:
    """Serialize the resolved config; re-parsing it reproduces the run."""
    lines = [f"{key} = {_format_value(getattr(config, name))}"
             for key, (name, _) in _RUN_KEYS.items()]
    for section, parsers in _FIELD_PARSERS.items():
        obj = getattr(config, section)
        lines += [f"{section}.{name} = {_format_value(getattr(obj, name))}" for name in parsers]
    return "\n".join(sorted(lines)) + "\n"


def _write_text(path: str, text: str) -> None:
    with atomic_writer(path, "w") as fh:
        fh.write(text)


def _prepare_run(args) -> tuple:
    """Resolve the config, write it to `--out` if the command has one, build the world."""
    pairs = parse_config_file(args.config) if args.config else {}
    config = resolve_run_config(pairs, seed_override=args.seed)
    if hasattr(args, "out"):
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "config.txt"), format_run_config(config))
    scenario = generate_scenario(config.scenario)
    index = build_concept_index(scenario.records, scenario.lexicon, config.corpus_min_freq)
    return config, scenario, index


def cmd_build_index(args) -> int:
    if args.min_freq < 1:
        raise ConfigError(f"--min-freq must be >= 1, got {args.min_freq}")
    with open(args.corpus, "rb") as fh:
        records = parse_corpus(fh)
    lexicon = Lexicon.load(args.lexicon)
    index = build_concept_index(records, lexicon, args.min_freq)
    save_index(index, args.out)
    print(f"retained {len(index.groups)} concepts "
          f"({len(records)} captions, min_freq={args.min_freq})")
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    config, scenario, index = _prepare_run(args)
    _write_text(
        os.path.join(args.out, "corpus.tsv"),
        "".join(f"{r.image_id}\t{r.caption}\n" for r in scenario.records),
    )
    _write_text(
        os.path.join(args.out, "lexicon.txt"),
        "".join(f"{term}\n" for term in scenario.lexicon.terms),
    )
    blocks = scenario.image_ids, scenario.features, scenario.boxes, scenario.areas
    save_features(*blocks, os.path.join(args.out, "features.codf"))
    save_text_embeddings(scenario.text_table, os.path.join(args.out, "text_embeddings.codt"))
    rows, regions = np.nonzero(scenario.owner >= 0)
    truth = sorted(zip([scenario.image_ids[r] for r in rows.tolist()],
                       scenario.owner[rows, regions].tolist(), regions.tolist()))
    _write_text(os.path.join(args.out, "truth.tsv"),
                "".join(f"{image_id}\t{c}\t{j}\n" for image_id, c, j in truth))
    if args.tsv:
        save_features_tsv(*blocks, os.path.join(args.out, "features.tsv"))
    save_index(index, os.path.join(args.out, "index.tsv"))
    print(f"generated {len(scenario.image_ids)} images over "
          f"{config.scenario.num_concepts} concepts into {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, scenario, index = _prepare_run(args)
    state, metrics = run_training(index, scenario, config.train, eval_seed=config.eval_seed)
    write_metrics_csv(metrics, os.path.join(args.out, "metrics.csv"))
    save_checkpoint(state, os.path.join(args.out, "checkpoint.codc"))
    if metrics:
        last = metrics[-1]
        cover = "n/a" if last.cover_rate is None else f"{last.cover_rate:.4f}"
        print(f"step {last.step}: total_loss={last.total_loss:.6f} cover_rate={cover}")
    else:
        print("no training steps requested; checkpoint equals initialization")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, scenario, index = _prepare_run(args)
    state = load_checkpoint(args.checkpoint)
    report = compare_strategies(
        state, scenario, index, group_size=config.train.group_size, seed=config.eval_seed,
        mode=config.eval_mode, text_guidance=config.train.text_guidance,
    )
    write_report_json(report, os.path.join(args.out, "report.json"))
    write_report_csv(report, os.path.join(args.out, "report.csv"))
    for name in sorted(report.cover_rates):
        print(f"{name}: cover_rate={report.cover_rates[name]:.4f} ({report.samples} samples)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config, scenario, index = _prepare_run(args)
    values = (True, False) if args.axis == "text_guidance" else (2, 4, 8)
    rows = ablate(index, scenario, config.train, args.axis, values,
                  eval_seed=config.eval_seed, mode=config.eval_mode)
    write_ablation_csv(rows, os.path.join(args.out, "ablate.csv"))
    for row in rows:
        rates = " ".join(f"{k}={v:.4f}" for k, v in sorted(row.cover_rates.items()))
        print(f"{row.axis}={_format_value(row.value)}: {rates}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    if not 1e-7 <= args.eps <= 1e-3:
        raise ConfigError(f"--eps must be in [1e-7, 1e-3], got {args.eps!r}")
    config, scenario, index = _prepare_run(args)
    rng = np.random.default_rng(config.train.seed)
    state = init_model(scenario, index, config.train, rng)
    caption_vectors = caption_proxies(scenario)
    concepts = index.concept_ids()
    cid = concepts[int(rng.integers(len(concepts)))]
    group = sample_mini_group(index, cid, config.train.group_size, rng)
    worst = 0.0
    for selector in ("w1", "b1", "w2", "b2", "features"):
        err = finite_diff_check(
            state, [group], caption_vectors, config.train, selector,
            eps=args.eps, rng=np.random.default_rng(config.eval_seed),
        )
        worst = max(worst, err)
        print(f"{selector}: max_rel_err={err:.3e}")
    if worst < 1e-4:
        print("gradient check passed")
        return EXIT_OK
    print("gradient check FAILED (max relative error >= 1e-4)")
    return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codiscover",
        description="Co-occurring object discovery over region-feature embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name: str, func, help_text: str, needs_out: bool = True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--seed", type=int, help="master seed (overrides the config file)")
        if needs_out:
            sp.add_argument("--out", required=True, help="output directory")
        sp.set_defaults(func=func)
        return sp

    p = sub.add_parser("build-index", help="build a concept-group index from a corpus")
    p.add_argument("--corpus", required=True, help="TSV corpus: image_id<TAB>caption")
    p.add_argument("--lexicon", required=True, help="one object term per line")
    p.add_argument("--min-freq", type=int, default=1, help="minimum concept frequency")
    p.add_argument("--out", required=True, help="index output path")
    p.set_defaults(func=cmd_build_index)

    p = add_run_command("gen-synthetic", cmd_gen_synthetic,
                        "generate an oracle-labeled synthetic world")
    p.add_argument("--tsv", action="store_true", help="also write the debug TSV features")

    add_run_command("train", cmd_train, "train the discovery head on a synthetic world")

    p = add_run_command("eval", cmd_eval, "score alignment strategies against oracle truth")
    p.add_argument("--checkpoint", required=True, help="CODC checkpoint to evaluate")

    p = add_run_command("ablate", cmd_ablate, "train and compare variants along one axis")
    p.add_argument("--axis", required=True, choices=("text_guidance", "group_size"))

    p = add_run_command("grad-check", cmd_grad_check,
                        "verify analytic gradients by finite differences", needs_out=False)
    p.add_argument("--eps", type=float, default=1e-5, help="central-difference step")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # A numeric fault ends at a finiteness check, whose error is the one line.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
