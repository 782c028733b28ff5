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
    STRATEGIES,
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
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None


_PARSER_BY_TYPE = {int: _parse_int, float: _parse_float, bool: _parse_bool, str: str}


def _field_parsers(cls) -> dict:
    """Field name -> parser of its type, for every field of a config dataclass
    except the seed, which the master seed derives. A type without a parser
    fails here, at import."""
    types = get_type_hints(cls)
    return {f.name: _PARSER_BY_TYPE[types[f.name]] for f in fields(cls) if f.name != "seed"}


# Section -> the parsers of its `section.field` keys.
_FIELD_PARSERS = {"scenario": _field_parsers(ScenarioConfig), "train": _field_parsers(TrainConfig)}


@dataclass
class RunConfig:
    scenario: ScenarioConfig
    train: TrainConfig
    corpus_min_freq: int
    eval_mode: str
    eval_strategies: tuple[str, ...]
    seed: int
    eval_seed: int


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
    kwargs: dict[str, dict] = {section: {} for section in _FIELD_PARSERS}
    corpus_min_freq = 1
    eval_mode = "index"
    eval_strategies = STRATEGIES
    seed = 0
    for key, raw in pairs.items():
        if key in ("scenario.seed", "train.seed", "eval.seed"):
            raise ConfigError(f"{key} is derived from the master seed; set `seed` instead")
        if key == "seed":
            seed = _parse_int(raw)
        elif key == "corpus.min_freq":
            corpus_min_freq = _parse_int(raw)
        elif key == "eval.mode":
            if raw not in ("index", "box"):
                raise ConfigError(f"eval.mode must be index or box, got {raw!r}")
            eval_mode = raw
        elif key == "eval.strategies":
            names = tuple(part.strip() for part in raw.split(",") if part.strip())
            for name in names:
                if name not in STRATEGIES:
                    raise ConfigError(f"unknown strategy {name!r}")
            if not names:
                raise ConfigError("eval.strategies must name at least one strategy")
            eval_strategies = names
        else:
            section, _, name = key.partition(".")
            parser = _FIELD_PARSERS.get(section, {}).get(name)
            if parser is None:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[section][name] = parser(raw)
    if seed_override is not None:
        seed = seed_override
    if corpus_min_freq < 1:
        raise ConfigError("corpus.min_freq must be >= 1")

    # Four streams are spawned and the first is reserved, so the derived seeds
    # stay those of every earlier run.
    scenario_seed, train_seed, eval_seed = (
        int(stream.generate_state(1)[0]) for stream in np.random.SeedSequence(seed).spawn(4)[1:])
    try:
        scenario_config = ScenarioConfig(**kwargs["scenario"], seed=scenario_seed)
        train_config = TrainConfig(**kwargs["train"], seed=train_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        scenario=scenario_config,
        train=train_config,
        corpus_min_freq=corpus_min_freq,
        eval_mode=eval_mode,
        eval_strategies=eval_strategies,
        seed=seed,
        eval_seed=eval_seed,
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_run_config(config: RunConfig) -> str:
    """Serialize the resolved config; re-parsing it reproduces the run."""
    lines = [
        f"corpus.min_freq = {config.corpus_min_freq}",
        f"eval.mode = {config.eval_mode}",
        f"eval.strategies = {','.join(config.eval_strategies)}",
        f"seed = {config.seed}",
    ]
    for section, parsers in _FIELD_PARSERS.items():
        obj = getattr(config, section)
        lines += [f"{section}.{name} = {_format_value(getattr(obj, name))}" for name in parsers]
    return "\n".join(sorted(lines)) + "\n"


def _write_text(path: str, text: str) -> None:
    with atomic_writer(path, "w") as fh:
        fh.write(text)


def _prepare_run(args) -> tuple:
    pairs = parse_config_file(args.config) if args.config else {}
    config = resolve_run_config(pairs, seed_override=args.seed)
    scenario = generate_scenario(config.scenario)
    index = build_concept_index(scenario.records, scenario.lexicon, config.corpus_min_freq)
    return config, scenario, index


def cmd_build_index(args) -> int:
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
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "config.txt"), format_run_config(config))
    _write_text(
        os.path.join(args.out, "corpus.tsv"),
        "".join(f"{r.image_id}\t{r.caption}\n" for r in scenario.records),
    )
    _write_text(
        os.path.join(args.out, "lexicon.txt"),
        "".join(f"{term}\n" for term in scenario.lexicon.terms),
    )
    save_features(scenario.feature_sets, os.path.join(args.out, "features.codf"))
    save_text_embeddings(scenario.text_table, os.path.join(args.out, "text_embeddings.codt"))
    truth_lines = []
    for image_id in sorted(scenario.truth.true_pairs):
        for region, cid in sorted(scenario.truth.true_pairs[image_id], key=lambda t: (t[1], t[0])):
            truth_lines.append(f"{image_id}\t{cid}\t{region}\n")
    _write_text(os.path.join(args.out, "truth.tsv"), "".join(truth_lines))
    if args.tsv:
        save_features_tsv(scenario.feature_sets, os.path.join(args.out, "features.tsv"))
    save_index(index, os.path.join(args.out, "index.tsv"))
    print(f"generated {len(scenario.feature_sets)} images over "
          f"{config.scenario.num_concepts} concepts into {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, scenario, index = _prepare_run(args)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "config.txt"), format_run_config(config))
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
        state, scenario, index, config.eval_strategies,
        group_size=config.train.group_size, seed=config.eval_seed,
        mode=config.eval_mode, text_guidance=config.train.text_guidance,
    )
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "config.txt"), format_run_config(config))
    write_report_json(report, os.path.join(args.out, "report.json"))
    write_report_csv(report, os.path.join(args.out, "report.csv"))
    for name in sorted(report.cover_rates):
        print(f"{name}: cover_rate={report.cover_rates[name]:.4f} ({report.samples} samples)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config, scenario, index = _prepare_run(args)
    values = (True, False) if args.axis == "text_guidance" else (2, 4, 8)
    rows = ablate(
        index, scenario, config.train, args.axis, values,
        strategies=("region_region",), eval_seed=config.eval_seed, mode=config.eval_mode,
    )
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "config.txt"), format_run_config(config))
    write_ablation_csv(rows, os.path.join(args.out, "ablate.csv"))
    for row in rows:
        rates = " ".join(f"{k}={v:.4f}" for k, v in sorted(row.cover_rates.items()))
        print(f"{row.axis}={_format_value(row.value)}: {rates}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
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

    def add_common(sp, needs_out: bool) -> None:
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--seed", type=int, help="master seed (overrides the config file)")
        sp.add_argument("--out", required=needs_out, help="output directory")

    p = sub.add_parser("build-index", help="build a concept-group index from a corpus")
    p.add_argument("--corpus", required=True, help="TSV corpus: image_id<TAB>caption")
    p.add_argument("--lexicon", required=True, help="one object term per line")
    p.add_argument("--min-freq", type=int, default=1, help="minimum concept frequency")
    p.add_argument("--out", required=True, help="index output path")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("gen-synthetic", help="generate an oracle-labeled synthetic world")
    add_common(p, needs_out=True)
    p.add_argument("--tsv", action="store_true", help="also write the debug TSV features")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train the discovery head on a synthetic world")
    add_common(p, needs_out=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score alignment strategies against oracle truth")
    add_common(p, needs_out=True)
    p.add_argument("--checkpoint", required=True, help="CODC checkpoint to evaluate")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare variants along one axis")
    add_common(p, needs_out=True)
    p.add_argument("--axis", required=True, choices=("text_guidance", "group_size"))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grad-check", help="verify analytic gradients by finite differences")
    add_common(p, needs_out=False)
    p.add_argument("--eps", type=float, default=1e-5, help="central-difference step")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
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
