"""Command line front end.

Subcommands cover the full experiment loop on the synthetic corpus:

    synth      build a corpus and write train/val splits
    train      fit a model, checkpointing and scoring at eval boundaries
    generate   decode reports for a corpus with a trained checkpoint
    evaluate   score generated reports against references
    analyze    tabulate a checkpoint history with selection marks
    select     print the checkpoint passing the distinctness gate
    gradcheck  audit analytic gradients on a tiny model

Settings resolve in order: built-in toy profile, then ``--config`` file
(flat ``section.key = value`` lines), then explicit flags.  Every command
that owns an output directory echoes its resolved settings there.

Exit codes: 0 success, 1 generic failure (including training divergence),
2 usage, 3 missing file, 4 invalid configuration, 5 malformed data.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .data import (
    ConfigError,
    CorpusFormatError,
    EOS_ID,
    RARE_BELOW,
    ReportRecord,
    SynthConfig,
    count_below,
    load_corpus,
    load_vocab,
    open_replacing,
    save_corpus,
    save_vocab,
    sentence_frequency_table,
    split_corpus,
    synth_corpus,
)
from .inference import GenerationLimits, generate_corpus, load_generated, save_generated
from .metrics import build_eval_pairs, compute_metrics, render_table, save_metrics
from .model import ModelConfig, ModelParams, compute_losses
from .selection import (
    CheckpointRecord,
    load_history,
    render_analysis,
    save_history,
    select_model,
    selectable,
)
from .tensor import gradient_audit, seeded_rng
from .training import (
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
)

RESOLVED_NAME = "resolved.cfg"

_BOOLS = {"1": True, "true": True, "on": True, "yes": True,
          "0": False, "false": False, "off": False, "no": False}


def _known_keys() -> dict[str, type]:
    keys: dict[str, type] = {}
    for f in dataclasses.fields(SynthConfig):
        keys[f"synth.{f.name}"] = type(f.default)
    keys["synth.train_fraction"] = float
    for f in dataclasses.fields(ModelConfig):
        keys[f"model.{f.name}"] = int if f.name == "vocab_size" else type(f.default)
    for f in dataclasses.fields(TrainConfig):
        keys[f"train.{f.name}"] = type(f.default)
    keys["generate.stop_threshold"] = float
    keys["generate.branch_threshold"] = float
    keys["select.min_distinct"] = int
    keys["select.require_all_indices"] = bool
    return keys


KNOWN_KEYS = _known_keys()

# small-profile defaults; library defaults describe the full-scale model
CLI_DEFAULTS = {
    "model.embed_dim": 32,
    "model.hidden_dim": 32,
    "train.epochs": 30,
    "synth.train_fraction": 0.8,
    "select.min_distinct": 4,
    "select.require_all_indices": False,
}


def parse_config_file(path) -> dict:
    """Flat ``section.key = value`` settings, typed by key; ``#`` starts a comment."""
    settings = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: invalid UTF-8") from None
    except OSError as exc:
        raise FileNotFoundError(f"config file {path}: {exc.strerror}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        kind = KNOWN_KEYS[key]
        try:
            settings[key] = _BOOLS[value.lower()] if kind is bool else kind(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}:{lineno}: {key} expects {kind.__name__}, got {value!r}") from None
    return settings


def resolve_settings(args) -> dict:
    settings = dict(CLI_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    if getattr(args, "seed", None) is not None:
        settings["synth.seed"] = settings["train.seed"] = args.seed
    if getattr(args, "dual", None) is not None:
        settings["model.dual_enabled"] = args.dual == "on"
    if getattr(args, "min_distinct", None) is not None:
        settings["select.min_distinct"] = args.min_distinct
    return settings


def _section(settings: dict, prefix: str) -> dict:
    return {key.split(".", 1)[1]: value for key, value in settings.items()
            if key.startswith(f"{prefix}.")}


def model_config_from(settings, derived: dict) -> ModelConfig:
    """Build the model shape, merging data-derived dimensions.

    ``derived`` supplies values read from the data (vocab size, feature
    grid, label count); an explicit conflicting setting is an error rather
    than a silent override.
    """
    kwargs = _section(settings, "model")
    for name, value in derived.items():
        if name in kwargs and kwargs[name] != value:
            raise ConfigError(
                f"model.{name} = {kwargs[name]} conflicts with the data ({value})"
            )
        kwargs[name] = value
    if "vocab_size" not in kwargs:
        raise ConfigError("model.vocab_size is required (set it or point at data)")
    return ModelConfig(**kwargs)


def limits_from(settings, config: ModelConfig) -> GenerationLimits:
    return GenerationLimits(config.max_sentences, config.max_words, **_section(settings, "generate"))


def _echo_model(settings: dict, config: ModelConfig) -> None:
    """Record the final model shape so later commands can rebuild it."""
    settings.update((f"model.{name}", value) for name, value in dataclasses.asdict(config).items())


def write_resolved(out_dir, settings: dict) -> None:
    """One ``key = value`` line per setting, by key: a bool as true or false, else its repr."""
    text = "".join(f"{key} = {str(value).lower() if isinstance(value, bool) else repr(value)}\n"
                   for key, value in sorted(settings.items()))
    with open_replacing(Path(out_dir) / RESOLVED_NAME) as fh:
        fh.write(text.encode("utf-8"))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _derive_label_count(records) -> int:
    return max((label + 1 for r in records for label in r.mti_labels), default=1)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    settings = resolve_settings(args)
    kwargs = _section(settings, "synth")
    fraction = kwargs.pop("train_fraction")
    config = SynthConfig(**kwargs)
    result = synth_corpus(config)
    train_recs, val_recs = split_corpus(result.records, fraction, seed=config.seed)
    if not train_recs or not val_recs:
        raise ConfigError(f"split {fraction} leaves an empty train or val set")
    out = _out_dir(args)
    save_corpus(out / "train.jsonl", train_recs)
    save_corpus(out / "val.jsonl", val_recs)
    save_vocab(out / "vocab.json", result.vocab)
    write_resolved(out, settings)
    table = sentence_frequency_table(
        [tuple(s) for r in result.records for s in r.sentences]
    )
    rare, fraction_rare = count_below(table)
    print(f"records: {len(result.records)} (train {len(train_recs)}, val {len(val_recs)})")
    print(f"vocabulary: {result.vocab.size} tokens")
    print(f"distinct sentences: {len(table)}; {rare} occur fewer than {RARE_BELOW} times "
          f"({fraction_rare:.2%})")
    return 0


def _load_records(path, grid=None, source="first record"):
    """The corpus at ``path``: one record or more, each with its feature map
    on ``grid`` (by default the first record's), the ``source`` record's grid."""
    records = load_corpus(path)
    if not records:
        raise CorpusFormatError(f"{path}: no records")
    grid = grid or records[0].feature_map().shape
    for r in records:
        if r.feature_map().shape != grid:
            raise CorpusFormatError(f"{path}: record {r.id!r}: feature map {r.feature_map().shape} "
                                    f"does not match the {source}'s {grid}")
    return records


def _load_split(data_dir: Path):
    paths = (data_dir / "train.jsonl", data_dir / "val.jsonl")
    train_recs = _load_records(paths[0], source="first train record")
    val_recs = _load_records(paths[1], train_recs[0].feature_map().shape, "first train record")
    vocab = load_vocab(data_dir / "vocab.json")
    for path, records in zip(paths, (train_recs, val_recs)):
        for r in records:
            bad = [t for s in r.sentences for t in s if not 0 <= t < vocab.size]
            if bad:
                raise CorpusFormatError(
                    f"{path}: record {r.id!r}: token id {bad[0]} outside "
                    f"vocabulary of size {vocab.size}"
                )
    return train_recs, val_recs, vocab


def cmd_train(args) -> int:
    """Train on ``args.data``.  Each evaluation adds a row to ``history.jsonl``;
    ``checkpoints/`` keeps only those that ``select_model`` chooses under some
    gate, and a dropped one's row reads ``path: null``.  ``final.bin`` is
    always written."""
    settings = resolve_settings(args)
    data_dir = Path(args.data)
    train_recs, val_recs, vocab = _load_split(data_dir)
    locations, channels = train_recs[0].feature_map().shape
    model_config = model_config_from(settings, {
        "vocab_size": vocab.size,
        "mti_labels": _derive_label_count(train_recs + val_recs),
        "locations": int(locations),
        "channels": int(channels),
    })
    train_config = TrainConfig(**_section(settings, "train"))
    limits = limits_from(settings, model_config)
    out = _out_dir(args)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    params = ModelParams.create(model_config, seed=train_config.seed)
    history_path = out / "history.jsonl"
    history: list[CheckpointRecord] = []  # a row with a path names a kept checkpoint
    save_history(history_path, history)  # then rewritten after each evaluation

    def evaluate_checkpoint(iteration, current):
        reports = generate_corpus(current, model_config, val_recs, limits)
        pairs = build_eval_pairs(reports, val_recs)
        metrics = compute_metrics(pairs, paragraphs=[r.sentences for r in reports])
        path = ckpt_dir / f"ckpt_{iteration:06d}.bin"
        record = CheckpointRecord(iteration, metrics.bleu4, tuple(metrics.distinct), str(path))
        kept = [r for r in history if r.path]
        keep = selectable(kept + [record])
        # in this order, history.jsonl never names a missing file
        if record in keep:
            save_checkpoint(path, current, model_config, iteration)
        history[:] = [r if not r.path or r in keep else dataclasses.replace(r, path=None)
                      for r in history + [record]]
        save_history(history_path, history)
        for r in kept:
            if r not in keep:
                Path(r.path).unlink()
        print(f"iteration {iteration}: BLEU-4 {metrics.bleu4:.4f}, "
              f"distinct {list(metrics.distinct)}")

    # written first, so a run that stops early leaves its checkpoints decodable
    _echo_model(settings, model_config)
    write_resolved(out, settings)
    result = train(
        params, model_config, train_recs, train_config,
        eval_hook=evaluate_checkpoint, log_path=out / "losses.jsonl",
    )
    save_checkpoint(out / "final.bin", params, model_config, result.iterations)
    last = result.history[-1]
    print(f"trained {result.iterations} iterations; final total loss {last['total']:.4f}")
    kept = sum(1 for r in history if r.path)
    print(f"history: {history_path} ({len(history)} evaluations, {kept} checkpoints kept)")
    return 0


def cmd_generate(args) -> int:
    settings = resolve_settings(args)
    records = _load_records(args.corpus)
    locations, channels = records[0].feature_map().shape
    model_config = model_config_from(settings, {
        "locations": int(locations),
        "channels": int(channels),
    })
    params = ModelParams.create(model_config, seed=0)
    load_checkpoint(args.checkpoint, params, model_config)
    limits = limits_from(settings, model_config)
    reports = generate_corpus(params, model_config, records, limits)
    out = _out_dir(args)
    save_generated(out / "generated.jsonl", reports)
    _echo_model(settings, model_config)
    write_resolved(out, settings)
    print(f"generated {len(reports)} reports -> {out / 'generated.jsonl'}")
    return 0


def cmd_evaluate(args) -> int:
    reports = load_generated(args.generated)
    if not reports:
        raise CorpusFormatError(f"{args.generated}: no reports")
    records = _load_records(args.references)
    try:
        pairs = build_eval_pairs(reports, records)
    except ValueError as exc:
        raise CorpusFormatError(f"{args.references}: {exc}") from None
    metrics = compute_metrics(pairs, paragraphs=[r.sentences for r in reports])
    print(render_table(metrics))
    if args.out:
        out = _out_dir(args)
        save_metrics(out / "metrics.json", metrics)
        print(f"wrote {out / 'metrics.json'}")
    return 0


def _selection(args):
    gate = _section(resolve_settings(args), "select")
    history = load_history(args.history)
    return select_model(history, min_distinct_m0=gate["min_distinct"],
                        require_all_indices=gate["require_all_indices"])


def cmd_analyze(args) -> int:
    print(render_analysis(_selection(args)))
    return 0


def cmd_select(args) -> int:
    result = _selection(args)
    if result.chosen is None:
        print(result.reason, file=sys.stderr)
        return 1
    chosen = result.chosen
    print(f"iteration={chosen.iteration} bleu4={chosen.bleu4:.4f} "
          f"path={chosen.path or '-'}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    config = ModelConfig(
        vocab_size=12, mti_labels=3, channels=6, embed_dim=8, hidden_dim=8,
        locations=4, max_sentences=3, max_words=5,
    )
    params = ModelParams.create(config, seed=seed)
    # at 8x their initial scale, every group's gradients clear the audit's noise floor
    for t in params.named_parameters().values():
        t.data *= 8.0
    rng = seeded_rng(seed + 1)

    def sentence():
        n = int(rng.integers(2, 5))
        return [int(v) for v in rng.integers(4, config.vocab_size, size=n)] + [EOS_ID]

    # the shorter record comes first: the loss sorts it last, so the last
    # sentence step runs on the longer record alone
    records = [
        ReportRecord(
            id=f"probe{i}",
            sentences=[sentence() for _ in range(count)],
            abnormal_flags=[m % 2 == 0 for m in range(count)],
            mti_labels=[int(rng.integers(0, config.mti_labels))],
            feature_ref=rng.normal(size=(config.locations, config.channels)),
        )
        for i, count in enumerate((2, 3))
    ]

    def loss():
        return compute_losses(params, config, records).total

    report = gradient_audit(loss, params.named_parameters(),
                            max_coords=4, seed=seed)
    width = max(len(name) for name in report)
    for name in sorted(report):
        err, checked = report[name]
        print(f"{name.ljust(width)}  {err:.3e}  {checked} checked")
    worst = max(err for err, _ in report.values())
    ok = worst <= 1e-4 and all(checked for _, checked in report.values())
    print(f"worst relative error {worst:.3e}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdlm",
        description="hierarchical dual-decoder report generation on synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="settings file (section.key = value lines)")
        p.add_argument("--seed", type=int, help="override synth/train seeds")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="build a synthetic corpus")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a corpus directory")
    p.add_argument("data", help="directory from 'synth' (train/val/vocab)")
    common(p)
    p.add_argument("--dual", choices=("on", "off"),
                   help="toggle the dedicated abnormal-sentence decoder")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode reports with a checkpoint")
    p.add_argument("corpus", help="records JSONL to generate for")
    common(p)
    p.add_argument("--checkpoint", required=True, help="trained checkpoint file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generated reports")
    p.add_argument("generated", help="generated JSONL")
    p.add_argument("references", help="reference records JSONL")
    p.add_argument("--out", help="optional directory for metrics.json")
    p.set_defaults(func=cmd_evaluate)

    for name, func in (("analyze", cmd_analyze), ("select", cmd_select)):
        p = sub.add_parser(name, help=f"{name} a checkpoint history")
        p.add_argument("history", help="history JSONL from 'train'")
        p.add_argument("--config", help="settings file")
        p.add_argument("--min-distinct", type=int, dest="min_distinct",
                       help="distinct-sentence gate at position 0")
        p.set_defaults(func=func)

    p = sub.add_parser("gradcheck", help="audit gradients on a tiny model")
    p.add_argument("--seed", type=int, help="parameter and data seed")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (OSError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
