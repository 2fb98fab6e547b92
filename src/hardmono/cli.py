"""Command-line pipeline: align, oracle, train, predict, ensemble, eval,
synth, and an end-to-end run command.

Every command accepts ``--config FILE`` pointing at a flat ``key = value``
file whose keys are long flag names (``aligner = smart``); explicit flags
override file values.  Exit codes: 0 success, 1 usage error (or a model
too large for memory), 2 data error, 3 training or numeric error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from hardmono.align import ALIGNERS, render
from hardmono.corpus import DataError, Sample, open_text, parse_dataset
# greedy_decode and predict are not called here: perfbench/selftest.py checks they are traced
from hardmono.decode import greedy_decode
from hardmono.ensemble import EnsembleError, Member, PoolEntry, require_run_cells, run_strategy
from hardmono.hacm import VARIANTS, ModelConfig
from hardmono.metrics import macro_report, render_table, render_tsv, score
from hardmono.numcore import GradError
from hardmono.oracle import HACM, HAEM, ORACLES, ReplayError, display_trace
from hardmono.serialize import CheckpointError, _atomic_write, load_checkpoint, save_checkpoint
from hardmono.synth import DEFAULT_PATTERN, SynthConfig, SynthError, parse_rule, write_language
from hardmono.train import (
    SETTINGS,
    TrainConfig,
    TrainingError,
    TrainResult,
    population_counts,
    predict,  # see the note above the decode import
    predict_all,
    train_model,
    train_population,
)

ARCHS = (HACM, HAEM)


def _write_text(path: str | Path, text: str) -> None:
    _atomic_write(Path(path), text.encode("utf-8"))


def _write_json(path: str | Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n")


def _prediction_lines(samples: list[Sample], predictions: list[str]) -> str:
    return "".join(f"{s.lemma}\t{p}\t{';'.join(s.features)}\n"
                   for s, p in zip(samples, predictions))


def _read_predictions(path: str) -> list[str]:
    """One prediction per line: the second column of a row with two or more
    tab-separated columns, otherwise the whole line.  Tolerates empty
    predictions."""
    rows = []
    with open_text(path) as f:
        for line in f:
            line = line.rstrip("\n")
            cols = line.split("\t")
            rows.append(cols[1] if len(cols) >= 2 else line)
    return rows


def _samples(path: str, has_form: bool = True) -> list[Sample]:
    """The samples of a data file, which must hold at least one."""
    samples = parse_dataset(path, has_form=has_form)
    if not samples:
        raise DataError(f"{path}: no samples")
    return samples


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


# the commands whose --out is one file, written through _emit
EMITTERS = ("align", "oracle", "predict", "eval", "ensemble")


def _check_out(out: str) -> None:
    """Reject an output file that ``_emit`` could not write, before the
    command does any work."""
    path = Path(out)
    if path.is_dir():
        raise DataError(f"{out}: is a directory")
    if not path.parent.is_dir():
        raise DataError(f"{out}: no such directory {str(path.parent)!r}")


# --- commands ---------------------------------------------------------------


def cmd_align(args) -> int:
    samples = _samples(args.data)
    align = ALIGNERS[args.aligner]
    text = "".join(f"{s.lemma}\t{s.form}\t{render(align(s.lemma, s.form))}\n"
                   for s in samples)
    _emit(args, text)
    return 0


def cmd_oracle(args) -> int:
    samples = _samples(args.data)
    align = ALIGNERS[args.aligner]
    derive = ORACLES[args.arch]
    lines = []
    for s in samples:
        seq = derive(align(s.lemma, s.form))
        row = f"{s.lemma}\t{s.form}\t{seq.render()}"
        if args.trace:
            row += "\t" + " ".join(str(i) for i in display_trace(s.lemma, seq))
        lines.append(row + "\n")
    _emit(args, "".join(lines))
    return 0


def _model_config(args) -> ModelConfig:
    # the dropout rate travels in TrainConfig, which train_model applies
    return ModelConfig(hidden=args.hidden, embed=args.embed,
                       feat_embed=args.feat_embed, variant=args.variant)


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, patience=args.patience, lr=args.lr,
                       dropout=args.dropout, seed=args.seed)


def _save_trained(directory: str | Path, result: TrainResult) -> None:
    """The checkpoint of a trained model, and its per-epoch history."""
    save_checkpoint(directory, result.model, result.aligner,
                    dev_accuracy=result.dev_accuracy, seed=result.seed)
    _write_text(Path(directory) / "history.jsonl",
                "".join(json.dumps(h, sort_keys=True) + "\n" for h in result.history))


def cmd_train(args) -> int:
    train = _samples(args.train)
    dev = _samples(args.dev)
    model_config, train_config = _model_config(args), _train_config(args)
    Path(args.out).mkdir(parents=True, exist_ok=True)   # an unusable --out fails before training
    result = train_model(args.arch, args.aligner, train, dev, model_config, train_config)
    _save_trained(args.out, result)
    print(f"{args.arch}/{args.aligner} seed={args.seed} "
          f"epochs={len(result.history)} dev_accuracy={result.dev_accuracy:.4f}")
    return 0


def cmd_predict(args) -> int:
    model, _ = load_checkpoint(args.model)
    samples = _samples(args.input, not args.no_form)
    predictions = predict_all(model, samples)
    _emit(args, _prediction_lines(samples, predictions))
    return 0


def cmd_eval(args) -> int:
    if not (len(args.language) == len(args.gold) == len(args.pred)):
        raise DataError("--language, --gold, and --pred must repeat in step")
    results = []
    for language, gold_path, pred_path in zip(args.language, args.gold, args.pred):
        gold = _samples(gold_path)
        predictions = _read_predictions(pred_path)
        if len(predictions) != len(gold):
            raise DataError(f"{pred_path}: {len(predictions)} predictions "
                            f"for {len(gold)} gold samples")
        results.append(score(language, predictions, [s.form for s in gold]))
    rep = macro_report(results)
    _emit(args, render_table(rep) if args.format == "golden" else render_tsv(rep))
    return 0


def cmd_synth(args) -> int:
    rules = tuple(parse_rule(r) for r in args.rule) if args.rule else None
    config = SynthConfig(pattern=args.pattern,
                         **({"rules": rules} if rules else {}),
                         train=args.train_size, dev=args.dev_size,
                         test=args.test_size, seed=args.seed)
    paths = write_language(args.out, config)
    for name in ("train", "dev", "test"):
        print(f"{name}\t{paths[name]}")
    return 0


def _load_pool(directories: list[str]) -> list[PoolEntry]:
    pool, seen = [], set()
    for directory in directories:
        resolved = Path(directory).resolve()
        if resolved in seen:   # one model, one ballot
            raise EnsembleError(f"{directory}: checkpoint directory given twice in --pool")
        seen.add(resolved)
        model, manifest = load_checkpoint(directory)
        name = os.path.basename(os.path.normpath(directory)) or directory
        if any(e.name == name for e in pool):
            name = directory
        dev_accuracy = manifest.get("dev_accuracy")
        if dev_accuracy is None:
            raise EnsembleError(f"{directory}: checkpoint has no recorded dev accuracy")
        if not 0.0 <= dev_accuracy <= 1.0:    # false for nan too
            raise EnsembleError(f"{directory}: checkpoint dev accuracy {dev_accuracy} "
                                "outside [0, 1]")
        pool.append(PoolEntry(name, model, manifest["aligner"], float(dev_accuracy)))
    return pool


def _external_member(args, order: int) -> Member | None:
    if not args.external:
        if args.external_dev or args.external_dev_acc is not None:
            raise EnsembleError("--external-dev and --external-dev-acc need --external")
        return None
    if args.external_dev_acc is None:
        raise EnsembleError("--external needs --external-dev-acc")
    if not 0.0 <= args.external_dev_acc <= 1.0:    # false for nan too
        raise EnsembleError(f"--external-dev-acc {args.external_dev_acc} outside [0, 1]")
    dev_rows = tuple(_read_predictions(args.external_dev)) if args.external_dev else None
    return Member(args.external_name, args.external_dev_acc, order,
                  dev_rows, tuple(_read_predictions(args.external)))


def cmd_ensemble(args) -> int:
    pool = _load_pool(args.pool)
    dev = _samples(args.dev)
    test = _samples(args.test, not args.no_form)
    result = run_strategy(args.run, pool, dev, test, external=_external_member(args, len(pool)))
    _emit(args, _prediction_lines(test, list(result.predictions)))
    print(f"run {result.run}: {result.system} dev_accuracy={result.dev_accuracy:.4f}")
    if not args.no_form:
        rep = macro_report([score("test", list(result.predictions),
                                  [s.form for s in test])])
        print(f"test accuracy={rep.macro_accuracy:.4f} "
              f"levenshtein={rep.macro_levenshtein:.4f}")
    return 0


def _resolve_counts(args) -> dict[tuple[str, str], int]:
    counts = population_counts(args.setting)
    overrides = {
        (HACM, "smart"): args.hacm_smart, (HACM, "naive"): args.hacm_naive,
        (HAEM, "smart"): args.haem_smart, (HAEM, "naive"): args.haem_naive,
    }
    for cell, value in overrides.items():
        if value is not None:
            if value < 0:
                raise EnsembleError(f"negative model count for {cell[0]}/{cell[1]}")
            counts[cell] = value
    if sum(counts.values()) == 0:
        raise EnsembleError("empty pool")
    require_run_cells(args.run, counts)
    return counts


def cmd_run(args) -> int:
    # a bad configuration or data file is rejected before anything is written
    if args.synth and args.no_form:
        raise ValueError("--no-form contradicts --synth: synthetic test files have forms")
    model_config, train_config = _model_config(args), _train_config(args)
    counts = _resolve_counts(args)
    if not args.synth and not (args.train and args.dev and args.test):
        raise DataError("run needs --train/--dev/--test, or --synth")
    if args.synth and min(args.train_size, args.dev_size, args.test_size) < 1:
        raise DataError("run --synth needs at least one sample in each split")
    out = Path(args.out)
    if args.synth:
        paths = write_language(str(out / "data"),
                               SynthConfig(seed=args.synth_seed,
                                           train=args.train_size,
                                           dev=args.dev_size,
                                           test=args.test_size))
        train_path, dev_path, test_path = paths["train"], paths["dev"], paths["test"]
    else:
        train_path, dev_path, test_path = args.train, args.dev, args.test

    train = _samples(train_path)
    dev = _samples(dev_path)
    test = _samples(test_path, not args.no_form)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "language": args.language,
        "setting": args.setting,
        "run": args.run,
        "seed": args.seed,
        "counts": {f"{a}/{al}": n for (a, al), n in sorted(counts.items())},
        "paths": {"train": str(train_path), "dev": str(dev_path), "test": str(test_path)},
        "model": {"hidden": args.hidden, "embed": args.embed,
                  "feat_embed": args.feat_embed, "variant": args.variant},
        "training": {"epochs": args.epochs, "patience": args.patience,
                     "lr": args.lr, "dropout": args.dropout},
    }
    _write_json(out / "manifest.json", manifest)

    results = train_population(train, dev, model_config, train_config, counts=counts)
    pool = []
    models_dir = out / "models"
    for result in results:
        name = f"{result.arch.lower()}_{result.aligner}_s{result.seed}"
        _save_trained(models_dir / name, result)
        pool.append(PoolEntry(name, result.model, result.aligner, result.dev_accuracy))

    run = run_strategy(args.run, pool, dev, test)
    _write_text(out / "predictions.tsv", _prediction_lines(test, list(run.predictions)))

    summary = {"run": run.run, "system": run.system,
               "dev_accuracy": run.dev_accuracy,
               "models": {e.name: e.dev_accuracy for e in pool}}
    if not args.no_form:
        rep = macro_report([score(args.language, list(run.predictions),
                                  [s.form for s in test])])
        _write_text(out / "report.tsv", render_tsv(rep))
        summary["test_accuracy"] = rep.macro_accuracy
        summary["test_levenshtein"] = rep.macro_levenshtein
    _write_json(out / "report.json", summary)
    print(f"run {run.run}: {run.system} dev_accuracy={run.dev_accuracy:.4f}")
    if "test_accuracy" in summary:
        print(f"test accuracy={summary['test_accuracy']:.4f} "
              f"levenshtein={summary['test_levenshtein']:.4f}")
    return 0


# --- parser and config plumbing ----------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden, help="LSTM hidden size")
    p.add_argument("--embed", type=int, default=ModelConfig.embed,
                   help="character/action embedding size")
    p.add_argument("--feat-embed", type=int, default=ModelConfig.feat_embed,
                   help="feature embedding size")
    p.add_argument("--variant", choices=VARIANTS, default=ModelConfig.variant,
                   help="decoder-state feature set")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def _add_synth_sizes(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-size", type=int, default=100)
    p.add_argument("--dev-size", type=int, default=50)
    p.add_argument("--test-size", type=int, default=50)


class _Repeated(argparse._AppendAction):
    """``action="append"`` whose first command-line use replaces the
    default: an explicit flag overrides a config file's list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help="key = value file of flag defaults")
    parent.add_argument("--verbose", action="store_true", help="log training progress")

    parser = argparse.ArgumentParser(
        prog="hardmono",
        description="hard monotonic attention transducers for inflection generation")
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, parents=[parent], help=help_text)
        p.register("action", "append", _Repeated)
        p.set_defaults(func=func)
        registry[name] = p
        return p

    p = sub("align", cmd_align, "character-align lemma/form pairs")
    p.add_argument("--data", required=True, help="labeled SIGMORPHON-format file")
    p.add_argument("--aligner", choices=sorted(ALIGNERS), default="smart")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub("oracle", cmd_oracle, "derive gold action sequences")
    p.add_argument("--data", required=True)
    p.add_argument("--aligner", choices=sorted(ALIGNERS), default="smart")
    p.add_argument("--arch", choices=ARCHS, required=True)
    p.add_argument("--trace", action="store_true", help="append attention indices")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub("train", cmd_train, "train one model")
    p.add_argument("--arch", choices=ARCHS, required=True)
    p.add_argument("--aligner", choices=sorted(ALIGNERS), default="smart")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True, help="checkpoint directory")
    _add_model_flags(p)
    _add_train_flags(p)

    p = sub("predict", cmd_predict, "greedy-decode a file with one model")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--input", required=True)
    p.add_argument("--no-form", action="store_true", help="input has no form column")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub("ensemble", cmd_ensemble, "combine a pool of checkpoints")
    p.add_argument("--run", type=int, choices=range(1, 8), required=True)
    p.add_argument("--pool", nargs="+", required=True, help="checkpoint directories")
    p.add_argument("--dev", required=True, help="labeled dev file")
    p.add_argument("--test", required=True)
    p.add_argument("--no-form", action="store_true", help="test has no form column")
    p.add_argument("--external", help="line-aligned external test predictions")
    p.add_argument("--external-dev", help="line-aligned external dev predictions")
    p.add_argument("--external-dev-acc", type=float, help="dev accuracy of --external")
    p.add_argument("--external-name", default="external")
    p.add_argument("--out", help="predictions file (default stdout)")

    p = sub("eval", cmd_eval, "score prediction files")
    p.add_argument("--language", action="append", required=True)
    p.add_argument("--gold", action="append", required=True)
    p.add_argument("--pred", action="append", required=True)
    p.add_argument("--format", choices=("tsv", "golden"), default="tsv")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub("synth", cmd_synth, "generate a synthetic language")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pattern", default=DEFAULT_PATTERN)
    p.add_argument("--rule", action="append",
                   help="FEAT;FEAT=kind:arg (repeatable; default suffix+ablaut pair)")
    _add_synth_sizes(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub("run", cmd_run, "train a population and apply a run strategy")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--language", default="synthetic")
    p.add_argument("--run", type=int, choices=range(1, 8), default=7)
    p.add_argument("--setting", choices=SETTINGS, default="low")
    p.add_argument("--train")
    p.add_argument("--dev")
    p.add_argument("--test")
    p.add_argument("--no-form", action="store_true")
    p.add_argument("--synth", action="store_true", help="generate data instead")
    p.add_argument("--synth-seed", type=int, default=0)
    _add_synth_sizes(p)
    p.add_argument("--hacm-smart", type=int, help="override per-cell model count")
    p.add_argument("--hacm-naive", type=int)
    p.add_argument("--haem-smart", type=int)
    p.add_argument("--haem-naive", type=int)
    _add_model_flags(p)
    _add_train_flags(p)

    return parser, registry


def _coerce(key: str, action: argparse.Action, value: str):
    """The value of config ``key`` for ``action``; errors name the key as
    the file writes it."""
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {key!r}: not a boolean: {value!r}")

    def convert(v: str):
        try:
            return (action.type or str)(v)
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid {action.type.__name__} "
                             f"value: {v!r}") from None
    if action.nargs in ("+", "*") or isinstance(action, argparse._AppendAction):
        return [convert(v) for v in value.split()]
    converted = convert(value)
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"config key {key!r}: invalid choice {value!r}")
    return converted


def _apply_config(sub: argparse.ArgumentParser, values: dict[str, str]) -> None:
    actions = {}
    for action in sub._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                actions[option[2:]] = action
    for key, value in values.items():
        if key not in actions:
            raise ValueError(f"config key {key!r} is not a flag of this command")
        action = actions[key]
        sub.set_defaults(**{action.dest: _coerce(key, action, value)})
        if action.required:
            action.required = False


def load_config(path: str) -> dict[str, str]:
    values = {}
    with open_text(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected key = value")
            values[key.strip()] = value.strip()
    return values


def _find_config(argv: list[str]) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        # config defaults must land before parsing so they can satisfy
        # required flags; the command name is the first non-flag token
        config_path = _find_config(argv)
        if config_path is not None:
            command = next((a for a in argv if not a.startswith("-")), None)
            if command in registry:
                _apply_config(registry[command], load_config(config_path))
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return 0 if e.code in (0, None) else 1
        if args.verbose:
            logging.basicConfig(level=logging.INFO, format="%(message)s")
        if args.command in EMITTERS and args.out:
            _check_out(args.out)
        return args.func(args)
    except (DataError, SynthError, CheckpointError, EnsembleError, ReplayError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:   # sizes too large for this machine
        print(f"error: out of memory ({e})", file=sys.stderr)
        return 1
    except (TrainingError, GradError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
