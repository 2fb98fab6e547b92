"""End-to-end command-line behavior: pipelines, config files, exit codes."""

import ast
import contextlib
import io
import json
import math
import re
import shlex
import shutil
import struct
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardmono.cli import build_parser, main
from hardmono.corpus import Sample, parse_dataset, write_dataset
from hardmono.haem import HaemModel
from hardmono.serialize import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    load_params,
    save_checkpoint,
    save_params,
)
from hardmono.train import predict

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PYPROJECT = TESTS.parent / "pyproject.toml"

TINY = ["--hidden", "8", "--embed", "6", "--feat-embed", "3",
        "--epochs", "1", "--patience", "1", "--dropout", "0.0"]


@pytest.fixture(scope="module")
def lang(tmp_path_factory):
    root = tmp_path_factory.mktemp("lang")
    assert main(["synth", "--out", str(root), "--seed", "3",
                 "--train-size", "12", "--dev-size", "6", "--test-size", "6"]) == 0
    return root


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory, lang):
    root = tmp_path_factory.mktemp("ckpts")
    for arch in ("HACM", "HAEM"):
        for aligner in ("smart", "naive"):
            out = root / f"{arch}_{aligner}"
            code = main(["train", "--arch", arch, "--aligner", aligner,
                         "--train", str(lang / "train.tsv"),
                         "--dev", str(lang / "dev.tsv"),
                         "--out", str(out), "--seed", "1", *TINY])
            assert code == 0
    return root


@pytest.fixture(scope="module")
def prefix_lang(tmp_path_factory):
    """A language with a prefix rule, on whose prefixed samples the smart
    and the naive aligner disagree."""
    root = tmp_path_factory.mktemp("prefix")
    assert main(["synth", "--out", str(root), "--seed", "3",
                 "--rule", "V;PTCP=prefix:ge", "--rule", "V;PRS=suffix:t",
                 "--train-size", "12", "--dev-size", "6", "--test-size", "6"]) == 0
    return root


def test_synth_files_parse(lang):
    assert len(parse_dataset(str(lang / "train.tsv"))) == 12
    assert len(parse_dataset(str(lang / "dev.tsv"))) == 6
    assert len(parse_dataset(str(lang / "test.tsv"))) == 6


def test_align_output(lang, capsys):
    assert main(["align", "--data", str(lang / "dev.tsv"), "--aligner", "smart"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    lemma, form, rendered = lines[0].split("\t")
    assert ":" in rendered
    assert lemma and form


def test_oracle_trace_output(lang, capsys):
    assert main(["oracle", "--data", str(lang / "dev.tsv"), "--arch", "HAEM",
                 "--trace"]) == 0
    first = capsys.readouterr().out.splitlines()[0].split("\t")
    assert len(first) == 4
    assert "STOP" in first[2]
    assert all(t.isdigit() for t in first[3].split())


def test_train_artifacts(checkpoints):
    ckpt = checkpoints / "HACM_smart"
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["arch"] == "HACM"
    assert manifest["aligner"] == "smart"
    assert 0.0 <= manifest["dev_accuracy"] <= 1.0
    history = [json.loads(line) for line in
               (ckpt / "history.jsonl").read_text().splitlines()]
    assert history and set(history[0]) == {"epoch", "train_loss", "dev_accuracy"}


def test_predict_output_format(lang, checkpoints, tmp_path, capsys):
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--model", str(checkpoints / "HAEM_smart"),
                 "--input", str(lang / "test.tsv"), "--out", str(out)]) == 0
    gold = parse_dataset(str(lang / "test.tsv"))
    lines = out.read_text().splitlines()
    assert len(lines) == len(gold)
    for s, line in zip(gold, lines):
        lemma, _, features = line.split("\t")
        assert lemma == s.lemma
        assert features == ";".join(s.features)


def test_predict_unlabeled_input(lang, checkpoints, tmp_path, capsys):
    bare = tmp_path / "bare.tsv"
    samples = parse_dataset(str(lang / "test.tsv"))
    bare.write_text("".join(f"{s.lemma}\t{';'.join(s.features)}\n" for s in samples))
    assert main(["predict", "--model", str(checkpoints / "HACM_naive"),
                 "--input", str(bare), "--no-form"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(samples)


@pytest.mark.parametrize("name", ["HACM_smart", "HACM_naive", "HAEM_smart", "HAEM_naive"])
def test_predict_writes_the_single_sample_predictions(lang, checkpoints, tmp_path, name):
    """The file is decoded in lockstep, row for row as train.predict."""
    samples = parse_dataset(str(lang / "dev.tsv")) + parse_dataset(str(lang / "test.tsv"))
    samples += [Sample("Qx" + samples[0].lemma, samples[0].features),    # out of vocabulary
                Sample(samples[1].lemma * 4, samples[1].features)]       # long
    data = tmp_path / "in.tsv"
    write_dataset(str(data), samples, has_form=False)
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--model", str(checkpoints / name), "--input", str(data),
                 "--no-form", "--out", str(out)]) == 0
    model, _ = load_checkpoint(checkpoints / name)
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
    assert rows == [[s.lemma, predict(model, s), ";".join(s.features)] for s in samples]


def test_eval_formats(lang, tmp_path, capsys):
    # score the gold file against itself: accuracy 1, distance 0
    pred = tmp_path / "echo.tsv"
    samples = parse_dataset(str(lang / "test.tsv"))
    pred.write_text("".join(f"{s.lemma}\t{s.form}\t{';'.join(s.features)}\n"
                            for s in samples))
    assert main(["eval", "--language", "synthetic",
                 "--gold", str(lang / "test.tsv"), "--pred", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "synthetic\t1.0000\t0.0000\t6" in out
    assert "macro-avg\t1.0000" in out
    assert main(["eval", "--language", "synthetic", "--format", "golden",
                 "--gold", str(lang / "test.tsv"), "--pred", str(pred)]) == 0
    assert "macro-avg" in capsys.readouterr().out


@pytest.mark.parametrize("extra, message", [
    (["--language", "again"], "--language, --gold, and --pred must repeat in step"),
    ([], "short.tsv: 2 predictions for 6 gold samples"),
], ids=["uneven-repeats", "short-predictions"])
def test_eval_rejects_inputs_that_do_not_pair_up(lang, tmp_path, capsys, extra, message):
    short = tmp_path / "short.tsv"
    short.write_text("a\tb\tV\nc\td\tV\n")
    out = tmp_path / "eval.txt"
    assert main(["eval", "--language", "synthetic", "--gold", str(lang / "test.tsv"),
                 "--pred", str(short), "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
    assert not out.exists()


def test_ensemble_run2(lang, checkpoints, tmp_path, capsys):
    out = tmp_path / "ens.tsv"
    code = main(["ensemble", "--run", "2",
                 "--pool", str(checkpoints / "HACM_smart"), str(checkpoints / "HACM_naive"),
                 "--dev", str(lang / "dev.tsv"), "--test", str(lang / "test.tsv"),
                 "--out", str(out)])
    assert code == 0
    assert "run 2: ENSEMBLE_7(HACM)" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 6


def test_ensemble_external_wins_run5(lang, checkpoints, tmp_path, capsys):
    test_samples = parse_dataset(str(lang / "test.tsv"))
    dev_samples = parse_dataset(str(lang / "dev.tsv"))
    ext_test = tmp_path / "ext_test.txt"
    ext_dev = tmp_path / "ext_dev.txt"
    # a prediction is the whole line, or the second column of two or more
    layouts = [lambda s: s.form, lambda s: f"{s.lemma}\t{s.form}",
               lambda s: f"{s.lemma}\t{s.form}\t{';'.join(s.features)}",
               lambda s: f"{s.lemma}\t{s.form}\t{';'.join(s.features)}\tnote"]
    ext_test.write_text("".join(layouts[k % 4](s) + "\n" for k, s in enumerate(test_samples)))
    ext_dev.write_text("".join(s.form + "\n" for s in dev_samples))
    out = tmp_path / "ens5.tsv"
    code = main(["ensemble", "--run", "5",
                 "--pool", *(str(checkpoints / d) for d in
                             ("HACM_smart", "HACM_naive", "HAEM_smart", "HAEM_naive")),
                 "--dev", str(lang / "dev.tsv"), "--test", str(lang / "test.tsv"),
                 "--external", str(ext_test), "--external-dev", str(ext_dev),
                 "--external-dev-acc", "1.0", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "external" in stdout
    assert "test accuracy=1.0000" in stdout
    forms = [line.split("\t")[1] for line in out.read_text().splitlines()]
    assert forms == [s.form for s in test_samples]


def test_ensemble_external_needs_accuracy(lang, checkpoints, tmp_path, capsys):
    ext = tmp_path / "ext.txt"
    ext.write_text("x\n" * 6)
    code = main(["ensemble", "--run", "5",
                 "--pool", str(checkpoints / "HACM_smart"),
                 "--dev", str(lang / "dev.tsv"), "--test", str(lang / "test.tsv"),
                 "--external", str(ext)])
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--external", "EXT", "--external-dev-acc", "7"],
    ["--external", "EXT", "--external-dev-acc", "-0.5"],
    ["--external", "EXT", "--external-dev-acc", "nan"],
    ["--external", "EXT", "--external-dev-acc", "inf"],
    ["--external-dev", "EXT"],
    ["--external-dev-acc", "0.5"],
], ids=["acc-7", "acc-negative", "acc-nan", "acc-inf", "dev-alone", "acc-alone"])
def test_ensemble_rejects_a_bad_external_member(lang, checkpoints, tmp_path, capsys, flags):
    ext = tmp_path / "ext.txt"
    ext.write_text("x\n" * 6)
    out = tmp_path / "ens.tsv"
    code = main(["ensemble", "--run", "5",
                 "--pool", str(checkpoints / "HACM_smart"), str(checkpoints / "HAEM_smart"),
                 "--dev", str(lang / "dev.tsv"), "--test", str(lang / "test.tsv"),
                 "--out", str(out), *(str(ext) if f == "EXT" else f for f in flags)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "external" in err
    assert not out.exists()


def test_ensemble_rejects_a_checkpoint_given_twice(lang, checkpoints, tmp_path, capsys):
    dirs = [str(checkpoints / d) for d in ("HACM_smart", "HACM_naive")]
    out = tmp_path / "ens2.tsv"
    common = ["--dev", str(lang / "dev.tsv"), "--test", str(lang / "test.tsv"),
              "--out", str(out)]
    respelled = str(checkpoints / "HAEM_naive" / ".." / "HACM_smart") + "/"
    code = main(["ensemble", "--run", "2", "--pool", *dirs, respelled, *common])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "given twice" in err
    assert "Traceback" not in err
    assert not out.exists()
    # a distinct directory that shares a basename is a distinct voter
    twin = tmp_path / "HACM_smart"
    shutil.copytree(checkpoints / "HACM_smart", twin)
    assert main(["ensemble", "--run", "2", "--pool", *dirs, str(twin), *common]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(f"out = {tmp_path / 'made'}\n"
                   "train-size = 4\ndev-size = 2\ntest-size = 2\nseed = 9\n")
    assert main(["synth", "--config", str(cfg)]) == 0
    made = parse_dataset(str(tmp_path / "made" / "train.tsv"))
    assert len(made) == 4
    # explicit flag overrides the file
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "other"),
                 "--seed", "10"]) == 0
    other = parse_dataset(str(tmp_path / "other" / "train.tsv"))
    assert [s.lemma for s in other] != [s.lemma for s in made]


def test_repeatable_flags_replace_the_config_file_list(lang, tmp_path, capsys):
    gold = str(lang / "dev.tsv")
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("language = de\n")
    assert main(["eval", "--config", str(cfg), "--gold", gold, "--pred", gold]) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == [
        "de", "macro-avg"]
    # an explicit flag replaces the file's list rather than adding to it
    assert main(["eval", "--config", str(cfg), "--language", "en",
                 "--gold", gold, "--pred", gold]) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == [
        "en", "macro-avg"]
    cfg.write_text(f"language = de fr\ngold = {gold} {gold}\npred = {gold} {gold}\n")
    assert main(["eval", "--config", str(cfg), "--language", "en", "--language", "it",
                 "--gold", gold, "--gold", gold, "--pred", gold, "--pred", gold]) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == [
        "en", "it", "macro-avg"]


@pytest.mark.parametrize("argv, text, code, expect", [
    (["oracle", "--arch", "HAEM", "--data", "{data}", "--config={cfg}"],
     "# oracle flags\n\ntrace = yes\n", 0, 4),
    (["oracle", "--arch", "HAEM", "--data", "{data}", "--config", "{cfg}"], "trace = off\n", 0, 3),
    (["predict", "--config", "{cfg}", "--model", "m", "--input", "i"], "no-form = maybe\n", 1,
     "error: config key 'no-form': not a boolean: 'maybe'\n"),
    (["align", "--config", "{cfg}"], "aligner = fancy\n", 1,
     "error: config key 'aligner': invalid choice 'fancy'\n"),
    (["align", "--config", "{cfg}"], "aligner naive\n", 2,
     "error: {cfg}:1: expected key = value\n"),
    (["train", "--config", "{cfg}", "--arch", "HACM", "--train", "t", "--dev", "d", "--out", "o"],
     "hidden = abc\n", 1, "error: config key 'hidden': invalid int value: 'abc'\n"),
    (["train", "--config", "{cfg}", "--arch", "HACM", "--train", "t", "--dev", "d", "--out", "o"],
     "epochs = 1.5\n", 1, "error: config key 'epochs': invalid int value: '1.5'\n"),
], ids=["comments-and-true", "false", "not-a-boolean", "invalid-choice", "no-equals",
        "not-an-int", "float-for-int"])
def test_config_file_lines_and_values(lang, tmp_path, capsys, argv, text, code, expect):
    """A config file may hold comments and blank lines and spell a switch
    as a word; a value it cannot take is an error that names the key as
    the file writes it. ``expect`` is the column count of the output, or
    the error."""
    cfg = tmp_path / "c3.cfg"
    cfg.write_text(text)
    assert main([a.format(cfg=cfg, data=lang / "dev.tsv") for a in argv]) == code
    out, err = capsys.readouterr()
    if code:
        assert err == expect.format(cfg=cfg)
    else:
        assert {len(line.split("\t")) for line in out.splitlines()} == {expect}


def test_train_records_the_dropout_flag(lang, tmp_path):
    out = tmp_path / "m"
    assert main(["train", "--arch", "HAEM", "--train", str(lang / "train.tsv"),
                 "--dev", str(lang / "dev.tsv"), "--out", str(out),
                 *TINY[:-1], "0.1"]) == 0
    assert json.loads((out / "manifest.json").read_text())["dropout"] == 0.1


def test_synth_out_of_stems_writes_no_directory(tmp_path, capsys):
    """CV has 60 stems, too few for 100 training samples: the request fails
    before its --out directory is made."""
    out = tmp_path / "nostems"
    assert main(["synth", "--out", str(out), "--pattern", "CV", "--train-size", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_exit_codes(lang, tmp_path, capsys):
    assert main(["train", "--arch", "GRU", "--train", "x", "--dev", "y",
                 "--out", "z"]) == 1
    assert main(["predict", "--model", str(tmp_path / "none"),
                 "--input", str(tmp_path / "none.tsv")]) == 2
    assert main(["align", "--data", str(tmp_path / "missing.tsv")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("not-a-flag = 1\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "s")]) == 1
    assert main(["--help"]) == 0
    assert main(["eval", "--language", "a", "--gold", "x"]) == 1  # missing --pred
    capsys.readouterr()
    # a diverging run, whether its loss overflows or its gold probability
    # underflows to 0, reports one line and nothing from numpy
    for arch, lr in (("HACM", "1e300"), ("HACM", "100"), ("HAEM", "1e300")):
        assert main(["train", "--arch", arch, "--train", str(lang / "train.tsv"),
                     "--dev", str(lang / "dev.tsv"), "--out", str(tmp_path / "m"),
                     "--hidden", "8", "--embed", "8", "--feat-embed", "4", "--epochs", "2",
                     "--lr", lr]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite loss at epoch \d+ on lemma '\w+'\n", err), err


def test_train_rejects_an_unusable_out_before_training(lang, tmp_path, capsys, monkeypatch):
    out = tmp_path / "notadir"
    out.write_text("")
    monkeypatch.setattr("hardmono.cli.train_model", lambda *a, **k: pytest.fail("work began"))
    assert main(["train", "--arch", "HACM", "--train", str(lang / "train.tsv"),
                 "--dev", str(lang / "dev.tsv"), "--out", str(out), *TINY]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]


def test_a_model_too_large_for_memory_is_a_usage_error(lang, tmp_path, capsys, monkeypatch):
    """``--hidden 1000000`` asks numpy for about 29 TiB; its MemoryError is
    one error line and exit 1, like any other bad size. The test raises it
    without allocating."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.1 TiB for an array with shape "
                          "(4000000, 1000100) and data type float64")

    monkeypatch.setattr("hardmono.cli.train_model", too_large)
    assert main(["train", "--arch", "HACM", "--train", str(lang / "train.tsv"),
                 "--dev", str(lang / "dev.tsv"), "--out", str(tmp_path / "m"),
                 "--hidden", "1000000"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines


@pytest.mark.parametrize("arch", ["HACM", "HAEM"])
def test_train_trains_with_the_aligner_it_is_given(prefix_lang, tmp_path, arch):
    params = {}
    for aligner in ("naive", "smart"):
        out = tmp_path / aligner
        assert main(["train", "--arch", arch, "--aligner", aligner,
                     "--train", str(prefix_lang / "train.tsv"),
                     "--dev", str(prefix_lang / "dev.tsv"),
                     "--out", str(out), "--seed", "1", *TINY]) == 0
        params[aligner] = (out / "params.bin").read_bytes()
    assert params["naive"] != params["smart"]


def test_train_bad_hyperparameters_are_usage_errors(lang):
    assert main(["train", "--arch", "HACM", "--train", str(lang / "train.tsv"),
                 "--dev", str(lang / "dev.tsv"), "--out", "unused",
                 "--epochs", "0"]) == 1


@pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
def test_train_bad_learning_rate_is_a_usage_error(lang, tmp_path, capsys, lr):
    assert main(["train", "--arch", "HACM", "--train", str(lang / "train.tsv"),
                 "--dev", str(lang / "dev.tsv"), "--out", str(tmp_path / "m"),
                 "--lr", lr, *TINY]) == 1
    assert capsys.readouterr().err.startswith("error: learning rate")
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("flags, code", [
    (["--synth", "--epochs", "0"], 1),
    (["--synth", "--hidden", "0"], 1),
    (["--synth", "--hacm-smart", "-1"], 2),
    (["--train", "t.tsv"], 2),
    (["--train", "missing/train.tsv", "--dev", "missing/dev.tsv",
      "--test", "missing/test.tsv"], 2),
    (["--synth", "--no-form"], 1),
    (["--synth", "--run", "1", "--hacm-naive", "0"], 2),
    (["--synth", "--test-size", "0"], 2),
    (["--synth", "--train-size", "2000"], 2),
], ids=["epochs-0", "hidden-0", "negative-count", "no-data", "missing-data", "synth-no-form",
        "empty-run-cell", "synth-empty-split", "synth-too-few-stems"])
def test_run_rejects_a_bad_config_before_writing(tmp_path, capsys, flags, code):
    argv = ["run", "--out", str(tmp_path / "d"), "--train-size", "4", "--dev-size", "2",
            "--test-size", "2", *TINY, *flags]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "d").exists()


def test_run_end_to_end_deterministic(tmp_path, capsys):
    args = ["run", "--synth", "--synth-seed", "4",
            "--train-size", "8", "--dev-size", "4", "--test-size", "4",
            "--run", "2", "--hacm-smart", "1", "--hacm-naive", "1",
            "--haem-smart", "0", "--haem-naive", "0", "--seed", "2", *TINY]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "predictions.tsv").read_bytes()
    second = (tmp_path / "b" / "predictions.tsv").read_bytes()
    assert first == second
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["run"] == 2
    assert manifest["counts"]["HACM/smart"] == 1
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["system"] == "ENSEMBLE_7(HACM)"
    assert len(report["models"]) == 2
    assert "test_accuracy" in report


def test_run_on_files_with_an_unlabeled_test_set(lang, tmp_path, capsys):
    test = parse_dataset(str(lang / "test.tsv"))
    bare = tmp_path / "bare.tsv"
    write_dataset(str(bare), test, has_form=False)
    out = tmp_path / "r"
    assert main(["run", "--train", str(lang / "train.tsv"), "--dev", str(lang / "dev.tsv"),
                 "--test", str(bare), "--no-form", "--out", str(out), "--run", "2",
                 "--hacm-smart", "1", "--hacm-naive", "1", "--haem-smart", "0",
                 "--haem-naive", "0", *TINY]) == 0
    text = (out / "predictions.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in text.splitlines()]
    assert [(r[0], r[2]) for r in rows] == [(s.lemma, ";".join(s.features)) for s in test]
    report = json.loads((out / "report.json").read_text())
    assert "test_accuracy" not in report and "test_levenshtein" not in report
    assert not (out / "report.tsv").exists()


def test_run_empty_pool(tmp_path, capsys):
    code = main(["run", "--synth", "--out", str(tmp_path / "r"),
                 "--hacm-smart", "0", "--hacm-naive", "0",
                 "--haem-smart", "0", "--haem-naive", "0", *TINY])
    assert code == 2


def test_readme_commands_parse():
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("hardmono "):
                commands.append(shlex.split(line)[1:])
    parser, registry = build_parser()
    assert {argv[0] for argv in commands} == set(registry)
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: hardmono {shlex.join(argv)}")


def _requirements(key):
    """Distribution names in the ``key = [...]`` list of pyproject.toml, read
    with a pattern: Python 3.10 has no tomllib."""
    match = re.search(rf"^{key} = \[(.*?)\]", PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)
    assert match, f"pyproject.toml has no {key} list"
    return {re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0].lower().replace("-", "_")
            for requirement in re.findall(r'"([^"]+)"', match.group(1))}


def test_test_imports_are_declared_dependencies():
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {"hardmono"} | {path.stem for path in TESTS.glob("*.py")}
    third_party = imported - set(sys.stdlib_module_names) - local
    missing = third_party - _requirements("dependencies") - _requirements("dev")
    assert not missing, f"tests import {sorted(missing)}, missing from the dev extra"
    assert 'pip install -e ".[dev]"' in README.read_text(encoding="utf-8")


def _edit_manifest(edit):
    def corrupt(ckpt):
        path = ckpt / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return corrupt


def _repeat_first_entry(ckpt):
    """The first parameter listed a second time, with a second payload."""
    raw = (ckpt / "params.bin").read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + length])
    first = header["entries"][0]
    header["entries"].append(first)
    payload = raw[20 + length:]
    text = json.dumps(header).encode()
    (ckpt / "params.bin").write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(text))
                                      + text + payload + payload[:8 * math.prod(first["shape"])])


def _write_header(header: bytes):
    def corrupt(ckpt):
        (ckpt / "params.bin").write_bytes(
            MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header)
    return corrupt


def _set_weight(name: str, value: float):
    """One value of the named tensor replaced, the file otherwise intact."""
    def corrupt(ckpt):
        state = load_params(ckpt / "params.bin")
        state[name].flat[0] = value
        save_params(ckpt / "params.bin", state)
    return corrupt


@pytest.mark.parametrize("corrupt, named", [
    (_edit_manifest(lambda m: m.pop("hidden")), "manifest.json"),
    (_edit_manifest(lambda m: m.pop("arch")), "manifest.json"),
    (_edit_manifest(lambda m: m.update(hidden="4")), "manifest.json"),
    (_edit_manifest(lambda m: m.update(hidden=0)), "manifest.json"),
    (_edit_manifest(lambda m: m.update(chars=[1, 2])), "manifest.json"),
    (_edit_manifest(lambda m: m.update(chars=["zz"] + m["chars"][1:])), "manifest.json"),
    (_edit_manifest(lambda m: m.update(chars=[""] + m["chars"][1:])), "manifest.json"),
    (_edit_manifest(lambda m: m.update(chars=["\u2603"] * 1000)), "manifest.json"),
    (_edit_manifest(lambda m: m.update(seed="1")), "manifest.json"),
    (lambda ckpt: (ckpt / "manifest.json").write_text("[]"), "manifest.json"),
    (lambda ckpt: (ckpt / "manifest.json").write_text('{"arch": "HACM",'), "manifest.json"),
    (_write_header(b"{}"), "params.bin"),
    (_write_header(b'{"entries": [{"name": "w"}]}'), "params.bin"),
    (_write_header(b'{"entries": [{"name": "w", "shape": [2.5]}]}'), "params.bin"),
    (_write_header(b"not json"), "params.bin"),
    (lambda ckpt: (ckpt / "params.bin").write_bytes(
        MAGIC + struct.pack("<IQ", FORMAT_VERSION, 99) + b"{}"), "params.bin"),
    (lambda ckpt: (ckpt / "params.bin").write_bytes(MAGIC + b"\x01"), "params.bin"),
    (_repeat_first_entry, "params.bin"),
    (_set_weight("dec.w", math.nan), "params.bin"),
    (_set_weight("gen.b", math.inf), "params.bin"),
    # nested past Python's recursion limit, which json's decoder raises on
    (lambda ckpt: (ckpt / "manifest.json").write_text("[" * 100_000), "manifest.json"),
    (_write_header(b"[" * 100_000), "params.bin"),
    # no payload byte is missing, but numpy has no array of this shape
    (_write_header(b'{"entries": [{"name": "w", "shape": [0, %d]}]}' % 10**30), "params.bin"),
], ids=["no-hidden", "no-arch", "hidden-str", "hidden-zero", "chars-int", "chars-multi",
        "chars-empty", "chars-repeated", "seed-str", "not-object", "bad-json", "no-entries",
        "no-shape", "float-shape", "header-json", "header-past-end", "short-params",
        "repeated-name", "nan-weight", "inf-weight", "nested-manifest", "nested-header",
        "zero-size-too-large"])
def test_predict_rejects_corrupt_checkpoint(lang, checkpoints, tmp_path, capsys, corrupt, named):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(checkpoints / "HACM_smart", ckpt)
    corrupt(ckpt)
    out = tmp_path / "pred.tsv"
    assert main(["predict", "--model", str(ckpt), "--input", str(lang / "test.tsv"),
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {ckpt / named}: "), lines
    assert not out.exists()


def _traced(argv) -> tuple[int, list[str], int]:
    """The exit code of ``main(argv)``, its stderr lines and the peak bytes
    Python allocated in it."""
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue().splitlines(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch, edit, tensor", [
    ("HACM", {"hidden": 1_000_000}, "enc.fwd.w"),
    ("HAEM", {"hidden": 1_000_000}, "enc.fwd.w"),
    ("HACM", {"embed": 1_000_000}, "char_emb"),
    ("HAEM", {"embed": 1_000_000}, "char_emb"),
    ("HAEM", {"chars": [chr(0x4E00 + i) for i in range(1000)]}, "char_emb"),
    ("HACM", {"feat_embed": 1_000_000}, "feat_emb"),
    ("HACM", {"features": [f"F{i:04d}" for i in range(1000)]}, "feat_emb"),
    ("HAEM", {"features": [f"F{i:04d}" for i in range(1000)]}, "state.w"),
], ids=["hacm-hidden", "haem-hidden", "hacm-embed", "haem-embed", "haem-chars",
        "hacm-feat-embed", "hacm-features", "haem-features"])
def test_predict_checks_manifest_sizes_against_params_before_building(
        lang, checkpoints, tmp_path, arch, edit, tensor):
    """Sizes in a manifest that its params.bin does not hold are a bad
    checkpoint, found at the first tensor that does not fit, before anything
    of that size is made: a hidden size of a million would ask for tens of
    terabytes. So the failing predict allocates less than twice what an
    intact checkpoint's whole predict does."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(checkpoints / f"{arch}_smart", ckpt)
    _edit_manifest(lambda m: m.update(edit))(ckpt)
    predict = ["predict", "--input", str(lang / "test.tsv"), "--model"]
    intact_code, _, intact_peak = _traced(predict + [str(checkpoints / f"{arch}_smart")])
    assert intact_code == 0
    code, lines, peak = _traced(predict + [str(ckpt)])
    assert code == 2 and peak < 2 * intact_peak, (peak, intact_peak)
    assert len(lines) == 1 and lines[0].startswith(f"error: {ckpt / 'params.bin'}: "), lines
    assert repr(tensor) in lines[0]


@pytest.mark.parametrize("saved, named, tensor", [
    ("extended", "basic", "state.w"),
    ("basic", "extended", "act_emb"),
], ids=["basic-over-extended", "extended-over-basic"])
def test_predict_rejects_a_haem_manifest_naming_the_other_variant(
        lang, checkpoints, tmp_path, capsys, saved, named, tensor):
    """The variants share their first tensors: a manifest naming the other
    variant fails at the first tensor they do not share, which is missing
    (act_emb) or of another shape (state.w)."""
    model, _ = load_checkpoint(checkpoints / "HAEM_smart")
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, HaemModel(model.vocab, model.feats, replace(model.config, variant=saved),
                                    np.random.default_rng(0)), "smart")
    _edit_manifest(lambda m: m.update(variant=named))(ckpt)
    assert main(["predict", "--model", str(ckpt), "--input", str(lang / "test.tsv")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {ckpt / 'params.bin'}: "), lines
    assert repr(tensor) in lines[0]


@pytest.mark.parametrize("accuracy, message", [
    (math.nan, "outside [0, 1]"),
    (7.5, "outside [0, 1]"),
    (-0.1, "outside [0, 1]"),
    (None, "has no recorded dev accuracy"),
], ids=["nan", "7.5", "negative", "null"])
def test_ensemble_rejects_a_pool_dev_accuracy_outside_0_1(lang, checkpoints, tmp_path, capsys,
                                                          accuracy, message):
    """A manifest's dev accuracy ranks its voter, so a value that is no
    accuracy, or none at all, fails like a bad --external-dev-acc, before
    anything is written."""
    bad = tmp_path / "HAEM_smart"
    shutil.copytree(checkpoints / "HAEM_smart", bad)
    _edit_manifest(lambda m: m.update(dev_accuracy=accuracy))(bad)
    out = tmp_path / "ens.tsv"
    for run in ("1", "2"):
        code = main(["ensemble", "--run", run, "--pool", str(checkpoints / "HACM_smart"),
                     str(bad), "--dev", str(lang / "dev.tsv"), "--test", str(lang / "test.tsv"),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dev accuracy" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()


NOT_UTF8 = b"abc\tabd\tV\n\xff\tx\tV\n"   # line 2 is not UTF-8


@pytest.mark.parametrize("argv", [
    lambda bad, lang, ckpts: ["align", "--data", bad],
    lambda bad, lang, ckpts: ["eval", "--language", "x", "--gold", bad,
                              "--pred", str(lang / "dev.tsv")],
    lambda bad, lang, ckpts: ["eval", "--language", "x", "--gold", str(lang / "dev.tsv"),
                              "--pred", bad],
    lambda bad, lang, ckpts: ["predict", "--model", str(ckpts / "HAEM_smart"), "--input", bad],
    lambda bad, lang, ckpts: ["synth", "--config", bad, "--out", str(lang / "unused")],
], ids=["align-data", "eval-gold", "eval-pred", "predict-input", "config"])
def test_non_utf8_input_is_a_data_error(lang, checkpoints, tmp_path, capsys, argv):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(NOT_UTF8)
    assert main(argv(str(bad), lang, checkpoints)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{bad}:2:" in err


def test_predict_of_a_byte_order_marked_file_writes_no_mark(lang, checkpoints, tmp_path):
    rows = (lang / "test.tsv").read_text(encoding="utf-8")
    marked = tmp_path / "marked.tsv"
    marked.write_text("\ufeff" + rows, encoding="utf-8")
    outs = []
    for name, data in (("plain", lang / "test.tsv"), ("marked", marked)):
        out = tmp_path / f"{name}.out"
        assert main(["predict", "--model", str(checkpoints / "HAEM_smart"),
                     "--input", str(data), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
    assert "\ufeff".encode() not in outs[1]


EMITTING = {
    "align": lambda lang, ckpts: ["align", "--data", str(lang / "dev.tsv")],
    "oracle": lambda lang, ckpts: ["oracle", "--data", str(lang / "dev.tsv"), "--arch", "HAEM"],
    "predict": lambda lang, ckpts: ["predict", "--model", str(ckpts / "HAEM_smart"),
                                    "--input", str(lang / "test.tsv")],
    "eval": lambda lang, ckpts: ["eval", "--language", "x", "--gold", str(lang / "dev.tsv"),
                                 "--pred", str(lang / "dev.tsv")],
    "ensemble": lambda lang, ckpts: ["ensemble", "--run", "1", "--pool",
                                     str(ckpts / "HACM_smart"), "--dev", str(lang / "dev.tsv"),
                                     "--test", str(lang / "test.tsv")],
}


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", sorted(EMITTING))
def test_an_unwritable_out_is_rejected_before_any_work(lang, checkpoints, tmp_path, capsys,
                                                       monkeypatch, command, where):
    out = tmp_path / "nope" / "o.tsv" if where == "missing-directory" else tmp_path
    for name in ("parse_dataset", "load_checkpoint"):
        monkeypatch.setattr(f"hardmono.cli.{name}", lambda *a, **k: pytest.fail("work began"))
    assert main(EMITTING[command](lang, checkpoints) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


EMPTY_FILE = {
    "train-train": lambda e, lang, ckpts, out: [
        "train", "--arch", "HAEM", "--train", e, "--dev", str(lang / "dev.tsv"), "--out", out],
    "train-dev": lambda e, lang, ckpts, out: [
        "train", "--arch", "HACM", "--train", str(lang / "train.tsv"), "--dev", e, "--out", out],
    "run-train": lambda e, lang, ckpts, out: [
        "run", "--train", e, "--dev", str(lang / "dev.tsv"), "--test", str(lang / "test.tsv"),
        "--out", out],
    "run-test": lambda e, lang, ckpts, out: [
        "run", "--train", str(lang / "train.tsv"), "--dev", str(lang / "dev.tsv"), "--test", e,
        "--out", out],
    "eval-gold": lambda e, lang, ckpts, out: [
        "eval", "--language", "x", "--gold", e, "--pred", e, "--out", out],
    "ensemble-dev": lambda e, lang, ckpts, out: [
        "ensemble", "--run", "1", "--pool", str(ckpts / "HACM_smart"), "--dev", e,
        "--test", str(lang / "test.tsv"), "--out", out],
    "ensemble-test": lambda e, lang, ckpts, out: [
        "ensemble", "--run", "1", "--pool", str(ckpts / "HACM_smart"),
        "--dev", str(lang / "dev.tsv"), "--test", e, "--out", out],
    "predict-input": lambda e, lang, ckpts, out: [
        "predict", "--model", str(ckpts / "HAEM_smart"), "--input", e, "--out", out],
}


@pytest.mark.parametrize("command", sorted(EMPTY_FILE))
def test_an_empty_data_file_is_a_data_error_before_any_work(lang, checkpoints, tmp_path, capsys,
                                                            monkeypatch, command):
    """A data file with no samples exits 2 and names the file, before any
    model is trained or decoded and before any output is written."""
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n")
    out = tmp_path / "out"
    for name in ("train_model", "train_population", "predict_all", "run_strategy"):
        monkeypatch.setattr(f"hardmono.cli.{name}", lambda *a, **k: pytest.fail("work began"))
    assert main(EMPTY_FILE[command](str(empty), lang, checkpoints, str(out))) == 2
    assert capsys.readouterr().err == f"error: {empty}: no samples\n"
    assert not out.exists()


# --- every file the CLI reads, mutated -----------------------------------------
# QuickCheck-style properties (Claessen & Hughes, ICFP 2000) over mutated copies
# of intact inputs: each run exits 0, or with its documented code and exactly one
# "error:" line, never with an uncaught exception, and allocates at most a fixed
# multiple of what the intact input's run does.

FUZZ = settings(max_examples=20, deadline=None, derandomize=True, database=None)
PEAK_MULTIPLE = 2


@pytest.fixture(scope="module")
def fuzz(tmp_path_factory, lang, checkpoints):
    """A scratch checkpoint, data file and config file, the intact bytes of
    each, and the traced peaks of the commands that read them."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(checkpoints / "HACM_smart", root / "ckpt")
    shutil.copy(lang / "test.tsv", root / "data.tsv")
    (root / "config").write_text(f"# align\ndata = {lang / 'dev.tsv'}\naligner = naive\n")
    paths = SimpleNamespace(params=root / "ckpt" / "params.bin",
                            manifest=root / "ckpt" / "manifest.json",
                            data=root / "data.tsv", config=root / "config")
    argvs = {"predict": ["predict", "--model", str(root / "ckpt"), "--input", str(paths.data)],
             "align": ["align", "--data", str(lang / "dev.tsv"), "--config", str(paths.config)]}
    peaks = {}
    for command, argv in argvs.items():
        code, err, peaks[command] = _traced(argv)
        assert code == 0 and not err
    return SimpleNamespace(paths=paths, argvs=argvs, peaks=peaks,
                           intact={path: path.read_bytes() for path in vars(paths).values()})


def _holds(fuzz, command: str, codes: tuple[int, ...], edited: Path, content: bytes) -> None:
    """``command`` on the intact files, but with ``content`` in ``edited``,
    exits 0, or with one of ``codes`` and one error line, within the peak
    bound."""
    for path, intact in fuzz.intact.items():
        path.write_bytes(content if path == edited else intact)
    code, err, peak = _traced(fuzz.argvs[command])
    errors = [line for line in err if line.startswith("error:")]
    assert (code, errors) == (0, []) or (code in codes and len(errors) == 1), (code, err)
    assert peak <= PEAK_MULTIPLE * fuzz.peaks[command], (peak, fuzz.peaks[command])


# edits of a params.bin: a byte flipped, the file cut short, the header length
# moved, or one tensor's shape replaced; positions wrap around the file
PARAMS_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 2**16)),
    st.tuples(st.just("header-length"), st.integers(-8, 8) | st.integers(-2**64, 2**64)),
    st.tuples(st.just("shape"), st.integers(0, 2**8),
              st.lists(st.integers(0, 40) | st.sampled_from([2**31, 2**63, 10**30]), max_size=3)))


def _params_edit(raw: bytes, edit: tuple) -> bytes:
    kind, at, *rest = edit
    (length,) = struct.unpack_from("<Q", raw, 12)
    if kind == "flip":
        at %= len(raw)
        return raw[:at] + bytes([raw[at] ^ rest[0]]) + raw[at + 1:]
    if kind == "cut":
        return raw[:at % len(raw)]
    if kind == "header-length":
        return raw[:12] + struct.pack("<Q", min(max(length + at, 0), 2**64 - 1)) + raw[20:]
    entries = json.loads(raw[20:20 + length])["entries"]
    entries[at % len(entries)]["shape"] = rest[0]
    header = json.dumps({"entries": entries}).encode()
    return MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + raw[20 + length:]


@settings(FUZZ, max_examples=40)
@given(PARAMS_EDITS)
@example(("shape", 0, [0, 10**30]))
def test_a_mutated_params_file_is_read_or_rejected(fuzz, edit):
    params = fuzz.paths.params
    _holds(fuzz, "predict", (2,), params, _params_edit(fuzz.intact[params], edit))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@FUZZ
@given(st.data())
def test_a_manifest_value_of_any_type_is_read_or_rejected(fuzz, data):
    path = fuzz.paths.manifest
    manifest = json.loads(fuzz.intact[path])
    manifest[data.draw(st.sampled_from(sorted(manifest)))] = data.draw(JSON_VALUES)
    _holds(fuzz, "predict", (2,), path, json.dumps(manifest).encode())


def _inserted(data, raw: bytes, pieces: list[bytes]) -> bytes:
    """``raw`` with a few of ``pieces`` inserted, or cut short."""
    if data.draw(st.booleans()):
        return raw[:data.draw(st.integers(0, len(raw)))]
    for piece in data.draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=3)):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + piece + raw[at:]
    return raw


@FUZZ
@given(st.data())
def test_a_data_file_with_tabs_nuls_or_marks_is_read_or_rejected(fuzz, data):
    path = fuzz.paths.data
    _holds(fuzz, "predict", (2,), path, _inserted(data, fuzz.intact[path], [
        b"\t", b"\x00", b"\xef\xbb\xbf", b"\n", b"\r", b";", b"\xff", "é".encode()]))


@FUZZ
@given(st.data())
def test_a_mutated_config_file_is_read_or_rejected(fuzz, data):
    path = fuzz.paths.config
    _holds(fuzz, "align", (1, 2), path, _inserted(data, fuzz.intact[path], [
        b"\t", b"\x00", b"\xef\xbb\xbf", b"\n", b"=", b"#", b" ", b"\xff"]))
