"""End-to-end command-line behavior: pipelines, config files, exit codes."""

import ast
import json
import math
import re
import shlex
import shutil
import struct
import sys
from pathlib import Path

import pytest

from hardmono.cli import build_parser, main
from hardmono.corpus import Sample, parse_dataset, write_dataset
from hardmono.serialize import FORMAT_VERSION, MAGIC, load_checkpoint, load_params, save_params
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
    ext_test.write_text("".join(s.form + "\n" for s in test_samples))
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
], ids=["comments-and-true", "false", "not-a-boolean", "invalid-choice", "no-equals"])
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
], ids=["epochs-0", "hidden-0", "negative-count", "no-data", "missing-data", "synth-no-form",
        "empty-run-cell", "synth-empty-split"])
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


@pytest.mark.parametrize("corrupt", [
    _edit_manifest(lambda m: m.pop("hidden")),
    _edit_manifest(lambda m: m.pop("arch")),
    _edit_manifest(lambda m: m.update(hidden="4")),
    _edit_manifest(lambda m: m.update(hidden=0)),
    _edit_manifest(lambda m: m.update(chars=[1, 2])),
    _edit_manifest(lambda m: m.update(chars=["zz"] + m["chars"][1:])),
    _edit_manifest(lambda m: m.update(chars=[""] + m["chars"][1:])),
    _edit_manifest(lambda m: m.update(seed="1")),
    lambda ckpt: (ckpt / "manifest.json").write_text("[]"),
    lambda ckpt: (ckpt / "manifest.json").write_text('{"arch": "HACM",'),
    _write_header(b"{}"),
    _write_header(b'{"entries": [{"name": "w"}]}'),
    _write_header(b'{"entries": [{"name": "w", "shape": [2.5]}]}'),
    _write_header(b"not json"),
    lambda ckpt: (ckpt / "params.bin").write_bytes(
        MAGIC + struct.pack("<IQ", FORMAT_VERSION, 99) + b"{}"),
    lambda ckpt: (ckpt / "params.bin").write_bytes(MAGIC + b"\x01"),
    _repeat_first_entry,
    _set_weight("dec.w", math.nan),
    _set_weight("gen.b", math.inf),
], ids=["no-hidden", "no-arch", "hidden-str", "hidden-zero", "chars-int", "chars-multi",
        "chars-empty", "seed-str", "not-object", "bad-json", "no-entries", "no-shape",
        "float-shape", "header-json", "header-past-end", "short-params", "repeated-name",
        "nan-weight", "inf-weight"])
def test_predict_rejects_corrupt_checkpoint(lang, checkpoints, tmp_path, capsys, corrupt):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(checkpoints / "HACM_smart", ckpt)
    corrupt(ckpt)
    out = tmp_path / "pred.tsv"
    assert main(["predict", "--model", str(ckpt), "--input", str(lang / "test.tsv"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


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
