"""The benchmark workloads.  ``run.py`` starts this file once per workload
run, in a process of its own:

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE SIZE SPAWNED RESULT [--setup-only]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts from process start.  The result, a JSON
object, is written to the file RESULT.

Each workload is a closed loop with one caller: the next call starts when
the previous one returns.  Every workload has a set-up (inputs made from
the seed, and for ``decode`` the trained checkpoints), a timed phase that
runs for about SECONDS, and output checks.  With TRACE=1 the timed phase
runs twice, untraced and then traced, with the same number of requests;
the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hardmono import cli, corpus, serialize, synth  # noqa: E402
from hardmono import train as hm_train  # noqa: E402
from hardmono import metrics as hm_metrics  # noqa: E402
from hardmono.hacm import ModelConfig  # noqa: E402
from hardmono.oracle import HACM, HAEM  # noqa: E402
from hardmono.train import TrainConfig  # noqa: E402

import spec  # noqa: E402
from machine import machine_facts  # noqa: E402
from tracer import Tracer  # noqa: E402

FULL_MODEL = ModelConfig()                                   # hidden = embed = 100, feat 20
SMOKE_MODEL = ModelConfig(hidden=8, embed=8, feat_embed=4)

SIZES = {
    # train: 6 stems x 3 rules; a pair is one HACM and one HAEM train_model
    "train": {
        "full": dict(model=FULL_MODEL, stems=6, dev=3, epochs=2, min_pairs=2),
        "smoke": dict(model=SMOKE_MODEL, stems=2, dev=2, epochs=1, min_pairs=2),
    },
    # decode: set-up training, then blocks of in-distribution, OOV and long
    # lemmas; every fourth block is also a file for the CLI; a request
    # predicts one query with both models
    "decode": {
        "full": dict(model=FULL_MODEL, train=50, dev=10, epochs=3, lr=3e-3,
                     plain=42, oov=6, long=2, blocks=20, file_every=4, floor=0.3),
        "smoke": dict(model=SMOKE_MODEL, train=6, dev=2, epochs=1, lr=3e-3,
                      plain=8, oov=2, long=1, blocks=2, file_every=1, floor=0.0),
    },
    # pipeline: hardmono run --synth, one model per cell, run 7
    "pipeline": {
        "full": dict(model=FULL_MODEL, train=100, dev=50, test=50, epochs=1, lr=3e-3, floor=0.1),
        "smoke": dict(model=SMOKE_MODEL, train=8, dev=4, test=4, epochs=1, lr=3e-3, floor=0.0),
    },
}

TRAIN_PATTERN = "CVCCVCVC"       # longer stems than the default CViCen
LONG_PATTERN = "CViCVCVCVCVCen"  # the long lemmas of the decode queries
UNSEEN = "hjvwz"                 # consonants synth never draws
MODEL_SEED = 0                   # language and training seed of the decode models


def tail(values: list[float]) -> float:
    """p99 by nearest rank, lowered as needed so that ten values lie
    beyond it; the median below eleven values.  A failed call counts as
    infinitely slow."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return statistics.median(ordered)
    return ordered[min(math.ceil(0.99 * len(ordered)), len(ordered) - 10) - 1]


def model_flags(model: ModelConfig) -> list[str]:
    return ["--hidden", str(model.hidden), "--embed", str(model.embed),
            "--feat-embed", str(model.feat_embed)]


class Workload:
    """Set-up, a timed phase of requests, and output checks."""

    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.work = work
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        """One operation: returns (result, seconds); a raise is a failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            result = None
        return result, time.perf_counter() - start

    def cli(self, argv: list[str]) -> float:
        """``hardmono.cli.main``; a non-zero exit is a failure.  Returns
        the wall time, infinite on failure."""
        rc, seconds = self.call(cli.main, argv)
        if rc != 0:
            if rc is not None:
                self.failed += 1
            return math.inf
        return seconds

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, index: int) -> None:
        raise NotImplementedError

    def done(self, index: int, elapsed: float, seconds: float) -> bool:
        """Whether the open-ended timed loop may stop after ``index + 1``
        requests."""
        raise NotImplementedError

    def checks(self) -> list[str]:
        raise NotImplementedError

    def results(self) -> tuple[dict, dict]:
        """(end-to-end metrics, detail metrics with sample counts)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget measurements before a repeat of the timed phase."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """One HACM and one HAEM model trained by train_model with the smart
    aligner for a fixed number of epochs; repeated with the same seed."""

    name = "train"

    def setup(self) -> None:
        s = self.size
        rng = random.Random(self.seed)
        cons = rng.sample(synth.CONSONANTS, 2)
        vows = rng.sample(synth.VOWELS, 2)
        rules = (synth.parse_rule(f"V;PRS=suffix:{vows[0]}{cons[0]}"),
                 synth.parse_rule(f"V;PST=ablaut:{vows[0]}>{vows[1]}"),
                 synth.parse_rule(f"V;PTCP=prefix:{cons[1]}{vows[1]}"))
        config = synth.SynthConfig(pattern=TRAIN_PATTERN, rules=rules,
                                   train=3 * s["stems"], dev=s["dev"], test=0, seed=self.seed)
        paths = synth.write_language(str(self.work / "data"), config)
        self.train = corpus.parse_dataset(paths["train"])
        self.dev = corpus.parse_dataset(paths["dev"])
        self.reset()

    def reset(self) -> None:
        self.walls = {HACM: [], HAEM: []}
        self.runs = []

    def request(self, index: int) -> None:
        s = self.size
        for arch in (HACM, HAEM):
            config = TrainConfig(epochs=s["epochs"], patience=s["epochs"], seed=self.seed)
            result, seconds = self.call(hm_train.train_model, arch, "smart", self.train, self.dev,
                                        s["model"], config)
            self.walls[arch].append(seconds if result is not None else math.inf)
            if result is not None:
                self.runs.append((arch, result.dev_accuracy, result.history))

    def done(self, index: int, elapsed: float, seconds: float) -> bool:
        pair = elapsed / (index + 1)
        return index + 1 >= self.size["min_pairs"] and elapsed + pair / 2 >= seconds

    def checks(self) -> list[str]:
        problems = []
        epochs = self.size["epochs"]
        for arch in (HACM, HAEM):
            runs = [(acc, hist) for a, acc, hist in self.runs if a == arch]
            if not runs:
                problems.append(f"{arch}: no training run finished")
                continue
            acc, hist = runs[0]
            if len(hist) != epochs:
                problems.append(f"{arch}: {len(hist)} epochs run, wanted {epochs}")
            losses = [h["train_loss"] for h in hist]
            if not all(math.isfinite(x) for x in losses):
                problems.append(f"{arch}: non-finite training loss")
            elif epochs > 1 and not losses[-1] < losses[0]:
                problems.append(f"{arch}: training loss did not fall: {losses}")
            if any(r != runs[0] for r in runs[1:]):
                problems.append(f"{arch}: repeated training with one seed differed")
        return problems

    def results(self) -> tuple[dict, dict]:
        s = self.size
        per_model = s["epochs"] * len(self.train)
        pairs = [h + e for h, e in zip(self.walls[HACM], self.walls[HAEM])]
        e2e = {
            "samples_per_s": 2 * per_model / statistics.median(pairs),
            "latency_ms_p50": 1e3 * statistics.median(pairs),
            "latency_ms_p99": 1e3 * tail(pairs),
        }
        named = {
            "hacm_train_samples_per_s": (per_model / statistics.median(self.walls[HACM]),
                                         "1/s", per_model * len(pairs)),
            "haem_train_samples_per_s": (per_model / statistics.median(self.walls[HAEM]),
                                         "1/s", per_model * len(pairs)),
            "accuracy": (statistics.mean(acc for _, acc, _ in self.runs), "ratio",
                         len(self.runs)),
        }
        return e2e, named


class DecodeWorkload(Workload):
    """Trained checkpoints queried through ``hardmono predict`` (files) and
    through single ``train.predict`` calls."""

    name = "decode"

    def setup(self) -> None:
        s = self.size
        n = s["blocks"]
        # every run decodes the same two models; the seed draws the queries
        train, dev, _ = synth.generate(synth.SynthConfig(
            train=s["train"], dev=s["dev"], test=0, seed=MODEL_SEED))
        seen = {x.lemma for x in train + dev}
        plain = [x for x in synth.generate(synth.SynthConfig(
            train=0, dev=0, test=n * s["plain"] + 2 * len(seen), seed=self.seed))[2]
            if x.lemma not in seen][:n * s["plain"]]
        rng = random.Random(self.seed)
        oov = []
        for x in synth.generate(synth.SynthConfig(train=0, dev=0, test=n * s["oov"],
                                                  seed=self.seed + 1))[2]:
            # the stem starts with a consonant the rules never touch
            c = rng.choice(UNSEEN)
            oov.append(corpus.Sample(c + x.lemma[1:], x.features, c + x.form[1:]))
        long = synth.generate(synth.SynthConfig(pattern=LONG_PATTERN, train=0, dev=0,
                                                test=n * s["long"], seed=self.seed))[2]
        # blocks with a fixed mix of query kinds
        self.queries, self.kinds = [], []
        for b in range(n):
            block = [(x, kind) for kind, xs in (("plain", plain), ("oov", oov), ("long", long))
                     for x in xs[b * s[kind]:(b + 1) * s[kind]]]
            rng.shuffle(block)
            self.queries += [x for x, _ in block]
            self.kinds += [k for _, k in block]
        self.block = s["plain"] + s["oov"] + s["long"]
        self.files = {}
        for b in range(0, n, s["file_every"]):
            self.files[b] = self.work / f"queries{b}.tsv"
            corpus.write_dataset(str(self.files[b]), self.block_queries(b))

        self.models = {}
        self.checkpoints = {}
        for arch in (HACM, HAEM):
            result = hm_train.train_model(arch, "smart", train, dev, s["model"],
                                          TrainConfig(epochs=s["epochs"], patience=s["epochs"],
                                                      lr=s["lr"], seed=MODEL_SEED))
            directory = self.work / f"{arch.lower()}_ckpt"
            serialize.save_checkpoint(directory, result.model, "smart",
                                      dev_accuracy=result.dev_accuracy, seed=MODEL_SEED)
            self.checkpoints[arch] = directory
            self.models[arch] = serialize.load_checkpoint(directory)[0]
        self.reset()

    def reset(self) -> None:
        self.file_walls = {HACM: {}, HAEM: {}}
        self.latency = {HACM: [], HAEM: []}
        self.singles = {HACM: [], HAEM: []}
        self.accuracy = []

    def block_queries(self, b: int) -> list:
        return self.queries[b * self.block:(b + 1) * self.block]

    def output(self, arch: str, b: int) -> Path:
        return self.work / f"pred_{arch.lower()}_{b}.tsv"

    def request(self, index: int) -> None:
        b, offset = divmod(index, self.block)
        if offset == 0 and b in self.files:
            # phase (a): this block's file through the CLI, per model
            for arch in (HACM, HAEM):
                self.file_walls[arch][b] = self.cli(
                    ["predict", "--model", str(self.checkpoints[arch]),
                     "--input", str(self.files[b]), "--out", str(self.output(arch, b))])
        # phase (b): one query, each model, one call at a time
        sample = self.queries[index % len(self.queries)]
        for arch in (HACM, HAEM):
            prediction, seconds = self.call(hm_train.predict, self.models[arch], sample)
            self.latency[arch].append(seconds if prediction is not None else math.inf)
            if index < len(self.queries):
                self.singles[arch].append(prediction)

    def done(self, index: int, elapsed: float, seconds: float) -> bool:
        return index + 1 >= len(self.queries) and elapsed >= seconds

    def checks(self) -> list[str]:
        problems = []
        gold = [q.form for q in self.queries]
        plain = [i for i, k in enumerate(self.kinds) if k == "plain"]
        scores = []
        for arch in (HACM, HAEM):
            predictions = self.singles[arch]
            for b in self.files:
                path, inputs = self.output(arch, b), self.block_queries(b)
                text = path.read_text(encoding="utf-8") if path.exists() else ""
                rows = [line.split("\t") for line in text.splitlines()]
                if len(rows) != len(inputs) or any(
                        len(r) != 3 or r[0] != q.lemma or r[2] != ";".join(q.features)
                        for r, q in zip(rows, inputs)):
                    problems.append(f"{arch}: {path.name} does not match its {len(inputs)} inputs")
                elif [r[1] for r in rows] != predictions[b * self.block:][:len(rows)]:
                    problems.append(f"{arch}: {path.name} differs from single-sample predictions")
            if len(predictions) != len(gold) or None in predictions:
                problems.append(f"{arch}: single-sample predictions missing")
                continue
            self.accuracy.append(hm_metrics.score("decode", predictions, gold).accuracy)
            scores.append(hm_metrics.score("plain", [predictions[i] for i in plain],
                                           [gold[i] for i in plain]).accuracy)
        floor = self.size["floor"]
        if scores and statistics.mean(scores) < floor:
            problems.append(f"in-distribution accuracy {statistics.mean(scores):.3f} "
                            f"below the floor {floor}")
        return problems

    def results(self) -> tuple[dict, dict]:
        rows = self.block
        pairs = [h + e for h, e in zip(self.latency[HACM], self.latency[HAEM])]
        e2e = {
            "samples_per_s": statistics.median(
                2 * rows / (self.file_walls[HACM][b] + self.file_walls[HAEM][b])
                for b in self.files),
            "latency_ms_p50": 1e3 * statistics.median(pairs),
            "latency_ms_p99": 1e3 * tail(pairs),
        }
        named = {"accuracy": (statistics.mean(self.accuracy or [0.0]), "ratio",
                              len(self.queries))}
        for arch in (HACM, HAEM):
            tag = arch.lower()
            walls = list(self.file_walls[arch].values())
            named[f"{tag}_decode_samples_per_s"] = (
                statistics.median(rows / w for w in walls), "1/s", rows * len(walls))
            n = len(self.latency[arch])
            named[f"{tag}_decode_ms_p50"] = (1e3 * statistics.median(self.latency[arch]), "ms", n)
            named[f"{tag}_decode_ms_p99"] = (1e3 * tail(self.latency[arch]), "ms", n)
        return e2e, named


class PipelineWorkload(Workload):
    """``hardmono run --synth``: population training, ensembling, reports."""

    name = "pipeline"

    def setup(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.walls = []
        self.accuracy = 0.0

    def argv(self, out: Path, size: dict) -> list[str]:
        return ["run", "--synth", "--synth-seed", str(self.seed),
                "--train-size", str(size["train"]), "--dev-size", str(size["dev"]),
                "--test-size", str(size["test"]),
                "--hacm-smart", "1", "--hacm-naive", "1", "--haem-smart", "1", "--haem-naive", "1",
                "--epochs", str(size["epochs"]), "--patience", str(size["epochs"]),
                "--lr", str(size["lr"]),
                "--run", "7", "--seed", str(self.seed), "--out", str(out),
                *model_flags(size["model"])]

    def request(self, index: int) -> None:
        self.walls.append(self.cli(self.argv(self.work / f"run{index}", self.size)))

    def done(self, index: int, elapsed: float, seconds: float) -> bool:
        return elapsed >= seconds

    def checks(self) -> list[str]:
        problems = []
        out = self.work / "run0"
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            test = corpus.parse_dataset(str(out / "data" / "test.tsv"))
            rows = (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        except (OSError, ValueError) as e:
            return [f"pipeline outputs unreadable: {e}"]
        wanted = {"run", "system", "dev_accuracy", "models", "test_accuracy", "test_levenshtein"}
        if not wanted <= set(report):
            problems.append(f"report.json lacks {sorted(wanted - set(report))}")
            return problems
        if report["run"] != 7 or len(report["models"]) != 4:
            problems.append(f"report.json: run {report['run']}, {len(report['models'])} models")
        if len(rows) != len(test) or any(r.split("\t")[0] != s.lemma for r, s in zip(rows, test)):
            problems.append(f"{len(rows)} prediction rows for {len(test)} test samples")
        self.accuracy = report["test_accuracy"]
        if self.accuracy < self.size["floor"]:
            problems.append(f"test accuracy {self.accuracy:.3f} below the floor "
                            f"{self.size['floor']}")
        # a fixed seed gives byte-identical predictions on the same code;
        # checked on a small copy of the same run so the check stays cheap
        small = dict(SIZES["pipeline"]["smoke"])
        copies = []
        for rep in range(2):
            rerun = self.work / f"rerun{rep}"
            if cli.main(self.argv(rerun, small)) != 0:
                problems.append("determinism rerun failed")
                return problems
            copies.append((rerun / "predictions.tsv").read_bytes())
        if copies[0] != copies[1]:
            problems.append("two runs with one seed wrote different predictions.tsv")
        return problems

    def results(self) -> tuple[dict, dict]:
        s = self.size
        work = 4 * s["epochs"] * s["train"]
        e2e = {
            "samples_per_s": work * len(self.walls) / sum(self.walls),
            "latency_ms_p50": 1e3 * statistics.median(self.walls),
            "latency_ms_p99": 1e3 * tail(self.walls),
        }
        named = {"run_s": (statistics.median(self.walls), "s", len(self.walls)),
                 "accuracy": (self.accuracy, "ratio", s["test"])}
        return e2e, named


WORKLOADS = {w.name: w for w in (TrainWorkload, DecodeWorkload, PipelineWorkload)}


def timed_phase(workload: Workload, seconds: float, tracer: Tracer | None,
                requests: int | None = None) -> tuple[int, float, float]:
    """Run requests until the workload may stop (or exactly ``requests``).
    Returns (requests, wall seconds, CPU seconds incl. children)."""
    cpu0, start = os.times(), time.perf_counter()
    index = 0
    while True:
        if tracer is not None:
            tracer.sample = index
        workload.request(index)
        index += 1
        elapsed = time.perf_counter() - start
        if (index == requests if requests is not None
                else workload.done(index - 1, elapsed, seconds)):
            break
    cpu1 = os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])
    return index, time.perf_counter() - start, cpu


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, size, spawned, result_path = argv[:7]
    setup_only = "--setup-only" in argv[7:]
    seed, seconds, trace, spawned = int(seed), float(seconds), trace == "1", float(spawned)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, size, work)
    result: dict = {"machine": machine_facts()}
    try:
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        workload.setup()
        if tracer is not None:
            tracer.uninstall()
        result["setup_s"] = time.monotonic() - spawned
        if not setup_only:
            requests, wall, _ = timed_phase(workload, seconds, None)
            result["requests"] = requests
            if tracer is not None:
                workload.reset()
                tracer.install()
                _, traced_wall, cpu = timed_phase(workload, seconds, tracer, requests)
                tracer.uninstall()
                timed = [s for s in tracer.spans if isinstance(s[4], int)]
                self_sum = sum(own for s, own in zip(tracer.spans, tracer.self_times())
                               if isinstance(s[4], int))
            problems = workload.checks()
            if workload.failed:
                problems.append(f"{workload.failed} of {workload.attempted} operations failed")
            if tracer is not None:
                spans_path = OUT / f"{name}-s{seed}.spans.jsonl.gz"
                tracer.write(spans_path)
                summary = tracer.summary()
                layers = spec.layer_values(summary, tracer.counters, cpu / traced_wall,
                                           (traced_wall - wall) / wall)
                problems += [f"per-layer metric {m} recorded nothing"
                             for m in spec.missing_layers(name, layers)]
                result.update(layers=layers, spans=str(spans_path.relative_to(ROOT)),
                              span_summary=summary, timed_spans=len(timed),
                              untraced_s=wall, traced_s=traced_wall, self_sum_s=self_sum)
            e2e, named = workload.results()
            result.update(e2e=e2e, named=named, problems=problems,
                          attempted=workload.attempted, failed=workload.failed)
    finally:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
