"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at smoke size (tiny models and inputs), untraced and
traced, and checks that:

* ``BENCHMARK.json`` keeps to its format and names exactly the metrics
  the runs emit, each with its unit;
* the tracer wraps every import site of a function and restores them;
* a per-layer metric that a workload must produce (``spec.PER_LAYER``) and
  that recorded no spans fails the run;
* the traced run writes spans whose self times add up to the traced wall
  time within the reported tracing overhead;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spec  # noqa: E402
from tracer import Tracer  # noqa: E402

# detail metrics, printed by name above the JSON line
NAMED = {
    "train": ("hacm_train_samples_per_s", "haem_train_samples_per_s", "accuracy"),
    "decode": ("hacm_decode_samples_per_s", "haem_decode_samples_per_s", "hacm_decode_ms_p50",
               "hacm_decode_ms_p99", "haem_decode_ms_p50", "haem_decode_ms_p99", "accuracy"),
    "pipeline": ("run_s", "accuracy"),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 1


def check_benchmark_file(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names), names
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [m["name"] for m in bench["per_layer"]] == list(spec.PER_LAYER)
    assert set(spec.PER_LAYER) == set(spec.layer_values({}, Counter(), 0.0, 0.0))


def check_tracer() -> None:
    from hardmono import align, cli, decode, ensemble, train
    sites = lambda: (train.predict, cli.predict, ensemble.predict, train.greedy_decode,  # noqa: E731
                     cli.greedy_decode, decode.greedy_decode, train.train_model,
                     align.ALIGNERS["smart"], align.ALIGNERS["naive"])
    before = sites()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(f, "__wrapped__") for f in sites()), "an import site is not wrapped"
        assert cli.predict is train.predict is ensemble.predict
    finally:
        tracer.uninstall()
    assert sites() == before, "uninstall left a wrapper behind"
    # a workload whose required spans are all missing must fail
    for workload in ("train", "decode", "pipeline"):
        missing = spec.missing_layers(workload, {name: 0.0 for name in spec.PER_LAYER})
        assert missing == [m for m, (_, on) in spec.PER_LAYER.items() if workload in on]
        assert missing, workload


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=175)
    return child.returncode, child.stdout


def check_workload(bench: dict, workload: str) -> None:
    for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        rc, out = run(workload, trace)
        last = json.loads(out.strip().splitlines()[-1])
        assert rc == 0 and last["correct"], f"{workload} trace={trace}: {out[-2000:]}"
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["attempted"] >= 1 and last["failed"] == 0
        units = {m["name"]: m["unit"] for m in listed}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        assert got == units, f"{workload} trace={trace}: {got} vs {units}"
        assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
        for name in NAMED[workload]:
            assert re.search(rf"^{workload} {name} = \S+ \S+ \(n=\d+\)$", out, re.M), name
        if trace:
            detail = json.loads((ROOT / "perfbench" / "out" /
                                 f"{workload}-s{SEED}-t1.json").read_text(encoding="utf-8"))
            overhead = detail["traced_s"] - detail["untraced_s"]
            gap = detail["traced_s"] - detail["self_sum_s"]
            # timing noise at smoke size can make the overhead tiny or negative
            slack = max(abs(overhead), 0.05 * detail["traced_s"])
            assert 0 <= gap <= slack, f"{workload}: self times miss the wall by {gap:.4f} s"
            assert detail["timed_spans"] > 0 and (ROOT / detail["spans"]).stat().st_size > 0
        else:
            assert all(m["value"] > 0 for m in last["metrics"].values()), last["metrics"]
        print(f"ok: {workload} trace={trace}")


def check_bare_directory() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        rc, out = run("train", 0, cwd=bare)
        assert rc != 0 and '"correct"' not in out, f"bare directory: rc={rc} {out[-500:]}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare directory fails")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_benchmark_file(bench)
        print("ok: BENCHMARK.json")
        check_tracer()
        print("ok: tracer")
        check_bare_directory()
        for workload in [w["name"] for w in bench["workloads"]]:
            check_workload(bench, workload)
    except AssertionError as e:
        print(f"FAIL: {e}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
