"""Benchmark entry point.

    python3 perfbench/run.py --workload train|decode|pipeline --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a source checkout.  The workload runs in a child
process (``workloads.py``) that drives the program through its public API
and ``hardmono.cli.main``.  This process prints the machine facts, the
detail metrics (per architecture, ``run_s``, accuracy) with their sample
counts, any failed output check, and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.  A
failed check prints ``"correct": false`` with no metrics and exits 1.
Detailed results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
DEADLINE_S = 170      # the whole run, children included, must end within 180 s

# Set-ups per run; setup_s is their median.  decode's set-up trains two
# models, which is too slow to repeat and steady to a few percent anyway.
SETUPS = {"train": 3, "decode": 1, "pipeline": 3}


def spawn(workload: str, seed: int, seconds: int, trace: int, size: str, tag: str,
          deadline: float, setup_only: bool = False) -> dict:
    """Run one workload process and return its result object."""
    result_path = OUT / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), workload, str(seed),
            str(seconds), str(trace), size, repr(time.monotonic()), str(result_path)]
    if setup_only:
        argv.append("--setup-only")
    child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=max(1.0, deadline - time.monotonic()))
    if child.returncode != 0 or not result_path.exists():
        sys.stderr.write(child.stdout[-4000:])
        raise RuntimeError(f"workload process exited with code {child.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny models and inputs, for the self-test")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hardmono" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'hardmono'}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    bench = json.loads(spec_file.read_text(encoding="utf-8"))
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    try:
        setups = []
        if not args.trace:
            for i in range(SETUPS[args.workload] - 1):
                probe = spawn(args.workload, args.seed, args.seconds, 0, args.size,
                              f"{tag}-setup{i}", deadline, setup_only=True)
                setups.append(probe["setup_s"])
        result = spawn(args.workload, args.seed, args.seconds, args.trace, args.size,
                       tag, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, (value, unit, n) in sorted(result["named"].items()):
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    problems = result["problems"]
    for problem in problems:
        print(f"check failed: {problem}")

    if args.trace:
        values = result["layers"]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(f"tracing overhead {result['traced_s'] - result['untraced_s']:.3f} s "
              f"({result['untraced_s']:.3f} s untraced, {result['traced_s']:.3f} s traced); "
              f"spans in {result['spans']}")
    else:
        values = dict(result["e2e"], setup_s=statistics.median(setups),
                      peak_rss_mb=result["peak_rss_mb"])
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} do not match {spec_file.name}")
    result["metrics"] = values
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True),
                                     encoding="utf-8")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}
        if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
