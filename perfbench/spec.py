"""What the per-layer metrics mean and how the traced run computes them.

Names, units and directions live in ``BENCHMARK.json``; this module adds,
for each per-layer metric, the end-to-end or detail metrics it should move
(named as in README.md), and the workloads on which its spans must exist.
``layer_values`` turns a traced run into the numbers.
"""

from __future__ import annotations

# metric -> (end-to-end metrics it should move, workloads that must record it)
# Time metrics are the mean inclusive span duration per call; counts and
# shares are per sample, where a sample is one teacher-forced loss or one
# greedy decode.
PER_LAYER = {
    "hacm.sample_loss_ms": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "haem.sample_loss_ms": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "numcore.backward_ms": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "numcore.tape_nodes": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "train.adam_step_ms": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "nn.lstm_step_us": ("training and decode throughput", ("train", "decode", "pipeline")),
    "nn.lstm_steps": ("training and decode throughput", ("train", "decode", "pipeline")),
    "nn.biencoder_ms": ("training and decode throughput", ("train", "decode", "pipeline")),
    "hacm.start_ms": ("*_decode_*, *_train_samples_per_s", ("train", "decode")),
    "hacm.step_us": ("*_decode_*, *_train_samples_per_s", ("train", "decode")),
    "hacm.distribution_us": ("*_decode_*, *_train_samples_per_s", ("train", "decode")),
    "haem.start_ms": ("*_decode_*, *_train_samples_per_s", ("train", "decode")),
    "haem.apply_us": ("*_decode_*, *_train_samples_per_s", ("train", "decode")),
    "haem.distribution_us": ("*_decode_*, *_train_samples_per_s", ("train", "decode")),
    "decode.greedy_decode_ms": ("*_decode_ms_p50/p99, *_decode_samples_per_s", ("decode", "train")),
    "decode.actions": ("*_decode_ms_p50/p99, *_decode_samples_per_s", ("decode", "train")),
    "decode.length_cap_hits": ("*_decode_ms_p99, accuracy", ()),
    "decode.filtered": ("*_decode_ms_p99, accuracy", ()),
    "decode.oov_copies": ("*_decode_ms_p99, accuracy", ("decode",)),
    "decode.useful_share": ("*_decode_ms_p99, accuracy", ("decode",)),
    "train.evaluate_s": ("run_s", ("pipeline", "train")),
    "ensemble.run_strategy_s": ("run_s", ("pipeline",)),
    "ensemble.vote_us": ("run_s", ("pipeline",)),
    "ensemble.member_predicts": ("run_s", ("pipeline",)),
    "ensemble.redecode_share": ("run_s", ("pipeline",)),
    "train.cpu_per_wall": ("run_s", ("pipeline", "train")),
    "serialize.save_checkpoint_ms": ("run_s, setup_s", ("pipeline", "decode")),
    "serialize.load_checkpoint_ms": ("run_s, setup_s", ("decode",)),
    "align.smart_align_us": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "align.naive_align_us": ("*_train_samples_per_s, run_s", ("pipeline",)),
    "oracle.hacm_oracle_us": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "oracle.haem_oracle_us": ("*_train_samples_per_s, run_s", ("train", "pipeline")),
    "corpus.parse_dataset_ms": ("setup_s, run_s", ("train", "decode", "pipeline")),
    "metrics.score_ms": ("setup_s, run_s", ("pipeline",)),
    "synth.generate_ms": ("setup_s, run_s", ("train", "decode", "pipeline")),
    "trace.overhead_share": ("none: tracing cost against the untraced run", ()),
}


def layer_values(summary: dict, counters, cpu_per_wall: float,
                 overhead_share: float) -> dict[str, float]:
    """Per-layer metrics from a tracer summary and its counters."""

    def calls(*names: str) -> int:
        return sum(summary[n]["calls"] for n in names if n in summary)

    def mean(name: str, scale: float) -> float:
        row = summary.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decodes = calls("decode.greedy_decode")
    samples = calls("hacm.HacmModel.sample_loss", "haem.HaemModel.sample_loss") + decodes
    filters = counters["post_filter_calls"]
    return {
        "hacm.sample_loss_ms": mean("hacm.HacmModel.sample_loss", 1e3),
        "haem.sample_loss_ms": mean("haem.HaemModel.sample_loss", 1e3),
        "numcore.backward_ms": mean("numcore.backward", 1e3),
        "numcore.tape_nodes": ratio(counters["tape_nodes"], calls("numcore.backward")),
        "train.adam_step_ms": mean("train.Adam.step", 1e3),
        "nn.lstm_step_us": mean("nn.LstmCell.step", 1e6),
        "nn.lstm_steps": ratio(calls("nn.LstmCell.step"), samples),
        "nn.biencoder_ms": mean("nn.BiEncoder.__call__", 1e3),
        "hacm.start_ms": mean("hacm.HacmModel.start", 1e3),
        "hacm.step_us": mean("hacm.HacmModel.step", 1e6),
        "hacm.distribution_us": mean("hacm.HacmModel.distribution", 1e6),
        "haem.start_ms": mean("haem.HaemModel.start", 1e3),
        "haem.apply_us": mean("haem.HaemModel.apply", 1e6),
        "haem.distribution_us": mean("haem.HaemModel.distribution", 1e6),
        "decode.greedy_decode_ms": mean("decode.greedy_decode", 1e3),
        "decode.actions": ratio(counters["decode_actions"], decodes),
        "decode.length_cap_hits": ratio(counters["length_cap_hits"], decodes),
        "decode.filtered": ratio(counters["filtered"], filters),
        "decode.oov_copies": ratio(counters["oov_copies"], decodes),
        "decode.useful_share": ratio(filters - counters["filtered"], filters),
        "train.evaluate_s": mean("train.evaluate", 1.0),
        "ensemble.run_strategy_s": mean("ensemble.run_strategy", 1.0),
        "ensemble.vote_us": mean("ensemble.vote", 1e6),
        "ensemble.member_predicts": ratio(counters["member_predicts"],
                                          calls("ensemble.run_strategy")),
        "ensemble.redecode_share": ratio(counters["member_redecodes"],
                                         counters["member_predicts"]),
        "train.cpu_per_wall": cpu_per_wall,
        "serialize.save_checkpoint_ms": mean("serialize.save_checkpoint", 1e3),
        "serialize.load_checkpoint_ms": mean("serialize.load_checkpoint", 1e3),
        "align.smart_align_us": mean("align.smart_align", 1e6),
        "align.naive_align_us": mean("align.naive_align", 1e6),
        "oracle.hacm_oracle_us": mean("oracle.hacm_oracle", 1e6),
        "oracle.haem_oracle_us": mean("oracle.haem_oracle", 1e6),
        "corpus.parse_dataset_ms": mean("corpus.parse_dataset", 1e3),
        "metrics.score_ms": mean("metrics.score", 1e3),
        "synth.generate_ms": mean("synth.generate", 1e3),
        "trace.overhead_share": overhead_share,
    }


def missing_layers(workload: str, values: dict[str, float]) -> list[str]:
    """Per-layer metrics this workload must record but recorded nothing for."""
    return [name for name, (_, on) in PER_LAYER.items()
            if workload in on and not values.get(name)]
