"""Optimizer behavior, the training loop, and population training."""

import tracemalloc

import numpy as np
import pytest

from hardmono import numcore as nc
from hardmono.align import naive_align, smart_align
from hardmono.corpus import Sample, build_vocab
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.haem import HaemModel
from hardmono.oracle import hacm_oracle, haem_oracle
from hardmono.synth import SynthConfig, generate, parse_rule
from hardmono.train import (
    BETA1,
    BETA2,
    CELL_ORDER,
    CLIP_NORM,
    EPS,
    Adam,
    TrainConfig,
    TrainingError,
    evaluate,
    population_counts,
    train_model,
    train_population,
)

TRAIN = [
    Sample("lagen", ("V", "PRS"), "lagent"),
    Sample("tilen", ("V", "PRS"), "tilent"),
    Sample("tilen", ("V", "PST"), "tolen"),
    Sample("rigen", ("V", "PST"), "rogen"),
    Sample("masen", ("V", "PRS"), "masent"),
    Sample("piren", ("V", "PST"), "poren"),
]
DEV = [
    Sample("digen", ("V", "PRS"), "digent"),
    Sample("digen", ("V", "PST"), "dogen"),
    Sample("kasen", ("V", "PRS"), "kasent"),
]
SIZES = ModelConfig(hidden=8, embed=6, feat_embed=3)
FAST = TrainConfig(epochs=2, patience=2, dropout=0.0, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)


@pytest.mark.parametrize("lr", [-1.0, -1e-12, float("nan"), float("inf")])
def test_config_rejects_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(lr=lr)


def test_adam_minimizes_quadratic():
    x = nc.param(np.array([10.0]))
    minus_target = nc.constant(np.array([-3.0]))
    optimizer = Adam([x], lr=0.1)
    for _ in range(400):
        x.zero_grad()
        diff = nc.add(x, minus_target)
        nc.backward(nc.dot(diff, diff))
        optimizer.step()
    assert abs(float(x.value[0]) - 3.0) < 1e-3


def test_adam_first_step_size_is_lr():
    x = nc.param(np.array([0.0]))
    optimizer = Adam([x], lr=0.01)
    nc.backward(nc.dot(nc.constant([7.0]), x))
    optimizer.step()
    assert float(x.value[0]) == pytest.approx(-0.01, rel=1e-6)


def test_clipping_equalizes_huge_gradients():
    outcomes = []
    for scale in (1e3, 1e9):
        x = nc.param(np.array([0.0]))
        optimizer = Adam([x], lr=0.01)
        nc.backward(nc.dot(nc.constant([scale]), x))
        optimizer.step()
        outcomes.append(float(x.value[0]))
    assert outcomes[0] == pytest.approx(outcomes[1], rel=1e-12)
    assert outcomes[0] == pytest.approx(-0.01, rel=1e-6)


def _textbook_adam(values, grad_steps, lr):
    """Reference: clip the gradients, then the bias-corrected update
    m_hat / (sqrt(v_hat) + eps) of Kingma & Ba's Algorithm 1."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    s = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        total = np.sqrt(sum(np.sum(g * g) for g in grads))
        if total > CLIP_NORM:
            grads = [g * (CLIP_NORM / total) for g in grads]
        for x, mi, si, g in zip(values, m, s, grads):
            mi[...] = BETA1 * mi + (1 - BETA1) * g
            si[...] = BETA2 * si + (1 - BETA2) * g * g
            m_hat = mi / (1 - BETA1 ** t)
            s_hat = si / (1 - BETA2 ** t)
            x -= lr * m_hat / (np.sqrt(s_hat) + EPS)
    return values


@pytest.mark.parametrize("grad_scale, clipped", [(0.05, False), (50.0, True)])
def test_adam_matches_textbook_update(grad_scale, clipped):
    rng = np.random.default_rng(7)
    shapes = [(3,), (4, 5), (2, 3, 4), (6, 1), (5, 2)]
    # values stay far from zero over 50 steps of at most about lr each,
    # so a relative comparison is meaningful
    start = [rng.uniform(1.0, 2.0, size=shape) for shape in shapes]
    params = [nc.param(v) for v in start]
    optimizer = Adam(params, lr=0.01)
    grad_steps = []
    for t in range(50):
        grads = [grad_scale * rng.standard_normal(shape) for shape in shapes]
        for p, g in zip(params, grads):
            p.zero_grad()
            p.accum(g)
        if t % 2:
            # the last tensor gets no gradient, as a parameter the tape did
            # not reach; its moments still carry it on
            params[-1].zero_grad()
            grads[-1] = np.zeros(shapes[-1])
        total = np.sqrt(sum(np.sum(g * g) for g in grads))
        assert (total > CLIP_NORM) == clipped
        optimizer.step()
        grad_steps.append(grads)
    expected = _textbook_adam(start, grad_steps, lr=0.01)
    for p, want in zip(params, expected):
        np.testing.assert_allclose(p.value, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cls, derive", [(HacmModel, hacm_oracle), (HaemModel, haem_oracle)],
                         ids=["HACM", "HAEM"])
def test_adam_step_allocates_nothing_parameter_sized(cls, derive):
    sample = TRAIN[0]     # a suffix: HAEM's deleted-character LSTM gets no gradient
    vocab, feats = build_vocab(TRAIN)
    model = cls(vocab, feats, ModelConfig(), np.random.default_rng(0))
    nodes = model.params.nodes()
    optimizer = Adam(nodes)
    model.params.zero_grads()
    oracle = derive(smart_align(sample.lemma, sample.form))
    nc.backward(model.sample_loss(sample.lemma, sample.features, oracle,
                                  rng=np.random.default_rng(1)))
    largest = max(p.value.nbytes for p in nodes)
    tracemalloc.start()
    try:
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest


@pytest.mark.parametrize("arch", ["HACM", "HAEM"])
def test_training_reduces_loss(arch):
    result = train_model(arch, "smart", TRAIN, DEV, SIZES,
                         TrainConfig(epochs=3, patience=3, dropout=0.0, seed=0))
    losses = [h["train_loss"] for h in result.history]
    assert losses[-1] < losses[0]
    assert all(np.isfinite(l) for l in losses)


def test_returned_model_matches_reported_accuracy():
    result = train_model("HAEM", "smart", TRAIN, DEV, SIZES, FAST)
    assert evaluate(result.model, DEV) == result.dev_accuracy
    assert result.dev_accuracy == max(h["dev_accuracy"] for h in result.history)


def test_history_schema():
    result = train_model("HACM", "naive", TRAIN, DEV, SIZES, FAST)
    assert [h["epoch"] for h in result.history] == list(range(1, len(result.history) + 1))
    for h in result.history:
        assert set(h) == {"epoch", "train_loss", "dev_accuracy"}


def test_same_seed_same_weights():
    a = train_model("HAEM", "smart", TRAIN, DEV, SIZES, FAST)
    b = train_model("HAEM", "smart", TRAIN, DEV, SIZES, FAST)
    sa, sb = a.model.params.state_dict(), b.model.params.state_dict()
    assert list(sa) == list(sb)
    for name in sa:
        assert np.array_equal(sa[name], sb[name])
    assert a.history == b.history


# on the prefixed samples the naive aligner, which aligns position by
# position, disagrees with the smart one
PREFIX_LANGUAGE = SynthConfig(rules=(parse_rule("V;PTCP=prefix:ge"), parse_rule("V;PRS=suffix:t")),
                              train=12, dev=6, test=0, seed=3)


@pytest.mark.parametrize("arch", ["HACM", "HAEM"])
def test_the_aligner_reaches_training(arch):
    train, dev, _ = generate(PREFIX_LANGUAGE)
    assert any(smart_align(s.lemma, s.form) != naive_align(s.lemma, s.form) for s in train)
    naive, smart = (train_model(arch, aligner, train, dev, SIZES, FAST).model.params.state_dict()
                    for aligner in ("naive", "smart"))
    assert any(not np.array_equal(naive[name], smart[name]) for name in naive)


def test_frozen_model_stops_after_two_epochs():
    config = TrainConfig(epochs=10, patience=1, lr=0.0, dropout=0.0, seed=0)
    result = train_model("HACM", "smart", TRAIN, DEV, SIZES, config)
    assert len(result.history) == 2


def test_dropout_path_runs():
    result = train_model("HAEM", "smart", TRAIN, DEV, SIZES,
                         TrainConfig(epochs=1, patience=1, dropout=0.3, seed=2))
    assert np.isfinite(result.history[0]["train_loss"])


def test_input_validation():
    with pytest.raises(ValueError, match="architecture"):
        train_model("GRU", "smart", TRAIN, DEV, SIZES, FAST)
    with pytest.raises(ValueError, match="aligner"):
        train_model("HACM", "viterbi", TRAIN, DEV, SIZES, FAST)
    with pytest.raises(TrainingError, match="training"):
        train_model("HACM", "smart", [], DEV, SIZES, FAST)
    with pytest.raises(TrainingError, match="dev"):
        train_model("HACM", "smart", TRAIN, [], SIZES, FAST)
    unlabeled = [Sample("abc", ("V",))]
    with pytest.raises(TrainingError, match="unlabeled"):
        train_model("HACM", "smart", unlabeled, DEV, SIZES, FAST)


def test_unlabeled_dev_fails_before_training(monkeypatch):
    calls = []
    sample_loss = HacmModel.sample_loss

    def counted(self, *args, **kwargs):
        calls.append(1)
        return sample_loss(self, *args, **kwargs)

    monkeypatch.setattr(HacmModel, "sample_loss", counted)
    with pytest.raises(TrainingError, match="unlabeled"):
        train_model("HACM", "smart", TRAIN, DEV + [Sample("abc", ("V",))], SIZES, FAST)
    assert len(calls) == 0


def test_evaluate_rejects_unlabeled_and_empty():
    result = train_model("HACM", "smart", TRAIN, DEV, SIZES,
                         TrainConfig(epochs=1, patience=1, dropout=0.0, seed=0))
    with pytest.raises(TrainingError):
        evaluate(result.model, [])
    with pytest.raises(TrainingError):
        evaluate(result.model, [Sample("abc", ("V",))])


def test_non_finite_loss_aborts(monkeypatch):
    monkeypatch.setattr(
        HacmModel, "sample_loss",
        lambda self, *args, **kwargs: nc.constant(np.array(float("nan"))))
    with pytest.raises(TrainingError, match="non-finite"):
        train_model("HACM", "smart", TRAIN, DEV, SIZES, FAST)


def test_population_counts_table():
    low = population_counts("low")
    assert all(low[cell] == 5 for cell in CELL_ORDER)
    medium = population_counts("medium")
    assert medium[("HAEM", "naive")] == 3
    assert sum(medium.values()) == 18
    high = population_counts("high")
    assert high == {("HACM", "smart"): 3, ("HACM", "naive"): 3,
                    ("HAEM", "smart"): 3, ("HAEM", "naive"): 2}
    with pytest.raises(ValueError):
        population_counts("huge")


def test_population_seeds_and_order():
    counts = {("HACM", "smart"): 1, ("HACM", "naive"): 0,
              ("HAEM", "smart"): 0, ("HAEM", "naive"): 2}
    config = TrainConfig(epochs=1, patience=1, dropout=0.0, seed=40)
    results = train_population(TRAIN, DEV, SIZES, config, counts=counts)
    assert [(r.arch, r.aligner, r.seed) for r in results] == [
        ("HACM", "smart", 40), ("HAEM", "naive", 41), ("HAEM", "naive", 42)]
    # distinct seeds produce distinct weights
    w1 = results[1].model.params.state_dict()
    w2 = results[2].model.params.state_dict()
    assert any(not np.array_equal(w1[n], w2[n]) for n in w1)
