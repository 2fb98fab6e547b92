"""The teacher-forced training losses against the step-wise tape reference.

``sample_loss`` builds each loss from a few whole-sequence ops. The
reference below rebuilds it one action at a time from the inference path
(``start`` / ``step`` / ``distribution`` / ``apply``), which is how the
loss was computed before; values and gradients must agree at dropout 0.
"""

import random

import numpy as np
import pytest

from hardmono import numcore as nc
from hardmono.align import naive_align, smart_align
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.haem import HaemModel
from hardmono.oracle import (HACM, HAEM, Action, OracleSequence, ReplayError, hacm_oracle,
                             haem_oracle, write)

CHARS = "abfgilnoe"
FEATS = ("2", "PST", "SG", "V")
ALIGNERS = {"naive": naive_align, "smart": smart_align}
ARCHS = {  # name -> (class, oracle, variant)
    "HACM": (HacmModel, hacm_oracle, "extended"),
    "HAEM": (HaemModel, haem_oracle, "extended"),
    "HAEM-basic": (HaemModel, haem_oracle, "basic"),
}


def build(arch, dropout=0.0, seed=0):
    cls, _, variant = ARCHS[arch]
    config = ModelConfig(hidden=6, embed=5, feat_embed=3, variant=variant, dropout=dropout)
    vocab = CharVocabulary(tuple(sorted(set(CHARS))))
    return cls(vocab, FeatureAlphabet(tuple(sorted(FEATS))), config,
               np.random.default_rng(seed))


def stepwise_loss(model, lemma, features, oracle):
    """The reference: one ``nll`` per action, summed with chained add."""
    losses = []
    state = model.start(lemma, features)
    if isinstance(model, HacmModel):
        prev = model.codec.id_of(oracle.actions[0])
        for action in oracle.actions[1:]:
            state = model.step(state, prev)
            prev = model.codec.id_of(action)
            losses.append(nc.nll(model.distribution(state), prev))
    else:
        for action in oracle.actions:
            dist = model.distribution(state)
            losses.append(nc.nll(dist, model.codec.id_of(action)))
            state = model.apply(state, action)
    total = losses[0]
    for loss in losses[1:]:
        total = nc.add(total, loss)
    return total


def loss_and_grads(model, build_loss):
    model.params.zero_grads()
    loss = build_loss()
    nc.backward(loss)
    return float(loss.value), [p.grad.copy() for p in model.params.nodes()]


def delete_runs(oracle):
    """Number of DELETE runs separated by a WRITE (the d-LSTM's resets)."""
    runs, open_run = 0, False
    for a in oracle.actions:
        if a.tag == "DELETE" and not open_run:
            runs, open_run = runs + 1, True
        elif a.tag == "WRITE":
            open_run = False
    return runs


def pairs(seed, count=12):
    """Random lemma/form pairs over the model alphabet, plus fixed ones with
    several WRITE runs and delete runs on both sides of a WRITE."""
    rng = random.Random(seed)
    fixed = [("fliegen", "geflogen"), ("abgab", "fbolf"), ("gelingen", "gelang"),
             ("o", "bellen")]
    drawn = [("".join(rng.choice(CHARS) for _ in range(rng.randint(1, 7))),
              "".join(rng.choice(CHARS) for _ in range(rng.randint(1, 7))))
             for _ in range(count)]
    return fixed + drawn


@pytest.mark.parametrize("aligner", sorted(ALIGNERS))
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_fused_loss_matches_stepwise_reference(arch, aligner):
    model = build(arch, seed=len(arch))
    derive = ARCHS[arch][1]
    resets = 0
    for lemma, form in pairs(seed=len(aligner)):
        oracle = derive(ALIGNERS[aligner](lemma, form))
        features = ("V", "PST") if len(lemma) % 2 else ("SG", "NONSUCH")
        fused, fused_grads = loss_and_grads(
            model, lambda: model.sample_loss(lemma, features, oracle, training=False))
        ref, ref_grads = loss_and_grads(
            model, lambda: stepwise_loss(model, lemma, features, oracle))
        assert fused == pytest.approx(ref, rel=1e-12), (lemma, form)
        for name, got, want in zip(model.params.names(), fused_grads, ref_grads):
            scale = max(float(np.max(np.abs(want))), 1e-300)
            assert float(np.max(np.abs(got - want))) / scale <= 1e-9, (lemma, form, name)
        if arch == "HACM":
            # the last prediction is EOS with the pointer on the EOS slot
            assert oracle.actions[-2].tag == "STEP" and oracle.actions[-1].tag == "EOS"
        resets += delete_runs(oracle) >= 2
    if arch != "HACM":
        assert resets > 0, "no sample exercised a d-LSTM reset between delete runs"


# float.hex of sample_loss("fliegen" -> "geflogen", smart aligner) at dropout
# 0.5 with rng=np.random.default_rng(k), recorded before the loss was fused;
# they pin the dropout draw order and placement
GOLDEN = {
    ("HACM", 1): "0x1.34e1d9a2191e9p+5",
    ("HACM", 2): "0x1.34eb0f97c2f31p+5",
    ("HAEM", 1): "0x1.b2703b819308ep+4",
    ("HAEM", 2): "0x1.b27bee8e56982p+4",
    ("HAEM-basic", 1): "0x1.b359d033a5d05p+4",
    ("HAEM-basic", 2): "0x1.b31da8a8e934ep+4",
}


@pytest.mark.parametrize("arch,k", sorted(GOLDEN))
def test_dropout_loss_matches_golden(arch, k):
    model = build(arch, dropout=0.5)
    oracle = ARCHS[arch][1](smart_align("fliegen", "geflogen"))
    loss = model.sample_loss("fliegen", ("V", "PST"), oracle, rng=np.random.default_rng(k))
    assert float(loss.value) == pytest.approx(float.fromhex(GOLDEN[arch, k]), rel=1e-12)


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_training_loss_at_dropout_zero_draws_nothing(arch):
    """At dropout 0 a training-mode loss leaves the generator as it was and
    gives bitwise the evaluation-mode loss."""
    model = build(arch)
    oracle = ARCHS[arch][1](smart_align("fliegen", "geflogen"))
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    loss = model.sample_loss("fliegen", ("V", "PST"), oracle, rng=rng)
    assert rng.bit_generator.state == before
    assert loss.value.tobytes() == model.sample_loss("fliegen", ("V", "PST"), oracle,
                                                     training=False).value.tobytes()


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_fused_loss_runs_under_finite_checks(arch):
    """The dropout loss and every parameter gradient are finite."""
    model = build(arch, dropout=0.5)
    oracle = ARCHS[arch][1](smart_align("gelingen", "gelang"))
    loss = model.sample_loss("gelingen", ("V",), oracle, rng=np.random.default_rng(3))
    nc.backward(loss)
    assert np.isfinite(loss.value)
    for node in model.params.nodes():
        assert np.all(np.isfinite(node.grad)), node.name


def _reachable(root):
    """Every node reachable from ``root`` through its parents, leaves included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


# nodes of each loss tape, features V;PST, smart aligner; both losses end in
# one nll node
TAPE_NODES = {
    ("HAEM", "fliegen", "geflogen"): 56, ("HAEM", "gelingen", "gelang"): 58,
    ("HAEM", "abgab", "fbolf"): 58, ("HAEM-basic", "fliegen", "geflogen"): 40,
    ("HAEM-basic", "gelingen", "gelang"): 40, ("HAEM-basic", "abgab", "fbolf"): 40,
    ("HACM", "fliegen", "geflogen"): 43, ("HACM", "gelingen", "gelang"): 43,
}


def _tape_nodes(arch, lemma, form):
    model = build(arch, dropout=0.5)
    oracle = ARCHS[arch][1](smart_align(lemma, form))
    loss = model.sample_loss(lemma, ("V", "PST"), oracle, rng=np.random.default_rng(0))
    return _reachable(loss)


@pytest.mark.parametrize("arch,lemma,form", sorted(k for k in TAPE_NODES if k[0] != "HACM"))
def test_haem_loss_tape_does_not_grow(arch, lemma, form):
    assert _tape_nodes(arch, lemma, form) <= TAPE_NODES[arch, lemma, form]


@pytest.mark.parametrize("arch,lemma,form", sorted(k for k in TAPE_NODES if k[0] == "HACM"))
def test_hacm_loss_tape_does_not_grow(arch, lemma, form):
    assert _tape_nodes(arch, lemma, form) <= TAPE_NODES[arch, lemma, form]


def _error(build_loss):
    with pytest.raises((ValueError, IndexError, FloatingPointError)) as info:
        build_loss()
    return info.type, str(info.value)


# oracle -> the error sample_loss raises; "same" marks the cases where the
# step-wise reference raises the identical error
@pytest.mark.parametrize("arch,lemma,actions,error,match,same", [
    ("HACM", "aXb", "BOS STEP a STEP X STEP b STEP EOS", ValueError, "outside the trained", True),
    ("HACM", "aXb", "BOS STEP a STEP STEP b STEP EOS", ValueError, "has no action id", True),
    ("HACM", "a", "BOS STEP STEP STEP EOS", ReplayError, "past frame end", True),
    ("HACM", "ab", "STEP a EOS", ValueError, "BOS-led", False),
    ("HAEM", "ab", "COPY STOP COPY STOP", ValueError, "after STOP", True),
    ("HAEM", "ab", "COPY Z STOP", ValueError, "outside the trained", True),
    ("HAEM", "ab", "COPY COPY", ValueError, "STOP-terminated", False),
    # the step-wise loss reaches the masked action's zero probability first
    # and raises FloatingPointError from nll; the replay names the step
    ("HAEM", "a", "COPY COPY STOP", ReplayError, "past lemma end", False),
])
def test_fused_loss_errors(arch, lemma, actions, error, match, same):
    model = build(arch)
    inventory = HACM if arch == "HACM" else HAEM
    seq = OracleSequence(tuple(write(a) if len(a) == 1 else Action(a) for a in actions.split()),
                         inventory)
    fused = _error(lambda: model.sample_loss(lemma, ("V",), seq, training=False))
    assert fused[0] is error and match in fused[1]
    if same:
        assert fused == _error(lambda: stepwise_loss(model, lemma, ("V",), seq))
