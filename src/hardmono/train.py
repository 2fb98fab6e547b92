"""Per-model training: Adam with gradient clipping, per-sample updates,
early stopping on dev exact-match accuracy, and best-checkpoint selection.

Model selection is accuracy-driven: after every epoch the model greedily
decodes the dev set (post filter applied) and the parameters with the best
dev accuracy are what training returns, regardless of later epochs.

``train_population`` trains independently seeded models per
(architecture, aligner) cell with per-setting counts:

    setting   HACM smart  HACM naive  HAEM smart  HAEM naive
    low            5           5           5           5
    medium         5           5           5           3
    high           3           3           3           2
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from hardmono import numcore as nc
from hardmono.align import ALIGNERS
from hardmono.corpus import Sample, build_vocab
from hardmono.decode import greedy_decode, greedy_decode_all, post_filter
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.haem import HaemModel
from hardmono.metrics import accuracy
from hardmono.numcore import Node
from hardmono.oracle import HACM, HAEM, hacm_oracle, haem_oracle

log = logging.getLogger(__name__)

SETTINGS = ("low", "medium", "high")

POPULATION_COUNTS = {
    "low": {(HACM, "smart"): 5, (HACM, "naive"): 5, (HAEM, "smart"): 5, (HAEM, "naive"): 5},
    "medium": {(HACM, "smart"): 5, (HACM, "naive"): 5, (HAEM, "smart"): 5, (HAEM, "naive"): 3},
    "high": {(HACM, "smart"): 3, (HACM, "naive"): 3, (HAEM, "smart"): 3, (HAEM, "naive"): 2},
}

CELL_ORDER = ((HACM, "smart"), (HACM, "naive"), (HAEM, "smart"), (HAEM, "naive"))

# Adam's moment decays and denominator guard, and the global gradient-norm clip
BETA1, BETA2, EPS, CLIP_NORM = 0.9, 0.999, 1e-8, 5.0


class TrainingError(RuntimeError):
    """Training cannot proceed (empty dev set, non-finite loss, ...)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    patience: int = 5          # epochs without a dev-accuracy improvement
    lr: float = 1e-3
    dropout: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.patience < 1:
            raise ValueError("epochs and patience must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} outside [0, 1)")
        if not (np.isfinite(self.lr) and self.lr >= 0):   # 0 freezes the weights
            raise ValueError(f"learning rate {self.lr} must be finite and non-negative")


class Adam:
    """Adam over a parameter list, with global-norm clipping applied to the
    gradients before each update.

    The update is the efficient form at the end of section 2 of Kingma & Ba
    (arXiv 1412.6980): the bias corrections fold into the step size and the
    denominator guard, and the clip scale folds into the moment coefficients.
    Every step works in place through one scratch buffer that all tensors
    share, so it allocates no parameter-sized array."""

    def __init__(self, params: list[Node], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        scratch = np.empty(max((p.value.size for p in params), default=0))
        self._scratch = [scratch[:p.value.size].reshape(p.value.shape) for p in params]

    def step(self) -> None:
        # a parameter the tape did not reach has no gradient array; reading
        # it as None spares the zero fill of Node.grad, and a zero gradient
        # only decays the moments
        grads = [p._grad for p in self.params]
        # einsum sums the squares without BLAS: np.vdot wakes OpenBLAS's
        # worker thread, which then spins through the rest of the step
        total = math.sqrt(sum(float(np.einsum("i,i->", g.ravel(), g.ravel()))
                              for g in grads if g is not None))
        scale = CLIP_NORM / total if total > CLIP_NORM else 1.0
        self.t += 1
        root_bias2 = math.sqrt(1.0 - BETA2 ** self.t)
        step_size = self.lr * root_bias2 / (1.0 - BETA1 ** self.t)
        eps = EPS * root_bias2
        c1 = (1.0 - BETA1) * scale
        c2 = (1.0 - BETA2) * scale * scale
        for p, m, v, g, s in zip(self.params, self._m, self._v, grads, self._scratch):
            m *= BETA1
            v *= BETA2
            if g is not None:
                np.multiply(g, c1, out=s)
                m += s
                np.multiply(g, g, out=s)
                s *= c2
                v += s
            np.sqrt(v, out=s)
            s += eps
            np.divide(m, s, out=s)
            s *= step_size
            p.value -= s


def predict(model: HacmModel | HaemModel, sample: Sample) -> str:
    """Greedy decode plus the runaway filter, one sample at a time: the
    prediction that evaluation and ensembling see, and the reference for
    ``predict_all``."""
    result = greedy_decode(model, sample.lemma, sample.features)
    return post_filter(result, sample.lemma).prediction


def predict_all(model: HacmModel | HaemModel, samples: list[Sample]) -> list[str]:
    """``predict`` of every sample, decoded in lockstep; what ``hardmono
    predict`` writes for a file."""
    results = greedy_decode_all(model, [(s.lemma, s.features) for s in samples])
    return [post_filter(r, s.lemma).prediction for r, s in zip(results, samples)]


def evaluate(model: HacmModel | HaemModel, samples: list[Sample]) -> float:
    """Exact-match accuracy of filtered greedy predictions."""
    if not samples:
        raise TrainingError("cannot evaluate on an empty set")
    if any(s.form is None for s in samples):
        raise TrainingError("evaluation set has unlabeled samples")
    return accuracy([predict(model, s) for s in samples], [s.form for s in samples])


@dataclass
class TrainResult:
    model: HacmModel | HaemModel
    arch: str
    aligner: str
    seed: int
    dev_accuracy: float
    history: list[dict] = field(repr=False)


def _oracle_fn(arch: str):
    return hacm_oracle if arch == HACM else haem_oracle


def train_model(arch: str, aligner: str, train: list[Sample], dev: list[Sample],
                sizes: ModelConfig, config: TrainConfig) -> TrainResult:
    """Train one model; returns it holding the best-dev-accuracy weights.
    The model trains with ``config.dropout``, which replaces
    ``sizes.dropout``."""
    if arch not in (HACM, HAEM):
        raise ValueError(f"unknown architecture {arch!r}")
    if aligner not in ALIGNERS:
        raise ValueError(f"unknown aligner {aligner!r} (have {sorted(ALIGNERS)})")
    if not train:
        raise TrainingError("empty training set")
    if not dev:
        raise TrainingError("empty dev set")
    if any(s.form is None for s in train):
        raise TrainingError("training set has unlabeled samples")
    if any(s.form is None for s in dev):
        raise TrainingError("dev set has unlabeled samples")

    align = ALIGNERS[aligner]
    derive = _oracle_fn(arch)
    oracles = [(s, derive(align(s.lemma, s.form))) for s in train]

    vocab, feats = build_vocab(train)
    rng = np.random.default_rng(config.seed)
    model_config = replace(sizes, dropout=config.dropout)
    cls = HacmModel if arch == HACM else HaemModel
    model = cls(vocab, feats, model_config, rng)
    optimizer = Adam(model.params.nodes(), lr=config.lr)

    best_accuracy = -1.0
    best_state = None
    stale = 0
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(oracles))
        total_loss = 0.0
        # a diverging run overflows before its loss turns non-finite; the
        # loss check below reports it, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in order:
                sample, oracle = oracles[idx]
                model.params.zero_grads()
                try:
                    loss = model.sample_loss(sample.lemma, sample.features, oracle, rng=rng)
                    value = float(loss.value)
                except FloatingPointError:   # nc.log of a gold probability that underflowed to 0
                    value = math.nan
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch} on lemma {sample.lemma!r}"
                    )
                nc.backward(loss)
                optimizer.step()
                total_loss += value
        dev_accuracy = evaluate(model, dev)
        history.append({"epoch": epoch, "train_loss": total_loss / len(oracles),
                        "dev_accuracy": dev_accuracy})
        log.info("%s/%s seed=%d epoch %d: loss %.4f dev acc %.4f",
                 arch, aligner, config.seed, epoch,
                 total_loss / len(oracles), dev_accuracy)
        if dev_accuracy > best_accuracy:
            best_accuracy = dev_accuracy
            best_state = model.params.state_dict()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.params.load_state_dict(best_state)
    return TrainResult(model, arch, aligner, config.seed, best_accuracy, history)


def population_counts(setting: str) -> dict[tuple[str, str], int]:
    if setting not in POPULATION_COUNTS:
        raise ValueError(f"unknown setting {setting!r}")
    return dict(POPULATION_COUNTS[setting])


def train_population(train: list[Sample], dev: list[Sample], sizes: ModelConfig,
                     config: TrainConfig,
                     counts: dict[tuple[str, str], int]) -> list[TrainResult]:
    """Independently seeded models per (arch, aligner) cell; seeds are
    config.seed, config.seed+1, ... in cell-then-index order."""
    results = []
    next_seed = config.seed
    for cell in CELL_ORDER:
        for _ in range(counts.get(cell, 0)):
            member_config = replace(config, seed=next_seed)
            results.append(train_model(cell[0], cell[1], train, dev, sizes, member_config))
            next_seed += 1
    return results
