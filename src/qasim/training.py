"""Mini-batch SGD for the similarity network.

Defaults follow the reported recipe: batch 100, up to 600 epochs,
dropout 0.5, l2 penalty 0.0005 on the head weights, learning rate 0.0004
multiplied by 0.95 once per epoch from epoch 500 on with a 1e-5 floor,
and early stopping on validation pair accuracy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, asdict, astuple

import numpy as np

from . import simnet
from .corpus import QAPair
from .modelfile import FLOAT32_MAX
from .retrieval import feature_rows
from .simnet import SimilarityNetwork


@dataclass
class SimTrainConfig:
    batch_size: int = 100
    max_epochs: int = 600
    dropout_p: float = 0.5
    lam: float = 0.0005
    init_std: float = 0.03
    bias_const: float = 0.1
    lr0: float = 0.0004
    decay: float = 0.95
    decay_start_epoch: int = 500
    lr_floor: float = 1e-5
    early_stop_patience: int = 20
    activation: simnet.Activation = simnet.Activation.TANH
    seed: int = 0

    def __post_init__(self):
        self.activation = simnet.Activation(self.activation)
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for ok, rule in ((0.0 <= self.dropout_p < 1.0, "dropout_p must lie in [0, 1)"),
                         (self.lr0 > self.lr_floor > 0, "need lr0 > lr_floor > 0"),
                         (self.batch_size >= 1, "batch_size must be >= 1"),
                         (self.max_epochs >= 1, "max_epochs must be >= 1"),
                         (self.early_stop_patience >= 0, "early_stop_patience must be >= 0"),
                         (self.lam >= 0, "lam must be >= 0"),
                         (self.init_std > 0, "init_std must be > 0"),
                         # what a model file holds; a larger start diverges in epoch 0
                         (self.init_std <= FLOAT32_MAX,
                          f"init_std must be <= {FLOAT32_MAX:.4g}, got {self.init_std}"),
                         (abs(self.bias_const) <= FLOAT32_MAX,
                          f"|bias_const| must be <= {FLOAT32_MAX:.4g}, got {self.bias_const}"),
                         (0 < self.decay <= 1, "decay must lie in (0, 1]"),
                         (self.decay_start_epoch >= 0, "decay_start_epoch must be >= 0")):
            if not ok:
                raise ValueError(rule)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float


@dataclass
class TrainReport:
    """Per-epoch series plus where and why training stopped.

    `planned_epochs` records the configured maximum; `epochs` holds one
    entry per actually completed epoch.
    """

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    stopping_reason: str = ""
    planned_epochs: int = 0

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.epochs:
                fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")
            fh.write(json.dumps({
                "best_epoch": self.best_epoch,
                "stopping_reason": self.stopping_reason,
                "planned_epochs": self.planned_epochs,
                "completed_epochs": len(self.epochs),
            }, sort_keys=True) + "\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(EpochStats)])
            writer.writerows(astuple(e) for e in self.epochs)


def lr_at_epoch(config: SimTrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch index.

    Constant at lr0 before decay_start_epoch, then multiplied by `decay`
    once per epoch (closed form, so the value is bit-exact) and clamped
    at lr_floor.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if epoch < config.decay_start_epoch:
        return config.lr0
    return max(config.lr_floor, config.lr0 * config.decay ** (epoch - config.decay_start_epoch + 1))


def _pair_rows(pairs: list[QAPair], features):
    """((unique question rows, each pair's row in them), (same for answers),
    labels).  A non-finite row raises here, before any batch uses it."""
    q_docs, q_of_pair = np.unique([p.question_doc for p in pairs], return_inverse=True)
    a_docs, a_of_pair = np.unique([p.answer_doc for p in pairs], return_inverse=True)
    return ((simnet._as_rows(feature_rows(features[0], q_docs)), q_of_pair),
            (simnet._as_rows(feature_rows(features[1], a_docs)), a_of_pair),
            np.array([p.label for p in pairs], dtype=np.float64))


def _pair_accuracy(net: SimilarityNetwork, q, a, y: np.ndarray) -> float:
    """Accuracy at threshold 0.5 from head terms computed once per unique
    doc and gathered per pair; a score of exactly 0.5 is positive."""
    scores = simnet.probabilities(net, simnet.head_terms(net, q[0], "q")[q[1]],
                                  simnet.head_terms(net, a[0], "a")[a[1]])
    return float(np.mean((scores >= 0.5) == (y == 1.0)))


def evaluate_pair_accuracy(net: SimilarityNetwork, pairs: list[QAPair], features) -> float:
    """Fraction of pairs classified correctly at threshold 0.5.

    A score of exactly 0.5 counts as a positive prediction.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    return _pair_accuracy(net, *_pair_rows(pairs, features))


def train_simnet(train_pairs: list[QAPair], val_pairs: list[QAPair], features,
                 config: SimTrainConfig) -> tuple[SimilarityNetwork, TrainReport]:
    """Train the similarity network with seeded mini-batch SGD.

    `features` is a (question, answer) tuple of feature arrays holding
    one d-vector per doc id.  Pairs are reshuffled every epoch; the last short
    batch is processed at its natural size.  After each epoch validation
    pair accuracy decides early stopping: when it has not improved for
    more than `early_stop_patience` consecutive epochs, training stops
    and the parameters of the best validation epoch are returned.
    """
    if not train_pairs or not val_pairs:
        raise ValueError("train and validation pair sets must be non-empty")
    train = _pair_rows(train_pairs, features)
    val = _pair_rows(val_pairs, features)
    (q_rows, q_of_pair), (a_rows, a_of_pair), y = train

    rng = np.random.default_rng(config.seed)
    net = simnet.init_network(q_rows.shape[1], std=config.init_std, bias_const=config.bias_const,
                              seed=config.seed, activation=config.activation)
    report = TrainReport(planned_epochs=config.max_epochs)
    best_net, n = None, len(train_pairs)

    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_seed = int(rng.integers(0, 2**63 - 1))
            grads, batch_loss = simnet.gradients(
                net, q_rows.take(q_of_pair[idx], axis=0), a_rows.take(a_of_pair[idx], axis=0),
                y[idx], config.lam, config.dropout_p, batch_seed)
            if not np.isfinite(batch_loss):
                raise RuntimeError(f"non-finite training loss at epoch {epoch}")
            net.flat -= lr * grads.flat
            batch_losses.append(batch_loss)
        # weights past float32's range turn infinite in a model file
        if not np.abs(net.flat).max() <= FLOAT32_MAX:
            raise RuntimeError(f"similarity-network training diverged at epoch {epoch}; "
                               "lower the learning rate")

        val_acc = _pair_accuracy(net, *val)
        report.epochs.append(EpochStats(epoch=epoch, lr=lr,
                                        train_loss=float(np.mean(batch_losses)),
                                        train_acc=_pair_accuracy(net, *train), val_acc=val_acc))

        # the first epoch always sets the best network
        if best_net is None or val_acc > report.epochs[report.best_epoch].val_acc:
            best_net = net.copy()
            report.best_epoch = epoch
        elif epoch - report.best_epoch > config.early_stop_patience:
            report.stopping_reason = "early_stopping"
            return best_net, report

    report.stopping_reason = "max_epochs"
    return best_net, report
