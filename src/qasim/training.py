"""Mini-batch SGD for the similarity network.

Defaults follow the reported recipe: batch 100, up to 600 epochs,
dropout 0.5, l2 penalty 0.0005 on the head weights, learning rate 0.0004
multiplied by 0.95 once per epoch from epoch 500 on with a 1e-5 floor,
and early stopping on validation pair accuracy.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import simnet
from .corpus import QAPair
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
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")
        if not self.lr_floor < self.lr0:
            raise ValueError("lr_floor must be below lr0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")


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
            writer.writerow(["epoch", "lr", "train_loss", "train_acc", "val_acc"])
            for e in self.epochs:
                writer.writerow([e.epoch, repr(e.lr), repr(e.train_loss),
                                 repr(e.train_acc), repr(e.val_acc)])


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
    """((unique question rows, each pair's row in them), (same for answers), labels)."""
    q_docs, q_of_pair = np.unique([p.question_doc for p in pairs], return_inverse=True)
    a_docs, a_of_pair = np.unique([p.answer_doc for p in pairs], return_inverse=True)
    return ((feature_rows(features[0], q_docs), q_of_pair),
            (feature_rows(features[1], a_docs), a_of_pair),
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
                 config: SimTrainConfig, checkpoint_dir=None,
                 checkpoint_every: int = 0) -> tuple[SimilarityNetwork, TrainReport]:
    """Train the similarity network with seeded mini-batch SGD.

    `features` is a (question lookup, answer lookup) tuple mapping doc
    ids to d-vectors.  Pairs are reshuffled every epoch; the last short
    batch is processed at its natural size.  After each epoch validation
    pair accuracy decides early stopping: when it has not improved for
    more than `early_stop_patience` consecutive epochs, training stops
    and the parameters of the best validation epoch are returned.

    With checkpoint_every > 0, the current parameters are written to
    checkpoint_dir every that many epochs in the model binary format,
    named by epoch.
    """
    if not train_pairs or not val_pairs:
        raise ValueError("train and validation pair sets must be non-empty")
    train = _pair_rows(train_pairs, features)
    val = _pair_rows(val_pairs, features)
    (q_rows, q_of_pair), (a_rows, a_of_pair), y = train
    fq, fa = q_rows[q_of_pair], a_rows[a_of_pair]

    d = fq.shape[1]
    rng = np.random.default_rng(config.seed)
    net = simnet.init_network(d, std=config.init_std, bias_const=config.bias_const,
                              seed=config.seed, activation=config.activation)
    report = TrainReport(planned_epochs=config.max_epochs)

    best_net = net.copy()
    best_val = -1.0
    bad_epochs = 0
    n = len(train_pairs)

    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_seed = int(rng.integers(0, 2**63 - 1))
            grads, batch_loss = simnet.gradients(
                net, fq[idx], fa[idx], y[idx], lam=config.lam,
                dropout_p=config.dropout_p, seed=batch_seed)
            if not np.isfinite(batch_loss):
                raise RuntimeError(f"non-finite training loss at epoch {epoch}")
            for name, param in net.params().items():
                param -= lr * grads[name]
            batch_losses.append(batch_loss)

        val_acc = _pair_accuracy(net, *val)
        report.epochs.append(EpochStats(epoch=epoch, lr=lr,
                                        train_loss=float(np.mean(batch_losses)),
                                        train_acc=_pair_accuracy(net, *train), val_acc=val_acc))

        if checkpoint_every > 0 and checkpoint_dir is not None \
                and (epoch + 1) % checkpoint_every == 0:
            simnet.save_simnet(net, os.path.join(checkpoint_dir, f"epoch{epoch}.simnet"))

        if val_acc > best_val:
            best_val = val_acc
            best_net = net.copy()
            report.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.early_stop_patience:
                report.stopping_reason = "early_stopping"
                return best_net, report

    report.stopping_reason = "max_epochs"
    return best_net, report
