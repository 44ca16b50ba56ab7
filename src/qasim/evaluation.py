"""Question-classification experiment: bag-of-words vs. paragraph vectors.

A hinge-loss linear classifier is trained on either feature kind and
evaluated over a range of training-set ratios, producing learning-curve
data (CSV) for the comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .corpus import TokenizedDocument, Vocabulary, check_label, read_jsonl


@dataclass
class LinearClassifier:
    """Dense weight vector + bias trained with hinge loss."""

    weights: np.ndarray
    bias: float

    def decision(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(x) @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1}; a decision value of exactly 0 predicts +1."""
        return np.where(self.decision(x) >= 0.0, 1, -1)


def bow_matrix(docs: list[TokenizedDocument], vocab: Vocabulary) -> np.ndarray:
    """Dense (n_docs, V) count matrix for classifier input."""
    X = np.zeros((len(docs), len(vocab)), dtype=np.float64)
    for row, doc in enumerate(docs):
        counts = np.bincount(np.asarray(doc.tokens, dtype=np.intp), minlength=len(vocab))
        if len(counts) > len(vocab):
            raise ValueError(f"token id {len(counts) - 1} outside vocabulary of size {len(vocab)}")
        X[row] = counts
    return X


def train_linear(features: np.ndarray, labels: np.ndarray, epochs: int = 20,
                 lr: float = 0.01, reg: float = 1e-4, seed: int = 0) -> LinearClassifier:
    """Per-example SGD on regularized hinge loss.

    Loss per example: max(0, 1 - y*(w.x + b)) + reg*||w||^2, labels in
    {-1, +1}.  Example order is reshuffled each epoch from the seed.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    classes = set(np.unique(y))
    if not classes <= {-1.0, 1.0}:
        raise ValueError(f"labels must be -1 or +1, got {sorted(classes)}")
    if len(classes) < 2:
        raise ValueError("training data contains a single class")

    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    # a rate too large overflows the weights, which the check below sees
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            for i in rng.permutation(len(y)):
                margin = y[i] * (X[i] @ w + b)
                grad_w = 2.0 * reg * w
                grad_b = 0.0
                if margin < 1.0:
                    grad_w = grad_w - y[i] * X[i]
                    grad_b = -y[i]
                w -= lr * grad_w
                b -= lr * grad_b
    if not (np.isfinite(w).all() and np.isfinite(b)):
        raise RuntimeError("classifier training diverged to non-finite weights; "
                           "lower the learning rate")
    return LinearClassifier(weights=w, bias=float(b))


def _stratified_split(labels: np.ndarray, ratio: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split so small training ratios keep both classes."""
    train_idx = []
    test_idx = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        n_train = max(1, int(round(ratio * len(members))))
        n_train = min(n_train, len(members) - 1)
        train_idx.append(members[:n_train])
        test_idx.append(members[n_train:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def learning_curve(features: np.ndarray, labels: np.ndarray, ratios: list[float],
                   seeds: list[int], epochs: int = 20, lr: float = 0.01,
                   reg: float = 1e-4) -> list[tuple[float, float, float]]:
    """Held-out accuracy per training ratio, averaged over seeds.

    Returns [(ratio, mean_accuracy, std_accuracy), ...], one entry per
    ratio in order.  Splits are stratified and seeded, so the output is
    reproducible.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if len(y) < 10:
        raise ValueError("need at least 10 labeled examples")
    if any(not 0.0 < r < 1.0 for r in ratios):
        raise ValueError("ratios must lie strictly between 0 and 1")

    results = []
    for ratio in ratios:
        accs = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            train_idx, test_idx = _stratified_split(y, ratio, rng)
            clf = train_linear(X[train_idx], y[train_idx], epochs=epochs,
                               lr=lr, reg=reg, seed=seed)
            accs.append(float(np.mean(clf.predict(X[test_idx]) == y[test_idx])))
        results.append((ratio, float(np.mean(accs)), float(np.std(accs))))
    return results


def save_learning_curves(rows: dict[str, list[tuple[float, float, float]]], path) -> None:
    """Write "ratio,feature_kind,mean_accuracy,std" CSV, one row per point."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio", "feature_kind", "mean_accuracy", "std"])
        for kind, points in rows.items():
            for ratio, mean_acc, std in points:
                writer.writerow([repr(ratio), kind, repr(mean_acc), repr(std)])


def _labeled_record(record) -> tuple[str, int]:
    text, label = record["text"], record["label"]
    if not isinstance(text, str):
        raise TypeError(f"text must be a string, got {text!r}")
    check_label(label)
    return text, label


def load_labeled_texts(path) -> tuple[list[str], list[int]]:
    """Read JSONL {"text": str, "label": 0|1} classification data."""
    records = read_jsonl(path, "labeled", _labeled_record)
    if not records:
        raise ValueError(f"no labeled records found in {path}")
    return [text for text, _ in records], [label for _, label in records]
