"""Classifier-comparison tests: bag-of-words counting, hinge-loss
training against finite differences, stratified splits, and the
learning-curve CSV output."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasim.corpus import TokenizedDocument, build_vocabulary, encode, tokenize
from qasim.evaluation import (
    LinearClassifier,
    _stratified_split,
    bow_matrix,
    learning_curve,
    load_labeled_texts,
    save_learning_curves,
    train_linear,
)


def hinge_loss(clf: LinearClassifier, x: np.ndarray, y: float, reg: float) -> float:
    """The single-example objective that `train_linear` descends."""
    margin = y * (float(np.dot(x, clf.weights)) + clf.bias)
    return max(0.0, 1.0 - margin) + reg * float(np.dot(clf.weights, clf.weights))


def doc(tokens):
    return TokenizedDocument(doc_id=0, tokens=tuple(tokens))


@pytest.fixture(scope="module")
def vocab():
    texts = ["red green blue red", "green blue yellow", "red red red"]
    return build_vocabulary([tokenize(t) for t in texts], min_count=1)


def bow_row(d, vocab):
    return bow_matrix([d], vocab)[0]


class TestBowFeatures:
    """`bow_matrix`: one row of exact unigram counts per document."""

    def test_exact_counts(self, vocab):
        row = bow_row(encode(tokenize("red blue red red"), vocab), vocab)
        red, blue = vocab.token_to_id["red"], vocab.token_to_id["blue"]
        assert row[red] == 3
        assert row[blue] == 1
        assert row.sum() == 4

    def test_order_insensitive(self, vocab):
        a = encode(tokenize("red green blue"), vocab)
        b = encode(tokenize("blue red green"), vocab)
        assert np.array_equal(bow_row(a, vocab), bow_row(b, vocab))

    def test_concatenation_adds(self, vocab):
        # histogram of doc1+doc2 equals the sum of the histograms
        a = encode(tokenize("red green"), vocab)
        b = encode(tokenize("green blue blue"), vocab)
        joint = bow_row(doc(list(a.tokens) + list(b.tokens)), vocab)
        assert np.array_equal(joint, bow_row(a, vocab) + bow_row(b, vocab))

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_total_matches_length(self, tokens):
        vocab = build_vocabulary([[f"t{c}" for c in "abcdef"]], min_count=1)
        assert bow_row(doc(tokens), vocab).sum() == len(tokens)

    def test_out_of_vocab_id_rejected(self, vocab):
        with pytest.raises(ValueError, match=f"token id {len(vocab) + 3} outside vocabulary"):
            bow_matrix([doc([0]), doc([1, len(vocab) + 3])], vocab)

    def test_matrix_matches_rows(self, vocab):
        docs = [encode(tokenize(t), vocab, doc_id=i)
                for i, t in enumerate(("red red green", "blue", "yellow green blue"))]
        X = bow_matrix(docs, vocab)
        assert X.shape == (3, len(vocab))
        for row, d in enumerate(docs):
            expected = np.zeros(len(vocab))
            for token, count in Counter(d.tokens).items():
                expected[token] = count
            assert np.array_equal(X[row], expected)


class TestTrainLinear:
    def separable(self, n=40, d=5, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        w_true = rng.normal(size=d)
        y = np.where(X @ w_true > 0, 1, -1)
        return X, y

    def test_fits_separable_data(self):
        X, y = self.separable()
        clf = train_linear(X, y, epochs=50)
        assert np.mean(clf.predict(X) == y) >= 0.95

    def test_deterministic(self):
        X, y = self.separable()
        a = train_linear(X, y, seed=3)
        b = train_linear(X, y, seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        X = np.ones((6, 2))
        with pytest.raises(ValueError, match="single class"):
            train_linear(X, np.ones(6))

    def test_bad_labels_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError, match="labels"):
            train_linear(X, np.array([0, 1, 0, 1]))

    def test_hinge_gradient_matches_finite_difference(self):
        # central differences on hinge_loss vs the analytic gradient the
        # SGD update uses, in both margin regimes, away from the kink
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        reg = 1e-3
        cases = [
            (rng.normal(size=4) * 0.1, 0.2, 1.0),   # violating margin
            (x * 2.0, 1.5, 1.0),                     # satisfied margin
        ]
        for w, b, y in cases:
            margin = y * (x @ w + b)
            assert abs(margin - 1.0) > 0.05
            analytic = 2 * reg * w - (y * x if margin < 1.0 else 0.0)
            h = 1e-6
            fd = np.empty(4)
            for j in range(4):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd[j] = (hinge_loss(LinearClassifier(wp, float(b)), x, y, reg)
                         - hinge_loss(LinearClassifier(wm, float(b)), x, y, reg)) / (2 * h)
            assert np.allclose(fd, analytic, atol=1e-6)

    def test_sgd_step_matches_analytic_gradient(self):
        rng = np.random.default_rng(6)
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        lr, reg = 1e-3, 1e-4
        clf = train_linear(np.array([x1, x2]), np.array([1.0, -1.0]),
                           epochs=1, lr=lr, reg=reg, seed=0)
        # both examples violate the margin at the zero start; to first
        # order the combined step is lr*(y1*x1 + y2*x2) with an O(lr^2)
        # regularizer correction
        want_w = lr * (x1 - x2)
        assert np.allclose(clf.weights, want_w, atol=1e-8)
        assert abs(clf.bias - lr * (1.0 - 1.0)) < 1e-12

    def test_divergence_raises(self):
        X, y = self.separable()
        with pytest.raises(RuntimeError, match="non-finite weights"):
            train_linear(X, y, lr=1e300)

    def test_zero_epochs_returns_zero_model(self):
        X, y = self.separable(n=10)
        clf = train_linear(X, y, epochs=0)
        assert np.array_equal(clf.weights, np.zeros(X.shape[1]))
        assert clf.bias == 0.0

    def test_predict_tie_is_positive(self):
        clf = LinearClassifier(weights=np.zeros(3), bias=0.0)
        assert list(clf.predict(np.zeros((2, 3)))) == [1, 1]

    def test_duplication_shifts_nothing_at_convergence(self):
        # doubling every example changes per-epoch order but the
        # separable optimum still classifies everything correctly
        X, y = self.separable(n=30, seed=2)
        clf = train_linear(np.vstack([X, X]), np.concatenate([y, y]), epochs=50)
        assert np.mean(clf.predict(X) == y) >= 0.95


class TestStratifiedSplit:
    def test_partition_and_class_presence(self):
        labels = np.array([0] * 12 + [1] * 8)
        rng = np.random.default_rng(0)
        train, test = _stratified_split(labels, 0.25, rng)
        combined = sorted(np.concatenate([train, test]).tolist())
        assert combined == list(range(20))
        assert set(labels[train]) == {0, 1}
        assert set(labels[test]) == {0, 1}
        assert list(labels[train]).count(0) == 3  # round(0.25 * 12)
        assert list(labels[train]).count(1) == 2  # round(0.25 * 8)

    def test_extreme_ratio_keeps_one_each_side(self):
        labels = np.array([0] * 5 + [1] * 5)
        rng = np.random.default_rng(1)
        train, test = _stratified_split(labels, 0.999, rng)
        # cap leaves at least one test example per class
        assert list(labels[test]).count(0) >= 1
        assert list(labels[test]).count(1) >= 1
        train, test = _stratified_split(labels, 0.001, rng)
        assert list(labels[train]).count(0) >= 1
        assert list(labels[train]).count(1) >= 1


class TestLearningCurve:
    def test_shape_and_order(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 6))
        y = np.where(X[:, 0] > 0, 1, -1)
        ratios = [0.2, 0.5, 0.8]
        curve = learning_curve(X, y, ratios, seeds=[0, 1], epochs=10)
        assert [r for r, _, _ in curve] == ratios
        for _, mean_acc, std in curve:
            assert 0.0 <= mean_acc <= 1.0
            assert std >= 0.0

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        y = np.where(X[:, 1] > 0, 1, -1)
        a = learning_curve(X, y, [0.5], seeds=[0, 1, 2], epochs=5)
        b = learning_curve(X, y, [0.5], seeds=[0, 1, 2], epochs=5)
        assert a == b

    def test_easy_problem_scores_high(self):
        rng = np.random.default_rng(7)
        y = np.array([1, -1] * 25)
        X = np.where(y[:, None] > 0, 1.0, -1.0) + 0.05 * rng.normal(size=(50, 3))
        curve = learning_curve(X, y, [0.5], seeds=[0], epochs=20)
        assert curve[0][1] >= 0.95

    def test_bad_ratio_rejected(self):
        X = np.zeros((12, 2))
        y = np.array([1, -1] * 6)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="ratios"):
                learning_curve(X, y, [bad], seeds=[0])

    def test_too_few_examples_rejected(self):
        X = np.zeros((4, 2))
        y = np.array([1, -1, 1, -1])
        with pytest.raises(ValueError, match="at least 10"):
            learning_curve(X, y, [0.5], seeds=[0])


class TestSerialization:
    def test_save_learning_curves_format(self, tmp_path):
        rows = {
            "bow": [(0.2, 0.75, 0.05), (0.4, 0.875, 0.0)],
            "doc2vec": [(0.2, 0.9, 0.1)],
        }
        path = tmp_path / "curves.csv"
        save_learning_curves(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ratio,feature_kind,mean_accuracy,std"
        assert lines[1] == "0.2,bow,0.75,0.05"
        assert lines[2] == "0.4,bow,0.875,0.0"
        assert lines[3] == "0.2,doc2vec,0.9,0.1"
        assert len(lines) == 4

    def test_load_labeled_texts(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"text": "where is my order", "label": 0}\n'
            "\n"
            '{"text": "refund please", "label": 1}\n',
            encoding="utf-8",
        )
        texts, labels = load_labeled_texts(path)
        assert texts == ["where is my order", "refund please"]
        assert labels == [0, 1]

    def test_load_labeled_texts_bad_label(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "hi", "label": 2}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            load_labeled_texts(path)

    @pytest.mark.parametrize("record", [
        '{"label": 0}',
        '{"text": ["hi"], "label": 0}',
        '{"text": "hi"}',
        '{"text": "hi", "label": 1.0}',
        '"hi"',
        'not json',
    ])
    def test_load_labeled_texts_malformed_record(self, tmp_path, record):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "label": 1}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: malformed labeled record"):
            load_labeled_texts(path)

    def test_load_labeled_texts_empty(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no labeled records"):
            load_labeled_texts(path)
