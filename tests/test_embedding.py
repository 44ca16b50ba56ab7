"""Word2vec / doc2vec tests: finite-difference gradients for the
negative-sampling steps that training and inference run, cluster-structure
checks, the analogy operation, and binary model round-trips."""

import collections
import copy
import math
import struct

import numpy as np
import pytest

from qasim import corpus, datasets, embedding
from qasim.corpus import TokenizedDocument
from qasim.embedding import (
    CombineMode,
    DocEmbeddingModel,
    EmbedTrainConfig,
    Word2VecMode,
    WordEmbeddingModel,
    analogy,
    infer_doc_vector,
    train_doc2vec,
    train_word2vec,
)


def zero_model(v, d, mode=Word2VecMode.CBOW):
    return WordEmbeddingModel(
        input_matrix=np.zeros((v, d)),
        output_matrix=np.zeros((v, d)),
        mode=mode, window=2, negatives=1, dim=d,
    )


def cluster_corpus(n_docs=60, seed=0):
    docs_raw, _ = datasets.two_topic_docs(n_docs, tokens_per_topic=20,
                                          doc_len=20, seed=seed)
    vocab = corpus.build_vocabulary(docs_raw, min_count=1)
    return corpus.encode_corpus(docs_raw, vocab), vocab


def topic_ids(vocab, prefix):
    return [vocab.token_to_id[t] for t in datasets.topic_tokens(prefix, 20)
            if t in vocab.token_to_id]


def mean_cosine(F, ids_a, ids_b):
    M = F / (np.linalg.norm(F, axis=1, keepdims=True) + 1e-12)
    G = M[ids_a] @ M[ids_b].T
    if ids_a == ids_b:
        return float((G.sum() - np.trace(G)) / (len(ids_a) * (len(ids_a) - 1)))
    return float(G.mean())


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


def ns_loss_oracle(output_matrix, h, target, negatives):
    """-log s(o_t.h) - sum -log s(-o_n.h), one term at a time."""
    total = -math.log(sigma(float(output_matrix[target] @ h)))
    for n in negatives:
        total += -math.log(sigma(-float(output_matrix[n] @ h)))
    return total


def nss_loss_oracle(model, center_or_context, target, negatives):
    """Independent recomputation of the negative-sampling loss."""
    if isinstance(center_or_context, (int, np.integer)):
        h = model.input_matrix[int(center_or_context)]
    else:
        h = model.input_matrix[list(center_or_context)].mean(axis=0)
    return ns_loss_oracle(model.output_matrix, h, target, negatives)


def repeats_of(ids):
    """None when no id repeats; else (entry, the nearest earlier entry of
    its id) for every repeat, in order, and each id's last entry."""
    ids = list(ids)
    if len(set(ids)) == len(ids):
        return None
    chain = [(j, max(p for p in range(j) if ids[p] == ids[j]))
             for j in range(len(ids)) if ids[j] in ids[:j]]
    last = [j for j in range(len(ids)) if ids[j] not in ids[j + 1:]]
    return chain, last


def step_rows(target, negatives):
    """A step's output rows, target first, and their repeats: what the
    trainers pass to the kernels."""
    rows = [target, *negatives]
    return np.array(rows), repeats_of(rows)


class TestNegativeSamplingStep:
    """`_word_step`, the word2vec step that training runs."""

    def test_zero_matrices_loss(self):
        model = zero_model(4, 3)
        rows, repeats = step_rows(1, [2])
        assert not embedding._word_step(model, 0, rows, 0.0, repeats).any()
        assert nss_loss_oracle(model, 0, 1, [2]) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_loss_decreases_after_step(self):
        rng = np.random.default_rng(0)
        model = WordEmbeddingModel(
            input_matrix=rng.normal(scale=0.5, size=(6, 4)),
            output_matrix=rng.normal(scale=0.5, size=(6, 4)),
            mode=Word2VecMode.SKIPGRAM, window=2, negatives=2, dim=4,
        )
        before = nss_loss_oracle(model, 1, 2, [3, 4])
        rows, repeats = step_rows(2, [3, 4])
        expected = model.output_matrix[rows] @ model.input_matrix[1]
        returned = embedding._word_step(model, 1, rows, 0.1, repeats)
        after = nss_loss_oracle(model, 1, 2, [3, 4])
        # the scores at the parameters before the step
        np.testing.assert_allclose(returned, expected, rtol=1e-12)
        assert after < before

    @pytest.mark.parametrize("case", [
        ("skipgram", 1, 2, [3, 4]),
        ("cbow", [0, 2], 1, [3]),
        ("cbow-dup-context", [2, 2, 5], 1, [3]),
        ("dup-negatives", 0, 1, [4, 4]),
    ])
    def test_gradients_match_finite_differences(self, case):
        # "cbow-dup-context" and "dup-negatives" take the repeated-row update
        name, arg, target, negatives = case
        mode = Word2VecMode.SKIPGRAM if isinstance(arg, int) else Word2VecMode.CBOW
        def fresh():
            r = np.random.default_rng(9)
            return WordEmbeddingModel(
                input_matrix=r.normal(scale=0.4, size=(6, 3)),
                output_matrix=r.normal(scale=0.4, size=(6, 3)),
                mode=mode, window=2, negatives=len(negatives), dim=3,
            )
        # analytic gradient, extracted exactly from one unit-lr update
        model = fresh()
        before_in = model.input_matrix.copy()
        before_out = model.output_matrix.copy()
        rows, repeats = step_rows(target, negatives)
        inputs = arg if isinstance(arg, int) else embedding._context(arg)
        embedding._word_step(model, inputs, rows, 1.0, repeats)
        grad_in = before_in - model.input_matrix
        grad_out = before_out - model.output_matrix

        eps = 1e-5
        probe = fresh()
        for matrix, grad in ((probe.input_matrix, grad_in),
                             (probe.output_matrix, grad_out)):
            it = np.nditer(matrix, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = matrix[idx]
                matrix[idx] = orig + eps
                up = nss_loss_oracle(probe, arg, target, negatives)
                matrix[idx] = orig - eps
                down = nss_loss_oracle(probe, arg, target, negatives)
                matrix[idx] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grad[idx]), 1e-10)
                assert abs(fd - grad[idx]) / denom < 1e-5, (idx, fd, grad[idx])

    def test_untouched_rows_unchanged(self):
        rng = np.random.default_rng(3)
        model = WordEmbeddingModel(
            input_matrix=rng.normal(size=(8, 3)),
            output_matrix=rng.normal(size=(8, 3)),
            mode=Word2VecMode.SKIPGRAM, window=2, negatives=1, dim=3,
        )
        before_in = model.input_matrix.copy()
        before_out = model.output_matrix.copy()
        rows, repeats = step_rows(2, [3])
        embedding._word_step(model, 1, rows, 0.5, repeats)
        touched_in, touched_out = {1}, {2, 3}
        for row in range(8):
            if row not in touched_in:
                assert np.array_equal(model.input_matrix[row], before_in[row])
            if row not in touched_out:
                assert np.array_equal(model.output_matrix[row], before_out[row])


def dm_hidden_oracle(model, doc_vec, context, n_missing):
    d = model.dim
    if model.combine is CombineMode.AVERAGE:
        h = doc_vec.copy()
        for t in context:
            h = h + model.word_matrix[t]
        return h / (1 + len(context))
    h = np.zeros(d * (1 + model.window))
    h[:d] = doc_vec
    for slot, t in enumerate(context, start=n_missing):
        h[d * (1 + slot): d * (2 + slot)] = model.word_matrix[t]
    return h


def dm_loss_oracle(model, doc_vec, context, n_missing, target, negatives):
    """Independent recomputation of the distributed-memory loss."""
    h = dm_hidden_oracle(model, doc_vec, context, n_missing)
    return ns_loss_oracle(model.output_matrix, h, target, negatives)


class TestDmStep:
    """`_dm_update`, the step that doc2vec training runs, and
    `_dm_frozen_update`, the step that inference runs."""

    WINDOW = 3
    CASES = [
        (CombineMode.AVERAGE, [0, 2], 1, [3, 4]),
        (CombineMode.AVERAGE, [2, 2, 5], 1, [3]),
        (CombineMode.AVERAGE, [], 4, [0, 0]),
        (CombineMode.CONCATENATE, [4, 1], 2, [3, 5]),
        (CombineMode.CONCATENATE, [3, 3, 1], 0, [5]),
        (CombineMode.CONCATENATE, [], 4, [2]),
    ]

    def fresh(self, combine):
        r = np.random.default_rng(13)
        d = 3
        out_dim = d if combine is CombineMode.AVERAGE else d * (1 + self.WINDOW)
        model = DocEmbeddingModel(
            word_matrix=r.normal(scale=0.4, size=(6, d)),
            doc_matrix=r.normal(scale=0.4, size=(2, d)),
            output_matrix=r.normal(scale=0.4, size=(6, out_dim)),
            combine=combine, window=self.WINDOW, negatives=2, dim=d,
        )
        return model, model.doc_matrix[1]

    @pytest.mark.parametrize("case", CASES)
    def test_gradients_match_finite_differences(self, case):
        # [2, 2, 5], [3, 3, 1] and [0, 0] take the repeated-row update
        combine, context, target, negatives = case
        n_missing = self.WINDOW - len(context)
        rows, repeats = step_rows(target, negatives)
        # analytic gradient, extracted exactly from one unit-lr update
        model, doc_vec = self.fresh(combine)
        before = (doc_vec.copy(), model.word_matrix.copy(), model.output_matrix.copy())
        position = embedding._dm_position(model, context, n_missing)
        scores = embedding._dm_update(model, doc_vec, position, rows, 1.0, repeats)
        grads = [b - a for b, a in zip(before, (doc_vec, model.word_matrix,
                                                 model.output_matrix))]

        eps = 1e-5
        probe, probe_vec = self.fresh(combine)
        # the scores at the parameters before the step
        np.testing.assert_allclose(
            scores, probe.output_matrix[rows] @ dm_hidden_oracle(probe, probe_vec, context,
                                                                 n_missing), rtol=1e-12)
        for matrix, grad in zip((probe_vec, probe.word_matrix, probe.output_matrix), grads):
            it = np.nditer(matrix, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = matrix[idx]
                matrix[idx] = orig + eps
                up = dm_loss_oracle(probe, probe_vec, context, n_missing, target, negatives)
                matrix[idx] = orig - eps
                down = dm_loss_oracle(probe, probe_vec, context, n_missing, target, negatives)
                matrix[idx] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grad[idx]), 1e-10)
                assert abs(fd - grad[idx]) / denom < 1e-5, (idx, fd, grad[idx])

    @pytest.mark.parametrize("case", CASES)
    def test_frozen_words_update_only_the_doc_vector(self, case):
        combine, context, target, negatives = case
        n_missing = self.WINDOW - len(context)
        rows, repeats = step_rows(target, negatives)
        trained, trained_vec = self.fresh(combine)
        position = embedding._dm_position(trained, context, n_missing)
        embedding._dm_update(trained, trained_vec, position, rows, 0.5, repeats)
        model, doc_vec = self.fresh(combine)
        before = (model.word_matrix.copy(), model.doc_matrix.copy(),
                  model.output_matrix.copy())
        h = embedding._dm_hidden(model, doc_vec, model.word_matrix[context], position[2])
        embedding._dm_frozen_update(model.output_matrix[rows][None], doc_vec[None], h[None],
                                    np.ones((1, len(rows))), np.array([[0.5]]),
                                    embedding._dm_scale(model, len(context)))
        assert np.array_equal(model.word_matrix, before[0])
        assert np.array_equal(model.output_matrix, before[2])
        assert np.array_equal(model.doc_matrix[0], before[1][0])
        # the doc vector takes the same step as in training
        assert np.array_equal(doc_vec, trained_vec)
        assert not np.array_equal(doc_vec, before[1][1])


def test_step_rows_match_one_draw_per_step():
    # a pass's rows, drawn in one call, against m draws per step from the
    # same stream: target first, hits skipped, repeats exact
    cdf = np.cumsum([0.3, 0.3, 0.2, 0.2])
    targets = np.array([0, 1, 2, 3, 1, 0, 2, 2] * 5)
    steps = embedding._step_rows(np.random.default_rng(4), cdf, targets, 5)
    rng = np.random.default_rng(4)
    repeats = 0
    for target, (rows, step_repeats) in zip(targets, steps):
        draws = np.searchsorted(cdf, rng.random(5), side="right")
        expected = [target] + [j for j in draws if j != target]
        assert rows.tolist() == expected
        want = repeats_of(expected)
        if want is None:
            assert step_repeats is None
        else:
            assert step_repeats[0] == want[0]
            assert sorted(step_repeats[1].tolist()) == want[1]
        repeats += want is not None
    assert 0 < repeats < len(targets)


class TestRepeatedRows:
    """A row that repeats, among the output rows or in a context, takes its
    updates in index order: the same bytes as np.add.at."""

    @pytest.mark.parametrize("rows", [[1, 4, 4, 2], [1, 4, 4, 4, 2], [3, 0, 3, 0, 3]])
    @pytest.mark.parametrize("rowwise", [True, False])
    def test_add_rows_matches_add_at(self, rows, rowwise):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(6, 5))
        delta = rng.normal(size=(len(rows), 5) if rowwise else 5)
        expected = matrix.copy()
        np.add.at(expected, rows, delta)
        rows = np.array(rows)
        embedding._add_rows(matrix, rows, matrix[rows], delta, embedding._repeats(rows.tolist()))
        assert np.array_equal(matrix, expected)

    @staticmethod
    def add_at_step(output_matrix, h, rows, lr):
        """The negative-sampling step with every row update by np.add.at."""
        out = output_matrix[rows]
        g = 1.0 / (1.0 + np.exp(-(out @ h)))
        g[0] -= 1.0
        np.add.at(output_matrix, rows, (-lr * g)[:, None] * h)
        return g @ out

    @pytest.mark.parametrize("context", [[2, 2, 5], [2, 2, 2], [0, 5, 3]])
    @pytest.mark.parametrize("negatives", [[4, 4], [4, 4, 4], [3, 4]])
    def test_cbow_step_matches_add_at(self, context, negatives):
        r = np.random.default_rng(11)
        model = WordEmbeddingModel(input_matrix=r.normal(scale=0.4, size=(6, 4)),
                                   output_matrix=r.normal(scale=0.4, size=(6, 4)),
                                   mode=Word2VecMode.CBOW, window=2, negatives=3, dim=4)
        X, O = model.input_matrix.copy(), model.output_matrix.copy()
        grad_h = self.add_at_step(O, X[context].mean(axis=0), [1, *negatives], 0.3)
        np.add.at(X, context, -0.3 * grad_h / len(context))
        rows, repeats = step_rows(1, negatives)
        embedding._word_step(model, embedding._context(context), rows, 0.3, repeats)
        assert np.array_equal(model.input_matrix, X)
        assert np.array_equal(model.output_matrix, O)

    @pytest.mark.parametrize("combine", list(CombineMode))
    @pytest.mark.parametrize("context", [[2, 2, 5], [3, 3, 3], [1, 5]])
    @pytest.mark.parametrize("negatives", [[0, 0], [0, 0, 0], [0, 4]])
    def test_dm_step_matches_add_at(self, combine, context, negatives):
        model, doc_vec = TestDmStep().fresh(combine)
        d, k, n_missing = model.dim, TestDmStep.WINDOW, TestDmStep.WINDOW - len(context)
        W, O, vec = model.word_matrix.copy(), model.output_matrix.copy(), doc_vec.copy()
        if combine is CombineMode.AVERAGE:
            h = (vec + W[context].sum(axis=0)) / (1 + len(context))
        else:
            h = np.zeros(d * (1 + k))
            h[:d] = vec
            h[d * (1 + n_missing):] = W[context].ravel()
        step = 0.3 * self.add_at_step(O, h, [2, *negatives], 0.3)
        if combine is CombineMode.AVERAGE:
            step *= 1.0 / (1 + len(context))
        vec -= step[:d]
        words = step if combine is CombineMode.AVERAGE else (
            step[d * (1 + n_missing):].reshape(len(context), d))
        np.add.at(W, context, -words)
        rows, repeats = step_rows(2, negatives)
        embedding._dm_update(model, doc_vec, embedding._dm_position(model, context, n_missing),
                             rows, 0.3, repeats)
        assert np.array_equal(doc_vec, vec)
        assert np.array_equal(model.word_matrix, W)
        assert np.array_equal(model.output_matrix, O)


class TestTrainChunk:
    """Training draws its negatives TRAIN_CHUNK steps at a time, across
    documents and epochs; the chunk size must not change a single byte."""

    @pytest.mark.parametrize("train, mode", [
        (train_word2vec, Word2VecMode.CBOW),
        (train_word2vec, Word2VecMode.SKIPGRAM),
        (train_doc2vec, CombineMode.AVERAGE),
        (train_doc2vec, CombineMode.CONCATENATE),
    ])
    def test_chunk_size_changes_nothing(self, monkeypatch, train, mode):
        # Six documents of 20 tokens, two epochs.  A chunk of 1 draws per
        # step; 7 is less than a document, and its chunks end inside
        # documents and straddle the epoch boundary; 10**6 holds every step
        # of both epochs in one draw.
        docs, vocab = cluster_corpus(6)
        cfg = EmbedTrainConfig(dim=6, window=3, negatives=4, epochs=2, seed=3)
        fields = ("input_matrix", "output_matrix", "word_matrix", "doc_matrix")
        results = []
        for chunk in (10 ** 6, 1, 7):
            monkeypatch.setattr(embedding, "TRAIN_CHUNK", chunk)
            model = train(docs, cfg, mode, vocab_size=len(vocab))
            results.append([getattr(model, f) for f in fields if hasattr(model, f)])
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)


class TestUnigramNoise:
    def test_counts_match_a_counter(self):
        docs, vocab = cluster_corpus(12)
        counts = collections.Counter(t for doc in docs for t in doc.tokens)
        weights = np.array([counts[i] for i in range(len(vocab))], dtype=np.float64) ** 0.75
        expected = (weights / weights.sum()).astype(np.float32).astype(np.float64)
        assert np.array_equal(embedding._unigram_noise(docs, len(vocab)), expected)

    @pytest.mark.parametrize("bad", [-1, 4, 9])
    def test_token_outside_the_vocabulary_rejected(self, bad):
        docs = [TokenizedDocument(0, [0, 1, 2]), TokenizedDocument(1, [3, bad, 1])]
        with pytest.raises(ValueError, match=f"token id {bad} is outside the vocabulary of 4"):
            embedding._unigram_noise(docs, 4)


class TestNonFiniteTraining:
    """A learning rate far too large overflows to inf/NaN; training must
    raise instead of returning the broken matrices, and must do so
    without a flood of overflow warnings."""

    @pytest.mark.parametrize("train, mode", [
        (train_word2vec, Word2VecMode.CBOW),
        (train_word2vec, Word2VecMode.SKIPGRAM),
        (train_doc2vec, CombineMode.AVERAGE),
        (train_doc2vec, CombineMode.CONCATENATE),
    ])
    def test_divergence_raises(self, train, mode):
        docs, vocab = cluster_corpus(6)
        cfg = EmbedTrainConfig(dim=8, window=3, negatives=3, epochs=2, learning_rate=1e6)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(docs, cfg, mode, vocab_size=len(vocab))


class TestTrainWord2vec:
    def test_deterministic(self):
        docs, vocab = cluster_corpus(20)
        cfg = EmbedTrainConfig(dim=8, window=3, negatives=3, epochs=3, seed=11)
        m1 = train_word2vec(docs, cfg, vocab_size=len(vocab))
        m2 = train_word2vec(docs, cfg, vocab_size=len(vocab))
        assert np.array_equal(m1.input_matrix, m2.input_matrix)
        assert np.array_equal(m1.output_matrix, m2.output_matrix)

    def test_epochs_zero_returns_initialization(self):
        docs, vocab = cluster_corpus(10)
        cfg = EmbedTrainConfig(dim=8, epochs=0, seed=4)
        model = train_word2vec(docs, cfg, vocab_size=len(vocab))
        rng = np.random.default_rng(4)
        expected = (rng.random((len(vocab), 8)) - 0.5) / 8
        assert np.array_equal(model.input_matrix, expected)
        assert not model.output_matrix.any()

    def test_initialization_bounds(self):
        docs, vocab = cluster_corpus(10)
        model = train_word2vec(docs, EmbedTrainConfig(dim=10, epochs=0),
                               vocab_size=len(vocab))
        assert np.all(np.abs(model.input_matrix) <= 0.5 / 10)

    def test_short_documents_skipped_not_fatal(self):
        vocab = corpus.build_vocabulary([["a", "b", "a", "b"]], min_count=1)
        docs = [TokenizedDocument(0, [0]), TokenizedDocument(1, [0, 1, 0])]
        model = train_word2vec(docs, EmbedTrainConfig(dim=4, epochs=1),
                               vocab_size=len(vocab))
        assert np.all(np.isfinite(model.input_matrix))

    def test_corpus_of_only_short_documents_rejected(self):
        docs = [TokenizedDocument(0, [0]), TokenizedDocument(1, [1])]
        with pytest.raises(ValueError):
            train_word2vec(docs, EmbedTrainConfig(dim=4, epochs=1), vocab_size=4)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_word2vec([], EmbedTrainConfig(dim=4), vocab_size=4)

    @pytest.mark.parametrize("mode", [Word2VecMode.CBOW, Word2VecMode.SKIPGRAM])
    def test_cluster_separation(self, mode):
        docs, vocab = cluster_corpus(60)
        cfg = EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=30, seed=0)
        model = train_word2vec(docs, cfg, mode=mode, vocab_size=len(vocab))
        xs, ys = topic_ids(vocab, "x"), topic_ids(vocab, "y")
        within = (mean_cosine(model.input_matrix, xs, xs)
                  + mean_cosine(model.input_matrix, ys, ys)) / 2
        across = mean_cosine(model.input_matrix, xs, ys)
        assert within > across + 0.3


class TestTrainDoc2vec:
    def test_deterministic(self):
        docs, vocab = cluster_corpus(16)
        cfg = EmbedTrainConfig(dim=8, window=3, negatives=3, epochs=5, seed=2)
        m1 = train_doc2vec(docs, cfg, vocab_size=len(vocab))
        m2 = train_doc2vec(docs, cfg, vocab_size=len(vocab))
        assert np.array_equal(m1.doc_matrix, m2.doc_matrix)
        assert np.array_equal(m1.word_matrix, m2.word_matrix)

    def test_single_document_degenerate_case(self):
        vocab = corpus.build_vocabulary([["a", "b", "c", "a", "b", "c"]], min_count=1)
        docs = corpus.encode_corpus([["a", "b", "c", "a", "b", "c"]], vocab)
        cfg = EmbedTrainConfig(dim=6, window=2, negatives=2, epochs=30, seed=1)
        model = train_doc2vec(docs, cfg, vocab_size=len(vocab))
        vec = infer_doc_vector(model, docs[0], steps=30, seed=3)
        D = model.doc_matrix
        sims = (D @ vec) / (np.linalg.norm(D, axis=1) * np.linalg.norm(vec) + 1e-12)
        assert int(np.argmax(sims)) == 0

    def test_doc_cluster_separation(self):
        docs, vocab = cluster_corpus(40)
        cfg = EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=60, seed=0)
        model = train_doc2vec(docs, cfg, vocab_size=len(vocab))
        evens = list(range(0, 40, 2))
        odds = list(range(1, 40, 2))
        within = (mean_cosine(model.doc_matrix, evens, evens)
                  + mean_cosine(model.doc_matrix, odds, odds)) / 2
        across = mean_cosine(model.doc_matrix, evens, odds)
        assert within > across

    def test_empty_document_rejected(self):
        docs = [TokenizedDocument(0, [0, 1]), TokenizedDocument(1, [])]
        with pytest.raises(ValueError):
            train_doc2vec(docs, EmbedTrainConfig(dim=4), vocab_size=4)

    def test_concatenate_mode_trains(self):
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=6, window=3, negatives=2, epochs=3, seed=5)
        model = train_doc2vec(docs, cfg, combine=CombineMode.CONCATENATE,
                              vocab_size=len(vocab))
        # output matrix spans doc vector plus one slot per window position
        assert model.output_matrix.shape == (len(vocab), 6 * (1 + 3))
        assert np.all(np.isfinite(model.doc_matrix))

    def test_noise_probs_follow_unigram_power(self):
        # counts: token0 x4, token1 x1 -> probs proportional to 4^0.75, 1
        docs = [TokenizedDocument(0, [0, 0, 0, 0, 1])]
        model = train_doc2vec(docs, EmbedTrainConfig(dim=4, epochs=0), vocab_size=2)
        expected = np.array([4.0 ** 0.75, 1.0])
        expected /= expected.sum()
        expected = expected.astype(np.float32).astype(np.float64)
        assert np.array_equal(model.noise_probs, expected)


@pytest.fixture(scope="module")
def trained_doc_model():
    docs, vocab = cluster_corpus(50)
    cfg = EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=150, seed=0)
    return docs, train_doc2vec(docs, cfg, vocab_size=len(vocab))


class TestInferDocVector:
    @pytest.fixture(autouse=True)
    def _bind(self, trained_doc_model):
        self.docs, self.model = trained_doc_model

    def test_training_docs_recovered_as_nearest_neighbors(self):
        D = self.model.doc_matrix
        Dn = D / (np.linalg.norm(D, axis=1, keepdims=True) + 1e-12)
        hits = 0
        for doc in self.docs:
            v = infer_doc_vector(self.model, doc, steps=150, lr=0.05, seed=1)
            v = v / (np.linalg.norm(v) + 1e-12)
            hits += int(np.argmax(Dn @ v)) == doc.doc_id
        assert hits / len(self.docs) >= 0.8

    def test_deterministic(self):
        a = infer_doc_vector(self.model, self.docs[0], steps=20, seed=9)
        b = infer_doc_vector(self.model, self.docs[0], steps=20, seed=9)
        assert np.array_equal(a, b)

    def test_model_never_modified(self):
        fingerprint = (self.model.word_matrix.copy(), self.model.doc_matrix.copy(),
                       self.model.output_matrix.copy())
        infer_doc_vector(self.model, self.docs[3], steps=10, seed=2)
        assert np.array_equal(self.model.word_matrix, fingerprint[0])
        assert np.array_equal(self.model.doc_matrix, fingerprint[1])
        assert np.array_equal(self.model.output_matrix, fingerprint[2])

    def test_steps_zero_rejected(self):
        with pytest.raises(ValueError):
            infer_doc_vector(self.model, self.docs[0], steps=0)

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            infer_doc_vector(self.model, TokenizedDocument(0, []), steps=5)


def mixed_length_docs(docs, n, shortest=1):
    """Prefixes of shortest..n tokens (at most the whole document) of the
    given documents, in mixed order."""
    out = [TokenizedDocument(j, docs[j % len(docs)].tokens[:length])
           for j, length in enumerate(range(shortest, n + 1))]
    return out[1::2] + out[::2]


class TestInferDocVectors:
    """Lockstep inference: every row is the document's own vector, whatever
    else is in the batch."""

    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_rows_equal_single_inference(self, combine):
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=7, window=3, negatives=4, epochs=3, seed=5)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        batch = mixed_length_docs(docs, 20)
        vecs = embedding.infer_doc_vectors(model, batch, steps=6, lr=0.05, seed=3)
        assert vecs.shape == (len(batch), 7)
        for doc, row in zip(batch, vecs):
            assert np.array_equal(row, infer_doc_vector(model, doc, steps=6, lr=0.05, seed=3))

    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_targets_drawn_as_negatives(self, combine):
        # three words: about a third of all draws hit their own target
        vocab = corpus.build_vocabulary([["a", "b", "a", "c", "b", "a"]], min_count=1)
        docs = corpus.encode_corpus([["a", "b", "a", "c"], ["b", "a"], ["c", "c", "a"]], vocab)
        cfg = EmbedTrainConfig(dim=5, window=2, negatives=6, epochs=4, seed=1)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        batch = mixed_length_docs(docs, 9)
        vecs = embedding.infer_doc_vectors(model, batch, steps=5, seed=2)
        for doc, row in zip(batch, vecs):
            assert np.array_equal(row, infer_doc_vector(model, doc, steps=5, seed=2))
        assert np.all(np.isfinite(vecs))

    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_follows_one_step_at_a_time_oracle(self, combine):
        # per position: draw m negatives, skip those that hit the target,
        # take one training step on a throwaway copy of the model and keep
        # only the doc vector's update; the same stream and schedule
        vocab = corpus.build_vocabulary([["a", "b", "a", "c", "b", "a"]], min_count=1)
        docs = corpus.encode_corpus([["a", "b", "a", "c", "b"]], vocab)
        cfg = EmbedTrainConfig(dim=5, window=2, negatives=4, epochs=4, seed=1)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        tokens, steps, lr0, lr_min, k, m = docs[0].tokens, 6, 0.05, 0.001, 2, 4
        rng = np.random.default_rng(8)
        vec = (rng.random(5) - 0.5) / 5
        cdf = np.cumsum(model.noise_probs)
        cdf /= cdf[-1]
        skipped = 0
        for step in range(steps * len(tokens)):
            i = step % len(tokens)
            draws = np.searchsorted(cdf, rng.random(m), side="right")
            negatives = [int(j) for j in draws if j != tokens[i]]
            skipped += m - len(negatives)
            context = tokens[max(0, i - k): i]
            lr = lr0 - (lr0 - lr_min) * step / (steps * len(tokens))
            position = embedding._dm_position(model, context, k - len(context))
            rows, repeats = step_rows(tokens[i], negatives)
            embedding._dm_update(copy.deepcopy(model), vec, position, rows, lr, repeats)
        assert skipped > 0
        inferred = infer_doc_vector(model, docs[0], steps=steps, lr=lr0, min_lr=lr_min, seed=8)
        np.testing.assert_allclose(inferred, vec, rtol=0, atol=1e-12)

    def test_permuting_the_batch_permutes_the_rows(self, trained_doc_model):
        docs, model = trained_doc_model
        batch = mixed_length_docs(docs, 15)
        vecs = embedding.infer_doc_vectors(model, batch, steps=4, seed=6)
        perm = np.random.default_rng(0).permutation(len(batch))
        permuted = embedding.infer_doc_vectors(model, [batch[j] for j in perm], steps=4, seed=6)
        assert np.array_equal(permuted, vecs[perm])

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_blocks_do_not_change_vectors(self, monkeypatch, combine, block):
        # Seven documents of 4..10 tokens.  A block of B documents draws
        # INFER_BLOCK // B passes at once and gathers as many positions at
        # once: the last block (B = 1, 4 tokens) has gather windows of
        # `block` positions, so a window ends inside the document, and at
        # blocks 2 and 3, 5 steps are not a multiple of its pass chunk.  The
        # default block holds all seven, with a chunk of 18 passes, more
        # than 5.
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=7, window=3, negatives=4, epochs=3, seed=5)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        batch = mixed_length_docs(docs, 10, shortest=4)
        whole = embedding.infer_doc_vectors(model, batch, steps=5, seed=4)
        monkeypatch.setattr(embedding, "INFER_BLOCK", block)
        assert np.array_equal(embedding.infer_doc_vectors(model, batch, steps=5, seed=4), whole)

    def test_model_never_modified(self, trained_doc_model):
        docs, model = trained_doc_model
        fingerprint = [m.copy() for m in (model.word_matrix, model.doc_matrix,
                                          model.output_matrix)]
        embedding.infer_doc_vectors(model, docs[:5], steps=3, seed=2)
        for m, before in zip((model.word_matrix, model.doc_matrix, model.output_matrix),
                             fingerprint):
            assert np.array_equal(m, before)

    def test_empty_document_or_steps_below_one_rejected(self, trained_doc_model):
        docs, model = trained_doc_model
        with pytest.raises(ValueError, match="empty document"):
            embedding.infer_doc_vectors(model, [docs[0], TokenizedDocument(1, [])], steps=5)
        with pytest.raises(ValueError, match="steps"):
            embedding.infer_doc_vectors(model, docs[:2], steps=0)

    @pytest.mark.parametrize("bad", ["vocab_size", -1])
    def test_token_id_outside_vocabulary_rejected(self, trained_doc_model, bad):
        docs, model = trained_doc_model
        bad = model.vocab_size if bad == "vocab_size" else bad
        doc = TokenizedDocument(1, [docs[1].tokens[0], bad])
        with pytest.raises(ValueError, match=f"token id {bad} is outside the model's "
                                             f"vocabulary of {model.vocab_size} words"):
            embedding.infer_doc_vectors(model, [docs[0], doc], steps=2)

    def test_no_documents(self, trained_doc_model):
        _, model = trained_doc_model
        assert embedding.infer_doc_vectors(model, [], steps=5).shape == (0, model.dim)


class TestAnalogy:
    def make_vocab(self, tokens):
        return corpus.build_vocabulary([list(tokens) * 1], min_count=1)

    def test_planted_exact_answer(self):
        vocab = self.make_vocab(["aa", "bb", "cc", "dd", "ee"])
        F = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5],
                      [1.5, -0.5],  # = F(aa) - F(bb) + F(cc) exactly
                      [-1.0, -1.0]])
        ids = {t: vocab.token_to_id[t] for t in ("aa", "bb", "cc", "dd", "ee")}
        matrix = np.zeros((len(vocab), 2))
        for t, row in zip(("aa", "bb", "cc", "dd", "ee"), F):
            matrix[ids[t]] = row
        model = WordEmbeddingModel(matrix, np.zeros_like(matrix),
                                   Word2VecMode.CBOW, 2, 1, 2)
        assert analogy(model, vocab, "aa", "bb", "cc") == "dd"

    def test_cancellation_gives_neighbor_of_c(self):
        vocab = self.make_vocab(["aa", "bb", "cc"])
        matrix = np.zeros((len(vocab), 2))
        matrix[vocab.token_to_id["aa"]] = [0.0, 1.0]
        matrix[vocab.token_to_id["bb"]] = [0.9, 0.1]
        matrix[vocab.token_to_id["cc"]] = [1.0, 0.0]
        model = WordEmbeddingModel(matrix, np.zeros_like(matrix),
                                   Word2VecMode.CBOW, 2, 1, 2)
        # a=b cancels; nearest to F("cc") excluding the queries is "bb"
        assert analogy(model, vocab, "aa", "aa", "cc") == "bb"

    def test_matches_brute_force_scan(self):
        vocab = self.make_vocab(["pa", "qa", "ra", "sa", "ta"])
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(len(vocab), 2))
        model = WordEmbeddingModel(matrix, np.zeros_like(matrix),
                                   Word2VecMode.CBOW, 2, 1, 2)
        a, b, c = "pa", "qa", "ra"
        query = (matrix[vocab.token_to_id[a]] - matrix[vocab.token_to_id[b]]
                 + matrix[vocab.token_to_id[c]])
        best, best_sim = None, -2.0
        for token, idx in sorted(vocab.token_to_id.items(), key=lambda kv: kv[1]):
            if token in (a, b, c):
                continue
            vec = matrix[idx]
            sim = float(vec @ query / (np.linalg.norm(vec) * np.linalg.norm(query)))
            if sim > best_sim:
                best, best_sim = token, sim
        assert analogy(model, vocab, a, b, c) == best

    def test_out_of_vocabulary_rejected(self):
        vocab = self.make_vocab(["aa", "bb", "cc"])
        matrix = np.zeros((len(vocab), 2))
        model = WordEmbeddingModel(matrix, np.zeros_like(matrix),
                                   Word2VecMode.CBOW, 2, 1, 2)
        with pytest.raises(ValueError):
            analogy(model, vocab, "aa", "bb", "zz")


class TestModelFiles:
    def test_word2vec_roundtrip(self, tmp_path):
        docs, vocab = cluster_corpus(10)
        cfg = EmbedTrainConfig(dim=8, window=4, negatives=3, epochs=2, seed=6)
        model = train_word2vec(docs, cfg, mode=Word2VecMode.SKIPGRAM,
                               vocab_size=len(vocab))
        path = tmp_path / "model.w2v"
        embedding.save_word2vec(model, path)
        loaded = embedding.load_word2vec(path)
        assert loaded.mode is Word2VecMode.SKIPGRAM
        assert loaded.window == 4 and loaded.negatives == 3 and loaded.dim == 8
        # float32 storage: saving the loaded model reproduces identical bytes
        path2 = tmp_path / "model2.w2v"
        embedding.save_word2vec(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_doc2vec_roundtrip_preserves_inference(self, tmp_path):
        docs, vocab = cluster_corpus(10)
        cfg = EmbedTrainConfig(dim=8, window=3, negatives=3, epochs=5, seed=7)
        model = train_doc2vec(docs, cfg, vocab_size=len(vocab))
        path = tmp_path / "model.d2v"
        embedding.save_doc2vec(model, path)
        loaded = embedding.load_doc2vec(path)
        assert loaded.combine is CombineMode.AVERAGE
        assert loaded.n_docs == 10
        assert np.array_equal(loaded.noise_probs, model.noise_probs)
        # the loaded model supports inference and matches the same seed
        a = infer_doc_vector(model, docs[0], steps=10, seed=8)
        # float32 storage rounds the matrices, so compare the loaded model
        # against itself across two calls rather than against the original
        b = infer_doc_vector(loaded, docs[0], steps=10, seed=8)
        c = infer_doc_vector(loaded, docs[0], steps=10, seed=8)
        assert np.array_equal(b, c)
        assert np.allclose(a, b, atol=1e-5)

    def test_skipped_matrices_are_not_read_but_still_sized(self, tmp_path):
        docs, vocab = cluster_corpus(6)
        path = tmp_path / "model.d2v"
        embedding.save_doc2vec(train_doc2vec(docs, EmbedTrainConfig(dim=4, epochs=1),
                                             vocab_size=len(vocab)), path)
        full = embedding.load_doc2vec(path)
        part = embedding.load_doc2vec(path, skip=("word_matrix", "doc_matrix"))
        assert part.word_matrix is None and part.doc_matrix is None
        assert np.array_equal(part.output_matrix, full.output_matrix)
        assert np.array_equal(part.noise_probs, full.noise_probs)
        # the same file without the doc matrix's bytes: a skipped matrix
        # still counts toward the size the header implies
        data = path.read_bytes()
        doc_bytes = 4 * full.doc_matrix.size
        end = len(data) - 4 * full.noise_probs.size
        path.write_bytes(data[:end - doc_bytes] + data[end:])
        with pytest.raises(ValueError, match="truncated .* its header implies"):
            embedding.load_doc2vec(path, skip=("doc_matrix",))

    # the skip tuples of inference and of a doc-vector lookup
    @pytest.mark.parametrize("skip", [("doc_matrix",),
                                      ("word_matrix", "output_matrix", "noise_probs")])
    def test_skipped_matrices_keep_the_model_sizes(self, tmp_path, skip):
        docs, vocab = cluster_corpus(6)
        path = tmp_path / "model.d2v"
        embedding.save_doc2vec(train_doc2vec(docs, EmbedTrainConfig(dim=4, epochs=1),
                                             vocab_size=len(vocab)), path)
        full = embedding.load_doc2vec(path)
        part = embedding.load_doc2vec(path, skip=skip)
        assert (part.vocab_size, part.n_docs, part.dim) == (full.vocab_size, full.n_docs, full.dim)
        assert (full.vocab_size, full.n_docs) == (len(vocab), 6)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_unknown_word2vec_mode_flag_rejected(self, tmp_path, flag):
        docs, vocab = cluster_corpus(4)
        path = tmp_path / "model.w2v"
        embedding.save_word2vec(train_word2vec(docs, EmbedTrainConfig(dim=4, epochs=0),
                                               vocab_size=len(vocab)), path)
        data = bytearray(path.read_bytes())
        data[struct.calcsize(embedding._W2V_HEADER) - 1] = flag
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as exc:
            embedding.load_word2vec(path)
        assert str(exc.value) == f"unknown mode flag {flag} in word2vec model file: {path}"

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_unknown_doc2vec_combine_flag_rejected(self, tmp_path, flag):
        # an average-mode file: read as concatenate, its size would not match
        docs, vocab = cluster_corpus(4)
        path = tmp_path / "model.d2v"
        embedding.save_doc2vec(train_doc2vec(docs, EmbedTrainConfig(dim=4, epochs=0),
                                             vocab_size=len(vocab)), path)
        data = bytearray(path.read_bytes())
        data[struct.calcsize(embedding._D2V_HEADER) - 1] = flag
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as exc:
            embedding.load_doc2vec(path)
        assert str(exc.value) == f"unknown combine flag {flag} in doc2vec model file: {path}"

    @pytest.mark.parametrize("kind, offset, value", [
        ("word2vec", struct.calcsize(embedding._W2V_HEADER), np.inf),  # first input value
        ("doc2vec", -4, np.nan),                                       # last noise probability
    ], ids=["word2vec", "doc2vec"])
    def test_non_finite_values_rejected(self, tmp_path, kind, offset, value):
        docs, vocab = cluster_corpus(4)
        train = train_word2vec if kind == "word2vec" else train_doc2vec
        path = tmp_path / "model"
        getattr(embedding, "save_" + kind)(
            train(docs, EmbedTrainConfig(dim=4, epochs=1), vocab_size=len(vocab)), path)
        data = bytearray(path.read_bytes())
        offset %= len(data)
        data[offset: offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"non-finite values in {kind} model file"):
            getattr(embedding, "load_" + kind)(path)
        if kind == "doc2vec":
            # a skipped matrix is never read, so never checked
            assert embedding.load_doc2vec(path, skip=("noise_probs",)).noise_probs is None

    def test_export_text_format(self, tmp_path):
        vocab = corpus.build_vocabulary([["aa", "bb", "aa"]], min_count=1)
        matrix = np.array([[0.5, -1.25], [0.0, 2.0], [1.0, 1.0], [3.0, -3.0]])
        path = tmp_path / "vectors.txt"
        embedding.export_text(matrix, vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "aa 0.500000 -1.250000"
        assert lines[1] == "bb 0.000000 2.000000"
        assert lines[2] == "<LF> 1.000000 1.000000"
        assert lines[3] == "<NUM> 3.000000 -3.000000"

    @pytest.mark.parametrize("damage", ["trailing", "truncated", "huge_header"])
    def test_size_checked_against_header(self, tmp_path, damage):
        docs, vocab = cluster_corpus(4)
        path = tmp_path / "model.w2v"
        embedding.save_word2vec(train_word2vec(docs, EmbedTrainConfig(dim=4, epochs=0),
                                               vocab_size=len(vocab)), path)
        data = path.read_bytes()
        if damage == "trailing":
            data += b"\0" * 8
        elif damage == "truncated":
            data = data[:-1]
        else:  # 2**32 - 1 rows: rejected by size, never read
            data = data[:4] + (2**32 - 1).to_bytes(4, "little") + data[8:]
        path.write_bytes(data)
        with pytest.raises(ValueError, match="its header implies"):
            embedding.load_word2vec(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.w2v"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError):
            embedding.load_word2vec(path)
