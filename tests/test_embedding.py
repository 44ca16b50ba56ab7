"""Word2vec / doc2vec tests: finite-difference gradients for the
negative-sampling steps that training and inference run, the one training
step against the separate reference steps, folded inference against the
unfolded step, cluster-structure checks, the analogy operation, and
binary model round-trips."""

import collections
import copy
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import embedding_reference as reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def one_step(rows):
    """The `_step_buffers` of a block of one step whose output rows are
    `rows`, target first, its negatives, the rows after the target, and
    its keep, 0.0 for a negative that hits the target, as `_train` builds it."""
    rows = np.asarray(rows)
    return embedding._step_buffers([1], len(rows) - 1), rows[1:], block_keep(rows[:1], rows[1:])


def block_keep(targets, negatives):
    """The keep (a, 1+m) of steps with `targets` (a,) that share `negatives`."""
    keep = np.ones((len(targets), 1 + len(negatives)))
    keep[:, 1:] = np.not_equal(np.asarray(targets)[:, None], negatives)
    return keep


def word_step(model, inputs, rows, lr, repeats=None):
    """The step that word2vec training runs: `inputs` is a skip-gram center
    id, the step's one input row, or a CBOW context list.  (`repeats` is
    what the reference steps take.)"""
    inputs = [inputs] if isinstance(inputs, int) else list(inputs)
    embedding._input_step(model.input_matrix, model.output_matrix,
                          embedding._inputs(inputs, rows[:1]), *one_step(rows), lr)


def dm_step(model, doc_vec, context, rows, lr, repeats=None):
    """The step that doc2vec training runs for `doc_vec` at a position
    whose preceding words are `context`: the doc vector is input row V
    after the word rows.  Updates the model and `doc_vec` in place."""
    X = np.vstack((model.word_matrix, doc_vec))
    inputs = embedding._dm_inputs([len(X) - 1], [list(context)], rows[:1], model.window,
                                  model.combine is CombineMode.AVERAGE)
    embedding._input_step(X, model.output_matrix, inputs, *one_step(rows), lr)
    model.word_matrix[...], doc_vec[...] = X[:-1], X[-1]


@pytest.fixture
def hidden_vectors(monkeypatch):
    """The negated hidden vectors that the training steps pass to
    `_ns_update`, in order, one a step."""
    seen, update = [], embedding._ns_update
    def record(output_matrix, nh, *args):
        seen.extend(nh.copy())
        return update(output_matrix, nh, *args)
    monkeypatch.setattr(embedding, "_ns_update", record)
    return seen


class TestNegativeSamplingStep:
    """`_input_step` as word2vec training runs it."""

    def test_zero_matrices_loss(self):
        model = zero_model(4, 3)
        rows, repeats = step_rows(1, [2])
        scores = model.output_matrix[rows] @ model.input_matrix[0]
        word_step(model, 0, rows, 0.0, repeats)
        assert not scores.any()
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
        # the scores at the parameters before the step, as the step computes
        # them: negated, from the negated hidden vector
        returned = -(model.output_matrix[rows] @ np.negative(model.input_matrix[1]))
        word_step(model, 1, rows, 0.1, repeats)
        after = nss_loss_oracle(model, 1, 2, [3, 4])
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
        word_step(model, arg, rows, 1.0, repeats)
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
        word_step(model, 1, rows, 0.5, repeats)
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
    """`_input_step` as doc2vec training runs it, and `_frozen_window`, the
    steps that inference runs."""

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
    def test_gradients_match_finite_differences(self, case, hidden_vectors):
        # [2, 2, 5], [3, 3, 1] and [0, 0] take the repeated-row update
        combine, context, target, negatives = case
        n_missing = self.WINDOW - len(context)
        rows, repeats = step_rows(target, negatives)
        # analytic gradient, extracted exactly from one unit-lr update
        model, doc_vec = self.fresh(combine)
        before = (doc_vec.copy(), model.word_matrix.copy(), model.output_matrix.copy())
        out_before = model.output_matrix[rows]
        dm_step(model, doc_vec, context, rows, 1.0, repeats)
        # the scores at the parameters before the step, from the step's negated hidden vector
        scores = out_before @ -hidden_vectors[0]
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
    @pytest.mark.parametrize("lone", [True, False], ids=["dot", "matmul"])
    def test_frozen_words_update_only_the_doc_vector(self, case, lone):
        # in both of inference's plan shapes: a lone document, every array
        # without its batch axis and ndarray.dot, or the second of a batch
        # of three and np.matmul; the other two take steps of their own
        combine, context, target, negatives = case
        rows, repeats = step_rows(target, negatives)
        trained, trained_vec = self.fresh(combine)
        dm_step(trained, trained_vec, context, rows, 0.5, repeats)
        model, doc_vec = self.fresh(combine)
        before = (model.word_matrix.copy(), model.doc_matrix.copy(),
                  model.output_matrix.copy())
        # the weight of the doc row in training's plan
        scale = embedding._dm_inputs([model.vocab_size], [context], [target], self.WINDOW,
                                     combine is CombineMode.AVERAGE)[3]
        B, b = (1, 0) if lone else (3, 1)
        buffers = G, K, H, vecs, *_ = embedding._block_buffers(
            1, B, len(rows) - 1, model.output_matrix.shape[1], model.dim)
        r = np.random.default_rng(3)
        G[...] = r.normal(scale=0.4, size=G.shape)
        vecs[...] = r.normal(scale=0.4, size=vecs.shape)
        G[0, b], vecs[b] = model.output_matrix[rows], doc_vec
        # the last position of documents that are the context and the target
        i = len(context)
        alpha, frozen = embedding._frozen_context(
            model, np.array([[*context, target]] * B), np.ones((B, i + 1), dtype=bool))
        assert alpha[i, 0, 0, 0] == -scale
        # keep times -lr * alpha, in one step group of B documents
        K[0] = -0.5 * alpha[i, 0, 0, 0]
        groups = embedding._step_groups(buffers, ((B, alpha[i, 0, 0, 0]),))
        assert len(groups) == 1 and groups[0][0] is (np.ndarray.dot if lone else np.matmul)
        # the frozen context fills h's context columns: all of them in average mode
        slots = H[None, ..., H.shape[2] - frozen.shape[2]:, 0]
        embedding._frozen_window(G[None], slots, frozen[i:, ..., 0], groups)
        for matrix, copy_before in zip((model.word_matrix, model.doc_matrix,
                                        model.output_matrix), before):
            assert np.array_equal(matrix, copy_before)
        # the doc vector takes training's step, but for rounding
        assert np.abs(vecs[b] - trained_vec).max() <= 1e-12 * np.abs(trained_vec).max()
        assert np.abs(vecs[b] - doc_vec).max() > 1e-6


def test_step_rows_match_one_draw_per_step():
    # rows from uniform draws made in one call, against m draws per step
    # from the same stream: target first, then every draw, a hit kept at
    # 0.0.  Training's layout, (steps, m) with a target a step, and
    # inference's, (passes, positions, B, m) with targets (positions, B)
    # that every pass shares.
    cdf = np.cumsum([0.3, 0.3, 0.2, 0.2])
    targets = np.array([0, 1, 2, 3, 1, 0, 2, 2] * 5)
    for shape, step_targets in (((40,), targets), ((2, 5, 4), targets[:20].reshape(5, 4))):
        uniform = np.random.default_rng(4).random(shape + (5,))
        rows, keep = embedding._step_rows(uniform, cdf, step_targets)
        assert rows.shape == shape + (6,) and keep.shape == shape + (6, 1)
        rng, hits = np.random.default_rng(4), 0
        for target, step, step_keep in zip(np.broadcast_to(step_targets, shape).ravel(),
                                           rows.reshape(-1, 6), keep.reshape(-1, 6)):
            draws = np.searchsorted(cdf, rng.random(5), side="right")
            assert step.tolist() == [target, *draws]
            assert step_keep.tolist() == [1.0] + [float(j != target) for j in draws]
            hits += (draws == target).any()
        assert 0 < hits < 40


class TestRepeatedRows:
    """A row that repeats, among the output rows or in a context, takes its
    updates in index order: the same bytes as np.add.at."""

    @pytest.mark.parametrize("rows", [[1, 4, 4, 2], [1, 4, 4, 4, 2], [3, 0, 3, 0, 3],
                                      [[1, 4, 2], [4, 2, 4]], [[5], [5], [5]]])
    def test_scatter_add_matches_add_at_and_the_row_chain(self, rows):
        # np.add.at on flat indices: one row of delta per entry, the entries
        # of a block of steps in (step, row) order; one step's rows give the
        # bytes of the sequential steps' row chain
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(6, 5))
        rows = np.array(rows)
        delta = rng.normal(size=rows.shape + (5,))
        expected = matrix.copy()
        np.add.at(expected, rows, delta)
        chained = matrix.copy()
        width = rows.shape[-1]
        for step, step_delta in zip(rows.reshape(-1, width), delta.reshape(-1, width, 5)):
            reference._add_rows(chained, step, chained[step], step_delta,
                                reference._repeats(step.tolist()))
        embedding._scatter_add(matrix, rows, delta)
        assert np.array_equal(matrix, expected)
        assert np.array_equal(matrix, chained)

    @staticmethod
    def add_at_step(output_matrix, h, rows, lr):
        """The negative-sampling step with every row update by np.add.at,
        the target's score and gradient term apart from the negatives'."""
        out = output_matrix[rows]
        g = 1.0 / (1.0 + np.exp(-np.r_[out[0] @ h, out[1:] @ h]))
        g[0] -= 1.0
        np.add.at(output_matrix, rows, (-lr * g)[:, None] * h)
        return g[1:] @ out[1:] + g[0] * out[0]

    @pytest.mark.parametrize("context", [[2, 2, 5], [2, 2, 2], [0, 5, 3]])
    @pytest.mark.parametrize("negatives", [[4, 4], [4, 4, 4], [3, 4]])
    def test_cbow_step_matches_add_at(self, context, negatives):
        r = np.random.default_rng(11)
        model = WordEmbeddingModel(input_matrix=r.normal(scale=0.4, size=(6, 4)),
                                   output_matrix=r.normal(scale=0.4, size=(6, 4)),
                                   mode=Word2VecMode.CBOW, window=2, negatives=3, dim=4)
        X, O = model.input_matrix.copy(), model.output_matrix.copy()
        grad_h = self.add_at_step(O, X[context].mean(axis=0), [1, *negatives], 0.3)
        # the step's rounding: the rate's product, then the mean's weight
        np.add.at(X, context, -0.3 * grad_h * (1.0 / len(context)))
        rows, repeats = step_rows(1, negatives)
        word_step(model, context, rows, 0.3, repeats)
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
        dm_step(model, doc_vec, context, rows, 0.3, repeats)
        assert np.array_equal(doc_vec, vec)
        assert np.array_equal(model.word_matrix, W)
        assert np.array_equal(model.output_matrix, O)


class TestSharedNegatives:
    """The steps of one `_input_step` share their m negatives: two
    skip-gram steps, from centers 1 and 4 (or 1 twice) to targets 2 and 3,
    whose shared negatives hit step 0's target."""

    TARGETS, NEGATIVES = [2, 3], [2, 5]

    @staticmethod
    def matrices():
        r = np.random.default_rng(5)
        return r.normal(scale=0.4, size=(6, 3)), r.normal(scale=0.4, size=(6, 3))

    @staticmethod
    def block_step(X, O, lr, centers, targets, negatives):
        """One `_input_step` of skip-gram steps that share `negatives`,
        as training runs it: a negative that hits a step's target gets no
        gradient in that step."""
        embedding._input_step(X, O, embedding._inputs(np.array(centers)[:, None], targets),
                              embedding._step_buffers([len(targets)], len(negatives)),
                              np.array(negatives), block_keep(targets, negatives), lr)

    def test_a_hit_gets_no_gradient_in_its_step_only(self):
        X, O = self.matrices()
        h, before = X[[1, 4]].copy(), O.copy()
        self.block_step(X, O, 1.0, [1, 4], self.TARGETS, self.NEGATIVES)

        def s(row, j):
            return sigma(float(before[row] @ h[j]))
        # row 2 is step 0's target, which skips it as a negative, and step
        # 1's negative; row 5 is a negative of both steps
        np.testing.assert_allclose(O[2], before[2] - (s(2, 0) - 1) * h[0] - s(2, 1) * h[1],
                                   rtol=1e-12)
        np.testing.assert_allclose(O[5], before[5] - s(5, 0) * h[0] - s(5, 1) * h[1],
                                   rtol=1e-12)
        np.testing.assert_allclose(
            X[1], h[0] - (s(2, 0) - 1) * before[2] - s(5, 0) * before[5], rtol=1e-12)
        np.testing.assert_allclose(
            X[4], h[1] - (s(3, 1) - 1) * before[3] - s(2, 1) * before[2] - s(5, 1) * before[5],
            rtol=1e-12)
        for row in (0, 1, 4):
            assert np.array_equal(O[row], before[row])

    @pytest.mark.parametrize("centers", [[1, 4], [1, 1]])
    def test_gradients_match_finite_differences(self, centers):
        # the block's loss is the sum of its steps' losses at the
        # parameters before it, each without the negative that hits its target
        def loss(X, O):
            return sum(ns_loss_oracle(O, X[c], t, [n for n in self.NEGATIVES if n != t])
                       for c, t in zip(centers, self.TARGETS))
        X, O = self.matrices()
        self.block_step(X, O, 1.0, centers, self.TARGETS, self.NEGATIVES)
        X0, O0 = self.matrices()
        eps = 1e-5
        for matrix, grad in ((X0, X0 - X), (O0, O0 - O)):
            for idx in np.ndindex(matrix.shape):
                orig = matrix[idx]
                matrix[idx] = orig + eps
                up = loss(X0, O0)
                matrix[idx] = orig - eps
                down = loss(X0, O0)
                matrix[idx] = orig
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-10) < 1e-5, idx

    def test_a_negative_drawn_twice_adds_both_updates_in_order(self, monkeypatch):
        scattered, scatter = [], embedding._scatter_add

        def record(matrix, rows, delta):
            scattered.append((rows.copy(), delta.copy()))
            scatter(matrix, rows, delta)
        monkeypatch.setattr(embedding, "_scatter_add", record)
        deltas = {}
        for negatives in ([5, 5], [5]):
            X, O = self.matrices()
            scattered.clear()
            self.block_step(X, O, 0.3, [1, 4], self.TARGETS, negatives)
            (rows, delta), _ = scattered        # the output rows, then the input rows
            assert rows.tolist() == self.TARGETS + negatives
            deltas[len(negatives)] = delta
            expected = self.matrices()[1]
            for row, step in zip(rows, delta):
                expected[row] += step
            assert np.array_equal(O, expected)
        # each draw of row 5 takes the update of one draw
        twice, once = deltas[2], deltas[1]
        assert np.array_equal(twice[2], twice[3]) and np.abs(twice[2]).min() > 0
        np.testing.assert_allclose(twice[2:], np.vstack((once[2], once[2])), rtol=1e-12)

    @pytest.mark.parametrize("train, mode", [(train_doc2vec, CombineMode.AVERAGE),
                                             (train_doc2vec, CombineMode.CONCATENATE),
                                             (train_word2vec, Word2VecMode.CBOW),
                                             (train_word2vec, Word2VecMode.SKIPGRAM)])
    def test_a_block_position_gathers_and_scatters_a_plus_m_output_rows(self, monkeypatch,
                                                                        train, mode):
        # the kernel's output rows: the a steps' targets and the m shared
        # negatives, where each step drawing its own would be a * (1 + m)
        calls, update, scatter = [], embedding._ns_update, embedding._scatter_add
        outputs = set()

        def record_update(output_matrix, nh, rows, keep, lr):
            outputs.add(id(output_matrix))
            calls.append([len(nh), rows.size, keep.shape])
            return update(output_matrix, nh, rows, keep, lr)

        def record_scatter(matrix, rows, delta):
            if id(matrix) in outputs:
                calls[-1].append(rows.size)
            scatter(matrix, rows, delta)
        monkeypatch.setattr(embedding, "_ns_update", record_update)
        monkeypatch.setattr(embedding, "_scatter_add", record_scatter)
        docs, vocab = cluster_corpus(12)
        m = 4
        train(docs, EmbedTrainConfig(dim=6, window=3, negatives=m, epochs=1, seed=3), mode,
              vocab_size=len(vocab))
        assert calls and max(a for a, *_ in calls) > 1
        for a, gathered, keep, scattered in calls:
            assert gathered == scattered == a + m
            assert keep == (a, 1 + m)


class TestAgainstReference:
    """The one input step against the separate word2vec and
    distributed-memory steps it replaced (`embedding_reference`): bit for
    bit for skip-gram and for DM in both combine modes.  CBOW agrees to
    rounding only: its step is the rate's product times the mean's weight,
    where the reference divided by the count."""

    V = 7

    @classmethod
    def matrices(cls, seed, rows, d, out_dim):
        r = np.random.default_rng(seed)
        return r.normal(scale=0.4, size=(rows, d)), r.normal(scale=0.4, size=(cls.V, out_dim))

    @staticmethod
    def keep(rows):
        # a negative that hits the target gets no gradient
        return np.r_[1.0, rows[1:] != rows[0]]

    @staticmethod
    def last(context, window):
        # a position's preceding words: at most `window`
        return context[max(0, len(context) - window):]

    STEP = dict(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), window=st.integers(1, 4),
                context=st.lists(st.integers(0, 6), max_size=5), target=st.integers(0, 6),
                negatives=st.lists(st.integers(0, 6), min_size=1, max_size=6),
                lr=st.floats(1e-3, 1.0))

    @settings(max_examples=150, deadline=None)
    @given(combine=st.sampled_from(list(CombineMode)), **STEP)
    @example(combine=CombineMode.AVERAGE, seed=1, d=3, window=3, context=[], target=2,
             negatives=[2, 2], lr=0.5)
    @example(combine=CombineMode.AVERAGE, seed=2, d=4, window=4, context=[5, 1, 5, 3], target=1,
             negatives=[0, 1, 0], lr=0.3)
    @example(combine=CombineMode.CONCATENATE, seed=3, d=2, window=4, context=[4, 4], target=4,
             negatives=[4, 6, 6], lr=0.3)
    def test_dm_step_matches_reference(self, combine, seed, d, window, context, target,
                                       negatives, lr):
        V, average = self.V, combine is CombineMode.AVERAGE
        context = self.last(context, window)
        X, O = self.matrices(seed, V + 3, d, d if average else d * (1 + window))
        rows, repeats = step_rows(target, negatives)
        # the reference holds the three doc rows apart from the word rows
        model = DocEmbeddingModel(word_matrix=X[:V].copy(), doc_matrix=X[V:].copy(),
                                  output_matrix=O.copy(), combine=combine, window=window,
                                  negatives=len(negatives), dim=d)
        position = reference._dm_position(model, context, window - len(context))
        reference._dm_update(model, model.doc_matrix[1], position, rows, lr, repeats,
                             self.keep(rows))
        embedding._input_step(X, O, embedding._dm_inputs([V + 1], [context], [target], window,
                                                          average), *one_step(rows), lr)
        assert np.array_equal(X[:V], model.word_matrix)
        assert np.array_equal(X[V:], model.doc_matrix)
        assert np.array_equal(O, model.output_matrix)

    @settings(max_examples=150, deadline=None)
    @given(mode=st.sampled_from(list(Word2VecMode)), center=st.integers(0, 6), **STEP)
    @example(mode=Word2VecMode.SKIPGRAM, center=3, seed=1, d=3, window=2, context=[],
             target=3, negatives=[3, 3], lr=0.5)
    @example(mode=Word2VecMode.CBOW, center=0, seed=2, d=4, window=3, context=[2, 2, 5],
             target=2, negatives=[0, 2, 0], lr=0.3)
    def test_word_step_matches_reference(self, mode, center, seed, d, window, context, target,
                                         negatives, lr):
        # a CBOW context holds up to `window` words on each side of the center
        context = self.last(context, 2 * window) or [center]
        X, O = self.matrices(seed, self.V, d, d)
        model = WordEmbeddingModel(input_matrix=X.copy(), output_matrix=O.copy(), mode=mode,
                                   window=window, negatives=len(negatives), dim=d)
        rows, repeats = step_rows(target, negatives)
        inputs = center if mode is Word2VecMode.SKIPGRAM else context
        reference._word_step(model, inputs if isinstance(inputs, int)
                             else reference._context(inputs), rows, lr, repeats, self.keep(rows))
        embedding._input_step(X, O, embedding._inputs([center] if mode is Word2VecMode.SKIPGRAM
                                                      else context, rows[:1]),
                              *one_step(rows), lr)
        # the output rows see the same hidden vector and gradient either way
        assert np.array_equal(O, model.output_matrix)
        if mode is Word2VecMode.SKIPGRAM:
            assert np.array_equal(X, model.input_matrix)
        else:
            np.testing.assert_allclose(X, model.input_matrix, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_doc2vec_training_matches_reference(self, monkeypatch, combine):
        # whole runs at a block of one document: the doc rows drawn after
        # the word rows in one call, the plan of every position, and the
        # schedule
        docs, vocab = cluster_corpus(6)
        cfg = EmbedTrainConfig(dim=5, window=3, negatives=4, epochs=2, seed=3)
        monkeypatch.setattr(embedding, "TRAIN_BLOCK", 1)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        ref, rng = reference_start(model, len(docs), cfg)
        reference._dm_train(ref, [doc.tokens for doc in docs], cfg.epochs, cfg.learning_rate,
                            cfg.min_learning_rate, rng)
        for name in ("word_matrix", "doc_matrix", "output_matrix"):
            assert np.array_equal(getattr(model, name), getattr(ref, name)), name

    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_hits_round_like_the_sequential_steps(self, monkeypatch, combine):
        # At a block of one document a draw that hits its target stays
        # among the output rows with no gradient, where the sequential
        # steps dropped it; BLAS then sums the gradient over one more
        # (zero) term, which may move the last bit at wider dimensions.
        docs, vocab = cluster_corpus(6)
        cfg = EmbedTrainConfig(dim=100, window=3, negatives=5, epochs=2, seed=3)
        monkeypatch.setattr(embedding, "TRAIN_BLOCK", 1)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        ref, rng = reference_start(model, len(docs), cfg)
        reference._dm_train(ref, [doc.tokens for doc in docs], cfg.epochs, cfg.learning_rate,
                            cfg.min_learning_rate, rng)
        for name in ("word_matrix", "doc_matrix", "output_matrix"):
            a, b = getattr(model, name), getattr(ref, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    @pytest.mark.parametrize("d", [5, 100])
    def test_cbow_training_rounds_like_the_sequential_steps(self, monkeypatch, d):
        # At a block of one document every position is one step of one
        # window: the sequential steps, apart from the rounding of CBOW's
        # step and of a hit row.
        docs, vocab = cluster_corpus(6)
        cfg = EmbedTrainConfig(dim=d, window=3, negatives=5, epochs=2, seed=3)
        monkeypatch.setattr(embedding, "TRAIN_BLOCK", 1)
        model = train_word2vec(docs, cfg, Word2VecMode.CBOW, vocab_size=len(vocab))
        ref, rng = word_reference_start(len(vocab), Word2VecMode.CBOW, cfg)
        k, tokens = cfg.window, [doc.tokens for doc in docs]
        plan = [reference._context(t[max(0, i - k): i] + t[i + 1: i + k + 1])
                for t in tokens for i in range(len(t))]
        for inputs, (rows, repeats), lr in reference._schedule(
                plan, np.concatenate(tokens), np.arange(len(plan)), cfg.epochs, rng,
                word_noise_cdf(docs, len(vocab)), cfg.negatives, cfg.learning_rate,
                cfg.min_learning_rate):
            reference._word_step(ref, inputs, rows, lr, repeats)
        for name in ("input_matrix", "output_matrix"):
            a, b = getattr(model, name), getattr(ref, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def word_reference_start(vocab_size, mode, cfg):
    """A reference word2vec model at the initialization of a training run
    of `cfg`, and the generator in the state that training drew from
    next."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    ref = WordEmbeddingModel(input_matrix=(rng.random((vocab_size, d)) - 0.5) / d,
                             output_matrix=np.zeros((vocab_size, d)), mode=mode,
                             window=cfg.window, negatives=cfg.negatives, dim=d)
    return ref, rng


def word_noise_cdf(docs, vocab_size):
    return embedding._noise_cdf(embedding._unigram_noise(docs, vocab_size))


def reference_start(model, n_docs, cfg):
    """A reference model at the initialization of `model`'s training run,
    and the generator in the state that training drew from next."""
    rng = np.random.default_rng(cfg.seed)
    V, d = model.vocab_size, cfg.dim
    ref = DocEmbeddingModel(word_matrix=(rng.random((V, d)) - 0.5) / d,
                            doc_matrix=(rng.random((n_docs, d)) - 0.5) / d,
                            output_matrix=np.zeros_like(model.output_matrix),
                            combine=model.combine, window=cfg.window, negatives=cfg.negatives,
                            dim=d, noise_probs=model.noise_probs)
    return ref, rng


class TestBlockTraining:
    """Training advances blocks of TRAIN_BLOCK documents in lockstep, the
    steps of a block position sharing their negatives: DM against
    `embedding_reference._dm_block_train`, one document-position at a
    time, and CBOW and skip-gram against `_word_block_train`, one step at
    a time.  A shared negative's row takes the sum of its steps' deltas
    from one product, where the references add them step by step, so the
    runs agree to 1e-12 of the largest entry; bit for bit where every
    block position is one step (DM and CBOW at a block of one)."""

    @staticmethod
    def corpus(lengths, vocab_size, seed):
        r = np.random.default_rng(seed)
        return [TokenizedDocument(j, r.integers(0, vocab_size, n).tolist())
                for j, n in enumerate(lengths)]

    @staticmethod
    def assert_matches(model, ref, names, exact):
        for name in names:
            a, b = getattr(model, name), getattr(ref, name)
            if exact:
                assert np.array_equal(a, b), name
            else:
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    CASES = {
        # documents that end at different positions, in two blocks
        "ragged": ([5, 1, 9, 3, 7, 2, 8, 4, 6, 12, 1], 12),
        # two words: rows repeat across the block and within one step, and
        # draws hit their targets
        "two-words": ([6, 4, 7, 5, 6, 3, 7, 2, 5], 2),
        # every position of a block is its last
        "one-token": ([1] * 11, 5),
    }
    # word2vec skips documents of one token: here they sit between documents
    # of two, every window of which an end cuts
    WORD_CASES = dict(CASES, **{"one-token": ([1, 2] * 6, 5)})

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("combine", list(CombineMode))
    @pytest.mark.parametrize("block", [None, 3, 1])
    def test_matches_lockstep_reference(self, monkeypatch, case, combine, block):
        if block is not None:
            monkeypatch.setattr(embedding, "TRAIN_BLOCK", block)
        lengths, V = self.CASES[case]
        docs = self.corpus(lengths, V, seed=len(case))
        cfg = EmbedTrainConfig(dim=7, window=2, negatives=4, epochs=3, learning_rate=0.2,
                               seed=11)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=V)
        ref, rng = reference_start(model, len(docs), cfg)
        reference._dm_block_train(ref, [doc.tokens for doc in docs], cfg.epochs,
                                  cfg.learning_rate, cfg.min_learning_rate, rng,
                                  embedding.TRAIN_BLOCK)
        self.assert_matches(model, ref, ("word_matrix", "doc_matrix", "output_matrix"),
                            exact=block == 1)

    def test_block_changes_the_result(self):
        # the blocks are not the sequential steps in another guise
        docs = self.corpus(self.CASES["ragged"][0], 12, seed=1)
        cfg = EmbedTrainConfig(dim=7, window=2, negatives=4, epochs=3, seed=11)
        model = train_doc2vec(docs, cfg, vocab_size=12)
        with mock.patch.object(embedding, "TRAIN_BLOCK", 1):
            sequential = train_doc2vec(docs, cfg, vocab_size=12)
        assert embedding.TRAIN_BLOCK > 1
        assert not np.array_equal(model.doc_matrix, sequential.doc_matrix)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("mode", list(Word2VecMode))
    @pytest.mark.parametrize("block", [None, 3, 1])
    def test_word2vec_matches_lockstep_reference(self, monkeypatch, case, mode, block):
        if block is not None:
            monkeypatch.setattr(embedding, "TRAIN_BLOCK", block)
        lengths, V = self.WORD_CASES[case]
        docs = self.corpus(lengths, V, seed=len(case))
        cfg = EmbedTrainConfig(dim=7, window=2, negatives=4, epochs=3, learning_rate=0.2,
                               seed=11)
        model = train_word2vec(docs, cfg, mode, vocab_size=V)
        ref, rng = word_reference_start(V, mode, cfg)
        reference._word_block_train(ref, [doc.tokens for doc in docs], word_noise_cdf(docs, V),
                                    cfg.epochs, cfg.learning_rate, cfg.min_learning_rate, rng,
                                    embedding.TRAIN_BLOCK)
        # at a block of one, skip-gram still takes a center's window in one position
        self.assert_matches(model, ref, ("input_matrix", "output_matrix"),
                            exact=block == 1 and mode is Word2VecMode.CBOW)

    @pytest.mark.parametrize("mode", list(Word2VecMode))
    def test_word2vec_block_changes_the_result(self, mode):
        docs = self.corpus(self.CASES["ragged"][0], 12, seed=1)
        cfg = EmbedTrainConfig(dim=7, window=2, negatives=4, epochs=3, seed=11)
        model = train_word2vec(docs, cfg, mode, vocab_size=12)
        with mock.patch.object(embedding, "TRAIN_BLOCK", 1):
            sequential = train_word2vec(docs, cfg, mode, vocab_size=12)
        assert embedding.TRAIN_BLOCK > 1
        assert not np.array_equal(model.input_matrix, sequential.input_matrix)


class TestTrainChunk:
    """Training draws the negatives of the plan entries that start in a
    run of STEP_CHUNK steps at a time, across documents, in slices that
    restart at each epoch; the chunk size must not change a single byte."""

    @pytest.mark.parametrize("train, mode", [
        (train_word2vec, Word2VecMode.CBOW),
        (train_word2vec, Word2VecMode.SKIPGRAM),
        (train_doc2vec, CombineMode.AVERAGE),
        (train_doc2vec, CombineMode.CONCATENATE),
    ])
    @pytest.mark.parametrize("block", [1, None])
    def test_chunk_size_changes_nothing(self, monkeypatch, train, mode, block):
        # Six documents of 20 tokens, two epochs.  A chunk of 1 step draws
        # per plan entry (a block position, or CBOW's windows of one size
        # there); 7 steps are less than a document's, so slices end inside
        # documents, and the last slice of an epoch is shorter; 10**6 steps
        # hold every entry of an epoch in one draw.  The block
        # governs all three models; at a block of 1, skip-gram still takes
        # a center's window in one entry.
        if block is not None:
            monkeypatch.setattr(embedding, "TRAIN_BLOCK", block)
        docs, vocab = cluster_corpus(6)
        cfg = EmbedTrainConfig(dim=6, window=3, negatives=4, epochs=2, seed=3)
        fields = ("input_matrix", "output_matrix", "word_matrix", "doc_matrix")
        results = []
        for chunk in (10 ** 6, 1, 7):
            monkeypatch.setattr(embedding, "STEP_CHUNK", chunk)
            model = train(docs, cfg, mode, vocab_size=len(vocab))
            results.append([getattr(model, f) for f in fields if hasattr(model, f)])
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("train, mode", [(train_word2vec, Word2VecMode.SKIPGRAM),
                                         (train_doc2vec, CombineMode.CONCATENATE)])
def test_flat_index_tables_freed_after_training(train, mode):
    # the tables are as large as the matrices: a finished run keeps none
    docs, vocab = cluster_corpus(6)
    cfg = EmbedTrainConfig(dim=6, window=3, negatives=4, epochs=1, seed=3)
    train(docs, cfg, mode, vocab_size=len(vocab))
    assert embedding._flat_index.cache_info().currsize == 0


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

    def test_plan_keeps_no_padded_block_copy(self):
        # 400 documents of 60 tokens, one epoch.  Targets kept as views of
        # each block position's padded token copy held every copy until the
        # plan was built: a tracemalloc peak of about 13.7 MB.  Entries that
        # own their targets peak at about 2.5 MB.
        docs_raw, _ = datasets.two_topic_docs(400, tokens_per_topic=50, doc_len=60)
        vocab = corpus.build_vocabulary(docs_raw, min_count=1)
        docs = corpus.encode_corpus(docs_raw, vocab)
        cfg = EmbedTrainConfig(dim=8, window=5, negatives=5, epochs=1, seed=0)
        tracemalloc.start()
        try:
            model = train_doc2vec(docs, cfg, vocab_size=len(vocab))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(model.doc_matrix))
        assert peak < 6 * 2**20


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

    def test_large_output_rows_infer_without_warning(self):
        # exp overflows to inf in the step, whose sigmoid then saturates;
        # the test config turns the RuntimeWarning that would print into an error
        big = copy.copy(self.model)
        big.output_matrix = self.model.output_matrix * 1e20
        vecs = embedding.infer_doc_vectors(big, self.docs[:3], steps=5, seed=1)
        assert np.isfinite(vecs).all()


def mixed_length_docs(docs, n, shortest=1):
    """Prefixes of shortest..n tokens (at most the whole document) of the
    given documents, in mixed order."""
    out = [TokenizedDocument(j, docs[j % len(docs)].tokens[:length])
           for j, length in enumerate(range(shortest, n + 1))]
    return out[1::2] + out[::2]


class TestInferDocVectors:
    """Lockstep inference: every row is the document's own vector, whatever
    else is in the batch."""

    @pytest.mark.parametrize("dim", [7, 100])
    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_rows_equal_single_inference(self, combine, dim):
        # A lone document, and the batch's last position (one document of
        # 20 tokens), step on 2-D views through ndarray.dot; the batch's other
        # positions through np.matmul.  At dim 100 (400 output columns in
        # concatenate mode) BLAS blocks the products as the benchmark does.
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=dim, window=3, negatives=4, epochs=3, seed=5)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        batch = mixed_length_docs(docs, 20)
        vecs = embedding.infer_doc_vectors(model, batch, steps=6, lr=0.05, seed=3)
        assert vecs.shape == (len(batch), dim)
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
            rows, repeats = step_rows(tokens[i], negatives)
            dm_step(copy.deepcopy(model), vec, context, rows, lr, repeats)
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
        # Seven documents of 4..10 tokens.  With INFER_BLOCK and
        # INFER_WINDOW both `block`, a block of B documents gathers the
        # output rows of block // B positions at once: the last block (B =
        # 1, 4 tokens) has gather windows of `block` positions, so at blocks
        # 2 and 3 a window of several positions ends inside the document.
        # The default block holds all seven.  Every block draws all 5
        # passes at once (STEP_CHUNK // (B * n_max) is at least 14 passes);
        # the next test splits them.
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=7, window=3, negatives=4, epochs=3, seed=5)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        batch = mixed_length_docs(docs, 10, shortest=4)
        whole = embedding.infer_doc_vectors(model, batch, steps=5, seed=4)
        monkeypatch.setattr(embedding, "INFER_BLOCK", block)
        monkeypatch.setattr(embedding, "INFER_WINDOW", block)
        assert np.array_equal(embedding.infer_doc_vectors(model, batch, steps=5, seed=4), whole)

    @pytest.mark.parametrize("cap", [1, 140, 280])
    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_pass_chunks_do_not_change_vectors(self, monkeypatch, combine, cap):
        # Seven documents of 4..10 tokens, 70 positions a pass.  A chunk of
        # STEP_CHUNK position-steps draws the negatives of one pass at a
        # time at cap 1, of two at 140 and of four at 280; 5 steps are a
        # multiple of neither, and the default draws all five at once.
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=7, window=3, negatives=4, epochs=3, seed=5)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        batch = mixed_length_docs(docs, 10, shortest=4)
        whole = embedding.infer_doc_vectors(model, batch, steps=5, seed=4)
        monkeypatch.setattr(embedding, "STEP_CHUNK", cap)
        assert np.array_equal(embedding.infer_doc_vectors(model, batch, steps=5, seed=4), whole)

    def test_memory_bounded_by_positions_not_passes(self):
        # One document of 1,500 tokens, 20 passes, 12 negatives.  Drawing
        # the negatives of all 20 passes at once peaks at about 11.6 MB.  In
        # chunks of STEP_CHUNK position-steps (one pass here) it peaks at
        # about 1.2 MB, half of which is the chunk's draws, rows and keep,
        # which grow with the positions only.
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=4, window=3, negatives=12, epochs=1, seed=5)
        model = train_doc2vec(docs, cfg, vocab_size=len(vocab))
        tokens = [t for doc in docs for t in doc.tokens] * 7
        long = TokenizedDocument(0, tokens[:1500])
        tracemalloc.start()
        try:
            vec = embedding.infer_doc_vectors(model, [long], steps=20, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vec))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_plan_bounded_by_the_gather_window(self, combine):
        # One document of 4,000 tokens, 2 negatives, one pass a chunk.  A
        # plan of views for every position peaked at about 3 MB; planned
        # for one gather window and reused, the steps peak at about 1.1 MB,
        # of which the drawn rows, their hit masks and their rates grow with
        # the positions.
        docs, vocab = cluster_corpus(12)
        cfg = EmbedTrainConfig(dim=4, window=3, negatives=2, epochs=1, seed=5)
        model = train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
        tokens = [t for doc in docs for t in doc.tokens] * 20
        long = TokenizedDocument(0, tokens[:4000])
        tracemalloc.start()
        try:
            vec = embedding.infer_doc_vectors(model, [long], steps=4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vec))
        assert peak < 2 * 2**20

    # an infinite rate returned NaN vectors
    @pytest.mark.parametrize("lr, min_lr", [(-0.5, 1e-4), (0.01, 0.02), (0.025, 0.0),
                                            (math.inf, 1e-4), (0.025, math.inf),
                                            (0.025, math.nan), (math.nan, 1e-4)])
    def test_bad_learning_rates_rejected(self, trained_doc_model, lr, min_lr):
        docs, model = trained_doc_model
        with pytest.raises(ValueError, match="need learning_rate > min_learning_rate > 0"):
            embedding.infer_doc_vectors(model, docs[:2], steps=2, lr=lr, min_lr=min_lr)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_vectors_do_not_depend_on_blas_threads(self, tmp_path):
        # in two processes that differ only in their BLAS thread count: the
        # trained model's bytes in both combine modes, in blocks of
        # TRAIN_BLOCK documents, and the vectors of one document and twenty
        # inferred with it
        docs, vocab = cluster_corpus(12)
        corpus_file, batch = tmp_path / "corpus.json", tmp_path / "batch.json"
        corpus_file.write_text(json.dumps([doc.tokens for doc in docs]))
        batch.write_text(json.dumps([doc.tokens for doc in mixed_length_docs(docs, 20)]))
        script = (
            "import json, sys\n"
            "from qasim import embedding\n"
            "from qasim.corpus import TokenizedDocument\n"
            "def load(path):\n"
            "    return [TokenizedDocument(j, t) for j, t in enumerate(json.load(open(path)))]\n"
            "corpus, docs = load(sys.argv[1]), load(sys.argv[2])\n"
            "cfg = embedding.EmbedTrainConfig(dim=64, window=3, negatives=5, epochs=2, seed=5)\n"
            "for combine in embedding.CombineMode:\n"
            "    model = embedding.train_doc2vec(corpus, cfg, combine=combine,\n"
            "                                    vocab_size=int(sys.argv[3]))\n"
            "    path = sys.argv[4] + combine.value\n"
            "    embedding.save_doc2vec(model, path)\n"
            "    print(open(path, 'rb').read().hex())\n"
            "    model = embedding.load_doc2vec(path)\n"
            "    for batch in (docs[:1], docs):\n"
            "        vecs = embedding.infer_doc_vectors(model, batch, steps=5, seed=3)\n"
            "        print(vecs.tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(embedding.__file__))

        def run(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
            return subprocess.run([sys.executable, "-c", script, str(corpus_file), str(batch),
                                   str(len(vocab)), str(tmp_path / f"{threads}.")], env=env,
                                  capture_output=True, text=True, check=True).stdout

        one = run(1)
        assert len(one.splitlines()) == 6
        assert run(min(2, os.cpu_count())) == one

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_trained_models_do_not_depend_on_blas_threads(self, tmp_path):
        # The shared negatives' products at sizes where OpenBLAS may split
        # them over threads: a skip-gram position of 8 documents holds up
        # to 80 (center, output) pairs, 80 x 256 times 256 x 20 in one
        # product, and a concatenate-mode DM position 8 x 1536 times
        # 1536 x 20.  The models' bytes at 1 and 2 BLAS threads.
        docs, vocab = cluster_corpus(12)
        corpus_file = tmp_path / "corpus.json"
        corpus_file.write_text(json.dumps([doc.tokens for doc in docs]))
        script = (
            "import hashlib, json, sys\n"
            "from qasim import embedding\n"
            "from qasim.corpus import TokenizedDocument\n"
            "corpus = [TokenizedDocument(j, t)\n"
            "          for j, t in enumerate(json.load(open(sys.argv[1])))]\n"
            "cfg = embedding.EmbedTrainConfig(dim=256, window=5, negatives=20, epochs=1, seed=5)\n"
            "V = int(sys.argv[2])\n"
            "for model in (embedding.train_word2vec(corpus, cfg, 'skipgram', vocab_size=V),\n"
            "              embedding.train_doc2vec(corpus, cfg, 'concatenate', vocab_size=V)):\n"
            "    for matrix in vars(model).values():\n"
            "        if hasattr(matrix, 'tobytes'):\n"
            "            print(hashlib.sha256(matrix.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(embedding.__file__))

        def run(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
            return subprocess.run([sys.executable, "-c", script, str(corpus_file),
                                   str(len(vocab))], env=env, capture_output=True, text=True,
                                  check=True).stdout
        one = run(1)
        # skip-gram's two matrices; DM's word, doc and output matrices and noise
        assert len(one.splitlines()) == 6
        assert run(min(2, os.cpu_count())) == one

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
        # named by its id
        with pytest.raises(ValueError, match="^cannot infer a vector for empty document 1$"):
            embedding.infer_doc_vectors(model, [docs[0], TokenizedDocument(1, [])], steps=5)
        with pytest.raises(ValueError, match="steps"):
            embedding.infer_doc_vectors(model, docs[:2], steps=0)

    @pytest.mark.parametrize("steps", [embedding.MAX_INFER_STEPS + 1, 2**63 - 1, 2**63, 10**20])
    def test_steps_above_bound_rejected(self, trained_doc_model, steps):
        # steps * length overflowed int64: silently at 2**63 - 1, with an
        # OverflowError past it; all are rejected before any work
        docs, model = trained_doc_model
        with pytest.raises(ValueError, match=rf"^steps must lie in \[1, "
                                             rf"{embedding.MAX_INFER_STEPS}\], got {steps}$"):
            embedding.infer_doc_vectors(model, docs[:2], steps=steps)

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


def random_doc_model(combine, vocab, dim, window, negatives, seed):
    """A doc2vec model of random matrices and noise, ready for inference."""
    r = np.random.default_rng(seed)
    weights = r.random(vocab) + 0.05
    return DocEmbeddingModel(
        word_matrix=r.normal(scale=0.5, size=(vocab, dim)), doc_matrix=np.zeros((0, dim)),
        output_matrix=r.normal(scale=0.5, size=(
            vocab, dim if combine is CombineMode.AVERAGE else dim * (1 + window))),
        combine=combine, window=window, negatives=negatives, dim=dim,
        noise_probs=weights / weights.sum())


class TestInferenceAgainstReference:
    """`infer_doc_vectors` against the reference step, training's step
    restricted to the doc vector (`embedding_reference.infer_doc_vectors`):
    the same vectors, but for
    rounding, in both combine modes, for lone documents and mixed-length
    batches, at any gather window, of part of a pass or of several
    passes, and any pass chunk."""

    @settings(max_examples=150, deadline=None)
    @given(combine=st.sampled_from(list(CombineMode)), dim=st.integers(3, 100),
           window=st.integers(1, 5), negatives=st.integers(1, 8), vocab=st.integers(2, 12),
           lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
           steps=st.integers(1, 6), block=st.sampled_from([1, 2, 3, 5, 128]),
           gather=st.sampled_from([1, 7, 32]), chunk=st.sampled_from([1, 7, 30, 4096]),
           seed=st.integers(0, 2**16))
    # a lone document shorter than the window, in windows of 2 passes and 1
    @example(CombineMode.AVERAGE, 100, 5, 5, 12, [3], 5, 128, 7, 4096, 1)
    @example(CombineMode.CONCATENATE, 100, 5, 5, 12, [3], 5, 128, 7, 4096, 1)
    # mixed lengths over gather windows that end inside a document, and
    # chunks of one pass
    @example(CombineMode.AVERAGE, 7, 3, 4, 12, [9, 4, 1, 12], 4, 5, 32, 30, 2)
    @example(CombineMode.CONCATENATE, 7, 3, 4, 12, [9, 4, 1, 12], 4, 5, 32, 30, 2)
    # two words: targets drawn as negatives, and repeated negatives, everywhere
    @example(CombineMode.AVERAGE, 5, 2, 8, 2, [6, 6, 2], 3, 2, 32, 7, 3)
    @example(CombineMode.CONCATENATE, 5, 2, 8, 2, [6, 6, 2], 3, 2, 32, 7, 3)
    # a block of 36 documents in gather windows of 128 // 36 = 3 positions,
    # in which documents end
    @example(CombineMode.AVERAGE, 7, 3, 4, 12, [12, 9, 7, 5, 3, 1] * 6, 3, 128, 128, 4096, 5)
    @example(CombineMode.CONCATENATE, 7, 3, 4, 12, [12, 9, 7, 5, 3, 1] * 6, 3, 128, 128, 4096, 5)
    # dim 3 in concatenate mode, lone and in a block: ndarray.dot copies the
    # strided doc columns of the gathered rows where np.matmul reads them in
    # place, and the two round differently at dims 2 and 3
    @example(CombineMode.CONCATENATE, 3, 1, 5, 2, [1, 7], 2, 1, 1, 1, 0)
    def test_matches_unfolded_reference(self, combine, dim, window, negatives, vocab, lengths,
                                        steps, block, gather, chunk, seed):
        model = random_doc_model(combine, vocab, dim, window, negatives, seed)
        r = np.random.default_rng(seed + 1)
        docs = [TokenizedDocument(j, r.integers(0, vocab, n).tolist())
                for j, n in enumerate(lengths)]
        with mock.patch.multiple(reference, INFER_BLOCK=block, STEP_CHUNK=chunk):
            ref = reference.infer_doc_vectors(model, docs, steps=steps, seed=seed)
        with mock.patch.multiple(embedding, INFER_BLOCK=block, STEP_CHUNK=chunk,
                                 INFER_WINDOW=gather):
            new = embedding.infer_doc_vectors(model, docs, steps=steps, seed=seed)
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
        # nor do the gather windows and chunks change a bit
        assert np.array_equal(new, embedding.infer_doc_vectors(model, docs, steps=steps, seed=seed))

    @settings(max_examples=100, deadline=None)
    @given(combine=st.sampled_from(list(CombineMode)), dim=st.integers(1, 9),
           window=st.integers(1, 6), vocab=st.integers(1, 12),
           lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    # 1-token documents, alone and in a block
    @example(CombineMode.AVERAGE, 4, 3, 5, [1], 0)
    @example(CombineMode.AVERAGE, 4, 3, 5, [7, 1, 1], 1)
    @example(CombineMode.CONCATENATE, 4, 3, 5, [7, 1, 1], 1)
    # documents shorter than the window beside one longer
    @example(CombineMode.AVERAGE, 3, 5, 6, [12, 4, 2], 2)
    @example(CombineMode.CONCATENATE, 3, 5, 6, [12, 4, 2], 2)
    def test_frozen_context_matches_position_loop(self, combine, dim, window, vocab, lengths,
                                                  seed):
        # the frozen context that the step reads, from one strided view of
        # each document's word rows, against the per-position loop that
        # first built it: same bits
        model = random_doc_model(combine, vocab, dim, window, 1, seed)
        model.word_matrix[:, 0] = -0.0     # np.sum starts from 0.0: their sums are 0.0
        r = np.random.default_rng(seed + 1)
        docs = [r.integers(0, vocab, n).tolist() for n in sorted(lengths, reverse=True)]
        valid = np.arange(len(docs[0])) < np.array([len(t) for t in docs])[:, None]
        # padded with the last word: no position may read the padding
        tokens = np.full(valid.shape, vocab - 1)
        tokens[valid] = np.concatenate(docs)
        folded = embedding._frozen_context(model, tokens, valid)
        for new, ref in zip(folded, reference.folded_frozen_context(model, docs, len(docs[0]))):
            assert np.array_equal(new, ref)
            assert new.shape == ref.shape and new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("combine", list(CombineMode))
    def test_frozen_context_memory_bounded_by_its_size(self, combine):
        # A full block of 128 documents of 12 tokens at dim 100, window 3:
        # the padded word rows (the context itself in concatenate mode) are
        # held beside the average-mode sums while those are built, so the
        # peak stays within 2.5 times what the returned context keeps (about
        # 2.25 times in average mode, 1 in concatenate mode).
        model = random_doc_model(combine, 50, 100, 3, 5, 0)
        tokens = np.random.default_rng(1).integers(0, 50, (128, 12))
        valid = np.ones(tokens.shape, dtype=bool)
        tracemalloc.start()
        try:
            alpha, context = embedding._frozen_context(model, tokens, valid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert context.shape == (12, 128, 100 if combine is CombineMode.AVERAGE else 300, 1)
        assert kept >= 12 * 128 * 100 * 8
        assert peak < 2.5 * kept


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
