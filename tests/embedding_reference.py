"""Reference embedding steps: the separate word2vec and distributed-memory
steps, with the doc vector held apart from the word rows.  The one input
step in `qasim.embedding` must match them bit for bit, apart from CBOW's
rounding (see `tests/test_embedding.py`)."""

import numpy as np

from qasim.embedding import (
    CombineMode,
    DocEmbeddingModel,
    WordEmbeddingModel,
    _add_rows,
    _noise_cdf,
    _ns_update,
    _repeats,
    _schedule,
)


def _context(ids: list[int]) -> tuple[np.ndarray, tuple | None]:
    """A context's word ids as an index array, and their `_repeats`."""
    return np.array(ids, dtype=np.intp), _repeats(ids)


def _word_step(model: WordEmbeddingModel, inputs, rows, lr: float, repeats) -> None:
    """One word2vec update: `inputs` is one input id (skip-gram: the hidden
    vector is that row) or a `_context` (CBOW: the mean of its rows)."""
    X = model.input_matrix
    if isinstance(inputs, int):
        h = X[inputs]
        h -= lr * _ns_update(model.output_matrix, np.negative(h), rows, lr, repeats)
    else:
        ids, ids_repeats = inputs
        words = X.take(ids, axis=0)
        # the negated mean: np.mean is this sum over the count
        grad_h = _ns_update(model.output_matrix, np.add.reduce(words, axis=0) / -len(ids),
                            rows, lr, repeats)
        _add_rows(X, ids, words, -lr * grad_h / len(ids), ids_repeats)


def _dm_position(model: DocEmbeddingModel, context, n_missing: int) -> tuple:
    """One position's plan, built once per run: its `_context`, where the
    context starts in the hidden vector (concatenate mode: `n_missing`
    leading slots are padding) and d h / d doc_vec."""
    return (*_context(context), model.dim * (1 + n_missing), _dm_scale(model, len(context)))


def _dm_hidden(model: DocEmbeddingModel, doc_vec: np.ndarray, words: np.ndarray,
               start: int) -> np.ndarray:
    """The negated combination of doc vector and the context's word rows
    `words` per the model's mode.  In concatenate mode the context
    occupies `window` fixed slots (oldest first); the words fill them from
    `start` on, and positions before the document start stay zero."""
    if model.combine is CombineMode.AVERAGE:
        if len(words):
            # words.sum(axis=0), without the method's Python wrapper
            return (doc_vec + np.add.reduce(words, axis=0)) / -(1 + len(words))
        return np.negative(doc_vec)
    h = np.zeros(model.dim * (1 + model.window))
    h[:model.dim] = doc_vec
    h[start:] = words.ravel()
    return np.negative(h, out=h)


def _dm_scale(model: DocEmbeddingModel, n_context: int) -> float:
    # d h / d doc_vec: the mean's weight in average mode, 1 in concatenate mode
    return 1.0 / (1 + n_context) if model.combine is CombineMode.AVERAGE else 1.0


def _dm_update(model: DocEmbeddingModel, doc_vec: np.ndarray, position: tuple,
               rows, lr: float, repeats) -> None:
    """One negative-sampling update of the distributed-memory model in
    training at a `_dm_position`: gradients at the current parameters,
    applied to the doc vector (in place), the output rows and the context
    word rows."""
    context, context_repeats, start, scale = position
    words = model.word_matrix.take(context, axis=0)
    step = _ns_update(model.output_matrix, _dm_hidden(model, doc_vec, words, start),
                      rows, lr, repeats)
    # -(lr * grad_h * scale) to the bit: a product rounds the same either sign
    step *= -lr
    step *= scale
    if model.combine is CombineMode.AVERAGE:
        doc_vec += step
    else:
        doc_vec += step[:model.dim]
        step = step[start:].reshape(words.shape)
    if len(context):
        _add_rows(model.word_matrix, context, words, step, context_repeats)


def _dm_train(model: DocEmbeddingModel, docs: list[list[int]], epochs: int,
              lr0: float, lr_min: float, rng) -> None:
    """Distributed-memory SGD over `docs` (doc r is row r of the doc
    matrix), updating the doc, word and output matrices in place."""
    k = model.window
    plan = [(model.doc_matrix[row], _dm_position(model, tokens[max(0, i - k): i], k - min(i, k)))
            for row, tokens in enumerate(docs) for i in range(len(tokens))]
    targets = np.array([t for tokens in docs for t in tokens])
    for (doc_vec, position), (rows, repeats), lr in _schedule(
            plan, targets, np.arange(len(plan)), epochs, rng, _noise_cdf(model.noise_probs),
            model.negatives, lr0, lr_min):
        _dm_update(model, doc_vec, position, rows, lr, repeats)
