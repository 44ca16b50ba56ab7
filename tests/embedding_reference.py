"""Reference embedding steps: the separate word2vec and distributed-memory
steps, with the doc vector held apart from the word rows, the unfolded
frozen inference step, and the per-position loop that built the folded
step's frozen context.  The one input step in `qasim.embedding` must
match the training steps bit for bit, apart from CBOW's rounding;
inference must match `infer_doc_vectors` here to 1e-12 of the largest
entry, and `qasim.embedding._frozen_context` must match
`folded_frozen_context` bit for bit (see `tests/test_embedding.py`)."""

import numpy as np

from qasim.corpus import TokenizedDocument
from qasim.embedding import (
    INFER_BLOCK,
    INFER_CHUNK,
    CombineMode,
    DocEmbeddingModel,
    WordEmbeddingModel,
    _add_rows,
    _label,
    _learning_rate,
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


# The frozen inference step and block loop that the folded step replaced,
# verbatim, with the gradient they called.

def _ns_grad(s: np.ndarray, keep, label: np.ndarray, out=None) -> np.ndarray:
    """dL/ds = keep * sigma(s) - label over the last axis of the scores,
    from the negated scores `s`, so exp(s) needs no negation: `keep` is
    1.0, or per score 1.0 or 0.0 (a draw that hit its target gets no
    gradient), and `label` is 1.0 at the target, 0.0 elsewhere.  Any
    leading axes are a batch.  Written to `out` when given (it may be
    `s`)."""
    g = np.exp(s, out=out)
    g += 1.0
    np.divide(keep, g, out=g)      # keep / (1 + exp(-score)); 0 / x is 0 exactly
    np.subtract(g, label, out=g)   # one ufunc: cheaper than indexing the target
    return g


def _dm_frozen_update(product, out: np.ndarray, h: np.ndarray, doc_vecs: np.ndarray,
                      keep: np.ndarray, lr: np.ndarray, scale: float, scratch: tuple) -> None:
    """One inference step for `a` documents at once, word and output
    matrices frozen: the gathered output rows `out` (a, 1+m, D), target
    first, the negated hidden vectors as columns `h` (a, D, 1), `keep`
    (a, 1, 1+m) 1.0 or 0.0 (a draw that hit its target gets no
    gradient), `lr` (a, 1).  Updates `doc_vecs` (a, d) in place and
    overwrites `scratch`, a `_frozen_scratch` of `a` documents.  `product`
    is np.matmul; a lone document passes every array without its batch
    axis and np.dot, the same BLAS gemv per document at less overhead per
    call.  Each document's rows have the same fixed width whatever the
    batch, so its arithmetic does not depend on the batch."""
    scores, g, label, grad_h, grad_doc, step = scratch
    product(out, h, out=scores)            # the negated scores
    _ns_grad(g, keep, label, out=g)        # g: the scores' memory, as (a, 1, 1+m)
    product(g, out, out=grad_h)
    np.multiply(lr, grad_doc, out=step)
    if scale != 1.0:                       # x * 1.0 is x
        step *= scale
    doc_vecs -= step


def _frozen_scratch(B: int, m: int, D: int, d: int) -> tuple:
    """The `scratch` that `_dm_frozen_update` writes for B documents, each
    entry's [:a] that of the first a and its [0] that of a lone document:
    the scores (B, 1+m, 1) and the same memory as (B, 1, 1+m), the label,
    the gradient with respect to h (B, 1, D) and its doc part, and the doc
    step (B, d)."""
    scores, grad_h = np.empty((B, 1 + m, 1)), np.empty((B, 1, D))
    return (scores, scores.reshape(B, 1, 1 + m), np.broadcast_to(_label(1 + m), (B, 1, 1 + m)),
            grad_h, grad_h[:, 0, :d], np.empty((B, d)))


def _frozen_context(model: DocEmbeddingModel, docs: list[list[int]], n_max: int) -> np.ndarray:
    """The frozen-word part of every position's hidden vector, (B, n_max,
    d) in average mode: row i of doc b is the sum of its context rows.  In
    concatenate mode, (B, window + n_max, d), negated: the doc's word rows
    after `window` zero rows, so rows i..i+window are position i's slots."""
    W, k = model.word_matrix, model.window
    if model.combine is CombineMode.AVERAGE:
        ctx = np.zeros((len(docs), n_max, model.dim))
        for b, tokens in enumerate(docs):
            for i in range(1, len(tokens)):
                ctx[b, i] = W[tokens[max(0, i - k): i]].sum(axis=0)
    else:
        ctx = np.zeros((len(docs), k + n_max, model.dim))
        for b, tokens in enumerate(docs):
            ctx[b, k: k + len(tokens)] = W[tokens]
        np.negative(ctx, out=ctx)
    return ctx


def _infer_block(model: DocEmbeddingModel, docs: list[list[int]], steps: int,
                 lr0: float, lr_min: float, seed: int) -> np.ndarray:
    """Doc vectors of `docs`, longest first, inferred in lockstep.  The
    negatives of INFER_CHUNK // (B * n_max) passes (at least one) are
    drawn at once, and with `wide` = INFER_BLOCK // B (at least 1) each
    pass gathers the output rows of `wide` positions at once, so no
    buffer grows with the number of passes."""
    B, d, k, m = len(docs), model.dim, model.window, model.negatives
    D = model.output_matrix.shape[1]
    lengths = np.array([len(tokens) for tokens in docs])
    n_max = lengths[0]
    wide = max(1, INFER_BLOCK // B)
    chunk = min(steps, max(1, INFER_CHUNK // (B * n_max)))
    valid = np.arange(n_max) < lengths[:, None]               # (B, n_max)
    average = model.combine is CombineMode.AVERAGE
    cdf = _noise_cdf(model.noise_probs)
    rngs = [np.random.default_rng(seed) for _ in docs]
    vecs = np.stack([(rng.random(d) - 0.5) / d for rng in rngs])
    ctx = _frozen_context(model, docs, n_max)
    # Position-major: rows[i0:i1] is one contiguous gather window.
    rows = np.zeros((n_max, B, 1 + m), dtype=np.intp)
    rows[:, :, 0].T[valid] = np.concatenate(docs)
    keep = np.ones((n_max, B, 1 + m))
    lrs = np.zeros((n_max, B, 1))
    uniform = np.zeros((chunk, n_max, B, m))
    buf = np.empty((min(wide, n_max), B, 1 + m, D))
    hidden = np.empty((B, D, 1))           # the negated hidden vectors, as columns
    scratch = _frozen_scratch(B, m, D, d)
    active = valid.sum(axis=0).tolist()    # the documents at each position
    # A position's documents are the first `a`: index [:a], or [0] for a
    # lone document, whose views drop the batch axis so that its products
    # run through np.dot.  What every position of the same `a` shares: the
    # index, the product, their vectors, where the negated hidden vector is
    # written (the doc slot in concatenate mode), the context slots, the
    # hidden columns and the step's scratch.
    shared = {}
    for a in set(active):
        ix, product = (0, np.dot) if a == 1 else (slice(a), np.matmul)
        shared[a] = (ix, product, vecs[ix], hidden[ix, :, 0] if average else hidden[ix, :d, 0],
                     hidden[ix, d:, 0], hidden[ix], tuple(x[ix] for x in scratch))
    # Per gather window: its rows and buffer, then per position (whose
    # documents are the first `a`) what each pass refills or reads: the
    # vectors, the frozen context, where the negated hidden vector goes,
    # -(1 + c) in average mode or the context slots in concatenate mode,
    # and the step's arguments.
    windows = []
    for i0 in range(0, n_max, wide):
        at = []
        for i in range(i0, min(i0 + wide, n_max)):
            c = min(i, k)
            ix, product, vec, hv, ctx_slots, h, step_scratch = shared[active[i]]
            # d h / d doc_vec: the mean's weight in average mode, 1 in concatenate mode
            if average:
                frozen, slot, scale = ctx[ix, i], -(1.0 + c), 1.0 / (1 + c)
            else:
                frozen, slot, scale = ctx[ix, i: i + k].reshape(ctx_slots.shape), ctx_slots, 1.0
            at.append((vec, frozen, hv, slot, (product, buf[i - i0, ix], h, vec, keep[i, ix, None],
                                               lrs[i, ix], scale, step_scratch)))
        windows.append((rows[i0: i0 + wide], buf[:len(at)], at))
    for e0 in range(0, steps, chunk):
        passes = min(chunk, steps - e0)
        # each document's own stream: one call per chunk, the same stream
        # as one call of n*m draws per pass
        for b, (rng, n) in enumerate(zip(rngs, lengths.tolist())):
            uniform[:passes, :n, b] = rng.random((passes, n, m))
        draws = np.searchsorted(cdf, uniform[:passes], side="right")
        kept = draws != rows[:, :, :1]
        step = (e0 + np.arange(passes))[:, None, None] * lengths + np.arange(n_max)[:, None]
        rates = _learning_rate(lr0, lr_min, step, steps * lengths)
        for p in range(passes):
            rows[:, :, 1:] = draws[p]
            keep[:, :, 1:] = kept[p]
            lrs[:, :, 0] = rates[p]
            for window_rows, out, at in windows:
                # ids are checked in infer_doc_vectors; "raise" would buffer `out`
                np.take(model.output_matrix, window_rows, axis=0, out=out, mode="wrap")
                for vec, frozen, hv, slot, args in at:
                    # the negated hidden vector: IEEE rounding is sign-symmetric
                    if average:
                        np.add(vec, frozen, out=hv)
                        np.divide(hv, slot, out=hv)
                    else:
                        np.negative(vec, out=hv)
                        np.copyto(slot, frozen)
                    _dm_frozen_update(*args)
    return vecs


def folded_frozen_context(model: DocEmbeddingModel, docs: list[list[int]],
                          n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The folded step's frozen context as a loop over positions (average
    mode) or documents (concatenate mode), verbatim: alpha (n_max, 1, 1,
    1) and a view (n_max, B, K, 1), as `qasim.embedding._frozen_context`
    returns them."""
    W, k, d = model.word_matrix, model.window, model.dim
    if model.combine is CombineMode.AVERAGE:
        alpha = -1.0 / (1 + np.minimum(np.arange(n_max), k))
        ctx = np.zeros((len(docs), n_max, d))
        for b, tokens in enumerate(docs):
            for i in range(1, len(tokens)):
                ctx[b, i] = W[tokens[max(0, i - k): i]].sum(axis=0)
        ctx *= alpha[:, None]
        K = d
    else:
        alpha = -np.ones(n_max)
        ctx = np.zeros((len(docs), k + n_max, d))
        for b, tokens in enumerate(docs):
            np.take(W, tokens, axis=0, out=ctx[b, k: k + len(tokens)])
        np.negative(ctx, out=ctx)
        K = k * d
    s_b, s_i, s_e = ctx.strides
    context = np.lib.stride_tricks.as_strided(ctx, (n_max, len(docs), K, 1), (s_i, s_b, s_e, s_e),
                                              writeable=False)
    return alpha[:, None, None, None], context


def infer_doc_vectors(model: DocEmbeddingModel, docs: list[TokenizedDocument],
                      steps: int = 50, lr: float = 0.025, min_lr: float = 1e-4,
                      seed: int = 0) -> np.ndarray:
    """Fit a paragraph vector for each new document, word matrices frozen;
    returns (len(docs), dim).

    Each document starts from a fresh uniformly initialized vector drawn
    from its own `default_rng(seed)`, which also draws its negatives, and
    is optimized for `steps` passes with the training update rule
    restricted to the doc vector.  The documents run in lockstep, in
    blocks of INFER_BLOCK sorted by length; a document's vector does not
    depend on the other documents.  The model is never modified.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not lr > min_lr > 0:
        raise ValueError("need learning_rate > min_learning_rate > 0")
    if any(not doc.tokens for doc in docs):
        raise ValueError("cannot infer a vector for an empty document")
    V = model.vocab_size
    bad = next((t for doc in docs for t in doc.tokens if not 0 <= t < V), None)
    if bad is not None:
        raise ValueError(f"token id {bad} is outside the model's vocabulary of {V} words")
    order = sorted(range(len(docs)), key=lambda j: -len(docs[j].tokens))
    vecs = np.empty((len(docs), model.dim))
    for start in range(0, len(order), INFER_BLOCK):
        block = order[start: start + INFER_BLOCK]
        vecs[block] = _infer_block(model, [docs[j].tokens for j in block], steps,
                                   lr, min_lr, seed)
    return vecs
