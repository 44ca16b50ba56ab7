"""Reference embedding steps: the sequential kernel and schedule, the
separate word2vec and distributed-memory steps, with the doc vector held
apart from the word rows, lockstep loops of distributed-memory and of
word2vec blocks, the frozen inference step as training's step restricted
to the doc vector (no part of it folded into the gathered rows), and the
per-position loop that built the frozen context.  The one
input step in `qasim.embedding` must match the training steps bit for
bit, apart from CBOW's rounding; whole DM and CBOW runs at a block of
one must match the sequential steps to rounding (DM bit for bit where no
hit moves a BLAS sum), and runs at any block `_dm_block_train` and
`_word_block_train`, which draw m negatives per block position, to
1e-12 of the largest entry (bit for bit where every position is one
step); inference must match
`infer_doc_vectors` here to 1e-12 of the largest entry, and
`qasim.embedding._frozen_context` must match `folded_frozen_context` bit
for bit (see `tests/test_embedding.py`)."""

import functools

import numpy as np

from qasim.corpus import TokenizedDocument
from qasim.embedding import (
    INFER_BLOCK,
    STEP_CHUNK,
    CombineMode,
    DocEmbeddingModel,
    Word2VecMode,
    WordEmbeddingModel,
    _learning_rate,
    _noise_cdf,
)


# The sequential training kernel and schedule that block training
# replaced, with their arithmetic, but for the target's score and
# gradient term, which the shared-negative kernel takes apart from the
# negatives': each step reads the rows that the step before it left, a
# draw that hits its target is dropped from the step's rows, and a
# repeated row adds its entries' deltas in index order.

@functools.lru_cache(maxsize=None)
def _label(n: int) -> np.ndarray:
    """The one-hot label of n output rows, target first."""
    label = np.zeros(n)
    label[0] = 1.0
    label.flags.writeable = False          # one array, shared by every caller
    return label


def _repeats(ids: list[int]) -> tuple[list[tuple[int, int]], np.ndarray] | None:
    """None when no id in `ids` repeats.  Otherwise (j, p) for every entry
    j that repeats the id of an earlier entry p (the nearest), in order,
    and the index array of each id's last entry."""
    last, chain = {}, []
    for j, i in enumerate(ids):
        if i in last:
            chain.append((j, last[i]))
        last[i] = j
    return (chain, np.array(list(last.values()))) if chain else None


def _add_rows(matrix: np.ndarray, rows, gathered: np.ndarray, delta, repeats) -> None:
    """matrix[rows] += delta, where `gathered` holds matrix[rows] as read
    before the update (it is overwritten) and `repeats` is
    `_repeats(rows)`.  A repeated row adds its entries' deltas in index
    order, each to what the entry before it left, and is written once,
    from its last entry: np.add.at's result, at a fraction of its cost."""
    gathered += delta
    if repeats is not None:
        chain, last = repeats
        for j, p in chain:
            np.add(gathered[p], delta[j] if delta.ndim > 1 else delta, out=gathered[j])
        rows, gathered = rows[last], gathered[last]
    matrix[rows] = gathered


def _scores(out: np.ndarray, nh: np.ndarray) -> np.ndarray:
    """The negated scores of a step's output rows `out`, target first, from
    its negated hidden vector: the target's on its own, then the
    negatives' in one product."""
    return np.r_[np.dot(out[0], nh), np.dot(out[1:], nh)]


def _grad_h(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The gradient with respect to the hidden vector from dL/d score `g`
    of the output rows `out`, target first: the negatives' product, plus
    the target's term."""
    return np.dot(g[1:], out[1:]) + g[0] * out[0]


def _ns_update(output_matrix: np.ndarray, nh: np.ndarray, rows, lr: float,
               repeats, keep=1.0) -> np.ndarray:
    """The SGD step on the output `rows` (target first; `repeats` is
    `_repeats(rows)`) from the negated hidden vector `nh`, and the
    gradient with respect to the hidden vector at the current parameters.
    `keep`, 1.0 or per row 1.0 or 0.0, weighs each row's sigmoid: a row
    kept at 0.0 stays among the rows with no gradient."""
    out = output_matrix.take(rows, axis=0)
    g = _scores(out, nh)                       # the negated scores
    g = np.exp(g, out=g)
    g += 1.0
    np.divide(keep, g, out=g)                  # keep / (1 + exp(-score))
    np.subtract(g, _label(len(g)), out=g)
    grad_h = _grad_h(g, out)
    g *= lr
    _add_rows(output_matrix, rows, out, g[:, None] * nh, repeats)
    return grad_h


def _step_rows(rng, cdf: np.ndarray, targets: np.ndarray, m: int) -> list[tuple]:
    """Per training step, in order: the output rows, target first, and
    their `_repeats`.  One rng call draws the m negatives of every target,
    the same stream as one call of m per step; a draw that hits its target
    is skipped (the C-word2vec convention)."""
    draws = np.searchsorted(cdf, rng.random(len(targets) * m), side="right")
    draws = draws.reshape(len(targets), m)
    rows, hit = np.column_stack((targets, draws)), draws == targets[:, None]
    steps = []
    for t in range(len(targets)):
        r = rows[t][np.r_[True, ~hit[t]]]
        steps.append((r, _repeats(r.tolist())))
    return steps


def _schedule(plan: list, targets: np.ndarray, position: np.ndarray, epochs: int, rng,
              cdf: np.ndarray, m: int, lr0: float, lr_min: float):
    """(plan entry, (output rows, their `_repeats`), learning rate) of every
    step of `epochs` passes, in order: one step per entry of `plan`,
    predicting that entry of `targets` at that `position` of the pass; the
    rate decays over all positions of all epochs.  Negatives are drawn
    STEP_CHUNK steps at a time: the stream of one call per step."""
    n, n_positions = len(plan), int(position[-1]) + 1
    for start in range(0, epochs * n, STEP_CHUNK):
        epoch, i = np.divmod(np.arange(start, min(start + STEP_CHUNK, epochs * n)), n)
        rates = _learning_rate(lr0, lr_min, epoch * n_positions + position[i],
                               epochs * n_positions)
        yield from zip([plan[j] for j in i], _step_rows(rng, cdf, targets[i], m),
                       rates.tolist())


def _context(ids: list[int]) -> tuple[np.ndarray, tuple | None]:
    """A context's word ids as an index array, and their `_repeats`."""
    return np.array(ids, dtype=np.intp), _repeats(ids)


def _word_step(model: WordEmbeddingModel, inputs, rows, lr: float, repeats,
               keep=1.0) -> None:
    """One word2vec update: `inputs` is one input id (skip-gram: the hidden
    vector is that row) or a `_context` (CBOW: the mean of its rows);
    `keep` as `_ns_update` takes it."""
    X = model.input_matrix
    if isinstance(inputs, int):
        h = X[inputs]
        h -= lr * _ns_update(model.output_matrix, np.negative(h), rows, lr, repeats, keep)
    else:
        ids, ids_repeats = inputs
        words = X.take(ids, axis=0)
        # the negated mean: np.mean is this sum over the count
        grad_h = _ns_update(model.output_matrix, np.add.reduce(words, axis=0) / -len(ids),
                            rows, lr, repeats, keep)
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
               rows, lr: float, repeats, keep=1.0) -> None:
    """One negative-sampling update of the distributed-memory model in
    training at a `_dm_position`: gradients at the current parameters,
    applied to the doc vector (in place), the output rows and the context
    word rows; `keep` as `_ns_update` takes it."""
    context, context_repeats, start, scale = position
    words = model.word_matrix.take(context, axis=0)
    step = _ns_update(model.output_matrix, _dm_hidden(model, doc_vec, words, start),
                      rows, lr, repeats, keep)
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


def _dm_block_train(model: DocEmbeddingModel, docs: list[list[int]], epochs: int,
                   lr0: float, lr_min: float, rng, block: int) -> None:
    """Distributed-memory SGD in lockstep, one document-position at a
    time: blocks of `block` documents advance one position at a time.  At
    a block's position, m negatives are drawn, and every document that
    has not ended computes its step from the parameters as the position
    before left them, with all m draws among its output rows (one that
    hit its target gets no gradient), at the rate of the position's first
    document-position.  Then the steps add, document by document and row
    by row: the output rows, the doc vector and the context rows."""
    k, m, d = model.window, model.negatives, model.dim
    W, D, O = model.word_matrix, model.doc_matrix, model.output_matrix
    cdf = _noise_cdf(model.noise_probs)
    positions = [[(r, i) for r in range(b0, min(b0 + block, len(docs))) if len(docs[r]) > i]
                 for b0 in range(0, len(docs), block)
                 for i in range(max(len(tokens) for tokens in docs[b0: b0 + block]))]
    n_positions = sum(map(len, docs))
    label = _label(1 + m)
    for epoch in range(epochs):
        done = 0
        for position in positions:
            lr = _learning_rate(lr0, lr_min, epoch * n_positions + done, epochs * n_positions)
            done += len(position)
            steps = []
            draws = np.searchsorted(cdf, rng.random(m), side="right")
            for r, i in position:
                target = docs[r][i]
                rows = np.r_[target, draws]
                keep = np.r_[True, draws != target]
                context = docs[r][max(0, i - k): i]
                start = d * (1 + k - len(context))
                nh = _dm_hidden(model, D[r], W[context], start)
                out = O[rows]
                g = 1.0 / (1.0 + np.exp(_scores(out, nh)))
                g[~keep] = 0.0
                g -= label
                step = _grad_h(g, out) * -lr * _dm_scale(model, len(context))
                steps.append((rows, (g * lr)[:, None] * nh, r, context, step, start))
            for rows, deltas, r, context, step, start in steps:
                for row, delta in zip(rows, deltas):
                    O[row] += delta
                if model.combine is CombineMode.AVERAGE:
                    D[r] += step
                    for word in context:
                        W[word] += step
                else:
                    D[r] += step[:d]
                    for word, slot in zip(context, step[start:].reshape(-1, d)):
                        W[word] += slot


def _word_block_train(model: WordEmbeddingModel, docs: list[list[int]], cdf: np.ndarray,
                      epochs: int, lr0: float, lr_min: float, rng, block: int) -> None:
    """Word2vec SGD in lockstep, one step at a time: blocks of `block`
    documents of at least two tokens advance one position at a time.  A
    step has input rows and a target: at a position, CBOW's inputs are
    the up to `window` words on each side and its target the word there;
    skip-gram takes one step per word of that window, the target, with
    the center as its one input.  A group of steps computes from the
    parameters as the group before left them: the steps of a block
    position (skip-gram), or those of its windows of one size, in
    increasing size (CBOW).  A group draws m negatives, and each of its
    steps has all m draws among its output rows (one that hit its target
    gets no gradient), at the rate of the group's first step; the rate
    decays over all steps.  Then the steps add, step by step and row by
    row: the output rows, then the input rows."""
    k, m = model.window, model.negatives
    X, O = model.input_matrix, model.output_matrix
    docs = [tokens for tokens in docs if len(tokens) >= 2]
    groups = []
    for b0 in range(0, len(docs), block):
        for i in range(max(len(tokens) for tokens in docs[b0: b0 + block])):
            steps = []
            for tokens in docs[b0: b0 + block]:
                if i < len(tokens):
                    window = tokens[max(0, i - k): i] + tokens[i + 1: i + k + 1]
                    if model.mode is Word2VecMode.SKIPGRAM:
                        steps += [([tokens[i]], word) for word in window]
                    else:
                        steps.append((window, tokens[i]))
            if model.mode is Word2VecMode.SKIPGRAM:
                groups.append(steps)
            else:
                groups += [[s for s in steps if len(s[0]) == n]
                           for n in sorted({len(ids) for ids, _ in steps})]
    n_steps = sum(map(len, groups))
    label = _label(1 + m)
    for epoch in range(epochs):
        done = 0
        for group in groups:
            lr = _learning_rate(lr0, lr_min, epoch * n_steps + done, epochs * n_steps)
            done += len(group)
            updates = []
            draws = np.searchsorted(cdf, rng.random(m), side="right")
            for ids, target in group:
                rows = np.r_[target, draws]
                keep = np.r_[True, draws != target]
                nh = np.add.reduce(X[ids], axis=0) / -len(ids)
                out = O[rows]
                g = 1.0 / (1.0 + np.exp(_scores(out, nh)))
                g[~keep] = 0.0
                g -= label
                step = _grad_h(g, out) * -lr * (1.0 / len(ids))
                updates.append((rows, (g * lr)[:, None] * nh, ids, step))
            for rows, deltas, ids, step in updates:
                for row, delta in zip(rows, deltas):
                    O[row] += delta
                for row in ids:
                    X[row] += step


# The frozen inference step and block loop of the releases before the
# step was folded (and later unfolded in place), verbatim, with the
# gradient they called: the hidden vector and the gradient as training
# computes them, per position.

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
    negatives of STEP_CHUNK // (B * n_max) passes (at least one) are
    drawn at once, and with `wide` = INFER_BLOCK // B (at least 1) each
    pass gathers the output rows of `wide` positions at once, so no
    buffer grows with the number of passes."""
    B, d, k, m = len(docs), model.dim, model.window, model.negatives
    D = model.output_matrix.shape[1]
    lengths = np.array([len(tokens) for tokens in docs])
    n_max = lengths[0]
    wide = max(1, INFER_BLOCK // B)
    chunk = min(steps, max(1, STEP_CHUNK // (B * n_max)))
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
    """The frozen context, as first built for the folded step, as a loop
    over positions (average mode) or documents (concatenate mode),
    verbatim: alpha (n_max, 1, 1, 1) and a view (n_max, B, K, 1), as
    `qasim.embedding._frozen_context` returns them."""
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
