"""Word and paragraph embeddings trained with negative sampling.

Implements CBOW and Skip-gram word models plus the distributed-memory
paragraph-vector model (doc vector combined with context word vectors to
predict the next word).  All training is single-threaded, seeded, and
bit-reproducible.  Vectors are stored one per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import TokenizedDocument, Vocabulary
from .modelfile import read_model, write_model


class Word2VecMode(str, Enum):
    CBOW = "cbow"
    SKIPGRAM = "skipgram"


class CombineMode(str, Enum):
    AVERAGE = "average"
    CONCATENATE = "concatenate"


@dataclass
class EmbedTrainConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.learning_rate > self.min_learning_rate > 0:
            raise ValueError("need learning_rate > min_learning_rate > 0")


@dataclass
class WordEmbeddingModel:
    """Input/output embedding matrices, one row per vocabulary id."""

    input_matrix: np.ndarray
    output_matrix: np.ndarray
    mode: Word2VecMode
    window: int
    negatives: int
    dim: int

    @property
    def vocab_size(self) -> int:
        return self.input_matrix.shape[0]


@dataclass
class DocEmbeddingModel:
    """Paragraph-vector model: shared word matrix W plus per-document matrix D.

    `output_matrix` holds the prediction weights (V x d in average mode,
    V x d*(1+window) in concatenate mode).  `noise_probs` is the
    unigram^0.75 sampling distribution, kept so that inference for new
    documents can draw negatives without the training corpus.
    """

    word_matrix: np.ndarray
    doc_matrix: np.ndarray
    output_matrix: np.ndarray
    combine: CombineMode
    window: int
    negatives: int
    dim: int
    noise_probs: np.ndarray = field(repr=False, default=None)
    # a loaded model's (vocab_size, n_docs) from its file header, which
    # hold even when the matrices they are read from were skipped
    _sizes: tuple[int, int] | None = field(repr=False, default=None)

    @property
    def vocab_size(self) -> int:
        return self._sizes[0] if self._sizes else self.word_matrix.shape[0]

    @property
    def n_docs(self) -> int:
        return self._sizes[1] if self._sizes else self.doc_matrix.shape[0]


def _ns_grad(s: np.ndarray) -> np.ndarray:
    """dL/ds = sigma(s) - label, over the last axis of the scores (target
    first); any leading axes are a batch."""
    g = 1.0 / (1.0 + np.exp(-s))
    g.T[0] -= 1.0                  # the target's column; faster than g[..., 0]
    return g


def _add_rows(matrix: np.ndarray, rows, delta, distinct: bool) -> None:
    """matrix[rows] += delta, a repeated row taking each of its updates in
    turn.  A direct update gives np.add.at's result when no row repeats,
    at a fraction of its cost."""
    if distinct:
        matrix[rows] += delta
    else:
        np.add.at(matrix, rows, delta)


def _ns_update(output_matrix: np.ndarray, h: np.ndarray, rows, lr: float,
               distinct: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The training kernel of every model here: scores `s` of the output
    `rows` (target first) at the current parameters, the SGD step on those
    rows, and the gradient with respect to the hidden vector `h` (the
    caller updates the rows `h` came from).  `distinct`: no row repeats."""
    out = output_matrix[rows]                  # copy, (1+m, d)
    s = out @ h
    g = _ns_grad(s)
    _add_rows(output_matrix, rows, (-lr * g)[:, None] * h, distinct)
    return s, g @ out


def _word_step(model: WordEmbeddingModel, inputs, rows, lr: float,
               distinct: bool = False) -> np.ndarray:
    """One word2vec update: `inputs` is one input id (skip-gram: the hidden
    vector is that row) or a list of ids (CBOW: their mean).  Returns the
    scores of `rows`."""
    if isinstance(inputs, int):
        h = model.input_matrix[inputs].copy()
    else:
        h = model.input_matrix[inputs].mean(axis=0)
    s, grad_h = _ns_update(model.output_matrix, h, rows, lr, distinct)
    if isinstance(inputs, int):
        model.input_matrix[inputs] -= lr * grad_h
    else:
        _add_rows(model.input_matrix, inputs, -lr * grad_h / len(inputs),
                  len(set(inputs)) == len(inputs))
    return s


def _unigram_noise(corpus: list[TokenizedDocument], vocab_size: int) -> np.ndarray:
    """Unigram distribution raised to 0.75, quantized to float32 so the
    binary model format round-trips exactly."""
    counts = np.zeros(vocab_size, dtype=np.float64)
    for doc in corpus:
        for t in doc.tokens:
            counts[t] += 1.0
    weights = counts ** 0.75
    total = weights.sum()
    if total <= 0:
        raise ValueError("corpus has no tokens")
    probs = weights / total
    return probs.astype(np.float32).astype(np.float64)


def _noise_cdf(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def _step_rows(rng, cdf: np.ndarray, targets: np.ndarray, m: int) -> list[tuple[np.ndarray, bool]]:
    """Per training step, in order: the output rows, target first, and
    whether they are distinct.  One rng call draws the m negatives of
    every target, the same stream as one call of m per step; a draw that
    hits its target is skipped (the C-word2vec convention)."""
    draws = np.searchsorted(cdf, rng.random(len(targets) * m), side="right")
    draws = draws.reshape(len(targets), m)
    rows, hit = np.column_stack((targets, draws)), draws == targets[:, None]
    # a skipped draw becomes its own placeholder, so only real repeats count
    negs = np.sort(np.where(hit, -1 - np.arange(m), draws), axis=1)
    distinct = (negs[:, 1:] != negs[:, :-1]).all(axis=1).tolist()
    keep = np.column_stack((np.ones(len(targets), dtype=bool), ~hit))
    return [(r[k] if any_hit else r, u)
            for r, k, any_hit, u in zip(rows, keep, hit.any(axis=1).tolist(), distinct)]


def _learning_rate(lr0: float, lr_min: float, step, total_steps):
    """The linear decay from lr0 toward lr_min: the rate at `step` of
    `total_steps` (either may be an array)."""
    return lr0 - (lr0 - lr_min) * step / total_steps


def _positions(docs: list[list[int]], epochs: int, lr0: float, lr_min: float):
    """(doc index, tokens as an array, learning rate of each position) for
    every document pass of `epochs` passes over `docs`; the rate decays
    over all positions of all epochs."""
    total_steps = epochs * sum(len(doc) for doc in docs)
    step = 0
    for _ in range(epochs):
        for row, doc in enumerate(docs):
            steps = np.arange(step, step + len(doc))
            yield row, np.asarray(doc), _learning_rate(lr0, lr_min, steps, total_steps)
            step += len(doc)


def _check_finite(*matrices: np.ndarray) -> None:
    # the training loops run with overflow warnings off; divergence shows here
    if not all(np.isfinite(m).all() for m in matrices):
        raise RuntimeError("embedding training diverged to non-finite values; "
                           "lower the learning rate")


def train_word2vec(corpus: list[TokenizedDocument], config: EmbedTrainConfig,
                   mode: Word2VecMode = Word2VecMode.CBOW, *,
                   vocab_size: int) -> WordEmbeddingModel:
    """Train a word2vec model with negative sampling.

    Negatives come from the corpus unigram distribution raised to 0.75.
    The learning rate decays linearly from learning_rate down to
    min_learning_rate over all center positions of all epochs.  Raises
    RuntimeError when training diverges to non-finite parameters.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    mode = Word2VecMode(mode)
    d = config.dim

    docs = [doc.tokens for doc in corpus if len(doc.tokens) >= 2]
    if not docs:
        raise ValueError("no document has the >= 2 tokens needed for a context window")

    rng = np.random.default_rng(config.seed)
    model = WordEmbeddingModel(
        input_matrix=(rng.random((vocab_size, d)) - 0.5) / d,
        output_matrix=np.zeros((vocab_size, d)),
        mode=mode,
        window=config.window,
        negatives=config.negatives,
        dim=d,
    )
    cdf = _noise_cdf(_unigram_noise(corpus, vocab_size))
    k, m = config.window, config.negatives
    with np.errstate(over="ignore", invalid="ignore"):
        for _, doc, lrs in _positions(docs, config.epochs, config.learning_rate,
                                      config.min_learning_rate):
            tokens = doc.tolist()
            windows = [tokens[max(0, i - k): i] + tokens[i + 1: i + k + 1]
                       for i in range(len(tokens))]
            if mode is Word2VecMode.CBOW:
                for window, (rows, distinct), lr in zip(
                        windows, _step_rows(rng, cdf, doc, m), lrs.tolist()):
                    _word_step(model, window, rows, lr, distinct)
            else:
                steps = iter(_step_rows(rng, cdf, np.array([o for w in windows for o in w]), m))
                for center, window, lr in zip(tokens, windows, lrs.tolist()):
                    for _ in window:
                        rows, distinct = next(steps)
                        _word_step(model, center, rows, lr, distinct)
    _check_finite(model.input_matrix, model.output_matrix)
    return model


def _dm_hidden(model: DocEmbeddingModel, doc_vec: np.ndarray, context,
               n_missing: int) -> np.ndarray:
    """Combine doc vector and context word vectors per the model's mode.

    In concatenate mode the context occupies `window` fixed slots (oldest
    first); positions before the document start stay zero, so
    `n_missing` leading slots are padding.
    """
    if model.combine is CombineMode.AVERAGE:
        if len(context):
            return (doc_vec + model.word_matrix[context].sum(axis=0)) / (1 + len(context))
        return doc_vec.copy()
    d = model.dim
    h = np.zeros(d * (1 + model.window))
    h[:d] = doc_vec
    h[d * (1 + n_missing):] = model.word_matrix[context].ravel()
    return h


def _dm_scale(model: DocEmbeddingModel, n_context: int) -> float:
    # d h / d doc_vec: the mean's weight in average mode, 1 in concatenate mode
    return 1.0 / (1 + n_context) if model.combine is CombineMode.AVERAGE else 1.0


def _dm_update(model: DocEmbeddingModel, doc_vec: np.ndarray, context, n_missing: int,
               rows, lr: float, distinct: bool = False) -> np.ndarray:
    """One negative-sampling update of the distributed-memory model in
    training: gradients at the current parameters, applied to the doc
    vector (in place), the output rows and the context word rows.  Returns
    the scores of `rows`."""
    h = _dm_hidden(model, doc_vec, context, n_missing)
    s, grad_h = _ns_update(model.output_matrix, h, rows, lr, distinct)
    d = model.dim
    step = lr * grad_h * _dm_scale(model, len(context))
    doc_vec -= step[:d]
    if len(context):
        words = step if model.combine is CombineMode.AVERAGE else (
            step[d * (1 + n_missing):].reshape(len(context), d))
        _add_rows(model.word_matrix, context, -words, len(set(context)) == len(context))
    return s


def _dm_frozen_update(out: np.ndarray, doc_vecs: np.ndarray, h: np.ndarray,
                      keep: np.ndarray, lr: np.ndarray, scale: float) -> np.ndarray:
    """One inference step for B documents at once, word and output
    matrices frozen: the gathered output rows `out` (B, 1+m, D), target
    first, hidden vectors `h` (B, D), `keep` (B, 1+m) 1.0 or 0.0 (a draw
    that hit its target gets no gradient), `lr` (B, 1).  Updates
    `doc_vecs` (B, d) in place and returns the scores (B, 1+m).  Each
    document's rows have the same fixed width whatever the batch, so its
    arithmetic does not depend on the batch."""
    s = np.matmul(out, h[:, :, None])[:, :, 0]
    g = _ns_grad(s)
    g *= keep
    grad_h = np.matmul(g[:, None, :], out)
    doc_vecs -= lr * grad_h[:, 0, :doc_vecs.shape[1]] * scale
    return s


def _dm_train(model: DocEmbeddingModel, docs: list[list[int]], epochs: int,
              lr0: float, lr_min: float, rng) -> None:
    """Distributed-memory SGD over `docs` (doc r is row r of the doc
    matrix), updating the doc, word and output matrices in place."""
    cdf = _noise_cdf(model.noise_probs)
    k = model.window
    for row, tokens, lrs in _positions(docs, epochs, lr0, lr_min):
        doc_vec = model.doc_matrix[row]
        for i, ((rows, distinct), lr) in enumerate(
                zip(_step_rows(rng, cdf, tokens, model.negatives), lrs.tolist())):
            context = tokens[max(0, i - k): i]
            _dm_update(model, doc_vec, context, k - len(context), rows, lr, distinct)


def train_doc2vec(corpus: list[TokenizedDocument], config: EmbedTrainConfig,
                  combine: CombineMode = CombineMode.AVERAGE, *,
                  vocab_size: int) -> DocEmbeddingModel:
    """Train a distributed-memory paragraph-vector model.

    At every position the document vector and the preceding `window`
    word vectors predict the current word through negative sampling;
    both the word matrix and the doc matrix are updated.  Raises
    RuntimeError when training diverges to non-finite parameters.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    combine = CombineMode(combine)
    if any(not doc.tokens for doc in corpus):
        raise ValueError("corpus contains an empty document")
    N = len(corpus)
    d = config.dim
    k = config.window
    ctx_dim = d if combine is CombineMode.AVERAGE else d * (1 + k)

    rng = np.random.default_rng(config.seed)
    model = DocEmbeddingModel(
        word_matrix=(rng.random((vocab_size, d)) - 0.5) / d,
        doc_matrix=(rng.random((N, d)) - 0.5) / d,
        output_matrix=np.zeros((vocab_size, ctx_dim)),
        combine=combine,
        window=k,
        negatives=config.negatives,
        dim=d,
        noise_probs=_unigram_noise(corpus, vocab_size),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _dm_train(model, [doc.tokens for doc in corpus], config.epochs,
                  config.learning_rate, config.min_learning_rate, rng)
    _check_finite(model.word_matrix, model.doc_matrix, model.output_matrix)
    return model


# Documents inferred in lockstep at a time: bounds inference memory,
# whatever the number of documents.
INFER_BLOCK = 128


def _frozen_context(model: DocEmbeddingModel, docs: list[list[int]], n_max: int) -> np.ndarray:
    """The frozen-word part of every position's hidden vector, (B, n_max,
    d) in average mode: row i of doc b is the sum of its context rows.  In
    concatenate mode, (B, window + n_max, d): the doc's word rows after
    `window` zero rows, so rows i..i+window are position i's slots."""
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
    return ctx


def _infer_block(model: DocEmbeddingModel, docs: list[list[int]], steps: int,
                 lr0: float, lr_min: float, seed: int) -> np.ndarray:
    """Doc vectors of `docs`, longest first, inferred in lockstep.  With
    `wide` = INFER_BLOCK // B (at least 1), the negatives of `wide` passes
    are drawn at once and each pass gathers the output rows of `wide`
    positions at once, so no buffer outgrows a full block's."""
    B, d, k, m = len(docs), model.dim, model.window, model.negatives
    lengths = np.array([len(tokens) for tokens in docs])
    n_max = lengths[0]
    wide = max(1, INFER_BLOCK // B)
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
    uniform = np.zeros((min(wide, steps), n_max, B, m))
    buf = np.empty((min(wide, n_max), B, 1 + m, model.output_matrix.shape[1]))
    # Per gather window: its rows and buffer, then per position (whose
    # documents are the first `a`) the views that each pass refills:
    # vectors, frozen context, gathered rows, keep mask, rates.
    windows = []
    for i0 in range(0, n_max, wide):
        at = []
        for i in range(i0, min(i0 + wide, n_max)):
            a, c = int(valid[:, i].sum()), min(i, k)
            frozen = ctx[:a, i] if average else ctx[:a, i: i + k].reshape(a, k * d)
            at.append((vecs[:a], frozen, buf[i - i0, :a], keep[i, :a], lrs[i, :a], 1 + c,
                       _dm_scale(model, c)))
        windows.append((rows[i0: i0 + wide], buf[:len(at)], at))
    for e0 in range(0, steps, wide):
        passes = min(wide, steps - e0)
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
                for vec, frozen, pos_out, pos_keep, lr, div, scale in at:
                    h = (vec + frozen) / div if average else np.concatenate((vec, frozen), axis=1)
                    _dm_frozen_update(pos_out, vec, h, pos_keep, lr, scale)
    return vecs


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


def infer_doc_vector(model: DocEmbeddingModel, doc: TokenizedDocument, steps: int = 50,
                     lr: float = 0.025, min_lr: float = 1e-4, seed: int = 0) -> np.ndarray:
    """`infer_doc_vectors` for one document."""
    return infer_doc_vectors(model, [doc], steps, lr, min_lr, seed)[0]


def analogy(model: WordEmbeddingModel, vocab: Vocabulary, a: str, b: str, c: str) -> str:
    """Return the vocabulary token closest (cosine) to F(a) - F(b) + F(c).

    The query tokens themselves are excluded from the candidates; ties
    break toward the lowest id.
    """
    ids = []
    for token in (a, b, c):
        if token not in vocab.token_to_id:
            raise ValueError(f"token not in vocabulary: {token!r}")
        ids.append(vocab.token_to_id[token])

    F = model.input_matrix
    query = F[ids[0]] - F[ids[1]] + F[ids[2]]
    qn = np.linalg.norm(query)
    norms = np.linalg.norm(F, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (F @ query) / (norms * qn)
    sims[~np.isfinite(sims)] = -np.inf
    sims[ids] = -np.inf
    return vocab.id_to_token[int(np.argmax(sims))]


# ---------------------------------------------------------------------------
# Binary model files (see modelfile)
# ---------------------------------------------------------------------------

_W2V_MAGIC = b"W2V1"
_D2V_MAGIC = b"D2V1"
_W2V_HEADER = "<4sIIIIB"
_D2V_HEADER = "<4sIIIIIB"

_WORD_MODE_FLAG = {Word2VecMode.CBOW: 0, Word2VecMode.SKIPGRAM: 1}
_COMBINE_FLAG = {CombineMode.AVERAGE: 0, CombineMode.CONCATENATE: 1}


def save_word2vec(model: WordEmbeddingModel, path) -> None:
    write_model(path, _W2V_HEADER, (_W2V_MAGIC, model.vocab_size, model.dim, model.window,
                                    model.negatives, _WORD_MODE_FLAG[model.mode]),
                (model.input_matrix, model.output_matrix))


def load_word2vec(path) -> WordEmbeddingModel:
    (_, dim, window, negatives, mode), arrays = read_model(
        path, _W2V_HEADER, _W2V_MAGIC, "word2vec model",
        lambda V, dim, *_: {"input_matrix": (V, dim), "output_matrix": (V, dim)},
        ("mode", _WORD_MODE_FLAG))
    return WordEmbeddingModel(**arrays, mode=mode, window=window, negatives=negatives, dim=dim)


def save_doc2vec(model: DocEmbeddingModel, path) -> None:
    write_model(path, _D2V_HEADER, (_D2V_MAGIC, model.vocab_size, model.n_docs, model.dim,
                                    model.window, model.negatives, _COMBINE_FLAG[model.combine]),
                (model.word_matrix, model.output_matrix, model.doc_matrix, model.noise_probs))


def _d2v_shapes(V: int, N: int, dim: int, window: int, negatives: int,
                combine: CombineMode) -> dict:
    ctx_dim = dim * (1 + window) if combine is CombineMode.CONCATENATE else dim
    return {"word_matrix": (V, dim), "output_matrix": (V, ctx_dim), "doc_matrix": (N, dim),
            "noise_probs": (V,)}


def load_doc2vec(path, skip=()) -> DocEmbeddingModel:
    """The model in `path`; the matrices named in `skip` are left None."""
    (V, N, dim, window, negatives, combine), arrays = read_model(
        path, _D2V_HEADER, _D2V_MAGIC, "doc2vec model", _d2v_shapes,
        ("combine", _COMBINE_FLAG), skip)
    return DocEmbeddingModel(**arrays, combine=combine, window=window, negatives=negatives,
                             dim=dim, _sizes=(V, N))


def export_text(matrix: np.ndarray, vocab: Vocabulary, path) -> None:
    """Write "token v1 ... vd" lines for the given embedding matrix."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, token in enumerate(vocab.id_to_token):
            values = " ".join(f"{x:.6f}" for x in matrix[i])
            fh.write(f"{token} {values}\n")
