"""Word and paragraph embeddings trained with negative sampling.

Implements CBOW and Skip-gram word models plus the distributed-memory
paragraph-vector model (doc vector combined with context word vectors to
predict the next word).  All training is single-threaded, seeded, and
bit-reproducible.  Vectors are stored one per row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import TokenizedDocument, Vocabulary
from .modelfile import FLOAT32_MAX, read_model, write_model


class Word2VecMode(str, Enum):
    CBOW = "cbow"
    SKIPGRAM = "skipgram"


class CombineMode(str, Enum):
    AVERAGE = "average"
    CONCATENATE = "concatenate"


@dataclass
class EmbedTrainConfig:
    MAX_NEGATIVES = 100  # inference buffers grow with it; C word2vec users pick 5-25
    MAX_DIM = 10_000     # matrices grow with these; paragraph vectors use 100-400
    MAX_WINDOW = 100     # dimensions and windows of 5-10
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, bound in (("dim", self.MAX_DIM), ("window", self.MAX_WINDOW),
                            ("negatives", self.MAX_NEGATIVES)):
            if not 1 <= getattr(self, name) <= bound:
                raise ValueError(f"{name} must lie in [1, {bound}]")
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


@functools.lru_cache(maxsize=2)
def _flat_index(shape: tuple[int, int]) -> np.ndarray:
    """The flat index of every entry of a C-contiguous matrix of `shape`,
    as large as the matrix; `_train` frees it when a run ends.  Gathering
    its rows costs about a quarter of computing rows * d + arange(d) per
    step, which made a `train_pipeline` unit 12% slower."""
    index = np.arange(shape[0] * shape[1]).reshape(shape)
    index.flags.writeable = False          # one array, shared by a run's steps
    return index


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, delta: np.ndarray) -> None:
    """matrix[rows] += delta for a C-contiguous matrix, one row of `delta`
    per entry of `rows`, in index order: a repeated row adds its deltas in
    turn.  np.add.at takes its fast loop only on a 1-D operand and index,
    so it runs on the matrix's flat view, at flat indices."""
    index = _flat_index(matrix.shape).take(rows, axis=0)
    np.add.at(matrix.reshape(-1), index.ravel(), delta.ravel())


def _ns_update(output_matrix: np.ndarray, nh: np.ndarray, rows: np.ndarray,
               keep: np.ndarray, lr: float) -> np.ndarray:
    """The training kernel of every model here, for a block of a steps
    that read the parameters as they were before it and share m
    negatives: the SGD step on the output `rows` (a + m,), the targets
    and then the negatives, from the negated hidden vectors `nh` (a, D),
    where `keep` (a, 1+m), target first, is 0.0 for a negative that hit
    the step's target, else 1.0; and the gradients with respect to the
    hidden vectors (a, D).  The work is linear in a.  IEEE rounding is
    sign-symmetric, so the negation changes no bit."""
    a = len(nh)
    out = output_matrix.take(rows, axis=0)            # (a + m, D), a copy
    targets, negatives = out[:a], out[a:]
    g = np.empty(keep.shape)                          # the negated scores s, target first
    g_t, g_n = g[:, :1], g[:, 1:]
    np.matmul(targets[:, None], nh[:, :, None], out=g_t[:, :, None])
    np.matmul(nh, negatives.T, out=g_n)
    # dL/d score = keep * sigma(score) - label, where exp(s) needs no negation
    np.exp(g, out=g)
    g += 1.0
    np.divide(keep, g, out=g)                 # 0 / x is 0 exactly: a hit gets no gradient
    g_t -= 1.0
    grad_h = np.matmul(g_n, negatives)
    targets *= g_t                            # `out` is free once read: it takes the deltas
    grad_h += targets
    g *= lr
    # out - lr * g * h, row by row: a shared row sums its a steps' deltas
    np.multiply(g_t, nh, out=targets)
    np.matmul(g_n.T, nh, out=negatives)
    _scatter_add(output_matrix, rows, out)
    return grad_h


def _inputs(ids, targets, start: int | None = None) -> tuple:
    """A plan entry of `_train`, built once per run: the input ids of a
    block of steps, one row a step, as an index array, their targets, a
    copy that keeps no padded block alive, `start`, and d h / d row."""
    ids = np.array(ids, dtype=np.intp, ndmin=2)
    scale = 1.0 if start is not None else 1.0 / ids.shape[1]
    return ids, np.array(targets, dtype=np.intp), start, scale


def _step_buffers(sizes, m: int) -> dict:
    """What `_input_step` writes, made once per run, per entry size a in
    `sizes`: the output rows (a + m,), their targets and their negatives."""
    rows = np.empty(max(sizes) + m, dtype=np.intp)
    return {a: (rows[:a + m], rows[:a], rows[a:a + m]) for a in set(sizes)}


def _input_step(X: np.ndarray, output_matrix: np.ndarray, inputs: tuple, buffers: dict,
                negatives: np.ndarray, keep: np.ndarray, lr: float) -> None:
    """One training update of every model here, for a block of steps at
    the current parameters that share the m `negatives`, with `keep` as
    `_ns_update` takes it, of the input matrix X and the output matrix,
    from an `_inputs` entry, through the `_step_buffers` of its size.  A
    step's hidden vector is the mean of its rows `ids` of X (CBOW,
    skip-gram with its center as the one row, and DM in average mode with
    the doc row last), or with a `start` (DM in concatenate mode) the doc
    row `ids[:, 0]` in slot 0, zero padding, and the context rows in the
    slots from `start` on.  Input rows take their steps in (step, slot) order."""
    ids, targets, start, scale = inputs
    rows, to_targets, to_negatives = buffers[len(targets)]
    to_targets[...], to_negatives[...] = targets, negatives
    gathered = X.take(ids, axis=0)                   # (a, n, d)
    a, d = ids.shape[0], X.shape[1]
    if start is None:
        # the negated mean: np.mean is this sum over the count
        nh = np.add.reduce(gathered, axis=1) / -ids.shape[1]
    else:
        nh = np.zeros((a, output_matrix.shape[1] // d, d))   # the 1 + window slots
        nh[:, 0] = gathered[:, 0]
        nh[:, start:] = gathered[:, 1:]
        nh = np.negative(nh, out=nh).reshape(a, -1)
    step = _ns_update(output_matrix, nh, rows, keep, lr)
    # -(lr * grad_h * scale) to the bit: a product rounds the same either sign
    step *= -lr
    if start is None:
        # every row of the mean takes its step
        step = np.multiply(step[:, None], scale, out=gathered)
    else:
        # slot by slot; the doc row's step moves to the slot before the
        # context's (padding, or its own), so the steps of `ids` are adjacent
        step = step.reshape(a, -1, d)
        step[:, start - 1] = step[:, 0]
        step = step[:, start - 1:]
    _scatter_add(X, ids, step)


def _unigram_noise(corpus: list[TokenizedDocument], vocab_size: int) -> np.ndarray:
    """Unigram distribution raised to 0.75, quantized to float32 so the
    binary model format round-trips exactly."""
    tokens = np.fromiter((t for doc in corpus for t in doc.tokens), dtype=np.intp)
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < vocab_size:
        bad = tokens[(tokens < 0) | (tokens >= vocab_size)][0]
        raise ValueError(f"token id {bad} is outside the vocabulary of {vocab_size} words")
    weights = np.bincount(tokens, minlength=vocab_size).astype(np.float64) ** 0.75
    total = weights.sum()
    if total <= 0:
        raise ValueError("corpus has no tokens")
    probs = weights / total
    return probs.astype(np.float32).astype(np.float64)


def _noise_cdf(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def _step_rows(uniform: np.ndarray, cdf: np.ndarray, targets) -> tuple:
    """Inference's output rows of steps, target first (..., 1+m), and
    their keep (..., 1+m, 1), from the uniform draws (..., m) of their
    negatives and `targets`, which broadcast to the draws' leading axes:
    keep is 0.0 for a draw that hits its target, which gets no gradient
    (the C-word2vec convention skips it), else 1.0."""
    draws = np.searchsorted(cdf, uniform, side="right")
    rows = np.empty(draws.shape[:-1] + (1 + draws.shape[-1],), dtype=np.intp)
    rows[..., 0], rows[..., 1:] = targets, draws
    keep = np.ones(rows.shape + (1,))
    np.not_equal(draws, rows[..., :1], out=keep[..., 1:, 0])
    return rows, keep


def _learning_rate(lr0: float, lr_min: float, step, total_steps):
    """The linear decay from lr0 toward lr_min: the rate at `step` of
    `total_steps` (either may be an array)."""
    return lr0 - (lr0 - lr_min) * step / total_steps


# Steps whose negatives (and in training keep masks) one draw covers: at
# least one plan entry's in training, one pass's in inference (`_step_rows`).
# Bounds that memory, whatever the corpus or document size, and in inference
# the document-positions whose context words one gather covers.
STEP_CHUNK = 1024

# Documents that training advances in lockstep, one position at a time:
# one `_input_step` takes a position of all of them (CBOW: the windows of
# one size at that position).
TRAIN_BLOCK = 8


def _padded(docs: list) -> tuple:
    """A block of token lists: their lengths, which of the (len(docs),
    longest) entries hold a token, and the tokens, padded with word 0."""
    lengths = np.array([len(tokens) for tokens in docs])
    valid = np.arange(lengths.max()) < lengths[:, None]
    tokens = np.zeros(valid.shape, dtype=np.intp)
    tokens[valid] = np.concatenate(docs)
    return lengths, valid, tokens


def _block_plan(docs: list, entries) -> list:
    """The plan of `_train` for `docs`: blocks of TRAIN_BLOCK documents, in
    corpus order, advance one position at a time, and `entries(rows,
    tokens, valid, i)` gives the `_inputs` entries of position i of a
    block, where `rows` are the indices of its documents that have not
    ended and `tokens` their tokens, padded with word 0 where `valid` is False."""
    plan = []
    for b0 in range(0, len(docs), TRAIN_BLOCK):
        _, valid, tokens = _padded(docs[b0: b0 + TRAIN_BLOCK])
        for i, active in enumerate(valid.T):
            plan += entries(b0 + np.flatnonzero(active), tokens[active], valid[active], i)
    return plan


def _train(X: np.ndarray, output_matrix: np.ndarray, plan: list, config: EmbedTrainConfig,
           rng, cdf: np.ndarray) -> None:
    """SGD over `config.epochs` passes of a `_block_plan`, one
    `_input_step` per entry, updating X and the output matrix in place.
    An entry's block of steps predicts its targets at the rate of the
    first of them, and shares m negatives drawn for the entry; the rate
    decays over all steps of all epochs.  A pass draws the negatives and
    builds the keep masks of the entries that start in a run of STEP_CHUNK
    steps at once, in entry order: the stream of one call per entry."""
    m = config.negatives
    sizes = np.array([len(entry[1]) for entry in plan])
    firsts = np.cumsum(sizes) - sizes                # each entry's first step in a pass
    n_steps = int(sizes.sum())
    buffers = _step_buffers(sizes.tolist(), m)
    bounds = [0, *(np.flatnonzero(np.diff(firsts // STEP_CHUNK)) + 1).tolist(), len(plan)]
    keep = np.ones((STEP_CHUNK + int(sizes.max()), 1 + m))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for at in map(slice, bounds, bounds[1:]):
                entries = plan[at]
                draws = np.searchsorted(cdf, rng.random((len(entries), m)), side="right")
                rates = _learning_rate(config.learning_rate, config.min_learning_rate,
                                       epoch * n_steps + firsts[at], config.epochs * n_steps)
                ends = np.cumsum(sizes[at]).tolist()
                np.not_equal(np.concatenate([entry[1] for entry in entries])[:, None],
                             np.repeat(draws, sizes[at], axis=0), out=keep[:ends[-1], 1:])
                for entry, negatives, lr, end in zip(entries, draws, rates.tolist(), ends):
                    _input_step(X, output_matrix, entry, buffers, negatives,
                                keep[end - len(entry[1]): end], lr)
    _flat_index.cache_clear()
    # overflow warnings were off; divergence shows here, also as values
    # past float32's range, which turn infinite in a model file
    if not (np.abs(X).max() <= FLOAT32_MAX and np.abs(output_matrix).max() <= FLOAT32_MAX):
        raise RuntimeError("embedding training diverged to non-finite values; "
                           "lower the learning rate")


def train_word2vec(corpus: list[TokenizedDocument], config: EmbedTrainConfig,
                   mode: Word2VecMode = Word2VecMode.CBOW, *,
                   vocab_size: int) -> WordEmbeddingModel:
    """Train a word2vec model with negative sampling.

    Documents of fewer than 2 tokens are skipped; the rest advance in
    lockstep blocks of TRAIN_BLOCK, one position at a time.  CBOW
    predicts each document's word there from the mean of up to `window`
    words on each side: one `_input_step` per window size, in increasing
    size, as windows shrink at document ends.  Skip-gram predicts each of
    those words from the center alone, one step a (center, output) pair:
    one `_input_step` for all pairs of the position.  The steps of one
    `_input_step` share m negatives, drawn from the corpus unigram
    distribution raised to 0.75.  The learning rate decays linearly from
    learning_rate down to min_learning_rate over all steps of all epochs
    (positions for CBOW, pairs for skip-gram); an input step takes the
    rate of its first.  Raises RuntimeError when training diverges to
    non-finite parameters.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    mode = Word2VecMode(mode)
    d, k = config.dim, config.window

    docs = [doc.tokens for doc in corpus if len(doc.tokens) >= 2]
    if not docs:
        raise ValueError("no document has the >= 2 tokens needed for a context window")

    rng = np.random.default_rng(config.seed)
    model = WordEmbeddingModel(
        input_matrix=(rng.random((vocab_size, d)) - 0.5) / d,
        output_matrix=np.zeros((vocab_size, d)),
        mode=mode,
        window=k,
        negatives=config.negatives,
        dim=d,
    )

    def windows(rows, tokens, valid, i):
        # the words around position i, in order, and which of them each document has
        around = [j for j in range(max(0, i - k), min(i + k + 1, tokens.shape[1])) if j != i]
        words, has = tokens[:, around], valid[:, around]
        counts = has.sum(axis=1)
        if mode is Word2VecMode.SKIPGRAM:
            return [_inputs(np.repeat(tokens[:, i], counts)[:, None], words[has])]
        return [_inputs(words[counts == n][has[counts == n]].reshape(-1, n),
                        tokens[counts == n, i]) for n in np.unique(counts).tolist()]
    _train(model.input_matrix, model.output_matrix, _block_plan(docs, windows), config, rng,
           _noise_cdf(_unigram_noise(corpus, vocab_size)))
    return model


def _dm_inputs(docs, context, targets, window: int, average: bool) -> tuple:
    """The `_inputs` of the input rows `docs` (a,) at a position whose
    preceding words are the rows of `context` (a, c) and whose words are
    `targets` (a,).  In average mode the doc row goes last, so the hidden
    sum is (sum of words) + doc; in concatenate mode it goes first, and
    the context fills the last of the `window` slots after it."""
    docs = np.reshape(docs, (-1, 1))
    context = np.array(context, dtype=np.intp, ndmin=2)
    if average:
        return _inputs(np.hstack((context, docs)), targets)
    return _inputs(np.hstack((docs, context)), targets, 1 + window - context.shape[1])


def train_doc2vec(corpus: list[TokenizedDocument], config: EmbedTrainConfig,
                  combine: CombineMode = CombineMode.AVERAGE, *,
                  vocab_size: int) -> DocEmbeddingModel:
    """Train a distributed-memory paragraph-vector model.

    At every position the document vector and the preceding `window`
    word vectors predict the current word through negative sampling;
    both the word matrix and the doc matrix are updated.  Blocks of
    TRAIN_BLOCK documents, in corpus order, advance in lockstep: each
    position of a block is one step of its documents that have not
    ended, from the parameters as the block's previous position left
    them, at the rate of its first document-position, with m negatives
    that all of them share.  Raises
    RuntimeError when training diverges to non-finite parameters.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    combine = CombineMode(combine)
    if any(not doc.tokens for doc in corpus):
        raise ValueError("corpus contains an empty document")
    V, d, k = vocab_size, config.dim, config.window
    average = combine is CombineMode.AVERAGE

    rng = np.random.default_rng(config.seed)
    # doc r is input row V + r, after the word rows
    X = (rng.random((V + len(corpus), d)) - 0.5) / d
    model = DocEmbeddingModel(
        word_matrix=X[:V],
        doc_matrix=X[V:],
        output_matrix=np.zeros((V, d if average else d * (1 + k))),
        combine=combine,
        window=k,
        negatives=config.negatives,
        dim=d,
        noise_probs=_unigram_noise(corpus, vocab_size),
    )

    def position(rows, tokens, valid, i):
        return [_dm_inputs(V + rows, tokens[:, max(0, i - k): i], tokens[:, i], k, average)]
    _train(X, model.output_matrix, _block_plan([doc.tokens for doc in corpus], position),
           config, rng, _noise_cdf(model.noise_probs))
    return model


# Documents inferred in lockstep at a time: bounds inference memory,
# whatever the number of documents.
INFER_BLOCK = 128

# Document-position-steps whose output rows one gather window takes: a
# short block's window covers whole passes, so a short question does not
# pay the window's calls per pass.  Wider windows speed up average-mode
# blocks, but concatenate mode's rows, 1 + window times as wide, spill cache.
INFER_WINDOW = 32


def _frozen_context(model: DocEmbeddingModel, tokens: np.ndarray,
                    valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What stays fixed at each position of a block whose (B, n_max)
    `tokens` are padded with word 0 where `valid` is False, past each
    document's end; the padding reaches only those positions.  alpha
    (n_max, 1, 1, 1), the doc vector's factor in the negated hidden
    vector h: -1/(1 + c) in average mode, with c context words, and -1 in
    concatenate mode.  And a view (n_max, B, K, 1) of the frozen words'
    part of h: the sum of the context rows times alpha in average mode (K
    = d), the negated context slots in concatenate mode (K = window * d),
    rows i..i+window of the document's word rows after `window` zero rows."""
    W, k, d = model.word_matrix, model.window, model.dim
    B, n_max = tokens.shape
    if model.combine is CombineMode.AVERAGE:
        alpha = -1.0 / (1 + np.minimum(np.arange(n_max), k))
        ctx = np.zeros((B, n_max, d))
        # The words of STEP_CHUNK // B positions (and the window before
        # them) at a time, added from 0.0 and the farthest word first: the
        # order in which np.sum adds a position's context rows, so every
        # sum keeps its bits.
        span = max(1, STEP_CHUNK // B)
        for i0 in range(0, n_max, span):
            lo, i1 = max(0, i0 - k), min(i0 + span, n_max)
            words = W.take(tokens[:, lo:i1], axis=0)
            for j in range(min(k, i1 - 1), 0, -1):
                a = max(i0, j)                 # the slab's first position with a word j back
                ctx[:, a:i1] += words[:, a - j - lo:i1 - j - lo]
        ctx[~valid] = 0.0
        ctx *= alpha[:, None]
        K = d
    else:
        alpha = -np.ones(n_max)
        ctx = np.zeros((B, k + n_max, d))
        for b, n in enumerate(valid.sum(axis=1).tolist()):
            np.take(W, tokens[b, :n], axis=0, out=ctx[b, k: k + n])
        np.negative(ctx, out=ctx)
        K = k * d
    s_b, s_i, s_e = ctx.strides
    context = np.lib.stride_tricks.as_strided(ctx, (n_max, B, K, 1), (s_i, s_b, s_e, s_e),
                                              writeable=False)
    return alpha[:, None, None, None], context


def _block_buffers(wide: int, B: int, m: int, D: int, d: int) -> tuple:
    """What inference of B documents in gather windows of `wide`
    position-steps writes: output rows G (wide, B, 1+m, D), their doc
    columns (G in average mode), keep times -lr * alpha (wide, B, 1, 1+m),
    the negated hidden vectors H (wide, B, D, 1); the doc vectors (B, d),
    the scores (B, 1+m, 1) and the doc steps (B, 1, d)."""
    G = np.empty((wide, B, 1 + m, D))
    shapes = (wide, B, 1, 1 + m), (wide, B, D, 1), (B, d), (B, 1 + m, 1), (B, 1, d)
    return (G, G if D == d else np.empty((wide, B, 1 + m, d)), *map(np.empty, shapes))


def _step_groups(buffers: tuple, plan: tuple) -> list[tuple]:
    """The `_frozen_window` plan of the first len(plan) position-steps of
    a `_block_buffers`, step s running the first a documents, whose
    vectors weigh alpha in h, (a, alpha) = plan[s]: per run of steps of
    the same a, the product, the views every step writes, whether h is
    all doc slot (average mode), and per step its views.  The index is
    [:a], or [0] for a lone document, whose views drop the batch axis so
    that its products run through ndarray.dot, the same BLAS gemv per
    document at less overhead; a document's rows have one width whatever
    the batch, so its arithmetic does not depend on the batch."""
    G, G_doc, K, H, vecs, scores, step = buffers
    g = scores.reshape(len(scores), 1, -1)         # the scores' memory, as rows
    zero_d = {alpha: np.array(alpha) for _, alpha in set(plan)}
    groups, s0 = [], 0
    for a, run in itertools.groupby(plan, key=lambda x: x[0]):
        alphas = [zero_d[alpha] for _, alpha in run]
        ix, product = (0, np.ndarray.dot) if a == 1 else (slice(a), np.matmul)
        at = slice(s0, s0 + len(alphas))
        steps = list(zip(alphas, G[at, ix], G_doc[at, ix], K[at, ix],
                         H[at, ix, None, :vecs.shape[1], 0], H[at, ix]))
        groups.append((product, vecs[ix, None], scores[ix], g[ix], step[ix], G_doc is G, steps))
        s0 = at.stop
    return groups


def _frozen_window(G: np.ndarray, doc_copy, slots: np.ndarray, context: np.ndarray,
                   groups: list) -> None:
    """The inference steps of one gather window, word and output matrices
    frozen.  Its `_frozen_context` (positions, B, K) fills h's `slots`
    (all of h in average mode); the target's row of its output rows G
    (passes, positions, B, 1+m, D) is negated, so that its entry of G @ h
    is the score and the draws' the negated scores; in concatenate mode
    `doc_copy` takes G's doc columns, which ndarray.dot would copy per
    step, so lone and batched steps round alike.  Each step: h = alpha *
    vec + c, s = G @ h, g = keep / (1 + exp(s)), -lr * alpha * dL/ds
    (negated for the target), and the doc step g @ G[..., :d] (-alpha is
    d h / d vec), subtracted from vec: 8 NumPy calls, 7 in concatenate mode."""
    np.copyto(slots, context)
    target = G[..., 0, :]
    np.negative(target, out=target)
    if doc_copy is not None:
        np.copyto(doc_copy, G[..., :doc_copy.shape[-1]])
    one = np.array(1.0)                   # 0-d: no Python float to convert per call
    multiply, exp, add, divide, subtract = np.multiply, np.exp, np.add, np.divide, np.subtract
    for product, vec, scores, g, step, average, steps in groups:
        for alpha, rows, doc_rows, keep, hv, h in steps:
            # h = alpha * vec + c; in average mode c fills h, so alpha * vec goes via `step`
            add(multiply(vec, alpha, step), hv, hv) if average else multiply(vec, alpha, hv)
            product(rows, h, scores)
            exp(g, g)
            add(g, one, g)
            divide(keep, g, g)               # 0 / x is 0 exactly
            product(g, doc_rows, step)
            subtract(vec, step, vec)


def _infer_block(model: DocEmbeddingModel, docs: list[list[int]], steps: int,
                 lr0: float, lr_min: float, seed: int) -> np.ndarray:
    """Doc vectors of `docs`, longest first, inferred in lockstep.  The
    negatives of STEP_CHUNK // (B * n_max) passes (at least one) are
    drawn at once.  A gather window takes the output rows of `span` =
    INFER_WINDOW // B (at least 1) positions of one pass or, when that is
    the whole pass, of INFER_WINDOW // (B * n_max) passes (at least 1).
    The steps' buffers and plan cover one gather window and every window
    reuses them, so only the frozen context and the drawn rows grow with
    the number of positions, and nothing with the number of passes."""
    B, d, m = len(docs), model.dim, model.negatives
    lengths, valid, tokens = _padded(docs)
    n_max = lengths[0]
    span = min(n_max, max(1, INFER_WINDOW // B))
    # passes run in order: a window of several passes holds whole passes
    per_window = max(1, INFER_WINDOW // (B * n_max)) if span == n_max else 1
    chunk = min(steps, max(1, STEP_CHUNK // (B * n_max)))
    cdf = _noise_cdf(model.noise_probs)
    rngs = [np.random.default_rng(seed) for _ in docs]
    buffers = G, G_doc, K, H, vecs, *_ = _block_buffers(
        per_window * span, B, m, model.output_matrix.shape[1], d)
    vecs[...] = [(rng.random(d) - 0.5) / d for rng in rngs]
    alpha, context = _frozen_context(model, tokens, valid)
    # Pass- then position-major, as are the rows drawn from it: [p0:p1,
    # i0:i1] is one gather window.
    uniform = np.zeros((chunk, n_max, B, m))
    active = valid.sum(axis=0).tolist()    # the documents at each position
    # gather windows by passes, in order; step groups by (documents, alpha) per step
    windows, plans = {}, {}

    def windows_of(q: int) -> list:
        if q not in windows:
            windows[q] = []
            for i0 in range(0, n_max, span):
                at = slice(i0, i0 + span)
                key = tuple(zip(active[at], alpha.ravel()[at].tolist())) * q
                if key not in plans:
                    plans[key] = _step_groups(buffers, key)
                n = len(key) // q
                G_w, doc_w, K_w, H_w = (x[:q * n].reshape(q, n, *x.shape[1:])
                                        for x in (G, G_doc, K, H))
                windows[q].append((at, G_w, K_w, None if G_doc is G else doc_w,
                                   H_w[..., -context.shape[2]:, 0], context[at, ..., 0],
                                   plans[key]))
        return windows[q]

    for e0 in range(0, steps, chunk):
        passes = min(chunk, steps - e0)
        # each document's own stream: one call per chunk, the same stream
        # as one call of n*m draws per pass
        for b, (rng, n) in enumerate(zip(rngs, lengths.tolist())):
            uniform[:passes, :n, b] = rng.random((passes, n, m))
        rows, kept = _step_rows(uniform[:passes], cdf, tokens.T)
        step = (e0 + np.arange(passes))[:, None, None] * lengths + np.arange(n_max)[:, None]
        lr = _learning_rate(lr0, lr_min, step, steps * lengths)[..., None] * -alpha[:, 0]
        for p0 in range(0, passes, per_window):
            ps = slice(p0, min(p0 + per_window, passes))
            for at, out, keep, *window in windows_of(ps.stop - p0):
                # ids are checked in infer_doc_vectors; "raise" would buffer `out`
                np.take(model.output_matrix, rows[ps, at], axis=0, out=out, mode="wrap")
                # keep times -lr * alpha: the target's entry is -lr * alpha itself
                np.multiply(kept[ps, at, ..., 0], lr[ps, at], out=keep[..., 0, :])
                _frozen_window(out, *window)
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
    # large output rows overflow exp in _frozen_window; keep / inf is 0, as it should be
    with np.errstate(over="ignore"):
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


def _w2v_shapes(V: int, dim: int, window: int, negatives: int, mode: Word2VecMode) -> dict:
    EmbedTrainConfig(dim=dim, window=window, negatives=negatives)  # settings training accepts
    return {"input_matrix": (V, dim), "output_matrix": (V, dim)}


def load_word2vec(path) -> WordEmbeddingModel:
    (_, dim, window, negatives, mode), arrays = read_model(
        path, _W2V_HEADER, _W2V_MAGIC, "word2vec model", _w2v_shapes, ("mode", _WORD_MODE_FLAG))
    return WordEmbeddingModel(**arrays, mode=mode, window=window, negatives=negatives, dim=dim)


def save_doc2vec(model: DocEmbeddingModel, path) -> None:
    write_model(path, _D2V_HEADER, (_D2V_MAGIC, model.vocab_size, model.n_docs, model.dim,
                                    model.window, model.negatives, _COMBINE_FLAG[model.combine]),
                (model.word_matrix, model.output_matrix, model.doc_matrix, model.noise_probs))


def _d2v_shapes(V: int, N: int, dim: int, window: int, negatives: int,
                combine: CombineMode) -> dict:
    EmbedTrainConfig(dim=dim, window=window, negatives=negatives)  # settings training accepts
    ctx_dim = dim * (1 + window) if combine is CombineMode.CONCATENATE else dim
    return {"word_matrix": (V, dim), "output_matrix": (V, ctx_dim), "doc_matrix": (N, dim),
            "noise_probs": (V,)}


def load_doc2vec(path, skip=()) -> DocEmbeddingModel:
    """The model in `path`; the matrices named in `skip` are left None."""
    (V, N, dim, window, negatives, combine), arrays = read_model(
        path, _D2V_HEADER, _D2V_MAGIC, "doc2vec model", _d2v_shapes,
        ("combine", _COMBINE_FLAG), skip)
    probs = arrays["noise_probs"]
    # inference draws negatives from the normalized cumulative sum
    if probs is not None and ((probs < 0).any() or not probs.sum() > 0):
        raise ValueError(f"noise distribution has a negative entry or sums to 0 in doc2vec "
                         f"model file: {path}")
    return DocEmbeddingModel(**arrays, combine=combine, window=window, negatives=negatives,
                             dim=dim, _sizes=(V, N))


def export_text(matrix: np.ndarray, vocab: Vocabulary, path) -> None:
    """Write "token v1 ... vd" lines for the given embedding matrix."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, token in enumerate(vocab.id_to_token):
            values = " ".join(f"{x:.6f}" for x in matrix[i])
            fh.write(f"{token} {values}\n")
