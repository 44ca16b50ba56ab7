"""Word and paragraph embeddings trained with negative sampling.

Implements CBOW and Skip-gram word models plus the distributed-memory
paragraph-vector model (doc vector combined with context word vectors to
predict the next word).  All training is single-threaded, seeded, and
bit-reproducible.  Vectors are stored one per row.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import TokenizedDocument, Vocabulary


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

    @property
    def vocab_size(self) -> int:
        return self.word_matrix.shape[0]

    @property
    def n_docs(self) -> int:
        return self.doc_matrix.shape[0]


def _log_sigmoid(x):
    # -softplus(-x), stable for large |x|
    return -(np.logaddexp(0.0, -x))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def context_probability(model: WordEmbeddingModel, center: int, context: list[int]) -> float:
    """CBOW probability of `center` given the averaged context rows.

    Full softmax over the vocabulary; used as a diagnostic, not in
    training (training uses negative sampling).
    """
    if len(context) == 0:
        raise ValueError("context must be non-empty")
    c = model.input_matrix[list(context)].mean(axis=0)
    probs = _softmax(model.output_matrix @ c)
    return float(probs[center])


def skipgram_probability(model: WordEmbeddingModel, center: int, outside: int) -> float:
    """Skip-gram probability of `outside` given `center`, full softmax."""
    probs = _softmax(model.output_matrix @ model.input_matrix[center])
    return float(probs[outside])


def _ns_update(output_matrix: np.ndarray, h: np.ndarray, target: int, negatives: list[int],
               lr: float, update_output: bool = True) -> tuple[float, np.ndarray]:
    """The negative-sampling kernel of every model here: the loss at the
    current parameters, its gradient with respect to the hidden vector `h`
    (the caller updates the rows `h` came from), and, when `update_output`,
    the SGD step on the touched output rows."""
    rows = [target] + list(negatives)
    out = output_matrix[rows]                  # copy, (1+m, d)
    s = out @ h
    loss = float(-_log_sigmoid(s[0]) - _log_sigmoid(-s[1:]).sum())

    # dL/ds = sigma(s) - label
    g = 1.0 / (1.0 + np.exp(-s))
    g[0] -= 1.0
    if update_output:
        np.add.at(output_matrix, rows, (-lr * g)[:, None] * h)
    return loss, g @ out


def negative_sampling_step(model: WordEmbeddingModel, center_or_context, target: int,
                           negatives: list[int], lr: float) -> float:
    """One SGD step of the logistic negative-sampling loss.

    `center_or_context` is a single id (skip-gram: hidden vector is that
    input row) or a list of ids (CBOW: hidden vector is their mean).
    The loss -log s(h.o_t) - sum -log s(-h.o_n) is computed at the current
    parameters, then only the touched rows are updated.  Returns the
    pre-update loss.
    """
    if target in negatives:
        raise ValueError("target must not appear among the negatives")

    cbow = not np.isscalar(center_or_context) and not isinstance(center_or_context, (int, np.integer))
    if cbow:
        context = list(center_or_context)
        if not context:
            raise ValueError("context must be non-empty")
        h = model.input_matrix[context].mean(axis=0)
    else:
        h = model.input_matrix[int(center_or_context)].copy()

    loss, grad_h = _ns_update(model.output_matrix, h, target, negatives, lr)
    if cbow:
        np.add.at(model.input_matrix, context, -lr * grad_h / len(context))
    else:
        model.input_matrix[int(center_or_context)] -= lr * grad_h
    return loss


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


def _draw_negatives(rng, cdf: np.ndarray, count: int, exclude: int) -> list[int]:
    # C-word2vec convention: a draw that hits the target is skipped
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return [int(j) for j in draws if j != exclude]


def _infer_vocab_size(corpus: list[TokenizedDocument]) -> int:
    top = -1
    for doc in corpus:
        if doc.tokens:
            top = max(top, max(doc.tokens))
    if top < 0:
        raise ValueError("corpus contains no tokens")
    return top + 1


def _positions(docs: list[list[int]], epochs: int, lr0: float, lr_min: float):
    """(doc index, tokens, position, learning rate) for every position of
    `epochs` passes over `docs`.  The rate decays linearly from lr0 toward
    lr_min over all positions of all epochs."""
    total_steps = epochs * sum(len(doc) for doc in docs)
    step = 0
    for _ in range(epochs):
        for row, doc in enumerate(docs):
            for i in range(len(doc)):
                yield row, doc, i, lr0 - (lr0 - lr_min) * step / total_steps
                step += 1


def _check_finite(*matrices: np.ndarray) -> None:
    # the training loops run with overflow warnings off; divergence shows here
    if not all(np.isfinite(m).all() for m in matrices):
        raise RuntimeError("embedding training diverged to non-finite values; "
                           "lower the learning rate")


def train_word2vec(corpus: list[TokenizedDocument], config: EmbedTrainConfig,
                   mode: Word2VecMode = Word2VecMode.CBOW,
                   vocab_size: int | None = None) -> WordEmbeddingModel:
    """Train a word2vec model with negative sampling.

    Negatives come from the corpus unigram distribution raised to 0.75.
    The learning rate decays linearly from learning_rate down to
    min_learning_rate over all center positions of all epochs.  Raises
    RuntimeError when training diverges to non-finite parameters.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    mode = Word2VecMode(mode)
    V = vocab_size if vocab_size is not None else _infer_vocab_size(corpus)
    d = config.dim

    docs = [doc.tokens for doc in corpus if len(doc.tokens) >= 2]
    if not docs:
        raise ValueError("no document has the >= 2 tokens needed for a context window")

    rng = np.random.default_rng(config.seed)
    model = WordEmbeddingModel(
        input_matrix=(rng.random((V, d)) - 0.5) / d,
        output_matrix=np.zeros((V, d)),
        mode=mode,
        window=config.window,
        negatives=config.negatives,
        dim=d,
    )
    cdf = _noise_cdf(_unigram_noise(corpus, V))
    k = config.window
    with np.errstate(over="ignore", invalid="ignore"):
        for _, doc, i, lr in _positions(docs, config.epochs, config.learning_rate,
                                        config.min_learning_rate):
            window = [doc[j] for j in range(max(0, i - k), min(len(doc), i + k + 1)) if j != i]
            if mode is Word2VecMode.CBOW:
                negs = _draw_negatives(rng, cdf, config.negatives, doc[i])
                negative_sampling_step(model, window, doc[i], negs, lr)
            else:
                for outside in window:
                    negs = _draw_negatives(rng, cdf, config.negatives, outside)
                    negative_sampling_step(model, doc[i], outside, negs, lr)
    _check_finite(model.input_matrix, model.output_matrix)
    return model


def _dm_hidden(model: DocEmbeddingModel, doc_vec: np.ndarray, context: list[int],
               n_missing: int) -> np.ndarray:
    """Combine doc vector and context word vectors per the model's mode.

    In concatenate mode the context occupies `window` fixed slots (oldest
    first); positions before the document start stay zero, so
    `n_missing` leading slots are padding.
    """
    if model.combine is CombineMode.AVERAGE:
        if context:
            return (doc_vec + model.word_matrix[context].sum(axis=0)) / (1 + len(context))
        return doc_vec.copy()
    d = model.dim
    h = np.zeros(d * (1 + model.window))
    h[:d] = doc_vec
    for slot, token in enumerate(context, start=n_missing):
        h[d * (1 + slot): d * (2 + slot)] = model.word_matrix[token]
    return h


def _dm_step(model: DocEmbeddingModel, doc_vec: np.ndarray, context: list[int],
             n_missing: int, target: int, negatives: list[int], lr: float,
             update_words: bool) -> float:
    """One negative-sampling update of the distributed-memory model.

    Gradients are evaluated at the current parameters, then applied to the
    doc vector (in place) and, when `update_words`, to the output rows and
    the context word rows.  Returns the pre-update loss.
    """
    h = _dm_hidden(model, doc_vec, context, n_missing)
    loss, grad_h = _ns_update(model.output_matrix, h, target, negatives, lr,
                              update_output=update_words)
    d = model.dim
    if model.combine is CombineMode.AVERAGE:
        scale = 1.0 / (1 + len(context))
        doc_vec -= lr * grad_h * scale
        if update_words and context:
            np.add.at(model.word_matrix, context, -lr * grad_h * scale)
    else:
        doc_vec -= lr * grad_h[:d]
        if update_words:
            for slot, token in enumerate(context, start=n_missing):
                model.word_matrix[token] -= lr * grad_h[d * (1 + slot): d * (2 + slot)]
    return loss


def _dm_train(model: DocEmbeddingModel, doc_vecs: np.ndarray, docs: list[list[int]],
              epochs: int, lr0: float, lr_min: float, rng, update_words: bool) -> None:
    """Distributed-memory SGD over `docs`, updating doc r's vector, row r of
    `doc_vecs`, in place; the word and output matrices only when
    `update_words` (training, not inference)."""
    cdf = _noise_cdf(model.noise_probs)
    k = model.window
    for row, tokens, i, lr in _positions(docs, epochs, lr0, lr_min):
        context = tokens[max(0, i - k): i]
        negs = _draw_negatives(rng, cdf, model.negatives, tokens[i])
        _dm_step(model, doc_vecs[row], context, k - len(context), tokens[i],
                 negs, lr, update_words)


def train_doc2vec(corpus: list[TokenizedDocument], config: EmbedTrainConfig,
                  combine: CombineMode = CombineMode.AVERAGE,
                  vocab_size: int | None = None) -> DocEmbeddingModel:
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
    V = vocab_size if vocab_size is not None else _infer_vocab_size(corpus)
    N = len(corpus)
    d = config.dim
    k = config.window
    ctx_dim = d if combine is CombineMode.AVERAGE else d * (1 + k)

    rng = np.random.default_rng(config.seed)
    model = DocEmbeddingModel(
        word_matrix=(rng.random((V, d)) - 0.5) / d,
        doc_matrix=(rng.random((N, d)) - 0.5) / d,
        output_matrix=np.zeros((V, ctx_dim)),
        combine=combine,
        window=k,
        negatives=config.negatives,
        dim=d,
        noise_probs=_unigram_noise(corpus, V),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _dm_train(model, model.doc_matrix, [doc.tokens for doc in corpus], config.epochs,
                  config.learning_rate, config.min_learning_rate, rng, update_words=True)
    _check_finite(model.word_matrix, model.doc_matrix, model.output_matrix)
    return model


def infer_doc_vector(model: DocEmbeddingModel, doc: TokenizedDocument, steps: int = 50,
                     lr: float = 0.025, min_lr: float = 1e-4, seed: int = 0) -> np.ndarray:
    """Fit a paragraph vector for a new document, word matrices frozen.

    A fresh uniformly initialized vector is optimized for `steps` passes
    over the document with the training update rule restricted to the
    doc vector.  The model itself is never modified.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not doc.tokens:
        raise ValueError("cannot infer a vector for an empty document")

    rng = np.random.default_rng(seed)
    vec = (rng.random(model.dim) - 0.5) / model.dim
    _dm_train(model, vec[None], [doc.tokens], steps, lr, min_lr, rng, update_words=False)
    return vec


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
# Binary model format: little-endian header + float32 row-major matrices
# ---------------------------------------------------------------------------

_W2V_MAGIC = b"W2V1"
_D2V_MAGIC = b"D2V1"
_W2V_HEADER = "<4sIIIIB"
_D2V_HEADER = "<4sIIIIIB"

_WORD_MODE_FLAG = {Word2VecMode.CBOW: 0, Word2VecMode.SKIPGRAM: 1}
_COMBINE_FLAG = {CombineMode.AVERAGE: 0, CombineMode.CONCATENATE: 1}


def _matrix_bytes(m: np.ndarray) -> bytes:
    return np.ascontiguousarray(m, dtype="<f4").tobytes()


def _read_matrix(fh, rows: int, cols: int) -> np.ndarray:
    data = fh.read(rows * cols * 4)
    if len(data) != rows * cols * 4:
        raise ValueError("truncated model file")
    return np.frombuffer(data, dtype="<f4").reshape(rows, cols).astype(np.float64)


def _read_header(fh, fmt: str, path) -> tuple:
    header = fh.read(struct.calcsize(fmt))
    if len(header) != struct.calcsize(fmt):
        raise ValueError(f"truncated model file: {path}")
    return struct.unpack(fmt, header)


def save_word2vec(model: WordEmbeddingModel, path) -> None:
    V = model.vocab_size
    with open(path, "wb") as fh:
        fh.write(struct.pack(_W2V_HEADER, _W2V_MAGIC, V, model.dim, model.window,
                             model.negatives, _WORD_MODE_FLAG[model.mode]))
        fh.write(_matrix_bytes(model.input_matrix))
        fh.write(_matrix_bytes(model.output_matrix))


def load_word2vec(path) -> WordEmbeddingModel:
    with open(path, "rb") as fh:
        magic, V, dim, window, negatives, flag = _read_header(fh, _W2V_HEADER, path)
        if magic != _W2V_MAGIC:
            raise ValueError(f"not a word2vec model file: {path}")
        mode = Word2VecMode.SKIPGRAM if flag else Word2VecMode.CBOW
        return WordEmbeddingModel(
            input_matrix=_read_matrix(fh, V, dim),
            output_matrix=_read_matrix(fh, V, dim),
            mode=mode, window=window, negatives=negatives, dim=dim,
        )


def save_doc2vec(model: DocEmbeddingModel, path) -> None:
    V, N = model.vocab_size, model.n_docs
    ctx_dim = model.output_matrix.shape[1]
    with open(path, "wb") as fh:
        fh.write(struct.pack(_D2V_HEADER, _D2V_MAGIC, V, N, model.dim, model.window,
                             model.negatives, _COMBINE_FLAG[model.combine]))
        fh.write(_matrix_bytes(model.word_matrix))
        fh.write(_matrix_bytes(model.output_matrix.reshape(V, ctx_dim)))
        fh.write(_matrix_bytes(model.doc_matrix))
        fh.write(_matrix_bytes(model.noise_probs.reshape(1, V)))


def load_doc2vec(path) -> DocEmbeddingModel:
    with open(path, "rb") as fh:
        magic, V, N, dim, window, negatives, flag = _read_header(fh, _D2V_HEADER, path)
        if magic != _D2V_MAGIC:
            raise ValueError(f"not a doc2vec model file: {path}")
        combine = CombineMode.CONCATENATE if flag else CombineMode.AVERAGE
        ctx_dim = dim if combine is CombineMode.AVERAGE else dim * (1 + window)
        return DocEmbeddingModel(
            word_matrix=_read_matrix(fh, V, dim),
            output_matrix=_read_matrix(fh, V, ctx_dim),
            doc_matrix=_read_matrix(fh, N, dim),
            combine=combine, window=window, negatives=negatives, dim=dim,
            noise_probs=_read_matrix(fh, 1, V).reshape(V),
        )


def export_text(matrix: np.ndarray, vocab: Vocabulary, path) -> None:
    """Write "token v1 ... vd" lines for the given embedding matrix."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, token in enumerate(vocab.id_to_token):
            values = " ".join(f"{x:.6f}" for x in matrix[i])
            fh.write(f"{token} {values}\n")
