"""Tokenization, vocabulary construction and QA dataset ingestion.

Raw text goes through three stages: tokenize (strings), build a
Vocabulary with frequency thresholding and two reserved symbols, then
encode every document into dense integer ids.  Question/answer datasets
are loaded into candidate pools from which labeled training pairs are
sampled.  Every text file is read by one of two readers: read_lines for
plain text and read_jsonl for JSONL records.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field

import numpy as np

LF_TOKEN = "<LF>"   # rare words below the frequency threshold
NUM_TOKEN = "<NUM>"  # any token containing a decimal digit


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _has_digit(token: str) -> bool:
    return any(ch.isdecimal() for ch in token)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges.

    Only Unicode punctuation (category P*) is stripped, so currency and
    other symbols survive: "($30.50)" -> "$30.50" but "born?" -> "born".
    Tokens that strip down to nothing are dropped.
    """
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and _is_punct(raw[start]):
            start += 1
        while end > start and _is_punct(raw[end - 1]):
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Token <-> id mapping with per-id corpus frequencies.

    Ids are dense 0..V-1, assigned to retained tokens in descending
    frequency order (ties lexicographic).  The two reserved symbols take
    the two highest ids: lf_id = V-2, num_id = V-1.  Frequencies of the
    reserved ids count the tokens that were mapped onto them during the
    build.  token_to_id, lf_id and num_id are derived from id_to_token.
    """

    id_to_token: list[str]
    frequency: list[int]
    token_to_id: dict[str, int] = field(init=False)
    lf_id: int = field(init=False)
    num_id: int = field(init=False)

    def __post_init__(self):
        n = len(self.id_to_token)
        regular = {t: i for i, t in enumerate(self.id_to_token[:-2])}
        object.__setattr__(self, "token_to_id", regular)
        object.__setattr__(self, "lf_id", n - 2)
        object.__setattr__(self, "num_id", n - 1)

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass(frozen=True)
class TokenizedDocument:
    """A document as a sequence of vocabulary ids."""

    doc_id: int
    tokens: list[int]


def _check_doc_ids(ids) -> None:
    """Doc ids are non-negative integers; NumPy indexing would wrap a negative one."""
    for i in ids:
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or i < 0:
            raise ValueError(f"doc ids must be non-negative integers, got {i!r}")


def check_label(label) -> None:
    """Binary labels are the integers 0 and 1; True and 1.0 compare equal
    to 1 but would be written back as `true` and `1.0`."""
    if not isinstance(label, (int, np.integer)) or isinstance(label, bool) or label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")


@dataclass(frozen=True)
class QAPair:
    """One (question doc, answer doc) pair with a binary match label."""

    question_doc: int
    answer_doc: int
    label: int

    def __post_init__(self):
        _check_doc_ids([self.question_doc, self.answer_doc])
        check_label(self.label)


@dataclass(frozen=True)
class CandidatePool:
    """A question with its ordered candidate answers.

    `correct` holds indices into `candidates`; it may be empty when the
    pool carries no gold answer.
    """

    question_doc: int
    candidates: list[int]
    correct: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        _check_doc_ids([self.question_doc, *self.candidates])
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidate doc ids must be unique within a pool")
        bad = [i for i in self.correct if not 0 <= i < len(self.candidates)]
        if bad:
            raise ValueError(f"correct indices out of range: {bad}")
        object.__setattr__(self, "correct", frozenset(self.correct))


def build_vocabulary(docs: list[list[str]], min_count: int = 5) -> Vocabulary:
    """Build a Vocabulary from raw token lists.

    Tokens containing a decimal digit are counted into <NUM> and never
    become regular entries.  Remaining tokens with corpus count below
    min_count are counted into <LF>.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")

    counts: dict[str, int] = {}
    num_freq = 0
    for doc in docs:
        for token in doc:
            if _has_digit(token):
                num_freq += 1
            else:
                counts[token] = counts.get(token, 0) + 1

    retained = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    lf_freq = sum(c for t, c in counts.items() if c < min_count)

    return Vocabulary(retained + [LF_TOKEN, NUM_TOKEN],
                      [counts[t] for t in retained] + [lf_freq, num_freq])


def encode(doc: list[str], vocab: Vocabulary, doc_id: int = 0) -> TokenizedDocument:
    """Map raw tokens to ids; digits go to num_id, unknowns to lf_id."""
    ids = []
    for token in doc:
        if _has_digit(token):
            ids.append(vocab.num_id)
        else:
            ids.append(vocab.token_to_id.get(token, vocab.lf_id))
    return TokenizedDocument(doc_id=doc_id, tokens=ids)


def encode_corpus(docs: list[list[str]], vocab: Vocabulary) -> list[TokenizedDocument]:
    """Encode a list of raw documents with sequential doc ids."""
    return [encode(doc, vocab, doc_id=i) for i, doc in enumerate(docs)]


def sample_pairs(
    pools: list[CandidatePool],
    n_pairs: int,
    positive_fraction: float = 0.5,
    seed: int = 0,
) -> list[QAPair]:
    """Sample labeled (question, answer) pairs from candidate pools.

    Positives are drawn uniformly (with replacement) over all
    (question, correct-candidate) pairs across pools, negatives over all
    (question, incorrect-candidate) pairs.  The number of positives is
    round(n_pairs * positive_fraction); the combined list is shuffled.
    Deterministic for a fixed seed.
    """
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    if not 0.0 <= positive_fraction <= 1.0:
        raise ValueError("positive_fraction must lie in [0, 1]")

    positives = []
    negatives = []
    for pool in pools:
        for idx, cand in enumerate(pool.candidates):
            if idx in pool.correct:
                positives.append((pool.question_doc, cand))
            else:
                negatives.append((pool.question_doc, cand))

    n_pos = int(round(n_pairs * positive_fraction))
    n_neg = n_pairs - n_pos
    if n_pos > 0 and not positives:
        raise ValueError("positive pairs requested but no pool has a correct answer")
    if n_neg > 0 and not negatives:
        raise ValueError("negative pairs requested but no pool has an incorrect candidate")

    rng = np.random.default_rng(seed)
    pairs = []
    if n_pos:
        for i in rng.integers(0, len(positives), size=n_pos):
            q, a = positives[i]
            pairs.append(QAPair(q, a, 1))
    if n_neg:
        for i in rng.integers(0, len(negatives), size=n_neg):
            q, a = negatives[i]
            pairs.append(QAPair(q, a, 0))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file without their line ends.  Lines end
    at "\n", "\r\n" or "\r" only, as in file iteration: a form feed,
    U+0085 or U+2028 stays inside its line."""
    with open(path, encoding="utf-8") as fh:
        try:
            return [line.removesuffix("\n") for line in fh]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def read_jsonl(path, what: str, parse) -> list:
    """`parse(record)` for the JSON record on each non-blank line of a
    JSONL file.  A line that is not JSON (nested too deep for the parser
    among them), or whose record `parse` rejects with KeyError, TypeError
    or ValueError, raises a ValueError naming the path, the line number
    and `what`."""
    parsed = []
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            parsed.append(parse(json.loads(line)))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{line_no}: malformed {what} record: {exc}") from exc
    return parsed


def load_corpus_file(path) -> list[list[str]]:
    """Read a plain-text corpus, one document per line, tokenized."""
    return [tokenize(line) for line in read_lines(path)]


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write "token<TAB>id<TAB>frequency" lines, one per vocabulary id."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, token in enumerate(vocab.id_to_token):
            fh.write(f"{token}\t{i}\t{vocab.frequency[i]}\n")


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary file written by save_vocabulary."""
    ids: dict[str, int] = {}
    frequency: list[int] = []
    for line_no, line in enumerate(read_lines(path), start=1):
        try:
            token, idx, freq = line.split("\t")
            idx, freq = int(idx), int(freq)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: malformed vocabulary line: {line!r}") from None
        if idx != len(frequency):
            raise ValueError(f"non-dense id {idx} in vocabulary file {path}")
        if ids.setdefault(token, idx) != idx:
            raise ValueError(f"{path}:{line_no}: duplicate vocabulary token {token!r}")
        frequency.append(freq)
    id_to_token = list(ids)
    if id_to_token[-2:] != [LF_TOKEN, NUM_TOKEN]:
        raise ValueError(f"vocabulary file {path} lacks the reserved symbols")
    return Vocabulary(id_to_token, frequency)


def _qa_record(record) -> tuple[str, list[str], list[int]]:
    """A QA record's question, its distinct candidate texts in order of
    first appearance, and the positions of its correct ones among them."""
    question, candidates = record["question"], record["candidates"]
    correct = record.get("correct", [])
    if not isinstance(question, str):
        raise TypeError(f"question must be a string, got {question!r}")
    if not isinstance(candidates, list) or not all(isinstance(c, str) for c in candidates):
        raise TypeError(f"candidates must be a list of strings, got {candidates!r}")
    if not isinstance(correct, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in correct):
        raise TypeError(f"correct must be a list of integers, got {correct!r}")
    bad = [i for i in correct if not 0 <= i < len(candidates)]
    if bad:
        raise ValueError(f"correct indices out of range: {bad}")
    # a candidate text repeated within one pool is one candidate
    distinct = list(dict.fromkeys(candidates))
    return question, distinct, [distinct.index(candidates[i]) for i in correct]


def load_qa_dataset(path) -> tuple[list[str], list[str], list[CandidatePool]]:
    """Load a JSONL QA dataset into texts plus candidate pools.

    Each line is {"question": str, "candidates": [str], "correct": [int]}.
    Returns (question_texts, answer_texts, pools) where answer texts are
    deduplicated across pools and pools reference doc ids into the two
    text lists.
    """
    records = read_jsonl(path, "QA", _qa_record)
    if not records:
        raise ValueError(f"no QA records found in {path}")
    answer_ids: dict[str, int] = {}
    pools = [CandidatePool(q_id, [answer_ids.setdefault(t, len(answer_ids)) for t in texts],
                           correct)
             for q_id, (_, texts, correct) in enumerate(records)]
    return [question for question, _, _ in records], list(answer_ids), pools


def save_pairs(pairs: list[QAPair], path) -> None:
    """Write pairs as JSONL {"question_doc", "answer_doc", "label"}."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps(
                {"question_doc": p.question_doc, "answer_doc": p.answer_doc, "label": p.label}
            ) + "\n")


def load_pairs(path) -> list[QAPair]:
    """Read a JSONL pair file written by save_pairs."""
    return read_jsonl(path, "pair", lambda record: QAPair(
        record["question_doc"], record["answer_doc"], record["label"]))
