"""Span tracer that wraps qasim's public functions from outside the package.

The tracer replaces each `module.function` named in TRACED with a wrapper
that records one span per call: name, start, end, parent span and, for
some names, work counts read off the call's arguments and result.  The
CLI reaches these functions as module attributes (`embedding.train_doc2vec`,
`simnet.gradients`, ...), and calls inside a module look the name up in
the module's globals, so replacing the attribute catches both.

Spans stay in memory and are written out when the traced process ends.
A name that the code under test does not define is reported as absent;
the benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import time

TRACED = (
    "corpus.tokenize",
    "corpus.encode",
    "corpus.encode_corpus",
    "corpus.build_vocabulary",
    "corpus.load_qa_dataset",
    "corpus.load_corpus_file",
    "corpus.sample_pairs",
    "corpus.save_vocabulary",
    "corpus.load_vocabulary",
    "corpus.save_pairs",
    "corpus.load_pairs",
    "embedding.train_doc2vec",
    "embedding.train_word2vec",
    "embedding.infer_doc_vector",
    "embedding.save_doc2vec",
    "embedding.load_doc2vec",
    "embedding.save_word2vec",
    "embedding.load_word2vec",
    "embedding.export_text",
    "simnet.init_network",
    "simnet.gradients",
    "simnet.score",
    "simnet.score_batch",
    "simnet.save_simnet",
    "simnet.load_simnet",
    "training.train_simnet",
    "training.evaluate_pair_accuracy",
    "retrieval.select_answer",
    "retrieval.route",
    "retrieval.pool_report",
    "retrieval.evaluate_pool_accuracy",
    "evaluation.bow_matrix",
    "evaluation.bow_features",
)


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > position:
        return args[position]
    return default


def _doc_tokens(docs) -> int:
    return sum(len(d.tokens) for d in docs)


def _embed_token_steps(args, kwargs, result) -> dict:
    corpus = _arg(args, kwargs, 0, "corpus")
    config = _arg(args, kwargs, 1, "config")
    return {"token_steps": config.epochs * _doc_tokens(corpus)}


def _infer_token_steps(args, kwargs, result) -> dict:
    doc = _arg(args, kwargs, 1, "doc")
    steps = _arg(args, kwargs, 2, "steps", 50)
    return {"token_steps": steps * len(doc.tokens)}


# Work counts per traced name, computed from (args, kwargs, result).  A
# counter that no longer fits the code under test is skipped, never fatal.
COUNTERS = {
    "corpus.encode": lambda a, kw, r: {"tokens": len(r.tokens)},
    "corpus.encode_corpus": lambda a, kw, r: {"tokens": _doc_tokens(r)},
    "embedding.train_doc2vec": _embed_token_steps,
    "embedding.train_word2vec": _embed_token_steps,
    "embedding.infer_doc_vector": _infer_token_steps,
    "simnet.score_batch": lambda a, kw, r: {"rows": len(r)},
    "training.train_simnet": lambda a, kw, r: {"epochs": len(r[1].epochs)},
    "retrieval.select_answer": lambda a, kw, r: {
        "candidates": len(_arg(a, kw, 2, "pool").candidates)},
}


class Tracer:
    """In-memory span recorder.

    Each span is [name, start_s, end_s, parent_index_or_None, counts].
    Times come from time.perf_counter.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                try:
                    self.spans[index][4] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counter_errors.add(name)
            return result

        return traced

    def install(self, names=TRACED) -> list[str]:
        """Wrap every name that exists; return the names that are absent."""
        absent = []
        for dotted in names:
            module_name, attr = dotted.rsplit(".", 1)
            try:
                module = importlib.import_module(f"qasim.{module_name}")
            except ImportError:
                absent.append(dotted)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(dotted)
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(dotted, fn))
        return absent

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(index, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out
