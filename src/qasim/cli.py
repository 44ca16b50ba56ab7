"""Command-line pipeline: vocabularies, embeddings, similarity training,
evaluation, and an interactive ask loop.

Every command is seeded and idempotent: identical inputs, flags, and
seeds produce byte-identical outputs.  Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import math
import os
import sys

import numpy as np

from . import corpus, embedding, evaluation, modelfile, retrieval, simnet, training

PROG = "qasim"
SEED_ENV_VAR = "QASIM_SEED"

_SECTIONS = {"embedding": embedding.EmbedTrainConfig, "simnet": training.SimTrainConfig}
# The other top-level config keys: (type, default), where None means no
# default.  Each is also the flag `--key-name` of the commands that use it.
_TOP_FIELDS = {"seed": (int, 0), "min_count": (int, 5), "threshold": (float, 0.7),
               "positive_fraction": (float, 0.5), "n_pairs": (int, None)}
# The closed range of each top-level setting that has one; the threshold's
# open range is checked by retrieval.check_threshold.
_TOP_RANGES = {"min_count": (1, math.inf), "n_pairs": (0, math.inf), "positive_fraction": (0, 1)}
# Config fields whose command-line flag has another name; every other
# field `foo_bar` is set by `--foo-bar`.
_FLAG_OF_FIELD = {"learning_rate": "lr", "min_learning_rate": "min_lr",
                  "dropout_p": "dropout", "early_stop_patience": "patience"}


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def _require(ok: bool, name: str, bound: str, value) -> None:
    """Exit 2 with `<name> must <bound>, got <value>` unless `ok`."""
    if not ok:
        raise UsageError(f"{name} must {bound}, got {value}")


def _require_infer_steps(steps: int) -> None:
    top = embedding.MAX_INFER_STEPS
    _require(1 <= steps <= top, "--infer-steps", "be >= 1" if steps < 1 else f"be <= {top}", steps)


def _parse_list(text: str, kind, name: str, items: str) -> list:
    """A comma-separated flag value as a list of `kind`."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError:
        raise UsageError(f"{name} must be comma-separated {items}, got {text!r}") from None


def _require_file(path, what: str) -> str:
    if path is None:
        raise UsageError(f"missing required {what}")
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    if not os.path.isfile(path):
        raise UsageError(f"{what} is not a regular file: {path}")
    return path


def _load_config(path) -> dict:
    if path is None:
        return {}
    _require_file(path, "config file")
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    _check_fields({k: v for k, v in config.items() if k not in _SECTIONS},
                  {key: kind for key, (kind, _) in _TOP_FIELDS.items()}, "")
    for section, cls in _SECTIONS.items():
        values = config.get(section, {})
        if not isinstance(values, dict):
            raise UsageError(f"config field {section} must hold a JSON object")
        _check_fields(values, {f.name: type(f.default) for f in dataclasses.fields(cls)},
                      section + ".")
    return config


def _check_fields(values: dict, kinds: dict, prefix: str) -> None:
    """Every key of `values` is a field in `kinds` and its value fits the
    field's type: an int field takes an integer, a float field any number,
    an enum field a string; none takes a bool."""
    for key, value in values.items():
        if key not in kinds:
            raise UsageError(f"unknown config field: {prefix}{key}")
        kind = kinds[key]
        if issubclass(kind, enum.Enum):
            types, name = str, "a string"
        elif kind is float:
            types, name = (int, float), "a number"
        else:
            types, name = kind, f"of type {kind.__name__}"
        if isinstance(value, bool) or not isinstance(value, types):
            raise UsageError(f"invalid config field: {prefix}{key} must be {name}, got {value!r}")


def _resolve(args, key: str, default, *configs: dict):
    """`key`'s flag if given, else its value in the first config dict that
    sets it, else `default`."""
    value = getattr(args, _FLAG_OF_FIELD.get(key, key), None)
    for config in configs:
        if value is None:
            value = config.get(key)
    return default if value is None else value


def _setting(args, config: dict, key: str):
    """A top-level setting: its flag, else the config file, else its
    default; checked against its range, if it has one."""
    value = _resolve(args, key, _TOP_FIELDS[key][1], config)
    if key in _TOP_RANGES and value is not None:
        low, high = _TOP_RANGES[key]
        _require(low <= value <= high, key,
                 f"be >= {low}" if high == math.inf else f"lie in [{low}, {high}]", value)
    return value


def _threshold(args, config: dict) -> float:
    try:
        return retrieval.check_threshold(_setting(args, config, "threshold"))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _seed(args, config: dict, section: str | None = None) -> int:
    """Flag, else the config section named `section`, else the config
    file, else QASIM_SEED, else the default.  A negative seed exits 2,
    naming where it was set."""
    for source, seed in (("--seed", args.seed),
                         (f"config field {section}.seed", config.get(section, {}).get("seed")),
                         ("config field seed", config.get("seed")),
                         (SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR))):
        if seed is None:
            continue
        if source == SEED_ENV_VAR:
            try:
                seed = int(seed)
            except ValueError:
                raise UsageError(f"invalid {SEED_ENV_VAR}: {seed!r} is not an integer") from None
        _require(seed >= 0, source, "be >= 0", seed)
        return seed
    return _TOP_FIELDS["seed"][1]


def _section_config(args, config: dict, section_name: str):
    """The section's config dataclass: each field from its flag, else the
    section, else the dataclass default; the seed as `_seed` resolves it."""
    cls = _SECTIONS[section_name]
    section = config.get(section_name, {})
    values = {f.name: _resolve(args, f.name, f.default, section)
              for f in dataclasses.fields(cls) if f.name != "seed"}
    try:
        return cls(**values, seed=_seed(args, config, section_name))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config field: {exc}") from exc


def _echo(command: str, resolved: dict) -> None:
    print(json.dumps({"command": command, "resolved": resolved}, sort_keys=True, default=str))


def _load_raw_docs(args) -> list[list[str]]:
    """Corpus documents from a plain-text file or one side of a QA file."""
    if getattr(args, "qa_file", None):
        path = _require_file(args.qa_file, "QA dataset file")
        questions, answers, _ = corpus.load_qa_dataset(path)
        texts = questions if args.side == "question" else answers
        return [corpus.tokenize(t) for t in texts]
    return corpus.load_corpus_file(_require_file(args.corpus, "corpus file"))


def cmd_build_vocab(args, config: dict) -> int:
    min_count = _setting(args, config, "min_count")
    docs = _load_raw_docs(args)
    vocab = corpus.build_vocabulary(docs, min_count=min_count)
    corpus.save_vocabulary(vocab, args.out)
    _echo("build-vocab", {"min_count": min_count, "out": args.out})
    # the reserved ids' frequencies count the tokens that encoding maps onto them
    print(json.dumps({"vocab_size": len(vocab), "tokens": sum(map(len, docs)),
                      "lf_replacements": vocab.frequency[vocab.lf_id],
                      "num_replacements": vocab.frequency[vocab.num_id]}, sort_keys=True))
    return 0


def cmd_train_embedding(args, config: dict) -> int:
    """train-word2vec or train-doc2vec, as `args.kind` says.  The trainer
    and the saver are looked up on `embedding` at each call, so a wrapper
    set there runs."""
    cfg = _section_config(args, config, "embedding")
    vocab = corpus.load_vocabulary(_require_file(args.vocab, "vocabulary file"))
    docs = corpus.encode_corpus(_load_raw_docs(args), vocab)
    mode = getattr(args, args.mode_flag)  # the trainer turns the value into its enum
    _echo(args.subcommand, {**dataclasses.asdict(cfg), args.mode_flag: mode, "out": args.out})
    model = getattr(embedding, "train_" + args.kind)(docs, cfg, mode, vocab_size=len(vocab))
    getattr(embedding, "save_" + args.kind)(model, args.out)
    if args.export_text:
        embedding.export_text(getattr(model, args.export_matrix), vocab, args.export_text)
    return 0


def cmd_sample_pairs(args, config: dict) -> int:
    n_pairs = _setting(args, config, "n_pairs")
    if n_pairs is None:
        raise UsageError("missing required n_pairs (flag --n-pairs or config)")
    fraction = _setting(args, config, "positive_fraction")
    seed = _seed(args, config)
    _, _, pools = corpus.load_qa_dataset(_require_file(args.qa_file, "QA dataset file"))
    pairs = corpus.sample_pairs(pools, n_pairs, positive_fraction=fraction, seed=seed)
    corpus.save_pairs(pairs, args.out)
    _echo("sample-pairs", {"n_pairs": n_pairs, "positive_fraction": fraction,
                           "seed": seed, "out": args.out})
    return 0


def _load_sides(args, infer: tuple, net=None) -> list:
    """[(q_model, q_vocab), (a_model, a_vocab)]: each side's doc2vec model
    with only the matrices that its use reads (inference needs no doc
    matrix, and a lookup of the trained doc vectors needs nothing else)
    and, for an inferred side, its vocabulary, checked against the model;
    else None for the vocabulary.  Both sides' doc vectors must have one
    size, which `net`, if given, takes as its input."""
    sides = []
    for side, what, inferred in zip("qa", ("question", "answer"), infer):
        skip = ("doc_matrix",) if inferred else ("word_matrix", "output_matrix", "noise_probs")
        model = embedding.load_doc2vec(
            _require_file(getattr(args, side + "_model"), f"{what} doc2vec model"), skip=skip)
        vocab = None
        if inferred:
            vocab = corpus.load_vocabulary(_require_file(getattr(args, side + "_vocab"),
                                                         f"{what} vocabulary"))
            if len(vocab) != model.vocab_size:
                raise UsageError(f"{what} vocabulary holds {len(vocab)} tokens but its doc2vec "
                                 f"model has {model.vocab_size}")
        sides.append((model, vocab))
    (q_model, _), (a_model, _) = sides
    if q_model.dim != a_model.dim:
        raise UsageError(f"doc2vec dimensions differ: {q_model.dim} vs {a_model.dim}")
    if net is not None and net.layer_dims[0] != q_model.dim:
        raise UsageError(f"doc2vec vectors have {q_model.dim} dimensions but the similarity "
                         f"network takes {net.layer_dims[0]}")
    return sides


def cmd_train_simnet(args, config: dict) -> int:
    _require(0 < args.val_fraction < 1, "--val-fraction", "lie in (0, 1)", args.val_fraction)
    cfg = _section_config(args, config, "simnet")
    pairs = corpus.load_pairs(_require_file(args.pairs, "pair file"))
    (q_model, _), (a_model, _) = _load_sides(args, (False, False))

    if args.val_pairs:
        val_pairs = corpus.load_pairs(_require_file(args.val_pairs, "validation pair file"))
        train_pairs = pairs
    else:
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(pairs))
        n_val = max(1, int(round(args.val_fraction * len(pairs))))
        if n_val >= len(pairs):
            raise UsageError("validation split leaves no training pairs")
        val_pairs = [pairs[i] for i in order[:n_val]]
        train_pairs = [pairs[i] for i in order[n_val:]]

    _echo("train-simnet", {**dataclasses.asdict(cfg), "out": args.out,
                           "n_train": len(train_pairs), "n_val": len(val_pairs)})
    features = (q_model.doc_matrix, a_model.doc_matrix)
    net, report = training.train_simnet(train_pairs, val_pairs, features, cfg)
    simnet.save_simnet(net, args.out)
    base = args.report or f"{args.out}.report"
    report.to_jsonl(base + ".jsonl")
    report.to_csv(base + ".csv")
    print(json.dumps({"best_epoch": report.best_epoch,
                      "completed_epochs": len(report.epochs),
                      "stopping_reason": report.stopping_reason,
                      "best_val_acc": report.epochs[report.best_epoch].val_acc},
                     sort_keys=True))
    return 0


def _doc_vectors(texts, model, vocab, args, seed: int, what: str) -> np.ndarray:
    """Doc-matrix rows when the file matches the trained corpus, else inference."""
    if not args.infer_vectors:
        if len(texts) != model.n_docs:
            raise UsageError(
                f"{what}: {len(texts)} documents but the model holds {model.n_docs} "
                f"doc vectors; pass --infer-vectors for unseen documents")
        return model.doc_matrix
    docs = [corpus.encode(corpus.tokenize(text), vocab, doc_id=i) for i, text in enumerate(texts)]
    try:
        return embedding.infer_doc_vectors(model, docs, steps=args.infer_steps, seed=seed)
    except ValueError as exc:         # name the side: doc ids restart on each
        raise ValueError(f"{what}: {exc}") from None


def _bow_cosine_top1(q_texts, a_texts, pools, min_count: int):
    """Baseline: rank candidates by cosine of bag-of-words histograms
    over a joint vocabulary built from the evaluation texts."""
    docs = [corpus.tokenize(t) for t in q_texts + a_texts]
    vocab = corpus.build_vocabulary(docs, min_count=min_count)
    encoded = corpus.encode_corpus(docs, vocab)
    X = evaluation.bow_matrix(encoded, vocab)
    X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)  # a count row: 0 or >= 1
    answers = X[len(q_texts):]
    picks = [int(np.argmax(answers[pool.candidates] @ X[pool.question_doc])) for pool in pools]
    return retrieval.pool_top1(pools, picks)


def cmd_eval(args, config: dict) -> int:
    if args.infer_vectors:
        _require_infer_steps(args.infer_steps)
    threshold = _threshold(args, config)
    min_count = _setting(args, config, "min_count") if args.bow_baseline else None
    seed = _seed(args, config)
    q_texts, a_texts, pools = corpus.load_qa_dataset(_require_file(args.qa_file, "QA dataset file"))
    net = simnet.load_simnet(_require_file(args.simnet, "similarity network file"))
    (q_model, q_vocab), (a_model, a_vocab) = _load_sides(args, (args.infer_vectors,) * 2, net)
    q_vectors = _doc_vectors(q_texts, q_model, q_vocab, args, seed, "questions")
    a_vectors = _doc_vectors(a_texts, a_model, a_vocab, args, seed, "answers")

    report = retrieval.pool_report(net, pools, (q_vectors, a_vectors), threshold=threshold)
    if args.pairs:
        pairs = corpus.load_pairs(_require_file(args.pairs, "pair file"))
        report["pair_accuracy"] = training.evaluate_pair_accuracy(
            net, pairs, (q_vectors, a_vectors))
    else:
        report["pair_accuracy"] = None
    if args.bow_baseline:
        report["bow_cosine_top1"] = _bow_cosine_top1(q_texts, a_texts, pools, min_count)

    _echo("eval", {"threshold": threshold, "infer_vectors": bool(args.infer_vectors)})
    payload = json.dumps(report, sort_keys=True)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return 0


def cmd_classify(args, config: dict) -> int:
    ratios = _parse_list(args.ratios, float, "--ratios", "numbers")
    seeds = _parse_list(args.seeds, int, "--seeds", "integers")
    _require(all(0 < r < 1 for r in ratios), "--ratios", "lie in (0, 1)", args.ratios)
    _require(min(seeds) >= 0, "--seeds", "be >= 0", min(seeds))
    _require(args.clf_epochs >= 1, "--clf-epochs", "be >= 1", args.clf_epochs)
    # an infinite rate or a penalty past float32's range exits 2; a finite
    # rate that diverges raises in training
    _require(math.isfinite(args.clf_lr), "--clf-lr", "be finite", args.clf_lr)
    _require(args.clf_lr > 0, "--clf-lr", "be > 0", args.clf_lr)
    _require(math.isfinite(args.clf_reg), "--clf-reg", "be finite", args.clf_reg)
    _require(args.clf_reg >= 0, "--clf-reg", "be >= 0", args.clf_reg)
    _require(args.clf_reg <= modelfile.FLOAT32_MAX, "--clf-reg",
             f"be <= {modelfile.FLOAT32_MAX:.4g}", args.clf_reg)
    min_count = _setting(args, config, "min_count")
    cfg = _section_config(args, config, "embedding")
    texts, labels01 = evaluation.load_labeled_texts(_require_file(args.data, "labeled data file"))
    docs = [corpus.tokenize(t) for t in texts]
    vocab = corpus.build_vocabulary(docs, min_count=min_count)
    encoded = corpus.encode_corpus(docs, vocab)
    labels = np.array(labels01, dtype=np.float64) * 2.0 - 1.0
    _echo("classify", {**dataclasses.asdict(cfg), "ratios": ratios, "seeds": seeds,
                       "min_count": min_count})

    bow = evaluation.bow_matrix(encoded, vocab)
    model = embedding.train_doc2vec(encoded, cfg, vocab_size=len(vocab))
    curves = {kind: evaluation.learning_curve(features, labels, ratios, seeds,
                                              epochs=args.clf_epochs, lr=args.clf_lr,
                                              reg=args.clf_reg)
              for kind, features in (("bow", bow), ("doc2vec", model.doc_matrix))}
    evaluation.save_learning_curves(curves, args.out)
    print(json.dumps({kind: [[r, m, s] for r, m, s in points]
                      for kind, points in curves.items()}, sort_keys=True))
    return 0


def cmd_ask(args, config: dict) -> int:
    _require_infer_steps(args.infer_steps)
    threshold = _threshold(args, config)
    seed = _seed(args, config)
    net = simnet.load_simnet(_require_file(args.simnet, "similarity network file"))
    # a question is inferred, never looked up; an answer is only looked up
    (q_model, q_vocab), (a_model, _) = _load_sides(args, (True, False), net)
    answer_texts = corpus.read_lines(_require_file(args.answers, "answers file"))
    if len(answer_texts) != a_model.n_docs:
        raise UsageError(f"answers file holds {len(answer_texts)} lines but the model "
                         f"has {a_model.n_docs} doc vectors")
    index = retrieval.AnswerIndex(net, a_model.doc_matrix)
    del a_model      # the session reads only the index's head terms
    candidates = np.arange(len(answer_texts))

    print("ready (one question per line, EOF to quit)", file=sys.stderr)
    for line in sys.stdin:
        text = line.strip()
        if not text:
            print("question> ", file=sys.stderr)
            continue
        tokens = corpus.tokenize(text)
        if not tokens:
            print(f"warning: no usable tokens in input line: {text!r}", file=sys.stderr)
            continue
        doc = corpus.encode(tokens, q_vocab)
        q_vec = embedding.infer_doc_vector(q_model, doc, steps=args.infer_steps, seed=seed)
        best, best_score = index.select(q_vec, candidates)
        if retrieval.route(best_score, threshold) is retrieval.RoutingOutcome.ANSWER:
            print(f"answer ({best_score:.4f}): {answer_texts[best]}")
        else:
            print(f"escalate ({best_score:.4f}): confidence below threshold {threshold}")
    return 0


def _add_corpus_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", help="plain-text corpus, one document per line")
    p.add_argument("--qa-file", help="JSONL QA dataset to take documents from")
    p.add_argument("--side", choices=["question", "answer"], default="question",
                   help="which side of the QA file to use (with --qa-file)")


def _add_section_flags(p: argparse.ArgumentParser, section: str) -> None:
    """One flag per field of the section's config dataclass (the seed is
    the common `--seed`), typed like the field's default."""
    for f in dataclasses.fields(_SECTIONS[section]):
        if f.name == "seed":
            continue
        flag = "--" + _FLAG_OF_FIELD.get(f.name, f.name).replace("_", "-")
        if isinstance(f.default, enum.Enum):
            p.add_argument(flag, choices=[m.value for m in type(f.default)])
        else:
            p.add_argument(flag, type=type(f.default))


def _add_top_flags(p: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), type=_TOP_FIELDS[key][0])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qasim` parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        _add_top_flags(p, "seed")

    p = sub.add_parser("build-vocab", help="build and save a vocabulary")
    common(p)
    _add_corpus_source(p)
    _add_top_flags(p, "min_count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    # the two embedding trainers differ only in what they train, the mode
    # flag and its default, and the matrix that --export-text writes
    for kind, what, flag, default, export_matrix in (
            ("word2vec", "word vectors", "mode", embedding.Word2VecMode.CBOW, "input_matrix"),
            ("doc2vec", "paragraph vectors", "combine", embedding.CombineMode.AVERAGE,
             "word_matrix")):
        p = sub.add_parser("train-" + kind, help="train " + what)
        common(p)
        _add_corpus_source(p)
        _add_section_flags(p, "embedding")
        p.add_argument("--export-text", help="also write a text-format embedding table")
        p.add_argument("--vocab", required=True)
        p.add_argument("--" + flag, choices=[m.value for m in type(default)],
                       default=default.value)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_train_embedding, kind=kind, mode_flag=flag,
                       export_matrix=export_matrix)

    p = sub.add_parser("sample-pairs", help="sample labeled pairs from candidate pools")
    common(p)
    p.add_argument("--qa-file", required=True)
    _add_top_flags(p, "n_pairs", "positive_fraction")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_pairs)

    p = sub.add_parser("train-simnet", help="train the similarity network")
    common(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--val-pairs")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="held-out fraction when --val-pairs is not given")
    p.add_argument("--q-model", required=True)
    p.add_argument("--a-model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="report basename (.jsonl and .csv are appended)")
    _add_section_flags(p, "simnet")
    p.set_defaults(func=cmd_train_simnet)

    p = sub.add_parser("eval", help="evaluate pool and pair accuracy")
    common(p)
    p.add_argument("--qa-file", required=True)
    p.add_argument("--pairs", help="optional test pair file for pair accuracy")
    p.add_argument("--q-model", required=True)
    p.add_argument("--a-model", required=True)
    p.add_argument("--simnet", required=True)
    _add_top_flags(p, "threshold")
    p.add_argument("--infer-vectors", action="store_true",
                   help="infer doc vectors instead of using trained rows")
    p.add_argument("--infer-steps", type=int, default=50)
    p.add_argument("--q-vocab")
    p.add_argument("--a-vocab")
    p.add_argument("--bow-baseline", action="store_true",
                   help="also report a bag-of-words cosine ranking baseline")
    _add_top_flags(p, "min_count")
    p.add_argument("--out", help="write the JSON report here as well as stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="bag-of-words vs doc2vec learning curves")
    common(p)
    _add_section_flags(p, "embedding")
    p.add_argument("--data", required=True, help='JSONL {"text", "label"} file')
    p.add_argument("--ratios", default="0.2,0.4,0.6,0.8")
    p.add_argument("--seeds", default="0,1,2")
    _add_top_flags(p, "min_count")
    p.add_argument("--clf-epochs", type=int, default=20)
    p.add_argument("--clf-lr", type=float, default=0.01)
    p.add_argument("--clf-reg", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ask", help="interactive question answering loop")
    common(p)
    p.add_argument("--answers", required=True, help="answer corpus, one per line")
    p.add_argument("--q-vocab", required=True)
    p.add_argument("--q-model", required=True)
    p.add_argument("--a-model", required=True)
    p.add_argument("--simnet", required=True)
    _add_top_flags(p, "threshold")
    p.add_argument("--infer-steps", type=int, default=50)
    p.set_defaults(func=cmd_ask)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (UsageError, FileNotFoundError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # an allocation that cannot be satisfied may carry no message
        print(f"{PROG}: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
