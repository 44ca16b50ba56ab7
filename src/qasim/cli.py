"""Command-line pipeline: vocabularies, embeddings, similarity training,
evaluation, and an interactive ask loop.

Every command is seeded and idempotent: identical inputs, flags, and
seeds produce byte-identical outputs.  Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import corpus, embedding, evaluation, retrieval, simnet, training

PROG = "qasim"
SEED_ENV_VAR = "QASIM_SEED"

_EMBED_KEYS = {f.name for f in dataclasses.fields(embedding.EmbedTrainConfig)}
_SIMNET_KEYS = {f.name for f in dataclasses.fields(training.SimTrainConfig)}
_TOP_KEYS = {"seed", "min_count", "threshold", "positive_fraction", "n_pairs",
             "embedding", "simnet"}


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def _require_file(path, what: str) -> str:
    if path is None:
        raise UsageError(f"missing required {what}")
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _load_config(path) -> dict:
    if path is None:
        return {}
    _require_file(path, "config file")
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    for key in config:
        if key not in _TOP_KEYS:
            raise UsageError(f"unknown config field: {key}")
    for section, known in (("embedding", _EMBED_KEYS), ("simnet", _SIMNET_KEYS)):
        for key in config.get(section, {}):
            if key not in known:
                raise UsageError(f"unknown config field: {section}.{key}")
    return config


def _first(*values):
    for v in values:
        if v is not None:
            return v
    return None


def _seed(args, config: dict, section: dict | None = None) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    return int(_first(getattr(args, "seed", None),
                      (section or {}).get("seed"),
                      config.get("seed"),
                      int(env) if env is not None else None,
                      0))


def _embed_config(args, config: dict) -> embedding.EmbedTrainConfig:
    section = config.get("embedding", {})
    try:
        return embedding.EmbedTrainConfig(
            dim=_first(args.dim, section.get("dim"), 100),
            window=_first(args.window, section.get("window"), 5),
            negatives=_first(args.negatives, section.get("negatives"), 5),
            epochs=_first(args.epochs, section.get("epochs"), 5),
            learning_rate=_first(args.lr, section.get("learning_rate"), 0.025),
            min_learning_rate=_first(args.min_lr, section.get("min_learning_rate"), 1e-4),
            seed=_seed(args, config, section),
        )
    except ValueError as exc:
        raise UsageError(f"invalid config field: {exc}") from exc


def _sim_config(args, config: dict) -> training.SimTrainConfig:
    section = config.get("simnet", {})
    defaults = training.SimTrainConfig()
    try:
        return training.SimTrainConfig(
            batch_size=_first(args.batch_size, section.get("batch_size"), defaults.batch_size),
            max_epochs=_first(args.max_epochs, section.get("max_epochs"), defaults.max_epochs),
            dropout_p=_first(args.dropout, section.get("dropout_p"), defaults.dropout_p),
            lam=_first(args.lam, section.get("lam"), defaults.lam),
            init_std=_first(args.init_std, section.get("init_std"), defaults.init_std),
            bias_const=_first(args.bias_const, section.get("bias_const"), defaults.bias_const),
            lr0=_first(args.lr0, section.get("lr0"), defaults.lr0),
            decay=_first(args.decay, section.get("decay"), defaults.decay),
            decay_start_epoch=_first(args.decay_start_epoch, section.get("decay_start_epoch"),
                                     defaults.decay_start_epoch),
            lr_floor=_first(args.lr_floor, section.get("lr_floor"), defaults.lr_floor),
            early_stop_patience=_first(args.patience, section.get("early_stop_patience"),
                                       defaults.early_stop_patience),
            activation=simnet.Activation(_first(args.activation, section.get("activation"),
                                                defaults.activation)),
            seed=_seed(args, config, section),
        )
    except ValueError as exc:
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


def cmd_build_vocab(args) -> int:
    config = _load_config(args.config)
    min_count = _first(args.min_count, config.get("min_count"), 5)
    docs = _load_raw_docs(args)
    vocab = corpus.build_vocabulary(docs, min_count=min_count)
    corpus.save_vocabulary(vocab, args.out)

    encoded = corpus.encode_corpus(docs, vocab)
    total = sum(len(d.tokens) for d in encoded)
    lf = sum(1 for d in encoded for t in d.tokens if t == vocab.lf_id)
    num = sum(1 for d in encoded for t in d.tokens if t == vocab.num_id)
    _echo("build-vocab", {"min_count": min_count, "out": args.out})
    print(json.dumps({"vocab_size": len(vocab), "tokens": total,
                      "lf_replacements": lf, "num_replacements": num}, sort_keys=True))
    return 0


def cmd_train_word2vec(args) -> int:
    config = _load_config(args.config)
    vocab = corpus.load_vocabulary(_require_file(args.vocab, "vocabulary file"))
    docs = corpus.encode_corpus(_load_raw_docs(args), vocab)
    cfg = _embed_config(args, config)
    mode = embedding.Word2VecMode(args.mode)
    _echo("train-word2vec", {**dataclasses.asdict(cfg), "mode": mode.value, "out": args.out})
    model = embedding.train_word2vec(docs, cfg, mode=mode, vocab_size=len(vocab))
    embedding.save_word2vec(model, args.out)
    if args.export_text:
        embedding.export_text(model.input_matrix, vocab, args.export_text)
    return 0


def cmd_train_doc2vec(args) -> int:
    config = _load_config(args.config)
    vocab = corpus.load_vocabulary(_require_file(args.vocab, "vocabulary file"))
    docs = corpus.encode_corpus(_load_raw_docs(args), vocab)
    cfg = _embed_config(args, config)
    combine = embedding.CombineMode(args.combine)
    _echo("train-doc2vec", {**dataclasses.asdict(cfg), "combine": combine.value, "out": args.out})
    model = embedding.train_doc2vec(docs, cfg, combine=combine, vocab_size=len(vocab))
    embedding.save_doc2vec(model, args.out)
    if args.export_text:
        embedding.export_text(model.word_matrix, vocab, args.export_text)
    return 0


def cmd_sample_pairs(args) -> int:
    config = _load_config(args.config)
    _, _, pools = corpus.load_qa_dataset(_require_file(args.qa_file, "QA dataset file"))
    n_pairs = _first(args.n_pairs, config.get("n_pairs"))
    if n_pairs is None:
        raise UsageError("missing required n_pairs (flag --n-pairs or config)")
    fraction = _first(args.positive_fraction, config.get("positive_fraction"), 0.5)
    seed = _seed(args, config)
    pairs = corpus.sample_pairs(pools, n_pairs, positive_fraction=fraction, seed=seed)
    corpus.save_pairs(pairs, args.out)
    _echo("sample-pairs", {"n_pairs": n_pairs, "positive_fraction": fraction,
                           "seed": seed, "out": args.out})
    return 0


def cmd_train_simnet(args) -> int:
    config = _load_config(args.config)
    pairs = corpus.load_pairs(_require_file(args.pairs, "pair file"))
    q_model = embedding.load_doc2vec(_require_file(args.q_model, "question doc2vec model"))
    a_model = embedding.load_doc2vec(_require_file(args.a_model, "answer doc2vec model"))
    if q_model.dim != a_model.dim:
        raise UsageError(f"doc2vec dimensions differ: {q_model.dim} vs {a_model.dim}")
    cfg = _sim_config(args, config)

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
    vectors = np.zeros((len(texts), model.dim))
    for i, text in enumerate(texts):
        doc = corpus.encode(corpus.tokenize(text), vocab, doc_id=i)
        vectors[i] = embedding.infer_doc_vector(model, doc, steps=args.infer_steps, seed=seed)
    return vectors


def _bow_cosine_top1(q_texts, a_texts, pools, min_count: int):
    """Baseline: rank candidates by cosine of bag-of-words histograms
    over a joint vocabulary built from the evaluation texts."""
    docs = [corpus.tokenize(t) for t in q_texts + a_texts]
    vocab = corpus.build_vocabulary(docs, min_count=min_count)
    encoded = corpus.encode_corpus(docs, vocab)
    X = evaluation.bow_matrix(encoded, vocab)
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    X = X / norms[:, None]
    n_q = len(q_texts)
    hits = 0
    scored = 0
    for pool in pools:
        if not pool.correct:
            continue
        scored += 1
        sims = X[[n_q + c for c in pool.candidates]] @ X[pool.question_doc]
        if int(np.argmax(sims)) in pool.correct:
            hits += 1
    return hits / scored if scored else None


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    q_texts, a_texts, pools = corpus.load_qa_dataset(_require_file(args.qa_file, "QA dataset file"))
    q_model = embedding.load_doc2vec(_require_file(args.q_model, "question doc2vec model"))
    a_model = embedding.load_doc2vec(_require_file(args.a_model, "answer doc2vec model"))
    net = simnet.load_simnet(_require_file(args.simnet, "similarity network file"))
    threshold = _first(args.threshold, config.get("threshold"), 0.7)

    q_vocab = a_vocab = None
    if args.infer_vectors:
        q_vocab = corpus.load_vocabulary(_require_file(args.q_vocab, "question vocabulary"))
        a_vocab = corpus.load_vocabulary(_require_file(args.a_vocab, "answer vocabulary"))
    seed = _seed(args, config)
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
        min_count = _first(args.min_count, config.get("min_count"), 5)
        report["bow_cosine_top1"] = _bow_cosine_top1(q_texts, a_texts, pools, min_count)

    _echo("eval", {"threshold": threshold, "infer_vectors": bool(args.infer_vectors)})
    payload = json.dumps(report, sort_keys=True)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return 0


def cmd_classify(args) -> int:
    config = _load_config(args.config)
    texts, labels01 = evaluation.load_labeled_texts(_require_file(args.data, "labeled data file"))
    min_count = _first(args.min_count, config.get("min_count"), 5)
    docs = [corpus.tokenize(t) for t in texts]
    vocab = corpus.build_vocabulary(docs, min_count=min_count)
    encoded = corpus.encode_corpus(docs, vocab)
    labels = np.array(labels01, dtype=np.float64) * 2.0 - 1.0

    cfg = _embed_config(args, config)
    ratios = [float(r) for r in args.ratios.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    _echo("classify", {**dataclasses.asdict(cfg), "ratios": ratios, "seeds": seeds,
                       "min_count": min_count})

    bow = evaluation.bow_matrix(encoded, vocab)
    model = embedding.train_doc2vec(encoded, cfg, vocab_size=len(vocab))
    curves = {
        "bow": evaluation.learning_curve(bow, labels, ratios, seeds,
                                         epochs=args.clf_epochs, lr=args.clf_lr,
                                         reg=args.clf_reg),
        "doc2vec": evaluation.learning_curve(model.doc_matrix, labels, ratios, seeds,
                                             epochs=args.clf_epochs, lr=args.clf_lr,
                                             reg=args.clf_reg),
    }
    evaluation.save_learning_curves(curves, args.out)
    print(json.dumps({kind: [[r, m, s] for r, m, s in points]
                      for kind, points in curves.items()}, sort_keys=True))
    return 0


def cmd_ask(args) -> int:
    config = _load_config(args.config)
    q_vocab = corpus.load_vocabulary(_require_file(args.q_vocab, "question vocabulary"))
    q_model = embedding.load_doc2vec(_require_file(args.q_model, "question doc2vec model"))
    a_model = embedding.load_doc2vec(_require_file(args.a_model, "answer doc2vec model"))
    net = simnet.load_simnet(_require_file(args.simnet, "similarity network file"))
    with open(_require_file(args.answers, "answers file"), encoding="utf-8") as fh:
        answer_texts = fh.read().splitlines()
    if len(answer_texts) != a_model.n_docs:
        raise UsageError(f"answers file holds {len(answer_texts)} lines but the model "
                         f"has {a_model.n_docs} doc vectors")
    threshold = _first(args.threshold, config.get("threshold"), 0.7)
    seed = _seed(args, config)
    index = retrieval.AnswerIndex(net, a_model.doc_matrix)
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
        decision = retrieval.route(best_score, threshold, answer_doc=best)
        if decision.outcome is retrieval.RoutingOutcome.ANSWER:
            print(f"answer ({decision.confidence:.4f}): {answer_texts[best]}")
        else:
            print(f"escalate ({decision.confidence:.4f}): confidence below threshold {threshold}")
    return 0


def _add_corpus_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", help="plain-text corpus, one document per line")
    p.add_argument("--qa-file", help="JSONL QA dataset to take documents from")
    p.add_argument("--side", choices=["question", "answer"], default="question",
                   help="which side of the QA file to use (with --qa-file)")


def _add_embed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--min-lr", type=float)
    p.add_argument("--export-text", help="also write a text-format embedding table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("build-vocab", help="build and save a vocabulary")
    common(p)
    _add_corpus_source(p)
    p.add_argument("--min-count", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train-word2vec", help="train word vectors")
    common(p)
    _add_corpus_source(p)
    _add_embed_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--mode", choices=["cbow", "skipgram"], default="cbow")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_word2vec)

    p = sub.add_parser("train-doc2vec", help="train paragraph vectors")
    common(p)
    _add_corpus_source(p)
    _add_embed_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--combine", choices=["average", "concatenate"], default="average")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_doc2vec)

    p = sub.add_parser("sample-pairs", help="sample labeled pairs from candidate pools")
    common(p)
    p.add_argument("--qa-file", required=True)
    p.add_argument("--n-pairs", type=int)
    p.add_argument("--positive-fraction", type=float)
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
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--init-std", type=float)
    p.add_argument("--bias-const", type=float)
    p.add_argument("--lr0", type=float)
    p.add_argument("--decay", type=float)
    p.add_argument("--decay-start-epoch", type=int)
    p.add_argument("--lr-floor", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--activation", choices=["tanh", "relu"])
    p.set_defaults(func=cmd_train_simnet)

    p = sub.add_parser("eval", help="evaluate pool and pair accuracy")
    common(p)
    p.add_argument("--qa-file", required=True)
    p.add_argument("--pairs", help="optional test pair file for pair accuracy")
    p.add_argument("--q-model", required=True)
    p.add_argument("--a-model", required=True)
    p.add_argument("--simnet", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--infer-vectors", action="store_true",
                   help="infer doc vectors instead of using trained rows")
    p.add_argument("--infer-steps", type=int, default=50)
    p.add_argument("--q-vocab")
    p.add_argument("--a-vocab")
    p.add_argument("--bow-baseline", action="store_true",
                   help="also report a bag-of-words cosine ranking baseline")
    p.add_argument("--min-count", type=int)
    p.add_argument("--out", help="write the JSON report here as well as stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="bag-of-words vs doc2vec learning curves")
    common(p)
    _add_embed_flags(p)
    p.add_argument("--data", required=True, help='JSONL {"text", "label"} file')
    p.add_argument("--ratios", default="0.2,0.4,0.6,0.8")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--min-count", type=int)
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
    p.add_argument("--threshold", type=float)
    p.add_argument("--infer-steps", type=int, default=50)
    p.set_defaults(func=cmd_ask)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
