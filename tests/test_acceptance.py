"""Acceptance gate: nine end-to-end checks, one per release criterion.

Each test prints a single pass/fail line (routed past pytest's capture
so the gate's verdict is always visible) and then asserts.  Tolerances
and runtime budgets are stated inline next to each check.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from qasim import corpus, embedding, evaluation, retrieval, simnet, training
from qasim.cli import main
from qasim.corpus import QAPair
from qasim.datasets import order_carried_docs, planted_qa_records, two_topic_docs
from qasim.embedding import (
    CombineMode,
    EmbedTrainConfig,
    Word2VecMode,
    WordEmbeddingModel,
    analogy,
)
from qasim.simnet import draw_dropout_masks, gradients, init_network, loss
from qasim.training import SimTrainConfig, lr_at_epoch, train_simnet


@pytest.fixture
def verdict(capsys):
    """Prints one pass/fail line per criterion, bypassing pytest capture
    so the gate's verdict shows up in any test run."""
    def emit(criterion: int, ok: bool, detail: str) -> None:
        line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
    return emit


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().splitlines()


def overfit_pairs(n=200, d=8, seed=42):
    """Separable pair fixture: answers align with or against a planted
    direction, so labels are decidable from the answer tower alone."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=d)
    c /= np.linalg.norm(c)
    qf = 3.0 * c + 0.1 * rng.normal(size=(n, d))
    labels = np.array([1, 0] * (n // 2))
    af = np.empty((n, d))
    for i, y in enumerate(labels):
        af[i] = (3.0 if y else -3.0) * c + 0.1 * rng.normal(size=d)
    pairs = [QAPair(i, i, int(y)) for i, y in enumerate(labels)]
    return pairs, (qf, af)


def planted_pools(records):
    """Pools over the records' distinct answers, numbered as they appear, and the answers."""
    answer_ids = {}
    pools = [corpus.CandidatePool(q_id, [answer_ids.setdefault(text, len(answer_ids))
                                         for text in r["candidates"]], frozenset(r["correct"]))
             for q_id, r in enumerate(records)]
    return pools, list(answer_ids)


def test_criterion_1_pipeline_end_to_end(verdict, tmp_path):
    """Full pipeline on a bundled synthetic QA dataset in the line-JSON
    question/candidates/correct format; both evaluation metrics must be
    reported.  No numeric target."""
    qa = tmp_path / "qa.jsonl"
    with open(qa, "w", encoding="utf-8") as fh:
        for r in planted_qa_records(n_questions=20, n_gold=12, n_filler=12,
                                    pool_size=5, seed=0):
            fh.write(json.dumps(r) + "\n")
    p = {k: str(tmp_path / v) for k, v in {
        "qv": "q.vocab", "av": "a.vocab", "qm": "q.d2v", "am": "a.d2v",
        "pairs": "pairs.jsonl", "net": "net.simnet", "report": "eval.json",
    }.items()}
    steps = [
        ["build-vocab", "--qa-file", str(qa), "--side", "question",
         "--min-count", "1", "--out", p["qv"]],
        ["build-vocab", "--qa-file", str(qa), "--side", "answer",
         "--min-count", "1", "--out", p["av"]],
        ["train-doc2vec", "--qa-file", str(qa), "--side", "question",
         "--vocab", p["qv"], "--dim", "8", "--window", "2", "--epochs", "5",
         "--seed", "1", "--out", p["qm"]],
        ["train-doc2vec", "--qa-file", str(qa), "--side", "answer",
         "--vocab", p["av"], "--dim", "8", "--window", "2", "--epochs", "5",
         "--seed", "1", "--out", p["am"]],
        ["sample-pairs", "--qa-file", str(qa), "--n-pairs", "60", "--seed", "2",
         "--out", p["pairs"]],
        ["train-simnet", "--pairs", p["pairs"], "--q-model", p["qm"],
         "--a-model", p["am"], "--batch-size", "20", "--max-epochs", "5",
         "--patience", "5", "--seed", "3", "--out", p["net"]],
        ["eval", "--qa-file", str(qa), "--pairs", p["pairs"], "--q-model", p["qm"],
         "--a-model", p["am"], "--simnet", p["net"], "--threshold", "0.5",
         "--out", p["report"]],
    ]
    codes = []
    for argv in steps:
        rc, _ = run_cli(argv)
        codes.append(rc)
    report = json.loads(open(p["report"], encoding="utf-8").read())
    pool_top1 = report.get("pool_top1")
    pair_acc = report.get("pair_accuracy")
    ok = (all(c == 0 for c in codes)
          and isinstance(pool_top1, float) and 0.0 <= pool_top1 <= 1.0
          and isinstance(pair_acc, float) and 0.0 <= pair_acc <= 1.0)
    verdict(1, ok, f"pipeline exit codes {codes}, pool_top1={pool_top1}, "
                   f"pair_accuracy={pair_acc} (no numeric target)")
    assert ok


def test_criterion_2_gradient_oracle(verdict):
    """100 random (network, batch) configs, d=8, batch=4, fixed dropout
    masks: every analytic gradient within relative error 1e-4 of central
    finite differences (h=1e-5).  Runtime < 30 s."""
    d, batch = 8, 4
    h = 1e-5
    worst = 0.0
    start = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        net = init_network(d, std=float(rng.uniform(0.05, 0.6)),
                           bias_const=float(rng.uniform(-0.2, 0.2)),
                           seed=int(rng.integers(0, 2**31)),
                           hidden1=10, hidden2=6)
        fq = rng.normal(size=(batch, d))
        fa = rng.normal(size=(batch, d))
        y = rng.integers(0, 2, size=batch).astype(np.float64)
        lam = float(rng.choice([0.0, 0.0005, 0.05]))
        dropout_p = float(rng.choice([0.0, 0.3, 0.5]))
        masks = (draw_dropout_masks((batch, 10), (batch, 6), dropout_p,
                                    seed=int(rng.integers(0, 2**31)))
                 if dropout_p > 0.0 else None)
        grads, _ = gradients(net, fq, fa, y, lam=lam, masks=masks)
        for name, grad in grads.items():
            param = getattr(net, name)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up = loss(net, fq, fa, y, lam=lam, masks=masks)
                param[idx] = orig - h
                down = loss(net, fq, fa, y, lam=lam, masks=masks)
                param[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(fd - grad[idx]) / denom)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    verdict(2, ok, f"worst relative error {worst:.3e} (tol 1e-4) over 100 "
                   f"configs in {elapsed:.1f}s (budget 30s)")
    assert ok


def test_criterion_3_overfit_fixture(verdict):
    """200 planted separable pairs with the reported recipe (batch 100,
    dropout 0.5, l2 0.0005): >= 99% training pair accuracy within 600
    epochs.  Runtime < 2 min."""
    pairs, feats = overfit_pairs(n=200)
    config = SimTrainConfig(batch_size=100, max_epochs=600, dropout_p=0.5,
                            lam=0.0005, lr0=0.01, early_stop_patience=600,
                            seed=0)
    start = time.perf_counter()
    _, report = train_simnet(pairs, pairs, feats, config)
    elapsed = time.perf_counter() - start
    best = max(e.train_acc for e in report.epochs)
    first = next((e.epoch for e in report.epochs if e.train_acc >= 0.99), None)
    ok = best >= 0.99 and elapsed < 120.0
    verdict(3, ok, f"train accuracy {best:.3f} (>=0.99 needed, first reached "
                   f"at epoch {first}) in {elapsed:.1f}s (budget 120s)")
    assert ok


def planted_retrieval(offset=0, epochs=40, n_pairs=400, n_val=80, sim_epochs=600, **qa):
    """Criterion 4's run, `offset` added to every seed and `qa` passed to the
    fixture: pool top-1, the network, the doc2vec features and the pools."""
    records = planted_qa_records(seed=0 + offset, **qa)
    pools, answers = planted_pools(records)
    cfg = EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=epochs, seed=1 + offset)
    features = []
    for texts in ([r["question"] for r in records], answers):
        docs = [corpus.tokenize(t) for t in texts]
        vocab = corpus.build_vocabulary(docs, min_count=1)
        features.append(embedding.train_doc2vec(corpus.encode_corpus(docs, vocab), cfg,
                                                vocab_size=len(vocab)).doc_matrix)
    features = tuple(features)
    all_pairs = corpus.sample_pairs(pools, n_pairs, seed=2 + offset)
    order = np.random.default_rng(3 + offset).permutation(len(all_pairs))
    val = [all_pairs[i] for i in order[:n_val]]
    train = [all_pairs[i] for i in order[n_val:]]
    sim_cfg = SimTrainConfig(batch_size=100, max_epochs=sim_epochs, dropout_p=0.5,
                             lam=0.0005, lr0=0.05, init_std=0.03,
                             early_stop_patience=sim_epochs, seed=4 + offset)
    net, _ = train_simnet(train, val, features, sim_cfg)
    return retrieval.evaluate_pool_accuracy(net, pools, features), net, features, pools


def test_criterion_4_planted_retrieval(verdict):
    """Two-topic QA corpus (60 questions, 100 answers), doc2vec d=16,
    pools of 10 with one planted correct answer: pool top-1 >= 0.9
    against 0.1 chance.  Runtime < 5 min."""
    start = time.perf_counter()
    top1, _, _, pools = planted_retrieval()
    elapsed = time.perf_counter() - start
    ok = top1 >= 0.9 and elapsed < 300.0
    verdict(4, ok, f"pool top-1 {top1:.3f} (>=0.9 needed, chance 0.1) over "
                   f"{len(pools)} pools of 10 in {elapsed:.1f}s (budget 300s)")
    assert ok


def margins(matrix, labels):
    """Mean cosine of the rows' pairs within a label and across labels."""
    X = matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
    sims = X @ X.T
    upper = np.triu(np.ones(sims.shape, dtype=bool), k=1)  # each pair once
    same = np.equal.outer(labels, labels)
    return float(sims[upper & same].mean()), float(sims[upper & ~same].mean())


def embedding_margins(offset=0, n_word_docs=60, word_epochs=30, n_docs=40, doc_epochs=60):
    """Criterion 5's runs, `offset` added to every seed: `margins` of the
    CBOW and skip-gram word vectors and of the doc vectors, by model."""
    docs, _ = two_topic_docs(n_word_docs, seed=0 + offset)
    vocab = corpus.build_vocabulary(docs, min_count=1)
    encoded = corpus.encode_corpus(docs, vocab)
    # word labels: which topic vocabulary each retained token belongs to
    word_rows = [vocab.token_to_id[t] for t in vocab.token_to_id]
    word_labels = [0 if t.startswith("x") else 1 for t in vocab.token_to_id]
    results = {}
    cfg = EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=word_epochs, seed=0 + offset)
    for mode in (Word2VecMode.CBOW, Word2VecMode.SKIPGRAM):
        model = embedding.train_word2vec(encoded, cfg, mode=mode, vocab_size=len(vocab))
        results[mode.value] = margins(model.input_matrix[word_rows], word_labels)

    doc_texts, doc_labels = two_topic_docs(n_docs, seed=1 + offset)
    d_vocab = corpus.build_vocabulary(doc_texts, min_count=1)
    d_model = embedding.train_doc2vec(corpus.encode_corpus(doc_texts, d_vocab), EmbedTrainConfig(
        dim=16, window=3, negatives=5, epochs=doc_epochs, seed=0 + offset), vocab_size=len(d_vocab))
    results["doc"] = margins(d_model.doc_matrix, doc_labels)
    return results


def test_criterion_5_embedding_semantics(verdict):
    """Two-cluster corpus: mean within-topic cosine strictly above mean
    across-topic cosine for CBOW, Skip-gram, and doc vectors; and the
    planted analogy returns the planted word."""
    results = embedding_margins()

    # planted analogy: row("dd") = row("aa") - row("bb") + row("cc") exactly
    a_vocab = corpus.build_vocabulary([["aa", "bb", "cc", "dd", "ee"]], min_count=1)
    matrix = np.zeros((len(a_vocab), 2))
    planted = {"aa": [1.0, 0.0], "bb": [0.0, 1.0], "cc": [0.5, 0.5],
               "dd": [1.5, -0.5], "ee": [-1.0, -1.0]}
    for tok, row in planted.items():
        matrix[a_vocab.token_to_id[tok]] = row
    w_model = WordEmbeddingModel(matrix, np.zeros_like(matrix),
                                 Word2VecMode.CBOW, 2, 1, 2)
    answer = analogy(w_model, a_vocab, "aa", "bb", "cc")

    ok = all(w > a for w, a in results.values()) and answer == "dd"
    detail = ", ".join(f"{k} within/across {w:.2f}/{a:.2f}"
                       for k, (w, a) in results.items())
    verdict(5, ok, f"{detail}; analogy -> {answer!r} (want 'dd')")
    assert ok


def test_criterion_6_schedule_exactness(verdict):
    """lr_at_epoch: 0.0004 for epochs 0-499, 0.0004*0.95 at 500, and the
    1e-5 floor by epoch 600, bit-exact to the closed form."""
    cfg = SimTrainConfig()
    flat = all(lr_at_epoch(cfg, e) == 0.0004 for e in range(500))
    first_decay = lr_at_epoch(cfg, 500) == 0.0004 * 0.95
    floored = lr_at_epoch(cfg, 600) == 1e-5
    closed = all(
        lr_at_epoch(cfg, e) == max(cfg.lr_floor,
                                   cfg.lr0 * cfg.decay ** (e - cfg.decay_start_epoch + 1))
        for e in range(500, 700)
    )
    ok = flat and first_decay and floored and closed
    verdict(6, ok, f"flat(0-499)={flat}, epoch500==0.0004*0.95={first_decay}, "
                   f"floor1e-5@600={floored}, closed-form bit-exact={closed}")
    assert ok


def test_criterion_7_regularization_direction(verdict):
    """Converged head-weight norm under l2 0.05 strictly below the norm
    under 0.0005 on a fixed fixture and seeds."""
    pairs, feats = overfit_pairs(n=200)
    norms = {}
    for lam in (0.0005, 0.05):
        config = SimTrainConfig(batch_size=100, max_epochs=300, dropout_p=0.5,
                                lam=lam, lr0=0.01, early_stop_patience=300,
                                seed=0)
        net, _ = train_simnet(pairs, pairs, feats, config)
        norms[lam] = float(np.linalg.norm(net.w3))
    ok = norms[0.05] < norms[0.0005]
    verdict(7, ok, f"||w3|| {norms[0.05]:.4f} (l2 0.05) < {norms[0.0005]:.4f} "
                   f"(l2 0.0005): {ok}")
    assert ok


def order_feature_curves(offset=0, n_docs=80, epochs=150):
    """Criterion 8's run, `offset` added to every seed: the doc2vec and BoW
    learning curves, and the BoW matrix."""
    texts, labels01 = order_carried_docs(n_docs=n_docs, cycles=3, n_tokens=24, seed=0 + offset)
    docs = [corpus.tokenize(t) for t in texts]
    vocab = corpus.build_vocabulary(docs, min_count=1)
    encoded = corpus.encode_corpus(docs, vocab)
    labels = np.array(labels01, dtype=np.float64) * 2.0 - 1.0
    bow = evaluation.bow_matrix(encoded, vocab)
    model = embedding.train_doc2vec(encoded, EmbedTrainConfig(
        dim=16, window=1, negatives=2, epochs=epochs, learning_rate=0.025, seed=1 + offset),
        vocab_size=len(vocab))
    ratios, seeds = [0.2, 0.4, 0.6, 0.8], [0 + offset, 1 + offset, 2 + offset]
    bow_curve = evaluation.learning_curve(bow, labels, ratios, seeds)
    d2v_curve = evaluation.learning_curve(model.doc_matrix, labels, ratios, seeds)
    return d2v_curve, bow_curve, bow


def test_criterion_8_feature_comparison_direction(verdict):
    """Order-carried classification fixture (identical bag-of-words
    histograms by construction): doc2vec features beat BoW features
    under the same linear classifier at every ratio in {0.2, 0.4, 0.6,
    0.8}."""
    d2v_curve, bow_curve, bow = order_feature_curves()
    # histograms are identical, so BoW cannot beat chance by construction
    assert np.ptp(bow[:, :24], axis=0).max() == 0.0
    comparisons = [(r, m, bm) for (r, m, _), (_, bm, _) in zip(d2v_curve, bow_curve)]
    ok = all(m > bm for _, m, bm in comparisons)
    detail = ", ".join(f"ratio {r}: doc2vec {m:.3f} vs bow {bm:.3f}"
                       for r, m, bm in comparisons)
    verdict(8, ok, detail)
    assert ok


def test_criterion_9_determinism(verdict, tmp_path):
    """Every training and sampling operation, rerun with the same config
    and seeds, produces byte-identical model files and reports."""
    docs, _ = two_topic_docs(20, seed=0)
    vocab = corpus.build_vocabulary(docs, min_count=1)
    encoded = corpus.encode_corpus(docs, vocab)
    cfg = EmbedTrainConfig(dim=6, window=2, negatives=3, epochs=2, seed=7)

    records = planted_qa_records(n_questions=10, n_gold=6, n_filler=6,
                                 pool_size=4, seed=0)
    pools, answers = planted_pools(records)

    pairs = corpus.sample_pairs(pools, 30, seed=5)
    rng = np.random.default_rng(6)
    features = (rng.normal(size=(len(records), 4)), rng.normal(size=(len(answers), 4)))
    sim_cfg = SimTrainConfig(batch_size=10, max_epochs=5, dropout_p=0.5,
                             lr0=0.01, early_stop_patience=5, seed=8)

    def produce(suffix):
        out = {}
        w2v = embedding.train_word2vec(encoded, cfg, mode=Word2VecMode.SKIPGRAM,
                                       vocab_size=len(vocab))
        embedding.save_word2vec(w2v, tmp_path / f"w2v{suffix}")
        d2v = embedding.train_doc2vec(encoded, cfg, combine=CombineMode.CONCATENATE,
                                      vocab_size=len(vocab))
        embedding.save_doc2vec(d2v, tmp_path / f"d2v{suffix}")
        sampled = corpus.sample_pairs(pools, 30, seed=5)
        corpus.save_pairs(sampled, tmp_path / f"pairs{suffix}")
        net, rep = train_simnet(pairs, pairs, features, sim_cfg)
        simnet.save_simnet(net, tmp_path / f"net{suffix}")
        rep.to_jsonl(tmp_path / f"rep{suffix}.jsonl")
        rep.to_csv(tmp_path / f"rep{suffix}.csv")
        for name in ("w2v", "d2v", "pairs", "net", "rep.jsonl", "rep.csv"):
            stem, dot, ext = name.partition(".")
            fname = f"{stem}{suffix}{dot}{ext}" if dot else f"{stem}{suffix}"
            out[name] = (tmp_path / fname).read_bytes()
        return out

    first = produce("_a")
    second = produce("_b")
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    verdict(9, ok, "byte-identical rerun: " +
            ", ".join(f"{n}={'yes' if v else 'NO'}" for n, v in same.items()))
    assert ok
