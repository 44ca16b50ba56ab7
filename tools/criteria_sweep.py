"""Criteria 4, 5 and 8 of `tests/test_acceptance.py` over many seeds, at
each embedding training block.

    python3 tools/criteria_sweep.py [--offsets N] [--scale full|smoke] > sweep.json

For each seed offset o in 0..N-1, each criterion's fixture runs as the
acceptance test runs it, with o added to every fixture, split and
classifier seed that the test uses, once with
`qasim.embedding.TRAIN_BLOCK` 1 and once with 8.  The block governs
CBOW, skip-gram and DM training alike, and the steps of one block
position share their m negatives.  At block 1 a DM or CBOW position is
one step, so DM and CBOW train one step at a time, each with its own
negatives (sequential training); skip-gram still takes each center's
window in one step, whose pairs share their negatives.  The criteria
and their thresholds are the test's:

  4  pool top-1 of the planted QA fixture (doc2vec features) >= 0.9
  5  within-topic cosine above across-topic cosine for CBOW, skip-gram
     and doc vectors (the planted analogy does not depend on a seed and
     is left out)
  8  doc2vec features beat bag-of-words on the order-carried fixture at
     every training ratio

Prints one JSON object: per block and criterion, the value of each
offset in order, the number of offsets that pass, each offset's margins
and their median and minimum over the offsets.  The margins say how
close a pass is: criterion 4's `gap` is the smallest per-pool gap
between the gold answer's head term and the best filler's (the question
term and b3 are the same for every candidate of a pool; top-1 reads 1.0
even when the gap is a few thousandths), criterion 5's are its three
cosine margins, and criterion 8's `gap` is the smallest doc2vec - BoW
accuracy gap over the ratios, beside `doc2vec_mean`, the mean doc2vec
accuracy.  Runs at one BLAS thread with the package in this checkout's
`src`.  `--scale smoke` shrinks every fixture and epoch count, to check
that the tool runs; its values mean nothing.  A full run of 20 offsets
at blocks 1 and 8 took 8-10 minutes on one core of a 2-core host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

BLOCKS = (1, 8)
RATIOS = [0.2, 0.4, 0.6, 0.8]

# The acceptance test's sizes, and tiny ones for a smoke run.
SIZES = {
    "full": dict(qa=dict(), d2v4=40, pairs=400, val=80, sim_epochs=600,
                 w2v_docs=60, w2v_epochs=30, doc_docs=40, d2v5=60,
                 order_docs=80, d2v8=150),
    "smoke": dict(qa=dict(n_questions=12, n_gold=8, n_filler=10, pool_size=4), d2v4=2,
                  pairs=60, val=12, sim_epochs=5, w2v_docs=8, w2v_epochs=1, doc_docs=8,
                  d2v5=2, order_docs=12, d2v8=2),
}


def criterion_4(o: int, s: dict) -> tuple[float, dict, bool]:
    import numpy as np
    from qasim import corpus, embedding, retrieval, simnet
    from qasim.datasets import planted_qa_records
    from qasim.training import SimTrainConfig, train_simnet

    records = planted_qa_records(seed=0 + o, **s["qa"])
    answers, answer_ids, pools = [], {}, []
    for q_id, r in enumerate(records):
        cand_ids = []
        for text in r["candidates"]:
            if text not in answer_ids:
                answer_ids[text] = len(answers)
                answers.append(text)
            cand_ids.append(answer_ids[text])
        pools.append(corpus.CandidatePool(q_id, cand_ids, frozenset(r["correct"])))
    cfg = embedding.EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=s["d2v4"], seed=1 + o)
    features = []
    for texts in ([r["question"] for r in records], answers):
        docs = [corpus.tokenize(t) for t in texts]
        vocab = corpus.build_vocabulary(docs, min_count=1)
        features.append(embedding.train_doc2vec(corpus.encode_corpus(docs, vocab), cfg,
                                                vocab_size=len(vocab)).doc_matrix)
    all_pairs = corpus.sample_pairs(pools, s["pairs"], seed=2 + o)
    order = np.random.default_rng(3 + o).permutation(len(all_pairs))
    val = [all_pairs[i] for i in order[:s["val"]]]
    train = [all_pairs[i] for i in order[s["val"]:]]
    sim_cfg = SimTrainConfig(batch_size=100, max_epochs=s["sim_epochs"], dropout_p=0.5,
                             lam=0.0005, lr0=0.05, init_std=0.03,
                             early_stop_patience=s["sim_epochs"], seed=4 + o)
    net, _ = train_simnet(train, val, tuple(features), sim_cfg)
    top1 = retrieval.evaluate_pool_accuracy(net, pools, tuple(features))
    # the question term and b3 are the same for every candidate of a pool
    terms = simnet.head_terms(net, features[1], "a")
    gaps = []
    for pool in pools:
        cands = terms[pool.candidates]
        gold = np.isin(np.arange(len(cands)), list(pool.correct))
        if gold.any() and not gold.all():
            gaps.append(cands[gold].max() - cands[~gold].max())
    return round(top1, 4), {"gap": float(min(gaps))}, top1 >= 0.9


def criterion_5(o: int, s: dict) -> tuple[dict, dict, bool]:
    import numpy as np
    from qasim import corpus, embedding
    from qasim.datasets import two_topic_docs

    def margin(matrix, labels):
        X = matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
        sims = X @ X.T
        same = np.equal.outer(labels, labels)
        upper = np.triu(np.ones_like(same), k=1)
        return float(sims[same & upper].mean() - sims[~same & upper].mean())

    docs, _ = two_topic_docs(s["w2v_docs"], seed=0 + o)
    vocab = corpus.build_vocabulary(docs, min_count=1)
    encoded = corpus.encode_corpus(docs, vocab)
    rows = [vocab.token_to_id[t] for t in vocab.token_to_id]
    word_labels = np.array([0 if t.startswith("x") else 1 for t in vocab.token_to_id])
    cfg = embedding.EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=s["w2v_epochs"],
                                     seed=0 + o)
    margins = {}
    for mode in embedding.Word2VecMode:
        model = embedding.train_word2vec(encoded, cfg, mode=mode, vocab_size=len(vocab))
        margins[mode.value] = margin(model.input_matrix[rows], word_labels)
    doc_texts, doc_labels = two_topic_docs(s["doc_docs"], seed=1 + o)
    d_vocab = corpus.build_vocabulary(doc_texts, min_count=1)
    d_model = embedding.train_doc2vec(
        corpus.encode_corpus(doc_texts, d_vocab),
        embedding.EmbedTrainConfig(dim=16, window=3, negatives=5, epochs=s["d2v5"], seed=0 + o),
        vocab_size=len(d_vocab))
    margins["doc"] = margin(d_model.doc_matrix, np.array(doc_labels))
    return ({k: round(v, 4) for k, v in margins.items()}, margins,
            all(v > 0 for v in margins.values()))


def criterion_8(o: int, s: dict) -> tuple[dict, dict, bool]:
    import numpy as np
    from qasim import corpus, embedding, evaluation
    from qasim.datasets import order_carried_docs

    texts, labels01 = order_carried_docs(n_docs=s["order_docs"], cycles=3, n_tokens=24,
                                         seed=0 + o)
    docs = [corpus.tokenize(t) for t in texts]
    vocab = corpus.build_vocabulary(docs, min_count=1)
    encoded = corpus.encode_corpus(docs, vocab)
    labels = np.array(labels01, dtype=np.float64) * 2.0 - 1.0
    model = embedding.train_doc2vec(
        encoded, embedding.EmbedTrainConfig(dim=16, window=1, negatives=2, epochs=s["d2v8"],
                                            learning_rate=0.025, seed=1 + o),
        vocab_size=len(vocab))
    seeds = [0 + o, 1 + o, 2 + o]
    d2v = [m for _, m, _ in evaluation.learning_curve(model.doc_matrix, labels, RATIOS, seeds)]
    bow = [m for _, m, _ in evaluation.learning_curve(evaluation.bow_matrix(encoded, vocab),
                                                      labels, RATIOS, seeds)]
    return ({"doc2vec": [round(m, 4) for m in d2v], "bow": [round(m, 4) for m in bow]},
            {"gap": min(m - b for m, b in zip(d2v, bow)), "doc2vec_mean": float(np.mean(d2v))},
            all(m > b for m, b in zip(d2v, bow)))


CRITERIA = {"criterion 4": criterion_4, "criterion 5": criterion_5, "criterion 8": criterion_8}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--offsets", type=int, default=20, help="seed offsets 0..N-1")
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    import numpy as np
    from qasim import embedding

    sizes = SIZES[args.scale]
    result = {"offsets": list(range(args.offsets)), "scale": args.scale, "blocks": {}}
    for block in BLOCKS:
        embedding.TRAIN_BLOCK = block
        per = result["blocks"][str(block)] = {}
        for name, run in CRITERIA.items():
            values, margins, passes = [], [], 0
            for o in range(args.offsets):
                value, margin, ok = run(o, sizes)
                values.append(value)
                margins.append(margin)
                passes += ok
                print(f"block {block} {name} offset {o}: {value} {'pass' if ok else 'FAIL'}",
                      file=sys.stderr, flush=True)
            per[name] = {"values": values, "passes": passes,
                         "margins": [{k: round(v, 6) for k, v in m.items()} for m in margins]}
            for stat in ("median", "min"):
                per[name][stat] = {k: round(float(getattr(np, stat)([m[k] for m in margins])), 6)
                                   for k in margins[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
