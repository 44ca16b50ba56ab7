"""Criteria 4, 5 and 8 of `tests/test_acceptance.py` over many seeds, at
each embedding training block.

    python3 tools/criteria_sweep.py [--offsets N] [--scale full|smoke] > sweep.json

For each seed offset o in 0..N-1, it runs the acceptance test's own
runners with o added to every seed they pass, once with
`qasim.embedding.TRAIN_BLOCK` 1 and once with 8 (the block governs CBOW,
skip-gram and DM alike; at 1, DM and CBOW train one step at a time), and
judges each run by the test's threshold.  Criterion 5 leaves out the
planted analogy, which takes no seed.

It prints one JSON object: per block and criterion, each offset's value,
the number of offsets that pass, and each offset's margins with their
median and minimum.  Criterion 4's `gap` is the smallest per-pool gap
between the gold answer's head term and the best filler's (top-1 reads
1.0 even when that gap is a few thousandths), criterion 5's are its three
cosine margins, and criterion 8's `gap` is the smallest doc2vec - BoW
accuracy gap over the ratios, beside `doc2vec_mean`.  It runs at one
BLAS thread on this checkout's `src`.  `--scale smoke` shrinks every
fixture and epoch count, only to check that the tool runs.  A full run
of 20 offsets took 8-10 minutes on one core of a 2-core host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

import numpy as np  # noqa: E402
from qasim import embedding, simnet  # noqa: E402
from test_acceptance import (  # noqa: E402
    embedding_margins, order_feature_curves, planted_retrieval)

BLOCKS = (1, 8)

# Keyword arguments of each runner: the acceptance test's sizes, and tiny
# ones for a smoke run.
SIZES = {
    "full": {"criterion 4": {}, "criterion 5": {}, "criterion 8": {}},
    "smoke": {"criterion 4": dict(n_questions=12, n_gold=8, n_filler=10, pool_size=4, epochs=2,
                                  n_pairs=60, n_val=12, sim_epochs=5),
              "criterion 5": dict(n_word_docs=8, word_epochs=1, n_docs=8, doc_epochs=2),
              "criterion 8": dict(n_docs=12, epochs=2)},
}


def criterion_4(offset: int, sizes: dict) -> tuple[float, dict, bool]:
    top1, net, features, pools = planted_retrieval(offset, **sizes)
    # the question term and b3 are the same for every candidate of a pool
    terms = simnet.head_terms(net, features[1], "a")
    gaps = []
    for pool in pools:
        cands = terms[pool.candidates]
        gold = np.isin(np.arange(len(cands)), list(pool.correct))
        if gold.any() and not gold.all():
            gaps.append(cands[gold].max() - cands[~gold].max())
    return round(top1, 4), {"gap": float(min(gaps))}, top1 >= 0.9


def criterion_5(offset: int, sizes: dict) -> tuple[dict, dict, bool]:
    margins = {k: w - a for k, (w, a) in embedding_margins(offset, **sizes).items()}
    return ({k: round(v, 4) for k, v in margins.items()}, margins,
            all(v > 0 for v in margins.values()))


def criterion_8(offset: int, sizes: dict) -> tuple[dict, dict, bool]:
    d2v_curve, bow_curve, _ = order_feature_curves(offset, **sizes)
    d2v, bow = [m for _, m, _ in d2v_curve], [m for _, m, _ in bow_curve]
    return ({"doc2vec": [round(m, 4) for m in d2v], "bow": [round(m, 4) for m in bow]},
            {"gap": min(m - b for m, b in zip(d2v, bow)), "doc2vec_mean": float(np.mean(d2v))},
            all(m > b for m, b in zip(d2v, bow)))


CRITERIA = {"criterion 4": criterion_4, "criterion 5": criterion_5, "criterion 8": criterion_8}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--offsets", type=int, default=20, help="seed offsets 0..N-1")
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    if args.offsets < 1:
        parser.error(f"--offsets must be at least 1, got {args.offsets}")
    result = {"offsets": list(range(args.offsets)), "scale": args.scale, "blocks": {}}
    for block in BLOCKS:
        embedding.TRAIN_BLOCK = block
        per = result["blocks"][str(block)] = {}
        for name, run in CRITERIA.items():
            runs = []
            for o in range(args.offsets):
                runs.append(run(o, SIZES[args.scale][name]))
                print(f"block {block} {name} offset {o}: {runs[-1][0]} "
                      f"{'pass' if runs[-1][2] else 'FAIL'}", file=sys.stderr, flush=True)
            values, margins, passes = zip(*runs)
            per[name] = {"values": list(values), "passes": sum(passes),
                         "margins": [{k: round(v, 6) for k, v in m.items()} for m in margins]}
            for stat in ("median", "min"):
                per[name][stat] = {k: round(float(getattr(np, stat)([m[k] for m in margins])), 6)
                                   for k in margins[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
