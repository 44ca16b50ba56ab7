"""Input generation and untimed model preparation for one workload run.

    python3 perfbench/prep.py --src SRC --workload NAME --seed N --scale full|smoke --dir DIR

Runs in its own process, before and apart from the timed workload
processes.  Every input comes from `qasim.datasets` and the workload
seed: the training fixture uses fixture seed 2N and the unseen
questions use the held-out fixture seed 2N+1.  Models that a workload
only reads are trained here with the code under test, through
`qasim.cli.main`.  Writes DIR/manifest.json: the argv lists of the timed
unit of work, the question lines for `ask`, and the work counts next to
the counts the sizes fix, which must agree on every seed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QASIM_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# Sizes per scale.  "full" is what the benchmark measures; "smoke" only
# checks that every workload runs and reports, in a few seconds.
QUESTION_LEN, ANSWER_LEN = 8, 12  # planted_qa_records defaults
SIZES = {
    "full": {
        # The smallest sizes found on which the planted answer is still
        # learned (pool_top1 = 1.0).  A pipeline takes about 3 s, so a run
        # holds enough of them for a steady median on a noisy machine.
        "train": {"qa": {"n_questions": 80, "n_gold": 40, "n_filler": 40, "pool_size": 10},
                  "dim": 100, "window": 3, "d2v_epochs": 10, "d2v_lr": 0.08, "w2v_epochs": 1,
                  "n_pairs": 1000, "sim_epochs": 30, "lr0": 0.4, "batch": 50},
        # n_filler = pool_size - 1 puts every filler in every pool, so the
        # collection holds exactly n_gold + n_filler = 5,000 answers.  One
        # doc2vec epoch keeps prep short; what `ask` costs does not depend
        # on how well the models are trained, and the low threshold sends
        # every question down the answer path, whose text is checked.
        "ask": {"qa": {"n_questions": 4991, "n_gold": 4991, "n_filler": 9, "pool_size": 10},
                "dim": 100, "window": 3, "d2v_epochs": 1, "d2v_lr": 0.025,
                "n_pairs": 2000, "sim_epochs": 20, "lr0": 0.2, "batch": 50,
                "questions": 1000, "session": 50, "threshold": 0.1},
        "heldout": {"n_questions": 30, "n_gold": 15, "n_filler": 15, "pool_size": 10},
    },
    "smoke": {
        "train": {"qa": {"n_questions": 20, "n_gold": 12, "n_filler": 4, "pool_size": 5},
                  "dim": 8, "window": 2, "d2v_epochs": 2, "d2v_lr": 0.025, "w2v_epochs": 1,
                  "n_pairs": 60, "sim_epochs": 3, "lr0": 0.2, "batch": 20},
        "ask": {"qa": {"n_questions": 30, "n_gold": 30, "n_filler": 4, "pool_size": 5},
                "dim": 8, "window": 2, "d2v_epochs": 1, "d2v_lr": 0.025,
                "n_pairs": 60, "sim_epochs": 3, "lr0": 0.2, "batch": 20,
                "questions": 12, "session": 4, "threshold": 0.1},
        "heldout": {"n_questions": 6, "n_gold": 6, "n_filler": 4, "pool_size": 5},
    },
}


def write_qa(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def unique_answers(records) -> list[str]:
    """Candidate texts in first-appearance order: the answer-side documents."""
    seen: dict[str, None] = {}
    for r in records:
        for text in r["candidates"]:
            seen.setdefault(text, None)
    return list(seen)


def qa_counts(records) -> dict:
    answers = unique_answers(records)
    return {
        "questions": len(records),
        "answers": len(answers),
        "tokens": sum(len(r["question"].split()) for r in records)
        + sum(len(a.split()) for a in answers),
        "candidates": sum(len(r["candidates"]) for r in records),
    }


def expected_counts(qa: dict) -> dict:
    """Counts the sizes fix, assuming every gold and filler answer is used."""
    n_answers = min(qa["n_gold"], qa["n_questions"]) + qa["n_filler"]
    return {
        "questions": qa["n_questions"],
        "answers": n_answers,
        "tokens": qa["n_questions"] * QUESTION_LEN + n_answers * ANSWER_LEN,
        "candidates": qa["n_questions"] * qa["pool_size"],
    }


def training_commands(cfg: dict, seed: int, word2vec: bool) -> list[list[str]]:
    """The operator's offline run: vocabularies, embeddings, pairs, simnet."""
    d2v = ["--dim", str(cfg["dim"]), "--window", str(cfg["window"]),
           "--epochs", str(cfg["d2v_epochs"]), "--lr", str(cfg["d2v_lr"])]
    commands = [
        ["build-vocab", "--qa-file", "qa.jsonl", "--side", "question", "--min-count", "1",
         "--seed", str(seed), "--out", "q.vocab"],
        ["build-vocab", "--qa-file", "qa.jsonl", "--side", "answer", "--min-count", "1",
         "--seed", str(seed), "--out", "a.vocab"],
        ["train-doc2vec", "--qa-file", "qa.jsonl", "--side", "question", "--vocab", "q.vocab",
         *d2v, "--seed", str(seed + 1), "--out", "q.d2v"],
        ["train-doc2vec", "--qa-file", "qa.jsonl", "--side", "answer", "--vocab", "a.vocab",
         *d2v, "--seed", str(seed + 2), "--out", "a.d2v"],
    ]
    if word2vec:
        commands.append(
            ["train-word2vec", "--qa-file", "qa.jsonl", "--side", "answer", "--vocab", "a.vocab",
             "--mode", "skipgram", "--dim", str(cfg["dim"]), "--window", str(cfg["window"]),
             "--epochs", str(cfg["w2v_epochs"]), "--seed", str(seed + 3), "--out", "a.w2v"])
    commands += [
        ["sample-pairs", "--qa-file", "qa.jsonl", "--n-pairs", str(cfg["n_pairs"]),
         "--seed", str(seed + 4), "--out", "pairs.jsonl"],
        # patience = max epochs: early stopping never changes the work done
        ["train-simnet", "--pairs", "pairs.jsonl", "--q-model", "q.d2v", "--a-model", "a.d2v",
         "--max-epochs", str(cfg["sim_epochs"]), "--patience", str(cfg["sim_epochs"]),
         "--lr0", str(cfg["lr0"]), "--batch-size", str(cfg["batch"]),
         "--seed", str(seed + 5), "--out", "net.simnet"],
    ]
    return commands


def run_untimed(commands) -> None:
    from qasim import cli

    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"prep: `qasim {argv[0]}` exited with {rc}")


def prepare(workload: str, seed: int, scale: str) -> dict:
    from qasim import datasets

    sizes = SIZES[scale]
    fixture_seed, heldout_seed = 2 * seed, 2 * seed + 1
    manifest = {"workload": workload, "seed": seed, "scale": scale}

    if workload == "train_pipeline":
        cfg = sizes["train"]
        records = datasets.planted_qa_records(**cfg["qa"], seed=fixture_seed)
        write_qa(records, "qa.jsonl")
        heldout = datasets.planted_qa_records(**sizes["heldout"], seed=heldout_seed)
        write_qa(heldout, "heldout.jsonl")
        # The run ends with two evaluations of the models it just trained:
        # on the training pools, and on unseen documents whose vectors are
        # inferred with the word matrices frozen.
        manifest["commands"] = training_commands(cfg, seed, word2vec=True) + [
            ["eval", "--qa-file", "qa.jsonl", "--q-model", "q.d2v", "--a-model", "a.d2v",
             "--simnet", "net.simnet", "--bow-baseline", "--seed", str(seed + 6),
             "--out", "report.json"],
            ["eval", "--qa-file", "heldout.jsonl", "--q-model", "q.d2v", "--a-model", "a.d2v",
             "--simnet", "net.simnet", "--infer-vectors", "--q-vocab", "q.vocab",
             "--a-vocab", "a.vocab", "--bow-baseline", "--seed", str(seed + 6),
             "--out", "infer_report.json"]]
        manifest["reports"] = ["report.json", "infer_report.json"]
        unseen = qa_counts(heldout)
        expected_unseen = expected_counts(sizes["heldout"])
        manifest["counts"] = {**qa_counts(records), "pairs": cfg["n_pairs"],
                              "inferred_docs": unseen["questions"] + unseen["answers"]}
        manifest["expected"] = {**expected_counts(cfg["qa"]), "pairs": cfg["n_pairs"],
                                "inferred_docs": expected_unseen["questions"]
                                + expected_unseen["answers"]}

    elif workload == "ask_large_collection":
        cfg = sizes["ask"]
        records = datasets.planted_qa_records(**cfg["qa"], seed=fixture_seed)
        write_qa(records, "qa.jsonl")
        with open("answers.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(unique_answers(records)) + "\n")
        run_untimed(training_commands(cfg, seed, word2vec=False))
        unseen = datasets.planted_qa_records(
            n_questions=cfg["questions"], n_gold=1, n_filler=1, pool_size=2, seed=heldout_seed)
        manifest["questions"] = [r["question"] for r in unseen]
        manifest["session"] = cfg["session"]
        manifest["commands"] = [
            ["ask", "--answers", "answers.txt", "--q-vocab", "q.vocab", "--q-model", "q.d2v",
             "--a-model", "a.d2v", "--simnet", "net.simnet",
             "--threshold", str(cfg["threshold"]), "--seed", str(seed + 7)]]
        counts = qa_counts(records)
        manifest["counts"] = {"answers": counts["answers"],
                              "questions": len(manifest["questions"]),
                              "question_tokens": sum(len(q.split())
                                                     for q in manifest["questions"])}
        manifest["expected"] = {"answers": expected_counts(cfg["qa"])["answers"],
                                "questions": cfg["questions"],
                                "question_tokens": cfg["questions"] * QUESTION_LEN}
    else:
        raise SystemExit(f"prep: unknown workload {workload}")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    os.chdir(args.dir)
    manifest = prepare(args.workload, args.seed, args.scale)
    with open("manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
