"""SHA-256 digests of every file and every output of the benchmark's runs.

    python3 tools/output_digests.py --src SRC [--scale full|smoke] [--save-inferred DIR] > digests.json

Builds the inputs of `train_pipeline` for seeds 1-3 and of
`ask_large_collection` for seed 1 with `perfbench/prep.py`'s `prepare`,
then runs their commands through `qasim.cli.main` of the package under
SRC, at one BLAS thread, each seed in a fresh temporary directory.
`ask` answers the first 200 of the workload's questions.  Three more
runs take seed 1's fixture through the vocabularies, `train-doc2vec` on both
sides, the pairs, `train-simnet` and `eval --infer-vectors` with one
command's flags changed, to reach what the workloads never run: the
workloads train average-mode paragraph vectors only, so `train_pipeline 1
concatenate` adds `--combine concatenate` to `train-doc2vec`; they set
`train-simnet`'s patience to its epoch count, so `train_pipeline 1
early-stop` sets `--patience 2`, and at full scale training stops early
(at smoke scale, three epochs are too few for it to); they train with
dropout, so `train_pipeline 1 no-dropout` sets `train-simnet --dropout 0`,
the training step that applies no masks; they train a skip-gram word
model, so `train_pipeline 1 cbow` keeps `train-word2vec` in the run with
`--mode cbow` (the other variants drop it: no command reads its model).
Prints one JSON
object, one key a line: the digest of every file a run leaves, each
command's exit code and the digests of its stdout and stderr, and one
digest of every array that `qasim.embedding.infer_doc_vectors` returned
in the run, in call order (wrapped from outside, as `perfbench/tracer.py`
wraps functions), which no report shows to the last bit.  Run it on two
trees and diff the output to see whether a change moved any byte.  With
--save-inferred, each of those arrays is also written to DIR as
`<run>-<call>.npy`, the run's name with dashes for spaces (as in
`train_pipeline-1-0000.npy`), so that two trees whose inferred vectors
differ can be compared by size: max |a - b| / max |a|.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# (workload, seed, variant); a run's keys start with its workload, seed
# and variant, if any
RUNS = [("train_pipeline", 1, None), ("train_pipeline", 2, None), ("train_pipeline", 3, None),
        ("ask_large_collection", 1, None), ("train_pipeline", 1, "concatenate"),
        ("train_pipeline", 1, "early-stop"), ("train_pipeline", 1, "no-dropout"),
        ("train_pipeline", 1, "cbow")]
# a variant's command and the flags it adds there
VARIANTS = {"concatenate": ("train-doc2vec", ["--combine", "concatenate"]),
            "early-stop": ("train-simnet", ["--patience", "2"]),
            "no-dropout": ("train-simnet", ["--dropout", "0"]),
            "cbow": ("train-word2vec", ["--mode", "cbow"])}
ASK_QUESTIONS = 200


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def with_variant(commands: list, variant: str) -> list:
    """A `train_pipeline` manifest's commands that lead to `eval
    --infer-vectors`, with the flags of `variant` added to its command: no
    eval of the training pools, and no word2vec model unless `variant`
    changes it.  A flag given twice takes its last value."""
    command, flags = VARIANTS[variant]
    return [argv + flags if argv[0] == command else argv
            for argv in commands
            if (argv[0] != "train-word2vec" or command == "train-word2vec")
            and (argv[0] != "eval" or "--infer-vectors" in argv)]


def run(workload: str, seed: int, variant: str | None, scale: str, name: str,
        save: str | None = None) -> dict:
    """The digests of one workload seed, run in the current directory,
    through `variant` when given; the inferred arrays are saved to the
    directory `save` when given, under the run's `name`."""
    import numpy as np
    from prep import prepare
    from qasim import cli, embedding

    with contextlib.redirect_stderr(io.StringIO()):
        manifest = prepare(workload, seed, scale)
    if variant is not None:
        manifest["commands"] = with_variant(manifest["commands"], variant)
    stdin = "".join(q + "\n" for q in manifest.get("questions", [])[:ASK_QUESTIONS])
    digests, inferred, calls = {}, hashlib.sha256(), 0
    infer = embedding.infer_doc_vectors

    def recording(*args, **kwargs):
        nonlocal calls
        vecs = infer(*args, **kwargs)
        inferred.update(vecs.tobytes())
        if save is not None:
            np.save(os.path.join(save, f"{name.replace(' ', '-')}-{calls:04d}.npy"), vecs)
        calls += 1
        return vecs

    embedding.infer_doc_vectors = recording
    try:
        for n, argv in enumerate(manifest["commands"]):
            out, err = io.StringIO(), io.StringIO()
            saved, sys.stdin = sys.stdin, io.StringIO(stdin)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            finally:
                sys.stdin = saved
            key = f"command {n:02d} {argv[0]}"
            digests[f"{key} exit"] = rc
            digests[f"{key} stdout"] = sha(out.getvalue().encode())
            digests[f"{key} stderr"] = sha(err.getvalue().encode())
    finally:
        embedding.infer_doc_vectors = infer
    digests["inferred vectors"] = inferred.hexdigest()
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            digests[f"file {name}"] = sha(fh.read())
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the qasim package")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--save-inferred", metavar="DIR",
                        help="write every inferred array to DIR as .npy, in call order")
    args = parser.parse_args()
    save = None
    if args.save_inferred is not None:
        save = os.path.abspath(args.save_inferred)
        os.makedirs(save, exist_ok=True)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "perfbench"))
    home, result = os.getcwd(), {}
    for workload, seed, variant in RUNS:
        name = " ".join(str(part) for part in (workload, seed, variant) if part is not None)
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                for key, value in run(workload, seed, variant, args.scale, name, save).items():
                    result[f"{name} {key}"] = value
            finally:
                os.chdir(home)
    print(json.dumps(result, indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
