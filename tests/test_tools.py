"""`tools/output_digests.py`, the byte check between two trees: one JSON
object of digests over every run of the benchmark's workloads."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_output_digests_cover_every_run(tmp_path):
    work, saved = tmp_path / "work", tmp_path / "inferred"
    work.mkdir()
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"),
                          "--src", str(ROOT / "src"), "--scale", "smoke",
                          "--save-inferred", str(saved)],
                         cwd=work, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    digests = json.loads(out.stdout)
    exits = [v for k, v in digests.items() if k.endswith(" exit")]
    assert exits and set(exits) == {0}
    for run in ("train_pipeline 1", "train_pipeline 2", "train_pipeline 3"):
        for name in ("q.d2v", "a.d2v", "a.w2v", "net.simnet", "report.json",
                     "infer_report.json"):
            assert f"{run} file {name}" in digests
    # seed 1's fixture again, through concatenate-mode paragraph vectors,
    # early stopping or no dropout to `eval --infer-vectors`, with no word2vec
    concat, early = "train_pipeline 1 concatenate", "train_pipeline 1 early-stop"
    no_dropout, cbow = "train_pipeline 1 no-dropout", "train_pipeline 1 cbow"

    def commands(variant):
        return [k.split()[-2] for k in digests
                if k.startswith(f"{variant} command") and k.endswith(" exit")]
    for variant in (concat, early, no_dropout):
        assert commands(variant) == ["build-vocab", "build-vocab", "train-doc2vec",
                                     "train-doc2vec", "sample-pairs", "train-simnet", "eval"]
        assert f"{variant} file a.w2v" not in digests
    # or with a CBOW word model in place of skip-gram's, and the same paragraph vectors
    assert commands(cbow) == ["build-vocab", "build-vocab", "train-doc2vec", "train-doc2vec",
                              "train-word2vec", "sample-pairs", "train-simnet", "eval"]
    assert digests[f"{cbow} file a.w2v"] != digests["train_pipeline 1 file a.w2v"]
    for key in ("file q.d2v", "file a.d2v"):
        assert digests[f"{cbow} {key}"] == digests[f"train_pipeline 1 {key}"]
    # models of another size
    for key in ("file q.d2v", "file a.d2v", "file net.simnet", "inferred vectors"):
        assert digests[f"{concat} {key}"] != digests[f"train_pipeline 1 {key}"]
    assert f"{concat} file infer_report.json" in digests
    assert f"{concat} file report.json" not in digests
    # the same features, trained without masks
    for key in ("file q.d2v", "file a.d2v"):
        assert digests[f"{no_dropout} {key}"] == digests[f"train_pipeline 1 {key}"]
    assert digests[f"{no_dropout} file net.simnet"] != digests["train_pipeline 1 file net.simnet"]
    # `ask` read the questions and answered them
    empty = hashlib.sha256(b"").hexdigest()
    # `eval --infer-vectors` and `ask` inferred vectors
    for run in ("train_pipeline 1", "train_pipeline 2", "train_pipeline 3",
                "ask_large_collection 1", concat, early, no_dropout, cbow):
        assert digests[f"{run} inferred vectors"] != empty
    assert digests["ask_large_collection 1 command 00 ask stdout"] != empty
    assert "ask_large_collection 1 file q.d2v" in digests
    # the saved arrays, in call order, are what each run's digest covers
    for run in ("train_pipeline 1", "train_pipeline 2", "train_pipeline 3",
                "ask_large_collection 1", concat, early, no_dropout, cbow):
        files = sorted(saved.glob(run.replace(" ", "-") + "-[0-9]*.npy"))
        assert files
        inferred = hashlib.sha256()
        for path in files:
            inferred.update(np.load(path).tobytes())
        assert inferred.hexdigest() == digests[f"{run} inferred vectors"]
    # the runs leave nothing behind
    assert list(work.iterdir()) == []


def test_early_stop_run_stops_early(tmp_path, monkeypatch):
    # At smoke scale three epochs are too few for patience 2 to stop
    # training, so seed 1 runs at full scale, in process, with and without
    # the variant.
    # the environment that the tool and `perfbench/prep.py` set on import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("QASIM_SEED", raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digests

    digests = {}
    for variant in (None, "early-stop"):
        work = tmp_path / str(variant)
        work.mkdir()
        monkeypatch.chdir(work)
        digests[variant] = output_digests.run("train_pipeline", 1, variant, "full", "run")
    for key in ("file net.simnet", "file net.simnet.report.jsonl"):
        assert digests["early-stop"][key] != digests[None][key]
    reports = [json.loads((tmp_path / str(variant) / "net.simnet.report.jsonl")
                          .read_text(encoding="utf-8").splitlines()[-1])
               for variant in (None, "early-stop")]
    assert [r["stopping_reason"] for r in reports] == ["max_epochs", "early_stopping"]
    # training stopped at the first epoch more than 2 past the best one
    assert reports[1]["completed_epochs"] == reports[1]["best_epoch"] + 4


def test_criteria_sweep_runs_acceptance_criteria_4_and_5(monkeypatch):
    # The sweep's criteria 4 and 5 at offset 0 and full scale, at the
    # module's TRAIN_BLOCK, against the acceptance tests themselves: the
    # same training and scoring calls in the same order, the same models
    # to the bit and the same pool top-1.  Criterion 8's copy is literal
    # too, but its pair of runs costs about 6 s, so it is left out here.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import criteria_sweep
    import test_acceptance

    from qasim import embedding, retrieval

    runs = []

    def record(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            runs[-1].append((name, args, kwargs, result))
            return result
        monkeypatch.setattr(module, name, call)
    for module, name in ((embedding, "train_doc2vec"), (embedding, "train_word2vec"),
                         (retrieval, "evaluate_pool_accuracy")):
        record(module, name)
    runs.append([])
    for criterion in (criteria_sweep.criterion_4, criteria_sweep.criterion_5):
        criterion(0, criteria_sweep.SIZES["full"])
    runs.append([])
    test_acceptance.test_criterion_4_planted_retrieval(lambda *args: None)
    test_acceptance.test_criterion_5_embedding_semantics(lambda *args: None)
    sweep, gate = runs
    assert [c[0] for c in sweep] == [c[0] for c in gate] == [
        "train_doc2vec", "train_doc2vec", "evaluate_pool_accuracy", "train_word2vec",
        "train_word2vec", "train_doc2vec"]
    for (name, args, kwargs, result), (_, gate_args, gate_kwargs, gate_result) in zip(sweep, gate):
        assert kwargs == gate_kwargs
        if name == "evaluate_pool_accuracy":
            assert args[1] == gate_args[1] and result == gate_result
            continue
        assert args == gate_args
        for field in ("input_matrix", "word_matrix", "doc_matrix", "output_matrix"):
            if hasattr(result, field):
                assert np.array_equal(getattr(result, field), getattr(gate_result, field))


def test_criteria_sweep_reports_every_offset_and_block(tmp_path):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "criteria_sweep.py"),
                          "--scale", "smoke", "--offsets", "2"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    sweep = json.loads(out.stdout)
    assert sweep["offsets"] == [0, 1] and sweep["scale"] == "smoke"
    assert set(sweep["blocks"]) == {"1", "8"}
    for block in sweep["blocks"].values():
        assert set(block) == {"criterion 4", "criterion 5", "criterion 8"}
        for criterion in block.values():
            assert len(criterion["values"]) == 2
            assert 0 <= criterion["passes"] <= 2
        assert all(0.0 <= v <= 1.0 for v in block["criterion 4"]["values"])
        assert all(set(v) == {"cbow", "skipgram", "doc"} for v in block["criterion 5"]["values"])
        assert all(len(v["doc2vec"]) == len(v["bow"]) == 4
                   for v in block["criterion 8"]["values"])
        # each offset's margins, and their median and minimum over the offsets
        for name, keys in (("criterion 4", {"gap"}), ("criterion 5", {"cbow", "skipgram", "doc"}),
                           ("criterion 8", {"gap", "doc2vec_mean"})):
            criterion = block[name]
            assert [set(m) for m in criterion["margins"]] == [keys, keys]
            for key in keys:
                margins = [m[key] for m in criterion["margins"]]
                assert criterion["min"][key] == min(margins)
                assert criterion["median"][key] == pytest.approx(sum(margins) / 2, abs=1e-6)
        # criterion 4's gap is positive exactly when every pool ranks its gold answer first
        assert all((m["gap"] > 0) == (v == 1.0) for m, v in zip(
            block["criterion 4"]["margins"], block["criterion 4"]["values"]))
        for m, v in zip(block["criterion 8"]["margins"], block["criterion 8"]["values"]):
            assert m["gap"] == pytest.approx(min(a - b for a, b in zip(v["doc2vec"], v["bow"])),
                                             abs=1e-4)
    # the block governs the word models as well as the doc vectors; at
    # smoke scale a word margin may move below the values' 4 decimals
    for mode in ("cbow", "skipgram"):
        assert ([m[mode] for m in sweep["blocks"]["1"]["criterion 5"]["margins"]]
                != [m[mode] for m in sweep["blocks"]["8"]["criterion 5"]["margins"]])
    assert (sweep["blocks"]["1"]["criterion 8"]["values"]
            != sweep["blocks"]["8"]["criterion 8"]["values"])
    assert list(tmp_path.iterdir()) == []
