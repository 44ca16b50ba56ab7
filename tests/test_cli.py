"""Command-line tests: exit codes, config/flag/seed precedence, output
determinism, the full pipeline end to end, and the interactive loop."""

import argparse
import dataclasses
import gc
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qasim import cli, corpus, embedding, retrieval, simnet, training
from qasim.embedding import EmbedTrainConfig
from qasim.cli import build_parser, main
from qasim.datasets import order_carried_docs, planted_qa_records, two_topic_docs


def run(argv):
    """main() with stdout captured; returns (exit_code, stdout_lines)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


def write_qa(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A finished pipeline run in a temp dir: vocab -> doc2vec x2 ->
    pairs -> simnet -> eval, all through the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    qa = root / "qa.jsonl"
    write_qa(qa, planted_qa_records(n_questions=12, n_gold=8, n_filler=8,
                                    pool_size=4, seed=0))
    paths = {
        "root": root, "qa": qa,
        "q_vocab": root / "q.vocab", "a_vocab": root / "a.vocab",
        "q_model": root / "q.d2v", "a_model": root / "a.d2v",
        "pairs": root / "pairs.jsonl", "net": root / "net.simnet",
        "eval": root / "eval.json",
    }
    out = {}
    steps = {
        "build_q": ["build-vocab", "--qa-file", str(qa), "--side", "question",
                    "--min-count", "1", "--out", str(paths["q_vocab"])],
        "build_a": ["build-vocab", "--qa-file", str(qa), "--side", "answer",
                    "--min-count", "1", "--out", str(paths["a_vocab"])],
        "d2v_q": ["train-doc2vec", "--qa-file", str(qa), "--side", "question",
                  "--vocab", str(paths["q_vocab"]), "--dim", "8", "--window", "2",
                  "--epochs", "2", "--seed", "1", "--out", str(paths["q_model"])],
        "d2v_a": ["train-doc2vec", "--qa-file", str(qa), "--side", "answer",
                  "--vocab", str(paths["a_vocab"]), "--dim", "8", "--window", "2",
                  "--epochs", "2", "--seed", "1", "--out", str(paths["a_model"])],
        "pairs": ["sample-pairs", "--qa-file", str(qa), "--n-pairs", "40",
                  "--seed", "2", "--out", str(paths["pairs"])],
        "simnet": ["train-simnet", "--pairs", str(paths["pairs"]),
                   "--q-model", str(paths["q_model"]), "--a-model", str(paths["a_model"]),
                   "--batch-size", "10", "--max-epochs", "3", "--patience", "3",
                   "--lr0", "0.01", "--seed", "3", "--out", str(paths["net"])],
        "eval": ["eval", "--qa-file", str(qa), "--pairs", str(paths["pairs"]),
                 "--q-model", str(paths["q_model"]), "--a-model", str(paths["a_model"]),
                 "--simnet", str(paths["net"]), "--threshold", "0.5",
                 "--bow-baseline", "--min-count", "1", "--out", str(paths["eval"])],
    }
    for name, argv in steps.items():
        rc, lines = run(argv)
        assert rc == 0, f"step {name} failed: {lines}"
        out[name] = lines
    paths["argv"] = steps
    paths["out"] = out
    return paths


@pytest.fixture(scope="module")
def wide_models(ws):
    """Question and answer doc2vec models of 16 dimensions, where the
    workspace's models and network have 8."""
    paths = {}
    for side in ("question", "answer"):
        paths[side] = ws["root"] / f"{side}16.d2v"
        rc, _ = run(["train-doc2vec", "--qa-file", str(ws["qa"]), "--side", side,
                     "--vocab", str(ws[side[0] + "_vocab"]), "--dim", "16", "--window", "2",
                     "--epochs", "1", "--seed", "1", "--out", str(paths[side])])
        assert rc == 0
    return paths


class TestPipeline:
    def test_build_vocab_counters(self, ws):
        stats = last_json(ws["out"]["build_q"])
        assert set(stats) == {"vocab_size", "tokens", "lf_replacements",
                              "num_replacements"}
        assert stats["vocab_size"] > 2  # topic tokens + reserved symbols
        assert stats["tokens"] == 12 * 8  # question_len tokens per question
        assert stats["lf_replacements"] == 0  # min-count 1 retains everything

    def test_build_vocab_counts_rare_and_digit_tokens(self, tmp_path):
        text = ("the cat sat 42 times\nthe dog ran 7 laps\n"
                "a cat and a 3d dog\nthe end 2024\n")
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        rc, lines = run(["build-vocab", "--corpus", str(path), "--min-count", "2",
                         "--out", str(tmp_path / "v.vocab")])
        assert rc == 0
        # kept at min-count 2: the, cat, dog, a; digits: 42, 7, 3d, 2024
        assert last_json(lines) == {"vocab_size": 6, "tokens": 19,
                                    "lf_replacements": 6, "num_replacements": 4}

    def test_echo_line_is_json_with_command(self, ws):
        echo = json.loads(ws["out"]["build_q"][0])
        assert echo["command"] == "build-vocab"
        assert echo["resolved"]["min_count"] == 1

    def test_simnet_summary(self, ws):
        summary = last_json(ws["out"]["simnet"])
        assert set(summary) == {"best_epoch", "completed_epochs",
                                "stopping_reason", "best_val_acc"}
        assert summary["completed_epochs"] == 3
        assert summary["stopping_reason"] == "max_epochs"
        assert 0.0 <= summary["best_val_acc"] <= 1.0

    def test_simnet_report_files(self, ws):
        base = str(ws["net"]) + ".report"
        jsonl = open(base + ".jsonl", encoding="utf-8").read().splitlines()
        assert len(jsonl) == 4  # 3 epochs + summary
        assert json.loads(jsonl[-1])["completed_epochs"] == 3
        csv_lines = open(base + ".csv", encoding="utf-8").read().splitlines()
        assert csv_lines[0] == "epoch,lr,train_loss,train_acc,val_acc"

    def test_simnet_val_pairs_file_sets_n_val(self, ws, tmp_path):
        val = tmp_path / "val.jsonl"
        val.write_text("".join(ws["pairs"].read_text(encoding="utf-8").splitlines(True)[:7]),
                       encoding="utf-8")
        rc, lines = run(["train-simnet", "--pairs", str(ws["pairs"]), "--val-pairs", str(val),
                         "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                         "--max-epochs", "1", "--out", str(tmp_path / "n")])
        assert rc == 0
        resolved = json.loads(lines[0])["resolved"]
        assert (resolved["n_train"], resolved["n_val"]) == (40, 7)

    def test_eval_report(self, ws):
        report = last_json(ws["out"]["eval"])
        for key in ("pool_top1", "pools_scored", "pools_without_gold",
                    "answer_rate", "threshold", "pair_accuracy", "bow_cosine_top1"):
            assert key in report
        assert report["pools_scored"] == 12
        assert report["pools_without_gold"] == 0
        assert report["threshold"] == 0.5
        # gold answers share the question topic, fillers do not: the
        # unigram-overlap baseline solves the planted pools outright
        assert report["bow_cosine_top1"] == 1.0
        file_copy = json.loads(ws["eval"].read_text(encoding="utf-8"))
        assert file_copy == report

    def test_eval_without_pairs_reports_none(self, ws):
        rc, lines = run(["eval", "--qa-file", str(ws["qa"]),
                         "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                         "--simnet", str(ws["net"]), "--threshold", "0.5"])
        assert rc == 0
        assert last_json(lines)["pair_accuracy"] is None

    def test_eval_infer_vectors(self, ws):
        rc, lines = run(["eval", "--qa-file", str(ws["qa"]),
                         "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                         "--simnet", str(ws["net"]), "--infer-vectors",
                         "--infer-steps", "2",
                         "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"])])
        assert rc == 0
        assert 0.0 <= last_json(lines)["pool_top1"] <= 1.0

    @pytest.mark.parametrize("records, want", [
        # the second pool's gold shares no word with its question and its
        # other candidate shares all three, so cosine picks wrong there; the
        # third pool has no gold and stays out of the denominator
        ([{"question": "red apple pie", "candidates": ["red apple pie recipe", "blue sky"],
           "correct": [0]},
          {"question": "green tea cup", "candidates": ["green tea cup here", "hot coffee mug"],
           "correct": [1]},
          {"question": "old stone wall", "candidates": ["new glass door", "old stone wall"]}],
         0.5),
        ([{"question": "red apple pie", "candidates": ["red apple pie recipe", "blue sky"]},
          {"question": "green tea cup", "candidates": ["hot coffee mug"]}], None),
    ], ids=["one_miss", "no_gold"])
    def test_eval_bow_baseline_counts_gold_pools_only(self, ws, tmp_path, records, want):
        qa = tmp_path / "qa.jsonl"
        write_qa(qa, records)
        rc, lines = run(["eval", "--qa-file", str(qa),
                         "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                         "--simnet", str(ws["net"]), "--infer-vectors", "--infer-steps", "1",
                         "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"]),
                         "--bow-baseline", "--min-count", "1"])
        assert rc == 0
        report = last_json(lines)
        assert report["bow_cosine_top1"] == want
        assert report["pools_scored"] == sum(1 for r in records if r.get("correct"))

    def test_infer_vectors_vocab_model_mismatch_exits_two(self, ws, tmp_path, capsys):
        grown, n_vocab = grown_vocab(ws, tmp_path)
        rc = main(["eval", "--qa-file", str(ws["qa"]),
                   "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                   "--simnet", str(ws["net"]), "--infer-vectors", "--infer-steps", "2",
                   "--q-vocab", str(grown), "--a-vocab", str(ws["a_vocab"])])
        assert rc == 2
        n_model = embedding.load_doc2vec(ws["q_model"]).vocab_size
        assert capsys.readouterr().err.splitlines() == [vocab_mismatch_line(n_vocab, n_model)]

    def test_infer_steps_below_one_exits_two(self, ws, capsys):
        rc = main(["eval", "--qa-file", str(ws["qa"]),
                   "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                   "--simnet", str(ws["net"]), "--infer-vectors", "--infer-steps", "0",
                   "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"])])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: --infer-steps must be >= 1, got 0"]

    @pytest.mark.parametrize("steps", [str(2**63), str(10**20)])
    def test_infer_steps_above_bound_exits_two(self, ws, capsys, steps):
        # neither fits int64: steps * length raised OverflowError, a traceback
        rc = main(["eval", "--qa-file", str(ws["qa"]),
                   "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                   "--simnet", str(ws["net"]), "--infer-vectors", "--infer-steps", steps,
                   "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"])])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: --infer-steps must be <= {embedding.MAX_INFER_STEPS}, got {steps}"]
        assert captured.out == ""

    @pytest.mark.parametrize("side", ["questions", "answers"])
    def test_empty_document_exits_one_naming_side_and_index(self, ws, tmp_path, capsys, side):
        # punctuation alone tokenizes to nothing: the third question, or the
        # second answer of the file's order
        records = [{"question": "red apple pie", "candidates": ["red apple", "blue sky"],
                    "correct": [0]},
                   {"question": "green tea", "candidates": ["hot tea", "old wall"],
                    "correct": [0]},
                   {"question": "?!" if side == "questions" else "tall tree",
                    "candidates": ["cold milk", "red apple"], "correct": [1]}]
        if side == "answers":
            records[0]["candidates"][1] = "... !"
        qa = tmp_path / "qa.jsonl"
        write_qa(qa, records)
        rc = main(["eval", "--qa-file", str(qa),
                   "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                   "--simnet", str(ws["net"]), "--infer-vectors", "--infer-steps", "2",
                   "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"])])
        assert rc == 1
        index = 2 if side == "questions" else 1
        assert capsys.readouterr().err.splitlines() == [
            f"qasim: error: {side}: cannot infer a vector for empty document {index}"]

    def test_empty_pool_exits_one_naming_its_question(self, ws, tmp_path, capsys):
        records = [{"question": "red apple pie", "candidates": ["red apple", "blue sky"],
                    "correct": [0]},
                   {"question": "green tea", "candidates": []}]
        qa = tmp_path / "qa.jsonl"
        write_qa(qa, records)
        rc = main(["eval", "--qa-file", str(qa),
                   "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                   "--simnet", str(ws["net"]), "--infer-vectors", "--infer-steps", "2",
                   "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"])])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["qasim: error: pool of question 1 has no candidates"]
        assert captured.out == ""

    def test_infer_vectors_requires_vocab(self, ws):
        rc, _ = run(["eval", "--qa-file", str(ws["qa"]),
                     "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                     "--simnet", str(ws["net"]), "--infer-vectors"])
        assert rc == 2


def with_nan(path, tmp_path, offset):
    """A copy of the model file at `path` with a float32 NaN at byte
    `offset` (from the end when negative)."""
    data = bytearray(path.read_bytes())
    offset %= len(data)
    data[offset: offset + 4] = struct.pack("<f", float("nan"))
    bad = tmp_path / ("nan" + path.suffix)
    bad.write_bytes(bytes(data))
    return bad


def header_offset(header_fmt: str, field: int) -> int:
    """Byte offset of header field `field` (0 is the magic) in a model
    file whose header has the struct format `header_fmt`."""
    return struct.calcsize(header_fmt[0] + "".join(re.findall(r"\d*\w", header_fmt[1:])[:field]))


def with_field(path, tmp_path, header_fmt: str, field: int, value: int):
    """A copy of the model file at `path` whose header field `field` (a
    uint32; 0 is the magic) holds `value`."""
    data = bytearray(path.read_bytes())
    at = header_offset(header_fmt, field)
    data[at: at + 4] = struct.pack("<I", value)
    bad = tmp_path / ("field" + path.suffix)
    bad.write_bytes(bytes(data))
    return bad


def grown_vocab(ws, tmp_path, extra=("zzfoo", "zzbar")):
    """The question vocabulary plus `extra` tokens the question model has
    no rows for; returns its path and its length."""
    rows = [line.split("\t") for line in ws["q_vocab"].read_text(encoding="utf-8").splitlines()]
    # the reserved symbols stay last
    rows = rows[:-2] + [[token, "", "1"] for token in extra] + rows[-2:]
    lines = [f"{token}\t{i}\t{freq}" for i, (token, _, freq) in enumerate(rows)]
    path = tmp_path / "grown.vocab"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, len(lines)


def duplicated_vocab(ws, tmp_path):
    """The question vocabulary with its third token replaced by its first,
    so it keeps the model's size; returns its path and that token."""
    rows = [line.split("\t") for line in ws["q_vocab"].read_text(encoding="utf-8").splitlines()]
    rows[2][0] = rows[0][0]
    path = tmp_path / "dup.vocab"
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    return path, rows[0][0]


def vocab_mismatch_line(n_vocab, n_model):
    return (f"qasim: error: question vocabulary holds {n_vocab} tokens but its doc2vec "
            f"model has {n_model}")


class TestDeterminism:
    def rerun(self, ws, step, replace):
        argv = list(ws["argv"][step])
        for old, new in replace.items():
            argv = [new if a == old else a for a in argv]
        rc, _ = run(argv)
        assert rc == 0

    def test_doc2vec_rerun_byte_identical(self, ws):
        other = ws["root"] / "q2.d2v"
        self.rerun(ws, "d2v_q", {str(ws["q_model"]): str(other)})
        assert other.read_bytes() == ws["q_model"].read_bytes()

    def test_sample_pairs_rerun_byte_identical(self, ws):
        other = ws["root"] / "pairs2.jsonl"
        self.rerun(ws, "pairs", {str(ws["pairs"]): str(other)})
        assert other.read_bytes() == ws["pairs"].read_bytes()

    def test_simnet_rerun_byte_identical(self, ws):
        other = ws["root"] / "net2.simnet"
        self.rerun(ws, "simnet", {str(ws["net"]): str(other)})
        assert other.read_bytes() == ws["net"].read_bytes()
        assert (ws["root"] / "net2.simnet.report.jsonl").read_bytes() == \
            (ws["root"] / "net.simnet.report.jsonl").read_bytes()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_training_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # The pipeline's commands: both embedding trainers (word2vec in both
        # modes, doc2vec in both combine modes), the simnet, eval on
        # inferred vectors and classify.  Batches of 100 rows of 64
        # features are large enough for OpenBLAS to split the simnet GEMMs
        # over threads.
        qa = tmp_path / "qa.jsonl"
        write_qa(qa, planted_qa_records(n_questions=40, n_gold=20, n_filler=20,
                                        pool_size=5, seed=4))
        labeled = tmp_path / "labeled.jsonl"
        docs, labels = two_topic_docs(60, seed=5)
        write_qa(labeled, [{"text": " ".join(d), "label": y} for d, y in zip(docs, labels)])
        d2v = ["--dim", "64", "--window", "2", "--epochs", "1", "--seed", "1"]
        steps = [
            ["build-vocab", "--qa-file", str(qa), "--side", "question", "--min-count", "1",
             "--out", "q.vocab"],
            ["build-vocab", "--qa-file", str(qa), "--side", "answer", "--min-count", "1",
             "--out", "a.vocab"],
            ["train-doc2vec", "--qa-file", str(qa), "--side", "question", "--vocab", "q.vocab",
             *d2v, "--out", "q.d2v"],
            ["train-doc2vec", "--qa-file", str(qa), "--side", "answer", "--vocab", "a.vocab",
             *d2v, "--out", "a.d2v"],
            ["sample-pairs", "--qa-file", str(qa), "--n-pairs", "400", "--seed", "2",
             "--out", "pairs.jsonl"],
            ["train-word2vec", "--qa-file", str(qa), "--side", "question", "--vocab", "q.vocab",
             *d2v, "--mode", "skipgram", "--out", "q.w2v"],
            ["train-word2vec", "--qa-file", str(qa), "--side", "question", "--vocab", "q.vocab",
             *d2v, "--mode", "cbow", "--out", "q_cbow.w2v"],
            ["train-doc2vec", "--qa-file", str(qa), "--side", "question", "--vocab", "q.vocab",
             *d2v, "--combine", "concatenate", "--out", "q_concat.d2v"],
            ["train-simnet", "--pairs", "pairs.jsonl", "--q-model", "q.d2v", "--a-model", "a.d2v",
             "--batch-size", "100", "--max-epochs", "2", "--patience", "2", "--lr0", "0.05",
             "--seed", "3", "--out", "net.simnet"],
            ["eval", "--qa-file", str(qa), "--q-model", "q.d2v", "--a-model", "a.d2v",
             "--simnet", "net.simnet", "--infer-vectors", "--q-vocab", "q.vocab",
             "--a-vocab", "a.vocab", "--infer-steps", "5", "--seed", "4", "--out", "eval.json"],
            ["classify", "--data", str(labeled), "--min-count", "1", *d2v, "--ratios", "0.2,0.5",
             "--seeds", "0,1", "--clf-epochs", "5", "--out", "curves.csv"],
        ]
        script = ("import contextlib, hashlib, io, json, os, sys\n"
                  "from qasim import cli\n"
                  "stdout = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                  "        assert cli.main(argv) == 0, argv\n"
                  "    stdout.append(out.getvalue())\n"
                  "print(json.dumps([stdout, {f: hashlib.sha256(open(f, 'rb').read()).hexdigest()\n"
                  "                           for f in sorted(os.listdir('.'))}]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        digests = []
        for threads in (1, min(2, os.cpu_count())):
            work = tmp_path / f"threads{threads}"
            work.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "OMP_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = subprocess.run([sys.executable, "-c", script, json.dumps(steps)], cwd=work,
                                 env=env, capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            digests.append(json.loads(out.stdout))
        assert {"q.d2v", "a.d2v", "q.w2v", "q_cbow.w2v", "q_concat.d2v", "pairs.jsonl",
                "net.simnet", "net.simnet.report.jsonl", "net.simnet.report.csv", "eval.json",
                "curves.csv"} <= set(digests[0][1])
        assert digests[0] == digests[1]

    def test_different_seed_changes_pairs(self, ws):
        other = ws["root"] / "pairs_seed9.jsonl"
        argv = [a for a in ws["argv"]["pairs"]]
        argv = [other.as_posix() if a == str(ws["pairs"]) else a for a in argv]
        argv[argv.index("--seed") + 1] = "9"
        rc, _ = run(argv)
        assert rc == 0
        assert other.read_bytes() != ws["pairs"].read_bytes()


class TestSeedResolution:
    def test_env_seed_fallback(self, ws, monkeypatch, tmp_path):
        monkeypatch.setenv("QASIM_SEED", "7")
        rc, lines = run(["sample-pairs", "--qa-file", str(ws["qa"]),
                         "--n-pairs", "10", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["seed"] == 7

    def test_flag_beats_config(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 3}', encoding="utf-8")
        rc, lines = run(["sample-pairs", "--qa-file", str(ws["qa"]),
                         "--config", str(cfg), "--seed", "9",
                         "--n-pairs", "10", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["seed"] == 9

    def test_config_beats_env(self, ws, monkeypatch, tmp_path):
        monkeypatch.setenv("QASIM_SEED", "7")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 3}', encoding="utf-8")
        rc, lines = run(["sample-pairs", "--qa-file", str(ws["qa"]),
                         "--config", str(cfg),
                         "--n-pairs", "10", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["seed"] == 3

    def test_section_seed_beats_top_level(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 3, "embedding": {"seed": 5}}', encoding="utf-8")
        rc, lines = run(["train-doc2vec", "--qa-file", str(ws["qa"]),
                         "--config", str(cfg), "--vocab", str(ws["q_vocab"]),
                         "--dim", "4", "--epochs", "1",
                         "--out", str(tmp_path / "m.d2v")])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["seed"] == 5

    def test_env_seed_reaches_inferred_vectors(self, ws, monkeypatch):
        inferred = {}
        infer = embedding.infer_doc_vectors

        def recording(model, docs, steps=50, seed=0):
            vectors = infer(model, docs, steps=steps, seed=seed)
            inferred.setdefault(seed, []).extend(vectors)
            return vectors

        monkeypatch.setattr(embedding, "infer_doc_vectors", recording)
        argv = ["eval", "--qa-file", str(ws["qa"]), "--q-model", str(ws["q_model"]),
                "--a-model", str(ws["a_model"]), "--simnet", str(ws["net"]),
                "--infer-vectors", "--infer-steps", "2",
                "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"])]
        for env_seed in ("7", "8"):
            monkeypatch.setenv("QASIM_SEED", env_seed)
            rc, _ = run(argv)
            assert rc == 0
        assert set(inferred) == {7, 8}
        assert any(not np.array_equal(a, b) for a, b in zip(inferred[7], inferred[8]))

    def test_flag_beats_bad_env_seed(self, ws, monkeypatch, tmp_path):
        monkeypatch.setenv("QASIM_SEED", "abc")
        rc, lines = run(["sample-pairs", "--qa-file", str(ws["qa"]), "--seed", "3",
                         "--n-pairs", "10", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["seed"] == 3

    def test_bad_env_seed_alone_exits_two(self, ws, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("QASIM_SEED", "abc")
        rc = main(["sample-pairs", "--qa-file", str(ws["qa"]),
                   "--n-pairs", "10", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: invalid QASIM_SEED: 'abc' is not an integer"]

    @pytest.mark.parametrize("command, source", [
        (command, source) for command in ("sample-pairs", "train-simnet", "train-doc2vec")
        for source in ("flag", "config", "section", "env")
        if (command, source) != ("sample-pairs", "section")])
    def test_negative_seed_exits_two_naming_its_source(self, tmp_path, monkeypatch, capsys,
                                                       command, source):
        # every input file named is missing: the seed must be rejected first
        missing = str(tmp_path / "missing")
        argv = {"sample-pairs": ["sample-pairs", "--qa-file", missing, "--n-pairs", "4"],
                "train-simnet": ["train-simnet", "--pairs", missing, "--q-model", missing,
                                 "--a-model", missing],
                "train-doc2vec": ["train-doc2vec", "--corpus", missing, "--vocab", missing]}[
            command] + ["--out", missing]
        section = {"train-simnet": "simnet", "train-doc2vec": "embedding"}.get(command)
        monkeypatch.delenv("QASIM_SEED", raising=False)
        if source == "flag":
            argv += ["--seed", "-1"]
            message = "--seed must be >= 0, got -1"
        elif source == "env":
            monkeypatch.setenv("QASIM_SEED", "-3")
            message = "QASIM_SEED must be >= 0, got -3"
        else:
            config = {"seed": -2} if source == "config" else {section: {"seed": -2}}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(cfg)]
            name = "seed" if source == "config" else f"{section}.seed"
            message = f"config field {name} must be >= 0, got -2"
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"qasim: error: {message}"]
        assert not os.path.exists(missing)

    def test_default_seed_zero(self, ws, monkeypatch, tmp_path):
        monkeypatch.delenv("QASIM_SEED", raising=False)
        rc, lines = run(["sample-pairs", "--qa-file", str(ws["qa"]),
                         "--n-pairs", "10", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["seed"] == 0


# Similarity-training settings that SimTrainConfig rejects, each once.
BAD_SIMNET = [{"max_epochs": 0}, {"lr0": -1, "lr_floor": -2}, {"lr_floor": 0}, {"lam": -0.5},
              {"init_std": 0}, {"decay": 0}, {"decay": 1.5}, {"decay_start_epoch": -1},
              {"bias_const": math.nan}, {"init_std": math.inf}, {"lr0": math.inf},
              {"lam": math.inf}, {"init_std": 1e300}, {"bias_const": 1e300}]


class TestExitCodes:
    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab"])  # --out is required
        assert exc.value.code == 2

    def test_missing_input_file(self, tmp_path):
        rc, _ = run(["sample-pairs", "--qa-file", str(tmp_path / "nope.jsonl"),
                     "--n-pairs", "5", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2

    def test_directory_as_input_file_exits_two(self, tmp_path, capsys):
        # it exists, so "not found" would mislead
        rc = main(["build-vocab", "--qa-file", str(tmp_path), "--out", str(tmp_path / "v")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"qasim: error: QA dataset file is not a regular file: {tmp_path}"]
        assert not (tmp_path / "v").exists()

    def test_unknown_config_field(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}', encoding="utf-8")
        rc = main(["build-vocab", "--qa-file", str(ws["qa"]), "--config", str(cfg),
                   "--out", str(tmp_path / "v")])
        assert rc == 2
        assert "unknown config field: bogus" in capsys.readouterr().err

    def test_unknown_section_field(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"simnet": {"momentum": 0.9}}', encoding="utf-8")
        rc = main(["train-simnet", "--config", str(cfg),
                   "--pairs", str(ws["pairs"]), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--out", str(tmp_path / "n")])
        assert rc == 2
        assert "unknown config field: simnet.momentum" in capsys.readouterr().err

    def test_invalid_config_value(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"simnet": {"dropout_p": 1.5}}', encoding="utf-8")
        rc = main(["train-simnet", "--config", str(cfg),
                   "--pairs", str(ws["pairs"]), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--out", str(tmp_path / "n")])
        assert rc == 2
        assert "invalid config field" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", BAD_SIMNET, ids=lambda bad: ",".join(bad))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_simnet_setting_exits_two_before_any_work(self, tmp_path, capsys, bad, source):
        # the pair file does not exist: the setting must be rejected first
        argv = ["train-simnet", "--pairs", str(tmp_path / "missing.jsonl"),
                "--q-model", str(tmp_path / "q.d2v"), "--a-model", str(tmp_path / "a.d2v"),
                "--out", str(tmp_path / "n")]
        if source == "flag":
            for field, value in bad.items():
                argv += [FLAG_NAMES.get(field, "--" + field.replace("_", "-")), str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"simnet": bad}), encoding="utf-8")
            argv += ["--config", str(cfg)]
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("qasim: error: invalid config field: "), err
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("field, value", [("learning_rate", math.inf),
                                              ("learning_rate", math.nan),
                                              ("min_learning_rate", math.nan)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_embedding_setting_exits_two_before_any_input(self, tmp_path, capsys,
                                                                     field, value, source):
        missing = str(tmp_path / "missing")
        argv = ["train-doc2vec", "--corpus", missing, "--vocab", missing, "--out", missing]
        if source == "flag":
            argv += [FLAG_NAMES[field], str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"embedding": {field: value}}), encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"qasim: error: invalid config field: {field} must be finite, got {value}"]
        assert not os.path.exists(missing)

    def test_malformed_config_json(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        rc, _ = run(["build-vocab", "--qa-file", str(ws["qa"]), "--config", str(cfg),
                     "--out", str(tmp_path / "v")])
        assert rc == 2

    @pytest.mark.parametrize("damage", [b'{"seed": "\xff"}', b"[" * 100_000],
                             ids=["not_utf8", "nested_too_deep"])
    @pytest.mark.parametrize("command", ["sample-pairs", "build-vocab"])
    def test_damaged_config_file_exits_two_naming_it(self, ws, tmp_path, capsys, damage,
                                                     command):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(damage)
        argv = {"sample-pairs": ["sample-pairs", "--n-pairs", "3"],
                "build-vocab": ["build-vocab", "--min-count", "1"]}[command]
        out = tmp_path / "out"
        rc = main([*argv, "--qa-file", str(ws["qa"]), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"qasim: error: config file {cfg} is not valid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("negatives", ["0", "101", "2147483647"])
    @pytest.mark.parametrize("command", ["train-doc2vec", "train-word2vec"])
    def test_negatives_out_of_bound_exits_two(self, ws, tmp_path, capsys, negatives, command):
        out = tmp_path / "m"
        rc = main([command, "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                   "--dim", "4", "--epochs", "0", "--negatives", negatives, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: invalid config field: negatives must lie in [1, 100]"]
        assert not out.exists()

    def test_negatives_at_bound_accepted(self, ws, tmp_path):
        assert EmbedTrainConfig.MAX_NEGATIVES == 100
        rc, _ = run(["train-doc2vec", "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                     "--dim", "4", "--epochs", "0", "--negatives", "100",
                     "--out", str(tmp_path / "m")])
        assert rc == 0
        assert embedding.load_doc2vec(tmp_path / "m").negatives == 100

    @pytest.mark.parametrize("flag, value, rule", [
        ("--dim", "10001", "dim must lie in [1, 10000]"),
        ("--dim", "2147483647", "dim must lie in [1, 10000]"),
        ("--window", "101", "window must lie in [1, 100]"),
        ("--window", "2147483647", "window must lie in [1, 100]"),
    ])
    @pytest.mark.parametrize("command", ["train-doc2vec", "train-word2vec"])
    def test_size_out_of_bound_exits_two(self, ws, tmp_path, capsys, flag, value, rule, command):
        out = tmp_path / "m"
        combine = ["--combine", "concatenate"] if command == "train-doc2vec" else []
        rc = main([command, "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                   "--dim", "4", "--epochs", "0", *combine, flag, value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"qasim: error: invalid config field: {rule}"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, sizes", [
        # the dim bound in average mode at --epochs 0, so little is allocated
        ("train-doc2vec", ["--dim", "10000"], (10_000, 5)),
        ("train-doc2vec", ["--dim", "4", "--window", "100", "--combine", "concatenate"],
         (4, 100)),
        ("train-word2vec", ["--dim", "10000"], (10_000, 5)),
        ("train-word2vec", ["--dim", "4", "--window", "100"], (4, 100)),
    ])
    def test_size_at_bound_accepted(self, ws, tmp_path, command, flags, sizes):
        assert (EmbedTrainConfig.MAX_DIM, EmbedTrainConfig.MAX_WINDOW) == (10_000, 100)
        out = tmp_path / "m"
        rc, _ = run([command, "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                     "--epochs", "0", *flags, "--out", str(out)])
        assert rc == 0
        load = embedding.load_doc2vec if command == "train-doc2vec" else embedding.load_word2vec
        model = load(out)
        assert (model.dim, model.window) == sizes

    @pytest.mark.parametrize("field, value, rule", [
        (3, 10_001, "dim must lie in [1, 10000]"),
        (4, 101, "window must lie in [1, 100]"),
    ])
    def test_doc2vec_header_size_out_of_bound_exits_one_before_ready(
            self, ws, text_inputs, tmp_path, monkeypatch, capsys, field, value, rule):
        # fields 3 and 4 of the doc2vec header: magic, V, N, dim, window
        bad = with_field(ws["q_model"], tmp_path, embedding._D2V_HEADER, field, value)
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        tracemalloc.start()
        try:
            rc = main(["ask", "--answers", str(text_inputs["answers"][0]),
                       "--q-vocab", str(ws["q_vocab"]), "--q-model", str(bad),
                       "--a-model", str(ws["a_model"]), "--simnet", str(ws["net"]),
                       "--infer-steps", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: {rule} in doc2vec model file: {bad}"]
        assert captured.out == ""
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("negatives", [0, 101, 2**31 - 1, 2**32 - 1])
    def test_doc2vec_header_negatives_out_of_bound_exits_one_before_ready(
            self, ws, text_inputs, tmp_path, monkeypatch, capsys, negatives):
        # field 5 of the doc2vec header: magic, V, N, dim, window, negatives
        bad = with_field(ws["q_model"], tmp_path, embedding._D2V_HEADER, 5, negatives)
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        tracemalloc.start()
        try:
            rc = main(["ask", "--answers", str(text_inputs["answers"][0]),
                       "--q-vocab", str(ws["q_vocab"]), "--q-model", str(bad),
                       "--a-model", str(ws["a_model"]), "--simnet", str(ws["net"]),
                       "--infer-steps", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        captured = capsys.readouterr()
        # the one stderr line means no "ready" line either
        assert captured.err.splitlines() == [
            f"qasim: error: negatives must lie in [1, 100] in doc2vec model file: {bad}"]
        assert captured.out == ""
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("negatives", [0, 101, 2**32 - 1])
    def test_word2vec_header_negatives_out_of_bound_rejected(self, word2vec_file, tmp_path,
                                                             negatives):
        # field 4 of the word2vec header: magic, V, dim, window, negatives
        bad = with_field(word2vec_file, tmp_path, embedding._W2V_HEADER, 4, negatives)
        with pytest.raises(ValueError) as exc:
            embedding.load_word2vec(bad)
        assert str(exc.value) == (
            f"negatives must lie in [1, 100] in word2vec model file: {bad}")

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 1.50 TiB for an array"),
                                       MemoryError()], ids=["message", "bare"])
    def test_unsatisfiable_allocation_exits_one_in_one_line(self, ws, tmp_path, monkeypatch,
                                                            capsys, error):
        def train(*args, **kwargs):
            raise error
        monkeypatch.setattr(embedding, "train_doc2vec", train)
        out = tmp_path / "m"
        rc = main(["train-doc2vec", "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                   "--dim", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"qasim: error: {str(error) or 'MemoryError'}"]
        assert not out.exists()

    def test_corrupt_model_file_exits_one(self, ws, tmp_path):
        bad = tmp_path / "bad.d2v"
        bad.write_bytes(b"XXXX not a model")
        rc, _ = run(["eval", "--qa-file", str(ws["qa"]), "--q-model", str(bad),
                     "--a-model", str(ws["a_model"]), "--simnet", str(ws["net"])])
        assert rc == 1

    def test_all_short_docs_exit_one(self, tmp_path, capsys):
        text = tmp_path / "short.txt"
        text.write_text("one\nword\nper\nline\n", encoding="utf-8")
        vocab_path = tmp_path / "v"
        rc, _ = run(["build-vocab", "--corpus", str(text), "--min-count", "1",
                     "--out", str(vocab_path)])
        assert rc == 0
        rc = main(["train-word2vec", "--corpus", str(text), "--vocab", str(vocab_path),
                   "--dim", "4", "--epochs", "1", "--out", str(tmp_path / "m")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        '{"question_doc": -1, "answer_doc": 0, "label": 1}',
        '{"question_doc": 0, "answer_doc": -2, "label": 0}',
        '{"question_doc": 0}',
        '{"question_doc": 0, "answer_doc": [1], "label": 1}',
        '{"question_doc": 0, "answer_doc": 1, "label": true}',
        '{"question_doc": 0, "answer_doc": 1, "label": 1.0}',
    ])
    def test_bad_pair_record_exits_one(self, ws, tmp_path, capsys, record):
        pairs = tmp_path / "bad_pairs.jsonl"
        good = ws["pairs"].read_text(encoding="utf-8").splitlines()
        pairs.write_text("\n".join(good[:3] + [record] + good[3:]) + "\n", encoding="utf-8")
        rc = main(["train-simnet", "--pairs", str(pairs), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--max-epochs", "1",
                   "--out", str(tmp_path / "n")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"qasim: error: {pairs}:4: malformed pair record")

    @pytest.mark.parametrize("correct", ['["x"]', "[0.5]", "[true]"])
    def test_bad_qa_record_exits_one(self, tmp_path, capsys, correct):
        qa = tmp_path / "qa.jsonl"
        qa.write_text('{"question": "q", "candidates": ["a", "b"], "correct": [0]}\n'
                      '{"question": "q", "candidates": ["a", "b"], "correct": %s}\n' % correct,
                      encoding="utf-8")
        rc = main(["sample-pairs", "--qa-file", str(qa), "--n-pairs", "2",
                   "--out", str(tmp_path / "p.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"qasim: error: {qa}:2: malformed QA record")

    @pytest.mark.parametrize("bad_line", ["a\t0", "", "a\tx\t3"])
    def test_malformed_vocabulary_line_exits_one(self, ws, tmp_path, capsys, bad_line):
        vocab = tmp_path / "bad.vocab"
        good = ws["q_vocab"].read_text(encoding="utf-8")
        vocab.write_text(good + bad_line + "\n", encoding="utf-8")
        line_no = len(good.splitlines()) + 1
        rc = main(["train-doc2vec", "--qa-file", str(ws["qa"]), "--vocab", str(vocab),
                   "--dim", "4", "--epochs", "1", "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"qasim: error: {vocab}:{line_no}: malformed vocabulary line: {bad_line!r}"]

    def test_duplicate_vocabulary_token_exits_one(self, ws, tmp_path, capsys):
        vocab, token = duplicated_vocab(ws, tmp_path)
        rc = main(["train-doc2vec", "--qa-file", str(ws["qa"]), "--vocab", str(vocab),
                   "--dim", "4", "--epochs", "1", "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"qasim: error: {vocab}:3: duplicate vocabulary token {token!r}"]
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("model", ["q_model", "net"])
    @pytest.mark.parametrize("damage", ["trailing", "truncated", "huge_header"])
    def test_damaged_model_file_exits_one(self, ws, tmp_path, capsys, model, damage):
        data = ws[model].read_bytes()
        if damage == "trailing":
            data += b"\0" * 8
        elif damage == "truncated":
            data = data[:-4]
        else:  # the first size field after the magic claims 2**32 - 1
            data = data[:4] + struct.pack("<I", 2**32 - 1) + data[8:]
        bad = tmp_path / "bad.model"
        bad.write_bytes(data)
        paths = {"q_model": ws["q_model"], "net": ws["net"], model: bad}
        tracemalloc.start()
        try:
            rc = main(["eval", "--qa-file", str(ws["qa"]), "--q-model", str(paths["q_model"]),
                       "--a-model", str(ws["a_model"]), "--simnet", str(paths["net"])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("qasim: error: ") and str(bad) in err[0]
        # rejected from the header and the file size, not after a read sized by the header
        assert peak < 50 * 2**20

    def test_non_finite_simnet_exits_one(self, ws, tmp_path, capsys):
        bad = with_nan(ws["net"], tmp_path, -4)
        rc = main(["eval", "--qa-file", str(ws["qa"]), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--simnet", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: non-finite values in similarity-network file: {bad}"]
        assert captured.out == ""

    def test_unknown_activation_flag_exits_one(self, ws, tmp_path, capsys):
        data = bytearray(ws["net"].read_bytes())
        data[struct.calcsize(simnet._SIM_HEADER) - 1] = 7  # the activation byte ends the header
        bad = tmp_path / "flag.simnet"
        bad.write_bytes(bytes(data))
        rc = main(["eval", "--qa-file", str(ws["qa"]), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--simnet", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: unknown activation flag 7 in similarity-network file: {bad}"]
        assert captured.out == ""

    def test_eval_threshold_out_of_range_exits_two_before_loading(self, ws, tmp_path, capsys):
        # the models named do not exist: the threshold is checked first
        missing = str(tmp_path / "missing")
        rc = main(["eval", "--qa-file", str(ws["qa"]), "--q-model", missing,
                   "--a-model", missing, "--simnet", missing, "--threshold", "1.5"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: threshold must lie in (0, 1)"]

    def test_dim_mismatch_exits_two(self, ws, tmp_path):
        other = tmp_path / "dim4.d2v"
        rc, _ = run(["train-doc2vec", "--qa-file", str(ws["qa"]), "--side", "answer",
                     "--vocab", str(ws["a_vocab"]), "--dim", "4", "--epochs", "1",
                     "--out", str(other)])
        assert rc == 0
        rc, _ = run(["train-simnet", "--pairs", str(ws["pairs"]),
                     "--q-model", str(ws["q_model"]), "--a-model", str(other),
                     "--max-epochs", "1", "--out", str(tmp_path / "n")])
        assert rc == 2

    @pytest.mark.parametrize("infer", [False, True], ids=["lookup", "infer"])
    def test_eval_models_wider_than_network_exit_two_before_inference(
            self, ws, wide_models, monkeypatch, capsys, infer):
        inferred = []
        monkeypatch.setattr(embedding, "infer_doc_vectors",
                            lambda *args, **kwargs: inferred.append(args))
        argv = ["eval", "--qa-file", str(ws["qa"]), "--q-model", str(wide_models["question"]),
                "--a-model", str(wide_models["answer"]), "--simnet", str(ws["net"])]
        if infer:
            argv += ["--infer-vectors", "--q-vocab", str(ws["q_vocab"]),
                     "--a-vocab", str(ws["a_vocab"])]
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "qasim: error: doc2vec vectors have 16 dimensions but the similarity network "
            "takes 8"]
        assert captured.out == ""
        assert inferred == []

    def test_config_section_not_an_object(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"embedding": [8]}', encoding="utf-8")
        rc = main(["train-doc2vec", "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                   "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "embedding must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-doc2vec", "train-word2vec"])
    def test_diverged_training_exits_one_without_model(self, ws, tmp_path, capsys, command):
        out = tmp_path / "m"
        rc = main([command, "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                   "--dim", "8", "--epochs", "2", "--lr", "1e6", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("qasim: error: embedding training diverged")
        assert not out.exists()

    @pytest.mark.parametrize("lr0, message", [
        ("1e42", "similarity-network training diverged at epoch 0; lower the learning rate"),
        ("1e300", "non-finite training loss at epoch 0"),
    ], ids=["weights_past_float32", "loss_overflow"])
    def test_diverged_simnet_exits_one_without_files(self, ws, tmp_path, capsys, lr0,
                                                      message):
        # past float32's range the file would hold infinities; at 1e300
        # the loss itself overflows, and lam 0 times inf is NaN
        out = tmp_path / "n.simnet"
        rc = main(["train-simnet", "--pairs", str(ws["pairs"]), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--batch-size", "10", "--max-epochs", "3",
                   "--lr0", lr0, "--lam", "0", "--seed", "3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"qasim: error: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_eval_lookup_doc_count_mismatch_exits_two(self, ws, tmp_path, capsys):
        qa = tmp_path / "qa.jsonl"
        qa.write_text("".join(ws["qa"].read_text(encoding="utf-8").splitlines(True)[:5]),
                      encoding="utf-8")
        rc = main(["eval", "--qa-file", str(qa), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--simnet", str(ws["net"])])
        assert rc == 2
        n_docs = embedding.load_doc2vec(ws["q_model"]).n_docs
        assert capsys.readouterr().err.splitlines() == [
            f"qasim: error: questions: 5 documents but the model holds {n_docs} doc vectors; "
            "pass --infer-vectors for unseen documents"]

    def test_config_not_an_object_exits_two(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        rc = main(["build-vocab", "--qa-file", str(ws["qa"]), "--config", str(cfg),
                   "--out", str(tmp_path / "v")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: config file must hold a JSON object"]

    def test_validation_split_without_training_pairs_exits_two(self, ws, tmp_path, capsys):
        # one pair: the split holds out at least one, which leaves none
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(ws["pairs"].read_text(encoding="utf-8").splitlines(True)[0],
                         encoding="utf-8")
        out = tmp_path / "n"
        rc = main(["train-simnet", "--pairs", str(pairs), "--q-model", str(ws["q_model"]),
                   "--a-model", str(ws["a_model"]), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: validation split leaves no training pairs"]
        assert not out.exists()

    @pytest.mark.parametrize("record", [
        '{"label": 1}',
        '{"text": 7, "label": 1}',
        '{"text": "hi", "label": true}',
        '["hi", 1]',
    ])
    def test_bad_labeled_record_exits_one(self, tmp_path, capsys, record):
        data = tmp_path / "labeled.jsonl"
        data.write_text('{"text": "hi there", "label": 0}\n' + record + "\n", encoding="utf-8")
        rc = main(["classify", "--data", str(data), "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"qasim: error: {data}:2: malformed labeled record")


# A config-section value and a different flag value for every config
# field; a field added to a config dataclass must be added here too.
FIELD_VALUES = {
    "embedding": {"dim": (6, 7), "window": (2, 3), "negatives": (2, 3), "epochs": (1, 2),
                  "learning_rate": (0.05, 0.04), "min_learning_rate": (0.001, 0.002),
                  "seed": (5, 6)},
    "simnet": {"batch_size": (10, 20), "max_epochs": (2, 1), "dropout_p": (0.2, 0.3),
               "lam": (0.001, 0.002), "init_std": (0.05, 0.04), "bias_const": (0.2, 0.3),
               "lr0": (0.01, 0.02), "decay": (0.9, 0.8), "decay_start_epoch": (1, 2),
               "lr_floor": (1e-4, 2e-4), "early_stop_patience": (3, 4),
               "activation": ("relu", "tanh"), "seed": (5, 6)},
}
FLAG_NAMES = {"learning_rate": "--lr", "min_learning_rate": "--min-lr",
              "dropout_p": "--dropout", "early_stop_patience": "--patience"}


class TestConfigResolution:
    @pytest.mark.parametrize("section, field", [
        *[("embedding", f.name) for f in dataclasses.fields(embedding.EmbedTrainConfig)],
        *[("simnet", f.name) for f in dataclasses.fields(training.SimTrainConfig)],
    ])
    def test_section_value_then_flag_override(self, ws, tmp_path, section, field):
        config_value, flag_value = FIELD_VALUES[section][field]
        if section == "embedding":
            argv = ["train-word2vec", "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                    "--out", str(tmp_path / "m")]
            values = {field: config_value}
        else:
            argv = ["train-simnet", "--pairs", str(ws["pairs"]), "--q-model", str(ws["q_model"]),
                    "--a-model", str(ws["a_model"]), "--out", str(tmp_path / "n")]
            values = {"max_epochs": 1, field: config_value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: values}), encoding="utf-8")
        argv += ["--config", str(cfg)]
        flag = FLAG_NAMES.get(field, "--" + field.replace("_", "-"))

        for extra, expected in (([], config_value), ([flag, str(flag_value)], flag_value)):
            rc, lines = run(argv + extra)
            assert rc == 0, lines
            assert json.loads(lines[0])["resolved"][field] == expected


    @pytest.mark.parametrize("section, field", [
        *[("embedding", f.name) for f in dataclasses.fields(embedding.EmbedTrainConfig)],
        *[("simnet", f.name) for f in dataclasses.fields(training.SimTrainConfig)],
    ])
    def test_section_value_of_wrong_type_exits_two(self, ws, tmp_path, capsys, section, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {field: WRONG_TYPE[section][field]}}),
                       encoding="utf-8")
        rc = main(["train-word2vec", "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                   "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"qasim: error: invalid config field: {section}.{field} ")

    def test_integer_fills_float_field(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"simnet": {"max_epochs": 1, "lam": 0, "decay": 1}}', encoding="utf-8")
        rc, lines = run(["train-simnet", "--pairs", str(ws["pairs"]),
                         "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                         "--config", str(cfg), "--out", str(tmp_path / "n")])
        assert rc == 0
        resolved = json.loads(lines[0])["resolved"]
        assert resolved["lam"] == 0 and resolved["decay"] == 1


# A value of the wrong JSON type for every config field.
WRONG_TYPE = {
    "embedding": {"dim": 5.5, "window": 2.5, "negatives": "3", "epochs": True,
                  "learning_rate": "0.1", "min_learning_rate": False, "seed": 1.5},
    "simnet": {"batch_size": 10.0, "max_epochs": "2", "dropout_p": True, "lam": None,
               "init_std": [0.03], "bias_const": "0.1", "lr0": {"v": 1}, "decay": False,
               "decay_start_epoch": 1.5, "lr_floor": "x", "early_stop_patience": 2.0,
               "activation": 1, "seed": "5"},
}


# A value of the wrong JSON type for every top-level config key, and a
# command that reads it.
TOP_WRONG_TYPE = {"seed": ("3", "sample-pairs"), "min_count": ("2", "build-vocab"),
                  "threshold": ("0.5", "eval"), "positive_fraction": (True, "sample-pairs"),
                  "n_pairs": (2.5, "sample-pairs")}


# Out-of-range top-level settings, each with a command that resolves it
# and the message it must exit with.
BAD_TOP_SETTINGS = [
    ("build-vocab", "min_count", 0, "min_count must be >= 1, got 0"),
    ("eval", "min_count", -3, "min_count must be >= 1, got -3"),
    ("classify", "min_count", 0, "min_count must be >= 1, got 0"),
    ("sample-pairs", "n_pairs", -1, "n_pairs must be >= 0, got -1"),
    ("sample-pairs", "positive_fraction", 2.0, "positive_fraction must lie in [0, 1], got 2.0"),
    ("sample-pairs", "positive_fraction", -0.5,
     "positive_fraction must lie in [0, 1], got -0.5"),
]


def command_argv(ws, tmp_path, command):
    """Inputs and output of `command` from the pipeline workspace."""
    return {
        "sample-pairs": ["sample-pairs", "--qa-file", str(ws["qa"]),
                         "--out", str(tmp_path / "p.jsonl")],
        "build-vocab": ["build-vocab", "--qa-file", str(ws["qa"]), "--out", str(tmp_path / "v")],
        "eval": ["eval", "--qa-file", str(ws["qa"]), "--q-model", str(ws["q_model"]),
                 "--a-model", str(ws["a_model"]), "--simnet", str(ws["net"])],
    }[command]


class TestTopLevelConfig:
    @pytest.mark.parametrize("key", sorted(TOP_WRONG_TYPE))
    def test_value_of_wrong_type_exits_two(self, ws, tmp_path, capsys, key):
        value, command = TOP_WRONG_TYPE[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        rc = main(command_argv(ws, tmp_path, command) + ["--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"qasim: error: invalid config field: {key} ")

    def test_integer_fills_positive_fraction(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"positive_fraction": 1, "n_pairs": 4}', encoding="utf-8")
        rc, lines = run(command_argv(ws, tmp_path, "sample-pairs") + ["--config", str(cfg)])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["positive_fraction"] == 1
        assert all(p.label == 1 for p in corpus.load_pairs(tmp_path / "p.jsonl"))

    def test_integer_fills_threshold(self, ws, tmp_path, capsys):
        # an integer threshold passes the type check; the range check then rejects 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threshold": 1}', encoding="utf-8")
        rc = main(command_argv(ws, tmp_path, "eval") + ["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: threshold must lie in (0, 1)"]

    def test_missing_n_pairs(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"positive_fraction": 0.5}', encoding="utf-8")
        rc = main(command_argv(ws, tmp_path, "sample-pairs") + ["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: missing required n_pairs (flag --n-pairs or config)"]

    @pytest.mark.parametrize("command, key, value, message", BAD_TOP_SETTINGS,
                             ids=[f"{c}-{k}={v}" for c, k, v, _ in BAD_TOP_SETTINGS])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_exits_two_before_any_input(self, tmp_path, capsys, command, key,
                                                      value, message, source):
        # every input file named is missing: the setting must be rejected first
        missing = str(tmp_path / "missing")
        argv = {"build-vocab": ["build-vocab", "--qa-file", missing, "--out", missing],
                "sample-pairs": ["sample-pairs", "--qa-file", missing, "--out", missing],
                "eval": ["eval", "--qa-file", missing, "--q-model", missing,
                         "--a-model", missing, "--simnet", missing, "--bow-baseline"],
                "classify": ["classify", "--data", missing, "--out", missing]}[command]
        # sample-pairs needs n_pairs before it resolves the fraction
        settings = {"n_pairs": 4, key: value} if command == "sample-pairs" else {key: value}
        if source == "flag":
            for name, setting in settings.items():
                argv += ["--" + name.replace("_", "-"), str(setting)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(settings), encoding="utf-8")
            argv += ["--config", str(cfg)]
        rc = main(argv)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"qasim: error: {message}"]
        assert not os.path.exists(missing)


# A bad value of a command's own flag and the message it must exit with.
BAD_COMMAND_FLAGS = [
    ("train-simnet", "--val-fraction", "0", "--val-fraction must lie in (0, 1), got 0.0"),
    ("train-simnet", "--val-fraction", "-0.5", "--val-fraction must lie in (0, 1), got -0.5"),
    ("train-simnet", "--val-fraction", "nan", "--val-fraction must lie in (0, 1), got nan"),
    ("classify", "--ratios", "0.2,abc",
     "--ratios must be comma-separated numbers, got '0.2,abc'"),
    ("classify", "--ratios", "1.5", "--ratios must lie in (0, 1), got 1.5"),
    ("classify", "--seeds", "x", "--seeds must be comma-separated integers, got 'x'"),
    # a negative split seed is checked with the flags, not by the split
    ("classify", "--seeds", "-1", "--seeds must be >= 0, got -1"),
    ("classify", "--clf-epochs", "-1", "--clf-epochs must be >= 1, got -1"),
    ("classify", "--clf-lr", "-1", "--clf-lr must be > 0, got -1.0"),
    ("classify", "--clf-reg", "-0.1", "--clf-reg must be >= 0, got -0.1"),
    ("classify", "--clf-lr", "inf", "--clf-lr must be finite, got inf"),
    ("classify", "--clf-reg", "inf", "--clf-reg must be finite, got inf"),
    ("classify", "--clf-reg", "nan", "--clf-reg must be finite, got nan"),
    # a penalty past float32's range would only show as divergence
    ("classify", "--clf-reg", "1e300", "--clf-reg must be <= 3.403e+38, got 1e+300"),
]


class TestCommandFlags:
    @pytest.mark.parametrize("command, flag, value, message", BAD_COMMAND_FLAGS,
                             ids=[f"{f}={v}" for _, f, v, _ in BAD_COMMAND_FLAGS])
    def test_bad_flag_exits_two_before_any_input(self, tmp_path, capsys, command, flag, value,
                                                 message):
        # every input file named is missing: the flag must be rejected first
        missing = str(tmp_path / "missing")
        argv = {"train-simnet": ["train-simnet", "--pairs", missing, "--q-model", missing,
                                 "--a-model", missing, "--out", missing],
                "classify": ["classify", "--data", missing, "--out", missing]}[command]
        rc = main(argv + [flag, value])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"qasim: error: {message}"]
        assert not os.path.exists(missing)


# Every subcommand's options besides -h/--help.  A config field added
# without a flag, or a flag renamed by accident, shows here.
FLAG_SURFACE = {
    "build-vocab": ["--config", "--corpus", "--min-count", "--out", "--qa-file", "--seed",
                    "--side"],
    "train-word2vec": ["--config", "--corpus", "--dim", "--epochs", "--export-text", "--lr",
                       "--min-lr", "--mode", "--negatives", "--out", "--qa-file", "--seed",
                       "--side", "--vocab", "--window"],
    "train-doc2vec": ["--combine", "--config", "--corpus", "--dim", "--epochs",
                      "--export-text", "--lr", "--min-lr", "--negatives", "--out",
                      "--qa-file", "--seed", "--side", "--vocab", "--window"],
    "sample-pairs": ["--config", "--n-pairs", "--out", "--positive-fraction", "--qa-file",
                     "--seed"],
    "train-simnet": ["--a-model", "--activation", "--batch-size", "--bias-const", "--config",
                     "--decay", "--decay-start-epoch", "--dropout", "--init-std", "--lam",
                     "--lr-floor", "--lr0", "--max-epochs", "--out", "--pairs", "--patience",
                     "--q-model", "--report", "--seed", "--val-fraction", "--val-pairs"],
    "eval": ["--a-model", "--a-vocab", "--bow-baseline", "--config", "--infer-steps",
             "--infer-vectors", "--min-count", "--out", "--pairs", "--q-model", "--q-vocab",
             "--qa-file", "--seed", "--simnet", "--threshold"],
    "classify": ["--clf-epochs", "--clf-lr", "--clf-reg", "--config", "--data", "--dim",
                 "--epochs", "--lr", "--min-count", "--min-lr", "--negatives", "--out",
                 "--ratios", "--seed", "--seeds", "--window"],
    "ask": ["--a-model", "--answers", "--config", "--infer-steps", "--q-model", "--q-vocab",
            "--seed", "--simnet", "--threshold"],
}


class TestFlagSurface:
    def test_options_of_every_subcommand(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        surface = {name: sorted(opt for action in p._actions for opt in action.option_strings
                                if opt not in ("-h", "--help"))
                   for name, p in sub.choices.items()}
        assert surface == FLAG_SURFACE

    def test_classify_has_no_export_text(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--data", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "c"),
                  "--export-text", "x"])
        assert exc.value.code == 2


class TestExportText:
    def test_word2vec_export(self, ws, tmp_path):
        table = tmp_path / "vectors.txt"
        rc, _ = run(["train-word2vec", "--qa-file", str(ws["qa"]),
                     "--vocab", str(ws["q_vocab"]), "--dim", "4", "--epochs", "1",
                     "--mode", "skipgram", "--seed", "1",
                     "--export-text", str(table), "--out", str(tmp_path / "m.w2v")])
        assert rc == 0
        lines = table.read_text(encoding="utf-8").splitlines()
        vocab = corpus.load_vocabulary(str(ws["q_vocab"]))
        assert len(lines) == len(vocab)
        first = lines[0].split(" ")
        assert first[0] == vocab.id_to_token[0]
        assert len(first) == 1 + 4


class TestEmbeddingTrainers:
    def test_trainer_and_saver_are_looked_up_at_call_time(self, ws, monkeypatch, tmp_path):
        # perfbench's tracer wraps these module attributes; the handler must
        # call whatever `embedding.<name>` holds when the command runs
        calls = []

        def recording(name):
            real = getattr(embedding, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("train_word2vec", "train_doc2vec", "save_word2vec", "save_doc2vec"):
            monkeypatch.setattr(embedding, name, recording(name))
        for kind in ("word2vec", "doc2vec"):
            rc, _ = run([f"train-{kind}", "--qa-file", str(ws["qa"]),
                         "--vocab", str(ws["q_vocab"]), "--dim", "4", "--epochs", "1",
                         "--out", str(tmp_path / kind)])
            assert rc == 0
        assert calls == ["train_word2vec", "save_word2vec", "train_doc2vec", "save_doc2vec"]


class TestClassify:
    def test_learning_curve_csv(self, tmp_path):
        data = tmp_path / "labeled.jsonl"
        rng_texts = []
        for i in range(30):
            label = i % 2
            words = ["alpha beta gamma delta", "omega psi chi phi"][label]
            rng_texts.append({"text": words, "label": label})
        with open(data, "w", encoding="utf-8") as fh:
            for r in rng_texts:
                fh.write(json.dumps(r) + "\n")
        out = tmp_path / "curves.csv"
        rc, lines = run(["classify", "--data", str(data), "--min-count", "1",
                         "--dim", "4", "--epochs", "2", "--seed", "0",
                         "--ratios", "0.5", "--seeds", "0", "--out", str(out)])
        assert rc == 0
        csv_lines = out.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "ratio,feature_kind,mean_accuracy,std"
        assert len(csv_lines) == 3  # one ratio x two feature kinds
        printed = last_json(lines)
        assert set(printed) == {"bow", "doc2vec"}


    def test_diverged_classifier_exits_one(self, tmp_path, capsys):
        data = tmp_path / "labeled.jsonl"
        texts, labels = order_carried_docs(20)
        data.write_text("".join(json.dumps({"text": t, "label": y}) + "\n"
                                for t, y in zip(texts, labels)), encoding="utf-8")
        out = tmp_path / "curves.csv"
        rc = main(["classify", "--data", str(data), "--clf-lr", "1e300", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "qasim: error: classifier training diverged to non-finite weights; "
            "lower the learning rate"]
        assert not out.exists()


class TestAsk:
    def ask_argv(self, ws, threshold):
        return ["ask", "--answers", str(ws["root"] / "answers.txt"),
                "--q-vocab", str(ws["q_vocab"]), "--q-model", str(ws["q_model"]),
                "--a-model", str(ws["a_model"]), "--simnet", str(ws["net"]),
                "--threshold", threshold, "--infer-steps", "2", "--seed", "0"]

    @pytest.fixture()
    def answers_file(self, ws):
        path = ws["root"] / "answers.txt"
        if not path.exists():
            _, answers, _ = corpus.load_qa_dataset(str(ws["qa"]))
            path.write_text("\n".join(answers) + "\n", encoding="utf-8")
        return path

    def test_answer_and_escalate(self, ws, answers_file, monkeypatch, capsys):
        _, answers, _ = corpus.load_qa_dataset(str(ws["qa"]))
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(self.ask_argv(ws, "0.001"))
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("answer (")
        assert out[0].split(": ", 1)[1] in answers

        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(self.ask_argv(ws, "0.999"))
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("escalate (")
        assert "below threshold 0.999" in out[0]

    def test_directory_as_answers_exits_two_before_ready(self, ws, tmp_path, monkeypatch,
                                                         capsys):
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--answers") + 1] = str(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: answers file is not a regular file: {tmp_path}"]
        assert captured.out == ""

    def test_answer_doc_matrix_freed_before_the_first_question(self, ws, answers_file,
                                                                monkeypatch, capsys):
        # after start-up the session reads only the index's head terms, so
        # the answer model's doc matrix is gone when a question is inferred
        matrices, infer, index = [], embedding.infer_doc_vectors, retrieval.AnswerIndex

        def indexing(net, a_features):
            matrices.append(weakref.ref(a_features))
            return index(net, a_features)

        def inferring(*args, **kwargs):
            gc.collect()
            assert [ref() for ref in matrices] == [None]
            return infer(*args, **kwargs)

        monkeypatch.setattr(retrieval, "AnswerIndex", indexing)
        monkeypatch.setattr(embedding, "infer_doc_vectors", inferring)
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\nand this\n"))
        assert main(self.ask_argv(ws, "0.5")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_line_does_not_depend_on_earlier_questions(self, ws, answers_file, monkeypatch,
                                                       capsys):
        # inference reuses its scratch buffers: five questions asked in one
        # order and then in the reverse order get the same vector and print
        # the same line each
        questions = corpus.load_qa_dataset(str(ws["qa"]))[0][:5]
        vectors, infer = [], embedding.infer_doc_vectors

        def recording(*args, **kwargs):
            vecs = infer(*args, **kwargs)
            vectors.extend(vec.tobytes() for vec in vecs)
            return vecs

        monkeypatch.setattr(embedding, "infer_doc_vectors", recording)
        lines = []
        for session in (questions, questions[::-1]):
            monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(session) + "\n"))
            assert main(self.ask_argv(ws, "0.5")) == 0
            lines.append(capsys.readouterr().out.splitlines())
        assert len(lines[0]) == 5
        assert lines[1] == lines[0][::-1]
        assert len(set(vectors[:5])) == 5
        assert vectors[5:] == vectors[:5][::-1]

    def test_blank_and_unusable_lines(self, ws, answers_file, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n???\nreal question here\n"))
        rc = main(self.ask_argv(ws, "0.001"))
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1  # only the real question answers
        assert "question>" in captured.err
        assert "no usable tokens" in captured.err

    def test_eof_immediately_exits_zero(self, ws, answers_file, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        rc = main(self.ask_argv(ws, "0.5"))
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_vocab_model_mismatch_exits_two_before_ready(self, ws, answers_file, monkeypatch,
                                                          tmp_path, capsys):
        grown, n_vocab = grown_vocab(ws, tmp_path)
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--q-vocab") + 1] = str(grown)
        # zzfoo has an id past the question model's rows
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is zzfoo\n"))
        rc = main(argv)
        assert rc == 2
        n_model = embedding.load_doc2vec(ws["q_model"]).vocab_size
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [vocab_mismatch_line(n_vocab, n_model)]
        assert captured.out == ""

    def test_non_finite_question_model_exits_one_before_ready(self, ws, answers_file,
                                                               monkeypatch, tmp_path, capsys):
        # the first value of the word matrix, right after the header
        bad = with_nan(ws["q_model"], tmp_path, struct.calcsize(embedding._D2V_HEADER))
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--q-model") + 1] = str(bad)
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: non-finite values in doc2vec model file: {bad}"]
        assert captured.out == ""

    @pytest.mark.parametrize("side", ["question", "answer"])
    def test_one_side_wider_exits_two_before_ready(self, ws, wide_models, answers_file,
                                                   monkeypatch, capsys, side):
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index(f"--{side[0]}-model") + 1] = str(wide_models[side])
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        dims = "16 vs 8" if side == "question" else "8 vs 16"
        assert captured.err.splitlines() == [f"qasim: error: doc2vec dimensions differ: {dims}"]
        assert captured.out == ""

    def test_infer_steps_below_one_exits_two_before_ready(self, ws, answers_file, monkeypatch,
                                                          capsys):
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--infer-steps") + 1] = "0"
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["qasim: error: --infer-steps must be >= 1, got 0"]
        assert captured.out == ""

    @pytest.mark.parametrize("steps", [str(2**63), str(10**20)])
    def test_infer_steps_above_bound_exits_two_before_ready(self, ws, answers_file,
                                                            monkeypatch, capsys, steps):
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--infer-steps") + 1] = steps
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: --infer-steps must be <= {embedding.MAX_INFER_STEPS}, got {steps}"]
        assert captured.out == ""

    @pytest.mark.parametrize("threshold", ["1.5", "0", "1", "-0.2", "nan"])
    def test_threshold_out_of_range_exits_two_before_ready(self, ws, answers_file, monkeypatch,
                                                           capsys, threshold):
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(self.ask_argv(ws, threshold))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["qasim: error: threshold must lie in (0, 1)"]
        assert captured.out == ""

    @pytest.mark.parametrize("char", ["\u2028", "\u0085", "\x0c"])
    def test_answer_holding_a_line_separator_character(self, ws, answers_file, monkeypatch,
                                                       tmp_path, capsys, char):
        # legal inside a QA record's JSON string, and not a line end
        lines = answers_file.read_text(encoding="utf-8").split("\n")
        lines[0] = lines[0].replace(" ", char, 1)
        answers = tmp_path / "answers.txt"
        answers.write_text("\n".join(lines), encoding="utf-8")
        argv = self.ask_argv(ws, "0.001")
        argv[argv.index("--answers") + 1] = str(answers)
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(argv)
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("answer (")

    def test_duplicate_vocabulary_token_exits_one_before_ready(self, ws, answers_file,
                                                               monkeypatch, tmp_path, capsys):
        vocab, token = duplicated_vocab(ws, tmp_path)
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--q-vocab") + 1] = str(vocab)
        monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
        rc = main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"qasim: error: {vocab}:3: duplicate vocabulary token {token!r}"]
        assert captured.out == ""

    def test_wrong_answer_count_exits_two(self, ws, answers_file, monkeypatch, tmp_path):
        short = tmp_path / "answers.txt"
        short.write_text("only one line\n", encoding="utf-8")
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--answers") + 1] = str(short)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        rc, _ = run(argv)
        assert rc == 2


def mutate(data: bytes, kind: str, where: int, byte: int) -> bytes:
    """`data` truncated at a byte, with a line dropped or duplicated, or
    with one byte overwritten by `byte`; `where` picks the place."""
    if kind == "truncate":
        return data[:where % (len(data) + 1)]
    if kind == "overwrite":
        i = where % len(data)
        return data[:i] + bytes([byte]) + data[i + 1:]
    lines = data.splitlines(keepends=True)
    i = where % len(lines)
    return b"".join(lines[:i] + lines[i + 1:] if kind == "drop" else lines[:i + 1] + lines[i:])


@pytest.fixture(scope="module")
def text_inputs(ws):
    """A valid file of each text format, the config file included, and the
    commands that read it: `argv(path)` for each of them, on the pipeline
    workspace."""
    root = ws["root"] / "inject"
    root.mkdir()
    answers = root / "answers.txt"
    answers.write_text("\n".join(corpus.load_qa_dataset(ws["qa"])[1]) + "\n", encoding="utf-8")
    labeled = root / "labeled.jsonl"
    docs, labels = two_topic_docs(12, tokens_per_topic=4, doc_len=5, seed=0)
    write_qa(labeled, [{"text": " ".join(d), "label": y} for d, y in zip(docs, labels)])
    config = root / "config.json"
    config.write_text(json.dumps({"seed": 3, "min_count": 1, "n_pairs": 10,
                                  "embedding": {"dim": 4, "epochs": 0, "negatives": 3}},
                                 indent=1) + "\n", encoding="utf-8")
    out = str(root / "out")
    models = ["--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
              "--simnet", str(ws["net"])]
    return {
        "qa": (ws["qa"], [
            lambda p: ["build-vocab", "--qa-file", p, "--min-count", "1", "--out", out],
            lambda p: ["sample-pairs", "--qa-file", p, "--n-pairs", "10", "--out", out]]),
        "pairs": (ws["pairs"], [
            lambda p: ["eval", "--qa-file", str(ws["qa"]), "--pairs", p, *models]]),
        "vocabulary": (ws["q_vocab"], [
            lambda p: ["train-doc2vec", "--qa-file", str(ws["qa"]), "--vocab", p,
                       "--dim", "4", "--epochs", "0", "--out", out]]),
        "labeled": (labeled, [
            lambda p: ["classify", "--data", p, "--min-count", "1", "--dim", "4", "--epochs", "1",
                       "--ratios", "0.5", "--seeds", "0", "--clf-epochs", "1", "--out", out]]),
        "answers": (answers, [
            lambda p: ["ask", "--answers", p, "--q-vocab", str(ws["q_vocab"]), *models,
                       "--infer-steps", "2"]]),
        "config": (config, [
            lambda p: ["sample-pairs", "--qa-file", str(ws["qa"]), "--config", p, "--out", out],
            lambda p: ["train-doc2vec", "--qa-file", str(ws["qa"]), "--vocab", str(ws["q_vocab"]),
                       "--config", p, "--out", out]]),
    }


@pytest.fixture(scope="module")
def word2vec_file(ws):
    path = ws["root"] / "a.w2v"
    rc, _ = run(["train-word2vec", "--qa-file", str(ws["qa"]), "--side", "answer",
                 "--vocab", str(ws["a_vocab"]), "--dim", "4", "--window", "2", "--epochs", "1",
                 "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_inputs(ws, text_inputs):
    """Each model file of the pipeline workspace, its header format, and
    the commands that read it: `argv(path)` for each of them."""
    out = str(ws["root"] / "inject" / "out")

    def reader(command, model):
        """`argv(path)` of `command`, reading `path` in place of `ws[model]`."""
        def argv(path):
            paths = {key: str(ws[key]) for key in ("q_model", "a_model", "net")}
            paths[model] = path
            models = ["--q-model", paths["q_model"], "--a-model", paths["a_model"]]
            return {
                "eval": ["eval", "--qa-file", str(ws["qa"]), *models, "--simnet", paths["net"],
                         "--infer-vectors", "--infer-steps", "2",
                         "--q-vocab", str(ws["q_vocab"]), "--a-vocab", str(ws["a_vocab"])],
                "ask": ["ask", "--answers", str(text_inputs["answers"][0]),
                        "--q-vocab", str(ws["q_vocab"]), *models, "--simnet", paths["net"],
                        "--infer-steps", "2"],
                "train-simnet": ["train-simnet", "--pairs", str(ws["pairs"]), *models,
                                 "--max-epochs", "1", "--batch-size", "10", "--out", out],
            }[command]
        return argv
    every = ("eval", "ask", "train-simnet")
    return {
        "q_doc2vec": (ws["q_model"], embedding._D2V_HEADER, [reader(c, "q_model") for c in every]),
        "a_doc2vec": (ws["a_model"], embedding._D2V_HEADER, [reader(c, "a_model") for c in every]),
        # train-simnet reads no network file
        "simnet": (ws["net"], simnet._SIM_HEADER, [reader(c, "net") for c in every[:2]]),
    }


def damage_model(data: bytes, header_fmt: str, kind: str, where: int, value: int) -> bytes:
    """`data`, a model file, with one uint32 header field (picked by
    `where`) set to `value`, its mode flag set to `value` % 256, truncated
    or grown, or with a NaN or infinity written over a float32."""
    data = bytearray(data)
    header_size = struct.calcsize(header_fmt)
    if kind == "field":  # fields 1 .. n - 2: every one between the magic and the flag
        n_fields = len(re.findall(r"\d*\w", header_fmt[1:]))
        at = header_offset(header_fmt, 1 + where % (n_fields - 2))
        data[at: at + 4] = struct.pack("<I", value)
    elif kind == "flag":
        data[header_size - 1] = value % 256
    elif kind == "truncate":
        del data[where % (len(data) + 1):]
    elif kind == "append":
        data += bytes(1 + value % 16)
    else:  # "nonfinite"
        at = header_size + 4 * (where % ((len(data) - header_size) // 4))
        data[at: at + 4] = struct.pack("<f", (float("nan"), float("inf"), -float("inf"))[value % 3])
    return bytes(data)


def fails_in_one_line(argv) -> None:
    """Run `argv` with one question on stdin: it exits 0, 1 or 2, and a
    failure prints exactly one `qasim: error:` line."""
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("where is my thing\n")
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = stdin
    assert rc in (0, 1, 2)
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("qasim: error: "), lines


# A header value: any uint32, one that a memory-sizing field could be
# granted and fill (2**16 negatives took 0.7 GB of inference buffers in
# `eval` before the bound), or an edge.
HEADER_VALUES = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**16),
                          st.sampled_from([0, 1, 2**31 - 1, 2**32 - 1]))
MODEL_DAMAGE = st.sampled_from(["field", "flag", "truncate", "append", "nonfinite"])


class TestFailureInjection:
    """Damaged text inputs and model files end in exit 0, 1 or 2, and a
    failure in exactly one stderr line; no exception escapes main."""

    @pytest.mark.parametrize("fmt", ["qa", "pairs", "vocabulary", "labeled", "answers",
                                     "config"])
    @given(kind=st.sampled_from(["truncate", "drop", "duplicate", "overwrite"]),
           where=st.integers(0, 2**20), byte=st.one_of(st.just(0xFF), st.integers(0, 255)))
    @settings(max_examples=30, deadline=None)
    def test_damaged_file_fails_in_one_line(self, ws, text_inputs, fmt, kind, where, byte):
        valid, commands = text_inputs[fmt]
        damaged = ws["root"] / "inject" / ("damaged" + valid.suffix)
        damaged.write_bytes(mutate(valid.read_bytes(), kind, where, byte))
        for argv in commands:
            fails_in_one_line(argv(str(damaged)))

    # Each case runs in-process under a peak bound, so a header field that
    # sizes memory and is still unchecked fails here instead of filling the
    # host.  The examples set the doc2vec negatives and window fields.
    @pytest.mark.parametrize("fmt", ["q_doc2vec", "a_doc2vec", "simnet"])
    @given(kind=MODEL_DAMAGE, where=st.integers(0, 2**20), value=HEADER_VALUES)
    @example(kind="field", where=4, value=2**16)
    @example(kind="field", where=4, value=2**31 - 1)
    @example(kind="field", where=3, value=2**32 - 1)
    @settings(max_examples=30, deadline=None)
    def test_damaged_model_fails_in_one_line(self, ws, model_inputs, fmt, kind, where, value):
        valid, header_fmt, commands = model_inputs[fmt]
        damaged = ws["root"] / "inject" / ("damaged" + valid.suffix)
        damaged.write_bytes(damage_model(valid.read_bytes(), header_fmt, kind, where, value))
        for argv in commands:
            tracemalloc.start()
            try:
                fails_in_one_line(argv(str(damaged)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 50 * 2**20, (argv(str(damaged))[0], peak)

    @given(kind=MODEL_DAMAGE, where=st.integers(0, 2**20), value=HEADER_VALUES)
    @example(kind="field", where=3, value=2**31 - 1)
    @settings(max_examples=30, deadline=None)
    def test_damaged_word2vec_loads_or_fails_naming_it(self, ws, word2vec_file, kind, where,
                                                       value):
        damaged = ws["root"] / "inject" / "damaged.w2v"
        damaged.write_bytes(damage_model(word2vec_file.read_bytes(), embedding._W2V_HEADER,
                                         kind, where, value))
        tracemalloc.start()
        try:
            embedding.load_word2vec(damaged)
        except ValueError as exc:
            assert str(damaged) in str(exc) and "\n" not in str(exc)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("side", ["q_doc2vec", "a_doc2vec"])
    @pytest.mark.parametrize("noise", ["negative", "zero-sum"])
    def test_broken_noise_distribution_exits_one_naming_the_file(
            self, model_inputs, tmp_path, monkeypatch, capsys, side, noise):
        # inference draws from the normalized cumulative sum: a zero sum
        # makes it NaN, and a negative entry makes it non-monotone
        valid, _, commands = model_inputs[side]
        model = embedding.load_doc2vec(valid)
        if noise == "negative":
            model.noise_probs[0] = -1e-3
        else:
            model.noise_probs[:] = 0.0
        bad = tmp_path / "noise.d2v"
        embedding.save_doc2vec(model, bad)
        # only an inferred side reads the distribution: `train-simnet` looks
        # both sides up, `ask` the answer side
        expected = {"eval": 1, "ask": 1 if side == "q_doc2vec" else 0, "train-simnet": 0}
        for argv in commands:
            argv = argv(str(bad))
            monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
            rc = main(argv)
            assert rc == expected[argv[0]], argv[0]
            err = capsys.readouterr().err.splitlines()
            if rc:
                assert err == ["qasim: error: noise distribution has a negative entry or sums "
                               f"to 0 in doc2vec model file: {bad}"]

    @pytest.mark.parametrize("dims", [(0, 3, 2), (8, 0, 2), (8, 3, 0)])
    def test_simnet_layer_of_size_zero_exits_one_naming_the_file(
            self, model_inputs, tmp_path, monkeypatch, capsys, dims):
        # a file that matches its header: with no hidden units the network
        # would score every pair sigmoid(b3); the workspace's vectors have
        # 8 dimensions, so d = 0 must be rejected before the dimension check
        d, h1, h2 = dims
        n_params = 2 * (h1 * (d + 1 + h2) + h2) + 2 * h2 + 1     # both towers, w3, b3
        bad = tmp_path / "empty.simnet"
        bad.write_bytes(struct.pack(simnet._SIM_HEADER, simnet._SIM_MAGIC, *dims, 0)
                        + np.full(n_params, 0.1, dtype="<f4").tobytes())
        for argv in model_inputs["simnet"][2]:
            monkeypatch.setattr(sys, "stdin", io.StringIO("where is my thing\n"))
            rc = main(argv(str(bad)))
            assert rc == 1
            assert capsys.readouterr().err.splitlines() == [
                f"qasim: error: layer sizes must be >= 1, got d={d}, h1={h1}, h2={h2} in "
                f"similarity-network file: {bad}"]
