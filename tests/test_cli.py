"""Command-line tests: exit codes, config/flag/seed precedence, output
determinism, the full pipeline end to end, and the interactive loop."""

import io
import json
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from qasim import corpus, embedding
from qasim.cli import main
from qasim.datasets import planted_qa_records


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


class TestPipeline:
    def test_build_vocab_counters(self, ws):
        stats = last_json(ws["out"]["build_q"])
        assert set(stats) == {"vocab_size", "tokens", "lf_replacements",
                              "num_replacements"}
        assert stats["vocab_size"] > 2  # topic tokens + reserved symbols
        assert stats["tokens"] == 12 * 8  # question_len tokens per question
        assert stats["lf_replacements"] == 0  # min-count 1 retains everything

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

    def test_infer_vectors_requires_vocab(self, ws):
        rc, _ = run(["eval", "--qa-file", str(ws["qa"]),
                     "--q-model", str(ws["q_model"]), "--a-model", str(ws["a_model"]),
                     "--simnet", str(ws["net"]), "--infer-vectors"])
        assert rc == 2


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
        infer = embedding.infer_doc_vector

        def recording(model, doc, steps=50, seed=0):
            vector = infer(model, doc, steps=steps, seed=seed)
            inferred.setdefault(seed, []).append(vector)
            return vector

        monkeypatch.setattr(embedding, "infer_doc_vector", recording)
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

    def test_default_seed_zero(self, ws, monkeypatch, tmp_path):
        monkeypatch.delenv("QASIM_SEED", raising=False)
        rc, lines = run(["sample-pairs", "--qa-file", str(ws["qa"]),
                         "--n-pairs", "10", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 0
        assert json.loads(lines[0])["resolved"]["seed"] == 0


class TestExitCodes:
    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab"])  # --out is required
        assert exc.value.code == 2

    def test_missing_input_file(self, tmp_path):
        rc, _ = run(["sample-pairs", "--qa-file", str(tmp_path / "nope.jsonl"),
                     "--n-pairs", "5", "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2

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

    def test_malformed_config_json(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        rc, _ = run(["build-vocab", "--qa-file", str(ws["qa"]), "--config", str(cfg),
                     "--out", str(tmp_path / "v")])
        assert rc == 2

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

    def test_wrong_answer_count_exits_two(self, ws, answers_file, monkeypatch, tmp_path):
        short = tmp_path / "answers.txt"
        short.write_text("only one line\n", encoding="utf-8")
        argv = self.ask_argv(ws, "0.5")
        argv[argv.index("--answers") + 1] = str(short)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        rc, _ = run(argv)
        assert rc == 2
