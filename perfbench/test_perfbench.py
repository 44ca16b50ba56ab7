"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke runs use `--scale smoke`: tiny inputs, one second of
measurement, checking that every metric is printed with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def span(name, start, end, parent=None, counts=None):
    return [name, start, end, parent, counts]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),   # overlaps a: union of a and b is 1..6
        span("c", 8.0, 12.0, 0),  # runs past the parent: only 8..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_count_each_token_once():
    spans = [
        span("cli.build_vocab", 0.0, 1.0),
        span("corpus.encode_corpus", 0.1, 0.5, 0, {"tokens": 7}),
        span("corpus.encode", 0.2, 0.3, 1, {"tokens": 3}),
        span("corpus.encode", 0.3, 0.4, 1, {"tokens": 4}),
        span("corpus.encode", 0.6, 0.7, 0, {"tokens": 5}),
    ]
    metrics = run.layer_metrics(spans)
    assert metrics["corpus.tokens"] == 12
    assert metrics["cli.s"] == pytest.approx(1.0)
    assert metrics["corpus.encode_corpus.share"] == pytest.approx(0.4)
    assert metrics["corpus.self_s"] == pytest.approx(0.2 + 0.1 + 0.1 + 0.1)


def test_tracer_reports_absent_names_and_restores_the_module():
    from qasim import corpus

    original = corpus.tokenize
    tracer = Tracer()
    absent = tracer.install(names=("corpus.tokenize", "corpus.no_such_function",
                                   "no_such_module.f"))
    try:
        assert absent == ["corpus.no_such_function", "no_such_module.f"]
        assert corpus.tokenize("Hello, world") == ["hello", "world"]
    finally:
        tracer.uninstall()
    assert corpus.tokenize is original
    assert [s[0] for s in tracer.spans] == ["corpus.tokenize"]
    assert tracer.spans[0][2] >= tracer.spans[0][1]


def test_percentile_rule_needs_ten_samples_beyond():
    assert run.tail_percentile(99) is None
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


# Names the text report gives each workload's end-to-end figures.
REPORTED = {
    "train_pipeline": ("setup_s:", "peak_rss_mb:", "pipeline_s:", "eval_docs_per_s:",
                       "ref_s", "scaled_latency_p50_ms:",
                       "pool_top1 (report.json):", "pool_top1 (infer_report.json):",
                       "failed_frac:"),
    "ask_large_collection": ("setup_s:", "peak_rss_mb:", "ask_p50_ms:", "ask_p95_ms:",
                             "ask_qps:", "ref_s", "scaled_latency_p50_ms:",
                             "failed_frac:"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)
    else:
        report = "\n".join(lines[:-1])
        for name in REPORTED[workload]:
            assert name in report
        assert "(n=" in report


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
