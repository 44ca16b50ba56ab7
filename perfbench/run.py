#!/usr/bin/env python3
"""qasim benchmark: one workload, measured through `qasim.cli.main`.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
`qasim` package in its `src/` directory.  Workloads (see README.md):

  train_pipeline        the operator's offline command sequence, ending
                        with `qasim eval --infer-vectors` on unseen documents
  ask_large_collection  one client asking `qasim ask` over 5,000 answers

Inputs come from `qasim.datasets` and --seed, in a separate prep process.
Each unit of work (a pipeline or an ask session) runs in a fresh
process with one BLAS thread; units repeat until --seconds have passed.
Every command's exit code and every output is checked.  The
last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics taken from the
traced units (traced and untraced units alternate, which also gives
the tracing overhead).
"""

import argparse
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from tracer import self_times  # noqa: E402

WORKLOADS = ("train_pipeline", "ask_large_collection")
PREP_TIMEOUT_S = 150
UNIT_TIMEOUT_S = 120
LINE_TIMEOUT_S = 60
HARD_STOP_S = 120  # stop starting new units after this, whatever the minimum
MIN_UNITS = 3

END_TO_END = {"setup_s": "s", "scaled_latency_p50_ms": "ms", "peak_rss_mb": "MB"}

# The host's speed drifts by up to three quarters over minutes, and any
# latency follows it.  The reference is the time from starting a worker
# until it has imported NumPy, before it loads qasim: it slows with the
# host as qasim's commands do and runs none of the code under test.
# scaled_latency_p50_ms is the median latency times REF_S over the run's
# median reference time: the latency on a host where the reference takes
# REF_S.
REF_S = 0.15
PER_LAYER = {
    "cli.s": "s",
    "cli.self_s": "s",
    "corpus.self_s": "s",
    "corpus.tokens": "count",
    "corpus.load_qa_dataset.share": "ratio",
    "corpus.build_vocabulary.share": "ratio",
    "corpus.encode_corpus.share": "ratio",
    "embedding.train_doc2vec.tok_per_s": "tok/s",
    "embedding.train_doc2vec.token_steps": "count",
    "embedding.train_word2vec.tok_per_s": "tok/s",
    "embedding.infer_doc_vector.calls": "count",
    "embedding.infer_doc_vector.token_steps_per_s": "tok/s",
    "embedding.infer_doc_vector.share": "ratio",
    "embedding.io.s": "s",
    "simnet.gradients.calls": "count",
    "simnet.gradients.share": "ratio",
    "simnet.score_batch.calls": "count",
    "simnet.score_batch.rows": "count",
    "simnet.score_batch.self_s": "s",
    "simnet.io.s": "s",
    "training.train_simnet.epochs": "count",
    "training.epochs_per_s": "1/s",
    "training.rescore_share": "ratio",
    "retrieval.select_answer.calls": "count",
    "retrieval.select_answer.p50_ms": "ms",
    "retrieval.select_answer.self_s": "s",
    "retrieval.candidates_scored": "count",
    "retrieval.answer_rows_per_question": "count",
    "retrieval.pool_report.share": "ratio",
    "evaluation.bow_matrix.share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}

ANSWER_LINE = re.compile(r"^(answer|escalate) \(([0-9.]+)\): (.*)$")


# ---------------------------------------------------------------------------
# statistics


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples (exact for
    percentiles given to a tenth)."""
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[rank(len(values), p) - 1]


def tail_percentile(n: int):
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 95, 99, 99.9):
        if n - rank(n, p) >= 10:
            best = p
    return best


def describe(values, unit: str, scale: float = 1.0) -> str:
    if not values:
        return "no samples"
    text = f"p50 {statistics.median(values) * scale:.6g} {unit}"
    p = tail_percentile(len(values))
    if p is not None:
        text += f", p{p:g} {percentile(values, p) * scale:.6g} {unit}"
    return text + f" (n={len(values)})"


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QASIM_SEED", None)
    env.pop("PYTHONPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def wait_rusage(proc, timeout: float):
    """Reap `proc`, killing it after `timeout` seconds; return peak RSS in MB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def start_worker(workdir: Path, plan: dict, tag: str, trace: bool, interactive: bool):
    plan_path = workdir / f"plan-{tag}.json"
    result_path = workdir / f"result-{tag}.json"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"src": str(SRC), **plan}, fh)
    cmd = [sys.executable, "-u", str(HERE / "worker.py"),
           "--plan", str(plan_path), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    if interactive:
        streams = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE,
                   "stderr": subprocess.PIPE}
    else:
        log = open(workdir / f"log-{tag}.txt", "wb")
        streams = {"stdin": subprocess.DEVNULL, "stdout": log, "stderr": subprocess.STDOUT}
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), **streams)
    if not interactive:
        log.close()
    return proc, t_spawn, result_path


def read_result(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


class Lines:
    """Line reader over a child's stdout and stderr with a timeout.  Both
    pipes are read whenever either has data, so neither can fill up."""

    def __init__(self, proc):
        self.fds = {proc.stdout.fileno(): "out", proc.stderr.fileno(): "err"}
        self.buf = {"out": b"", "err": b""}
        self.open = set(self.fds)
        self.err_lines: list[str] = []

    def _pump(self, timeout: float) -> bool:
        if not self.open:
            return False
        ready, _, _ = select.select(list(self.open), [], [], timeout)
        for fd in ready:
            data = os.read(fd, 65536)
            if not data:
                self.open.discard(fd)
            self.buf[self.fds[fd]] += data
        return bool(ready)

    def _take(self, stream: str):
        buf = self.buf[stream]
        if b"\n" not in buf:
            return None
        line, self.buf[stream] = buf.split(b"\n", 1)
        text = line.decode("utf-8", "replace")
        if stream == "err":
            self.err_lines.append(text)
        return text

    def readline(self, stream: str, timeout: float):
        deadline = time.monotonic() + timeout
        while True:
            line = self._take(stream)
            if line is not None:
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._pump(remaining):
                return None

    def drain(self, timeout: float) -> list[str]:
        """Read both streams to EOF; return the remaining stdout lines."""
        deadline = time.monotonic() + timeout
        while self.open and time.monotonic() < deadline:
            self._pump(deadline - time.monotonic())
        while self._take("err") is not None:
            pass
        rest = self.buf["out"].decode("utf-8", "replace")
        return [line for line in rest.split("\n") if line]


# ---------------------------------------------------------------------------
# units of work


class Run:
    def __init__(self, workload: str, manifest: dict, workdir: Path):
        self.workload = workload
        self.manifest = manifest
        self.workdir = workdir
        self.units: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.absent: set[str] = set()
        self.env = None

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def _finish_unit(self, unit: dict, result: dict | None, trace: bool) -> dict:
        if result is None:
            self.problem(f"unit {unit['index']}: worker left no result")
            return unit
        if not result.get("qasim_file", "").startswith(str(SRC)):
            self.problem(f"unit {unit['index']}: imported qasim from {result.get('qasim_file')}")
        self.env = result.get("env", self.env)
        if "t_numpy_ready" in result:
            unit["ref_s"] = result["t_numpy_ready"] - unit["t_spawn"]
            unit["numpy_import_s"] = result["t_numpy_ready"] - result["t_numpy"]
        if trace:
            unit["spans"] = result.get("spans", [])
            self.absent.update(result.get("absent", []))
            self.absent.update(f"{name} (counts)" for name in result.get("counter_errors", []))
        return unit

    def batch_unit(self, index: int, trace: bool) -> dict:
        for name in self.manifest["reports"]:
            (self.workdir / name).unlink(missing_ok=True)
        plan = {"commands": self.manifest["commands"]}
        proc, t_spawn, result_path = start_worker(self.workdir, plan, str(index), trace, False)
        rss = wait_rusage(proc, UNIT_TIMEOUT_S)
        result = read_result(result_path)
        unit = {"index": index, "traced": trace, "rss_mb": rss, "t_spawn": t_spawn}
        commands = result["commands"] if result else []
        self.attempted += len(self.manifest["commands"])
        bad = len(self.manifest["commands"]) - sum(1 for c in commands if c["rc"] == 0)
        if bad:
            self.problem(f"unit {index}: {bad} command(s) failed: "
                         f"{[(c['command'], c['rc']) for c in commands if c['rc'] != 0]}"
                         f" worker exit {proc.returncode}")
        else:
            bad = sum(not self._report_ok(unit, name) for name in self.manifest["reports"])
        self.failed += bad
        if result and commands:
            unit["work_s"] = commands[-1]["t1"] - commands[0]["t0"]
            unit["last_command_s"] = commands[-1]["t1"] - commands[-1]["t0"]
            unit["setup_s"] = result["t_ready"] - t_spawn
        return self._finish_unit(unit, result, trace)

    def _report_ok(self, unit: dict, name: str) -> bool:
        """Check one `eval` report and keep its pool_top1."""
        try:
            with open(self.workdir / name, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            self.problem(f"unit {unit['index']}: {name} unreadable: {exc}")
            return False
        for key in ("pool_top1", "answer_rate"):
            value = report.get(key)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                self.problem(f"unit {unit['index']}: {name} {key}={value!r}")
                return False
        unit.setdefault("pool_top1", {})[name] = report["pool_top1"]
        return True

    def ask_unit(self, index: int, trace: bool, answers: set) -> dict:
        questions = self.manifest["questions"]
        size = self.manifest["session"]
        first = (index * size) % len(questions)
        session = (questions + questions)[first:first + size]
        plan = {"commands": self.manifest["commands"]}
        proc, t_spawn, result_path = start_worker(self.workdir, plan, str(index), trace, True)
        lines = Lines(proc)
        unit = {"index": index, "traced": trace, "latencies": [], "answered": 0,
                "t_spawn": t_spawn}
        failed = 0
        try:
            while True:
                line = lines.readline("err", LINE_TIMEOUT_S)
                if line is None:
                    raise BrokenPipeError("no ready prompt")
                if line.startswith("ready"):
                    unit["setup_s"] = time.monotonic() - t_spawn
                    break
            for question in session:
                t0 = time.monotonic()
                os.write(proc.stdin.fileno(), (question + "\n").encode("utf-8"))
                line = lines.readline("out", LINE_TIMEOUT_S)
                t1 = time.monotonic()
                if line is None:
                    raise BrokenPipeError("no answer line")
                match = ANSWER_LINE.match(line)
                if match is None or (match.group(1) == "answer"
                                     and match.group(3) not in answers):
                    failed += 1
                    self.problem(f"unit {index}: bad answer line {line[:80]!r}")
                    continue
                unit["answered"] += match.group(1) == "answer"
                unit["latencies"].append(t1 - t0)
        except (BrokenPipeError, OSError) as exc:
            self.problem(f"unit {index}: session broke off: {exc}")
        finally:
            proc.stdin.close()
            extra = lines.drain(LINE_TIMEOUT_S)
            rss = wait_rusage(proc, LINE_TIMEOUT_S)
            proc.stdout.close()
            proc.stderr.close()
        answered_or_bad = len(unit["latencies"]) + failed
        failed += len(session) - answered_or_bad  # questions that got no line
        if extra:
            failed = min(len(session), failed + len(extra))
            self.problem(f"unit {index}: {len(extra)} extra output line(s): {extra[0][:80]!r}")
        if proc.returncode != 0:
            self.problem(f"unit {index}: ask exited {proc.returncode}: {lines.err_lines[-3:]}")
        self.attempted += len(session)
        self.failed += failed
        unit["rss_mb"] = rss
        unit["work_s"] = sum(unit["latencies"])
        return self._finish_unit(unit, read_result(result_path), trace)


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced unit of work."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    durations = defaultdict(list)
    counts = defaultdict(lambda: defaultdict(int))
    module_self = defaultdict(float)
    under = defaultdict(lambda: defaultdict(float))  # child total time by parent name
    rows_under_select = 0

    for span, self_s in zip(spans, selfs):
        name, start, end, parent, span_counts = span
        parent_name = spans[parent][0] if parent is not None else None
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        durations[name].append(end - start)
        module_self[name.split(".", 1)[0]] += self_s
        if parent_name is not None:
            under[parent_name][name] += end - start
        for key, value in (span_counts or {}).items():
            if name == "corpus.encode" and parent_name == "corpus.encode_corpus":
                continue  # counted by encode_corpus
            counts[name][key] += value
        if name == "simnet.score_batch" and parent_name == "retrieval.select_answer":
            rows_under_select += (span_counts or {}).get("rows", 0)

    wall = sum(t for n, t in total.items() if n.startswith("cli."))

    def share(name):
        return total[name] / wall if wall else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    selects = calls["retrieval.select_answer"]
    return {
        "cli.s": wall,
        "cli.self_s": module_self["cli"],
        "corpus.self_s": module_self["corpus"],
        "corpus.tokens": counts["corpus.encode"]["tokens"]
        + counts["corpus.encode_corpus"]["tokens"],
        "corpus.load_qa_dataset.share": share("corpus.load_qa_dataset"),
        "corpus.build_vocabulary.share": share("corpus.build_vocabulary"),
        "corpus.encode_corpus.share": share("corpus.encode_corpus"),
        "embedding.train_doc2vec.tok_per_s": rate(
            counts["embedding.train_doc2vec"]["token_steps"], total["embedding.train_doc2vec"]),
        "embedding.train_doc2vec.token_steps": counts["embedding.train_doc2vec"]["token_steps"],
        "embedding.train_word2vec.tok_per_s": rate(
            counts["embedding.train_word2vec"]["token_steps"], total["embedding.train_word2vec"]),
        "embedding.infer_doc_vector.calls": calls["embedding.infer_doc_vector"],
        "embedding.infer_doc_vector.token_steps_per_s": rate(
            counts["embedding.infer_doc_vector"]["token_steps"],
            total["embedding.infer_doc_vector"]),
        "embedding.infer_doc_vector.share": share("embedding.infer_doc_vector"),
        "embedding.io.s": sum(total[f"embedding.{f}"] for f in (
            "save_doc2vec", "load_doc2vec", "save_word2vec", "load_word2vec", "export_text")),
        "simnet.gradients.calls": calls["simnet.gradients"],
        "simnet.gradients.share": share("simnet.gradients"),
        "simnet.score_batch.calls": calls["simnet.score_batch"],
        "simnet.score_batch.rows": counts["simnet.score_batch"]["rows"],
        "simnet.score_batch.self_s": own["simnet.score_batch"],
        "simnet.io.s": total["simnet.save_simnet"] + total["simnet.load_simnet"],
        "training.train_simnet.epochs": counts["training.train_simnet"]["epochs"],
        "training.epochs_per_s": rate(counts["training.train_simnet"]["epochs"],
                                      total["training.train_simnet"]),
        "training.rescore_share": rate(under["training.train_simnet"]["simnet.score_batch"],
                                       total["training.train_simnet"]),
        "retrieval.select_answer.calls": selects,
        "retrieval.select_answer.p50_ms": statistics.median(
            durations["retrieval.select_answer"]) * 1e3 if selects else 0.0,
        "retrieval.select_answer.self_s": own["retrieval.select_answer"],
        "retrieval.candidates_scored": counts["retrieval.select_answer"]["candidates"],
        "retrieval.answer_rows_per_question": rate(rows_under_select, selects),
        "retrieval.pool_report.share": share("retrieval.pool_report"),
        "evaluation.bow_matrix.share": share("evaluation.bow_matrix"),
        "trace.spans": len(spans),
    }


def command_times(spans) -> dict:
    """Wall and self time per CLI subcommand of one traced unit."""
    selfs = self_times(spans)
    out = defaultdict(lambda: [0.0, 0.0])
    for span, self_s in zip(spans, selfs):
        if span[0].startswith("cli."):
            out[span[0]][0] += span[2] - span[1]
            out[span[0]][1] += self_s
    return out


def median_of(units, key):
    values = [u[key] for u in units if key in u]
    return statistics.median(values) if values else None


def end_to_end(run: Run, report: list[str]) -> dict:
    units = [u for u in run.units if not u["traced"]]
    setups = [u["setup_s"] for u in units if "setup_s" in u]
    rss = [u["rss_mb"] for u in units]
    report.append(f"setup_s: {describe(setups, 's')}")
    report.append(f"peak_rss_mb: {describe(rss, 'MB')}")
    if run.workload == "ask_large_collection":
        latencies = [t for u in units for t in u["latencies"]]
        questions = len(latencies)
        busy = sum(latencies)
        report.append(f"question latency: {describe(latencies, 'ms', 1e3)}")
        if latencies:
            report.append(f"ask_p50_ms: {statistics.median(latencies) * 1e3:.6g} ms "
                          f"(n={questions})")
            report.append(f"ask_p95_ms: {percentile(latencies, 95) * 1e3:.6g} ms "
                          f"(n={questions}, {questions - rank(questions, 95)} beyond)")
        report.append(f"ask_qps: {questions / busy if busy else 0.0:.6g} questions/s "
                      f"({questions} questions in {busy:.3f} s, one client, closed loop)")
        answered = sum(u["answered"] for u in units)
        report.append(f"answered: {answered} of {questions}, the rest escalated")
        latency = statistics.median(latencies) * 1e3 if latencies else None
    else:
        works = [u["work_s"] for u in units if "work_s" in u]
        report.append(f"pipeline_s: {describe(works, 's')}")
        infer_evals = [u["last_command_s"] for u in units if "last_command_s" in u]
        if infer_evals:
            docs = run.manifest["counts"]["inferred_docs"]
            report.append(f"eval_docs_per_s: {docs / statistics.median(infer_evals):.6g} docs/s "
                          f"({docs} inferred documents per `eval --infer-vectors`, "
                          f"n={len(infer_evals)})")
        for name in run.manifest["reports"]:
            tops = [u["pool_top1"][name] for u in units if name in u.get("pool_top1", {})]
            report.append(f"pool_top1 ({name}): {describe(tops, 'ratio')}")
        latency = statistics.median(works) * 1e3 if works else None
    timed = [u for u in units if "ref_s" in u]
    refs = [u["ref_s"] for u in timed]
    report.append(f"ref_s (start until NumPy is imported): {describe(refs, 's')}")
    report.append(f"numpy_import_s: {describe([u['numpy_import_s'] for u in timed], 's')}")
    scaled = None
    if latency is not None and refs:
        scaled = latency * REF_S / statistics.median(refs)
        report.append(f"scaled_latency_p50_ms: {scaled:.6g} ms, the median latency of "
                      f"{latency:.6g} ms times {REF_S:g} s over the median ref_s")
    return {"setup_s": statistics.median(setups) if setups else None,
            "scaled_latency_p50_ms": scaled,
            "peak_rss_mb": statistics.median(rss) if rss else None}


def per_layer(run: Run, report: list[str]) -> dict:
    traced = [u for u in run.units if u["traced"] and u.get("spans")]
    plain = [u for u in run.units if not u["traced"]]
    if not traced:
        return {}
    per_unit = [layer_metrics(u["spans"]) for u in traced]
    # median_low keeps counts whole: every value is one that a unit measured
    values = {name: statistics.median_low(m[name] for m in per_unit) for name in per_unit[0]}
    base = median_of(plain, "work_s")
    with_trace = median_of(traced, "work_s")
    values["trace.overhead_share"] = (with_trace - base) / base if base else 0.0
    report.append(f"tracing overhead: {values['trace.overhead_share']:+.4%} of untraced work "
                  f"time ({len(traced)} traced, {len(plain)} untraced units)")
    per_cmd = command_times(traced[0]["spans"])
    for name, (wall, own) in sorted(per_cmd.items()):
        report.append(f"{name}.s {wall:.6g} s, {name}.self_s {own:.6g} s (first traced unit)")
    if run.absent:
        report.append(f"absent from or changed in the code under test: {sorted(run.absent)}")
    return values


# ---------------------------------------------------------------------------
# main


def prep(workload: str, seed: int, scale: str, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "prep.py"), "--src", str(SRC), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--dir", str(workdir)]
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=PREP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"prep failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    with open(workdir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(run: Run, seconds: float, trace: bool) -> None:
    answers = None
    if run.workload == "ask_large_collection":
        with open(run.workdir / "answers.txt", encoding="utf-8") as fh:
            answers = set(fh.read().splitlines())
    minimum = 2 * MIN_UNITS if trace else MIN_UNITS
    t_begin = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - t_begin
        if (elapsed >= seconds and index >= minimum) or elapsed >= HARD_STOP_S:
            break
        traced = trace and index % 2 == 1
        if answers is None:
            unit = run.batch_unit(index, traced)
        else:
            unit = run.ask_unit(index, traced, answers)
        run.units.append(unit)
        index += 1


def run_all(args) -> int:
    """Run every workload, each in its own process, and sum up."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, only to check the benchmark runs")
    args = parser.parse_args()

    if not (SRC / "qasim" / "cli.py").is_file():
        print(f"perfbench: no qasim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        manifest = prep(args.workload, args.seed, args.scale, workdir)
        run = Run(args.workload, manifest, workdir)
        measure(run, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    report = [f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} scale={args.scale}"]
    if run.env:
        env = run.env
        report.append(f"# env: nproc={env['nproc']} python={env['python']} "
                      f"numpy={env['numpy']} blas={env['blas']} threads={env['threads']}")
    counts_ok = manifest["counts"] == manifest["expected"]
    report.append(f"# work per unit: {manifest['counts']}"
                  + ("" if counts_ok else f" != expected {manifest['expected']}"))
    if not counts_ok:
        run.problem("work counts differ from the counts the sizes fix")

    values = per_layer(run, report) if args.trace else end_to_end(run, report)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if values.get(name) is None]
    if missing:
        run.problem(f"no value for {missing}")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    report.append(f"failed_frac: {failed_frac:.6g} ({run.failed} of {run.attempted} "
                  f"operations failed)")
    for text in run.problems:
        report.append(f"problem: {text}")
    correct = not run.problems and run.failed == 0 and run.attempted > 0
    print("\n".join(report))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": 0.0 if values.get(name) is None else values[name],
                           "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
