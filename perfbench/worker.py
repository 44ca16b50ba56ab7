"""One timed workload process: runs qasim CLI commands through
`qasim.cli.main`, the entry point of the `qasim` command.

    python3 -u perfbench/worker.py --plan PLAN.json --result RESULT.json [--trace]

PLAN.json holds {"src": <dir holding the qasim package>, "commands":
[argv, ...]}.  The worker writes RESULT.json when it ends: when NumPy
and then qasim finished importing, each command's
exit code and wall time, the spans of a traced run and the runtime
environment.  Times are
time.monotonic() values, so the parent process can subtract its own.
"""

import os
import time

T_START = time.monotonic()

# Pin the BLAS pool to one thread before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    # The import of NumPy, timed before qasim loads, is the host-speed
    # reference: it runs no code under test.
    t_numpy = time.monotonic()
    import numpy  # noqa: F401

    t_numpy_ready = time.monotonic()
    sys.path.insert(0, plan["src"])
    from qasim import cli

    record = {"t_start": T_START, "t_ready": time.monotonic(),
              "t_numpy": t_numpy, "t_numpy_ready": t_numpy_ready,
              "qasim_file": os.path.realpath(cli.__file__), "commands": []}
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        record["absent"] = tracer.install()

    try:
        for argv in plan["commands"]:
            span = tracer.begin("cli." + argv[0].replace("-", "_")) if tracer else None
            t0 = time.monotonic()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed command, not a dead run
                traceback.print_exc()
                rc = -1
            t1 = time.monotonic()
            if tracer:
                tracer.end(span)
            record["commands"].append({"command": argv[0], "rc": rc, "t0": t0, "t1": t1})
            sys.stdout.flush()
    finally:
        record["env"] = _environment()
        if tracer:
            tracer.uninstall()
            record["spans"] = tracer.spans
            record["counter_errors"] = sorted(tracer.counter_errors)
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
