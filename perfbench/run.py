#!/usr/bin/env python3
"""Benchmark of the jjtls sweep-to-density chain.

Run from the root of the repository:

    python3 perfbench/run.py --workload fixture-campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: fixture-campaign, fleet-sweeps, wideband-survey (``all`` runs
each in its own process).  With ``--trace 0`` the run repeats the
workload's round for ``--seconds`` and reports the end-to-end metrics;
with ``--trace 1`` it runs the workload's unit of work once untraced and
once traced and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A record of the run (machine, setup, rounds, failures) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fixture-campaign", "fleet-sweeps", "wideband-survey")
SETUP_REPEATS = 3
END_TO_END = (("round_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def time_import() -> float:
    """Wall time of ``import jjtls`` in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import jjtls"], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def measure(wl, work: Path, seconds: int, trace: bool) -> dict:
    from tracer import Tracer
    from workloads import Ops

    import_s = [time_import() for _ in range(SETUP_REPEATS)]
    import jjtls.cli  # noqa: F401  the in-process copy the workload drives

    generate_s = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.generate(work / f"inputs-{i}")
        generate_s.append(time.perf_counter() - t0)

    ops = Ops()
    problems: list[str] = []
    records: list[dict] = []
    prepare_s: list[float] = []
    round_s: list[float] = []
    run_ids = itertools.count()

    def prepare():
        t0 = time.perf_counter()
        state = wl.prepare(inputs)
        prepare_s.append(time.perf_counter() - t0)
        return state

    def one_round(state, index: int, tracer=None) -> float:
        run = work / f"round-{next(run_ids)}"
        run.mkdir(parents=True)
        t0 = time.perf_counter()
        record = wl.run_round(inputs, state, index, run, ops, tracer)
        elapsed = time.perf_counter() - t0
        try:
            problems.extend(wl.check_round(inputs, state, record, run))
        except (OSError, KeyError, ValueError) as exc:  # outputs missing or malformed
            problems.append(f"round {index}: outputs incomplete ({type(exc).__name__}: {exc})")
        shutil.rmtree(run)
        records.append(record)
        round_s.append(elapsed)
        return elapsed

    spans = None
    if not trace:
        start = time.perf_counter()
        state = prepare()
        while True:
            one_round(state, len(round_s))
            elapsed = time.perf_counter() - start
            enough = len(round_s) >= wl.min_rounds
            if enough and elapsed + statistics.median(round_s) > seconds:
                break
        values = {
            "round_s": statistics.median(round_s),
            "setup_s": statistics.median(import_s) + statistics.median(generate_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        # one unit of work (prepare + one round) untraced, then the same unit traced
        def unit(tracer=None):
            state = prepare()
            return prepare_s[-1] + one_round(state, 0, tracer)

        untraced = unit()
        tracer = Tracer()
        with tracer.patched():
            traced = unit(tracer)
        metrics = tracer.layer_metrics(traced - untraced)
        spans = tracer.spans
    problems += ops.problems
    return {
        "result": {"correct": not problems, "attempted": ops.attempted,
                   "failed": ops.failed, "metrics": metrics},
        "record": {"rounds": len(records), "expected_failures": ops.expected,
                   "problems": problems, "import_s": import_s,
                   "generate_s": generate_s, "prepare_s": prepare_s, "round_s": round_s,
                   "named": wl.summary(records, prepare_s)},
        "spans": spans,
    }


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        out = measure(wl, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result, record = out["result"], out["record"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "attempted": result["attempted"], "failed": result["failed"],
              "correct": result["correct"], "metrics": result["metrics"], **record}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if out["spans"] is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "facts"], "spans": out["spans"]}))
    print_summary(record)
    return result


def print_summary(record: dict) -> None:
    m = record["machine"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas_threads={m['blas_threads']} {m['platform']}")
    print(f"operations: attempted={record['attempted']} failed={record['failed']} "
          f"rounds={record['rounds']}")
    for failure in record["expected_failures"][:1]:
        print(f"  known failure: {failure}")
    rows = [(k, v["value"], v["unit"]) for k, v in record["metrics"].items()]
    if not record["trace"]:
        rows += [(k, v, unit) for k, (v, unit) in record["named"].items()]
    for name, value, unit in rows:
        print(f"  {name:42s} {value:14.6g} {unit}")
    for problem in record["problems"][:20]:
        print(f"  PROBLEM: {problem}")
    print(f"correct: {str(record['correct']).lower()}")


def run_all(args) -> tuple[dict, int]:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged, status


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "jjtls" / "__init__.py", ROOT / "fixtures" / "pipeline.json")
               if not p.exists()]
    if missing:
        print(f"perfbench: run from a jjtls checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result, status = run_all(args)
    else:
        result, status = run_workload(args), 0
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
