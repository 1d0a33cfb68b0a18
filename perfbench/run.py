"""Benchmark of weiltrace: the explicit formula, the commutator trace and
the lattice identities, each checked against independent references.

    python3 perfbench/run.py --workload explicit|trace|lattice \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
beside this directory.  Each run is one process:

1. set-up: import, then one unsampled warm-up operation (for
   ``explicit`` it builds the zero table into the run's empty cache and
   pays the archimedean calibration).  With ``--trace 0`` two fresh
   probe processes repeat the set-up and ``setup_s`` is the median of
   the three.
2. references, computed apart from the program (not timed).
3. timed phase: whole cycles of the workload's operations until at
   least S seconds have passed.  With ``--trace 1`` the phase is split:
   half untraced, half with the per-layer tracer installed.
4. every output is checked; the last line of stdout is one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# OpenBLAS threads change the trace timings by about 2x, so every run
# fixes the count; it must be set before numpy is first imported.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _import_program():
    """Import weiltrace from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "weiltrace", "cli.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import weiltrace.cli
    if not os.path.abspath(weiltrace.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported weiltrace from "
                         f"{weiltrace.cli.__file__}, not from {SRC}")


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _attempt(op):
    """Run one operation; returns (seconds, outcome, error text)."""
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, outcome, None


def _timed_cycles(workload, seconds: float, log: list) -> float:
    """Whole cycles until ``seconds`` have passed; appends (index,
    seconds, outcome, error) per operation to ``log``.  Returns the
    wall time of the phase."""
    start = time.perf_counter()
    while True:
        for index, op in enumerate(workload.cycle):
            log.append((index, *_attempt(op)))
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def _setup(workload_name: str, seed: int, run_dir: str, tracer=None):
    """Build the workload, point the zero cache at an empty directory
    and run the warm-up operation (traced when a tracer is given).
    Returns (workload, warm-up attempt, set-up seconds from process
    start)."""
    os.environ["WEILTRACE_CACHE"] = os.path.join(run_dir, "cache")
    import workloads
    workload = workloads.WORKLOADS[workload_name](seed)
    if tracer is not None:
        tracer.install()
    warm = _attempt(workload.cycle[0])
    if tracer is not None:
        tracer.uninstall()
    return workload, warm, time.perf_counter() - _PROCESS_START


def _probe_setup(args, run_dir: str, k: int) -> float:
    """Set-up time of a fresh process running the same workload."""
    probe_dir = os.path.join(run_dir, f"probe-{k}")
    os.makedirs(probe_dir)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", probe_dir,
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return float(json.loads(lines[-1])["setup_s"])


def _digits(x: float) -> float:
    import workloads
    return -math.log10(max(x, workloads.RESIDUAL_FLOOR))


def _check_all(workload, log):
    """Checks every operation in ``log``; returns (problems of the
    operations that did not fail, number failed, worst residual,
    largest bound)."""
    problems, failed, residual, bound = [], 0, 0.0, 0.0
    for index, _, outcome, error in log:
        label = workload.cycle[index].label
        verdict = None if error else workload.check(index, outcome)
        if error or verdict.failed:
            failed += 1
            _log(f"FAILED OPERATION {label}: "
                 f"{error or '; '.join(verdict.problems)}")
            continue
        problems.extend(f"{label}: {p}" for p in verdict.problems)
        residual = max(residual, verdict.residual)
        bound = max(bound, verdict.bound)
    return problems, failed, residual, bound


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(
        OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        _import_program()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        workload, warm, setup_s = _setup(args.workload, args.seed, run_dir,
                                         tracer)
        if warm[2] is not None:
            raise RuntimeError(f"warm-up failed:\n{warm[2]}")
        setups = [setup_s]
        if not args.trace:
            setups += [_probe_setup(args, run_dir, k) for k in range(2)]
        _log(f"{args.workload} seed {args.seed}: set-up {setups} s, "
             f"BLAS threads {BLAS_THREADS}")
        ref_problems = workload.prepare()

        log, metrics = [], {}
        if args.trace:
            plain = []
            _timed_cycles(workload, args.seconds / 2.0, plain)
            tracer.phase = "run"
            tracer.install()
            try:
                _timed_cycles(workload, args.seconds / 2.0, log)
            finally:
                tracer.uninstall()
            metrics, absent = tracer.per_layer(len(log))
            if absent:
                _log(f"absent from the program: {', '.join(absent)}")
            overhead = (statistics.median(t for _, t, _, _ in log)
                        - statistics.median(t for _, t, _, _ in plain))
            metrics["tracing.overhead_s"] = _metric(overhead, "s")
            metrics["tracing.spans"] = _metric(
                sum(1 for s in tracer.spans if s[6] == "run") / len(log),
                "count")
            spans_path = os.path.join(
                OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz")
            tracer.write(spans_path, {"workload": args.workload,
                                      "seed": args.seed,
                                      "operations": len(log),
                                      "absent": absent})
            _log(f"spans written to {spans_path}")
            log = plain + log
        else:
            wall = _timed_cycles(workload, args.seconds, log)
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _log("operation seconds: "
             + " ".join(f"{t:.3f}" for _, t, _, _ in log))
        warm_problems = _check_all(workload, [(0, *warm)])[0]
        problems, failed, residual, bound = _check_all(workload, log)
        problems = ref_problems + warm_problems + problems
        for p in problems[:20]:
            _log(f"FAILED CHECK {p}")
        if not args.trace:
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "check_s_p50": _metric(
                    statistics.median(t for _, t, _, _ in log), "s"),
                "checks_per_s": _metric(len(log) / wall, "1/s"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
                "residual_digits": _metric(_digits(residual), "digits"),
                "certified_digits": _metric(_digits(bound), "digits"),
            }
        return {"correct": not problems, "attempted": len(log),
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _probe(args) -> None:
    """Body of a set-up probe process: set up, report the time."""
    _import_program()
    _, warm, setup_s = _setup(args.workload, args.seed, args.probe)
    if warm[2] is not None:
        raise SystemExit(f"warm-up failed:\n{warm[2]}")
    print(json.dumps({"setup_s": setup_s}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("explicit", "trace", "lattice"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        _probe(args)
        return 0
    result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
