"""Benchmark of stellar: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload cli_small|roots_random|structured \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. Inputs
come from the seed alone. The timed ops run in a separate worker process
(bench/worker.py) that does no oracle work; outputs are checked here, after
the timed phase, against independent oracles (bench/checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones from a separate traced run (bench/layers.py). The line
before it records the environment and counts the failed ops by kind.

End-to-end metrics:
    setup_s      median over fresh interpreters of: import stellar, one
                 fixed 3-qubit op; each runs on the core a short calibration
                 finds faster just before it, half of them before the timed
                 phase and half after it
    op_p50_ms    nearest-rank percentiles over the distinct ops; an op's
    op_p90_ms    latency is the median of its runs, and a failed op ranks
                 as +inf (if a percentile reaches the failed ops it reads as
                 the wall time of the timed phase). An in-process run times
                 a repeated op once on each of two cores and keeps the
                 faster; a CLI call, or an op too slow to repeat, runs once,
                 on the core a short calibration finds faster just before it.
    ok_per_s     runs of ops that passed every check / timed-phase wall time
    fail_frac    (failed ops + 1) / (distinct ops + 1); the added one keeps
                 it above zero once every op passes
    peak_rss_mb  peak RSS of the worker, or of its largest CLI child, over
                 the repeated ops (the once ops run after it is read)
`attempted` and `failed` count distinct ops, not their timed runs, so they
depend on the seed and the program only, not on how many passes fit in the
time budget. `correct` is false when an op's output changed between runs of
the same input; ops that fail their checks are counted in `failed`, not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from checks import ROOTS_CONTRACT_TOL, Checker  # noqa: E402
from worker import faster_cpu  # noqa: E402

SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(work: Path, mode: str) -> float:
    """Run the worker; returns its wall time. Raises if it fails or times out.

    The worker gets its own process group, so a timeout also ends the CLI
    call it may be waiting on.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), str(work), mode]
    start = perf_counter()
    with subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, start_new_session=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return perf_counter() - start


def _probe(work: Path) -> float:
    """One set-up probe, on the core that is faster right now; the worker
    inherits the pin."""
    allowed = os.sched_getaffinity(0)
    try:
        if len(allowed) > 1:
            faster_cpu(sorted(allowed)[:2])
        return _worker(work, "probe")
    finally:
        os.sched_setaffinity(0, allowed)


def environment() -> dict:
    import mpmath
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def percentile(latencies: list[float], q: float, cap: float) -> float:
    """Nearest-rank percentile; failed ops are +inf and read as `cap` if reached."""
    ordered = sorted(latencies)
    value = ordered[max(0, int(np.ceil(q * len(ordered))) - 1)]
    return cap if value == float("inf") else value


def classify(ops: list[dict], result: dict, checker: Checker):
    """Failure kind of each op (None when it passed) and whether outputs repeated.

    Each op's first output is checked; every later run of the op must
    reproduce it byte for byte, since the program promises deterministic
    output.
    """
    kinds = [checker.check(op, json.loads(out)) for op, out in zip(ops, result["outputs"])]
    first = {}
    deterministic = True
    for i, _, digest in result["runs"]:
        if first.setdefault(i, digest) != digest:
            deterministic = False
            kinds[i] = "nondeterministic"
    return kinds, deterministic


def _count(kinds) -> dict:
    failures = {}
    for kind in kinds:
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
    return failures


def _write_jobs(work: Path, workload: str, ops: list[dict], once: list[int], repeat: list[int],
                seconds: float, trace: bool):
    job = {"workload": workload, "seconds": seconds, "trace": trace, "ops": ops,
           "once": once, "repeat": repeat, "in_process_cli": trace,
           "residual_tol": ROOTS_CONTRACT_TOL}
    (work / "run.json").write_text(json.dumps(job))
    # set-up probe: import stellar and run one fixed op, the same at every seed
    (work / "probe.json").write_text(json.dumps(
        dict(job, ops=[workloads.probe_op()], once=[], repeat=[0])))


def end_to_end(ops, work, checker):
    # probes on both sides of the timed phase see more of a shared host's
    # slow and fast spells than probes back to back
    setup = [_probe(work) for _ in range(SETUP_PROBES // 2)]
    _worker(work, "run")
    setup += [_probe(work) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    result = json.loads((work / "result.json").read_text())
    kinds, deterministic = classify(ops, result, checker)
    # an op's latency is the median of its runs, which keeps a few slow
    # seconds of a shared host out of the percentiles
    timings = [[] for _ in ops]
    for i, seconds, _ in result["runs"]:
        timings[i].append(seconds)
    per_op = [statistics.median(t) * 1e3 for t in timings]
    latencies = [ms if kind is None else float("inf") for ms, kind in zip(per_op, kinds)]
    failures = _count(kinds)
    failed_runs = sum(len(t) for t, kind in zip(timings, kinds) if kind is not None)
    wall_ms = result["wall_s"] * 1e3
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (percentile(latencies, 0.5, wall_ms), "ms"),
        "op_p90_ms": (percentile(latencies, 0.9, wall_ms), "ms"),
        "ok_per_s": ((len(result["runs"]) - failed_runs) / result["wall_s"], "1/s"),
        # one phantom failure in one phantom op keeps the ratio above zero,
        # so a relative bound still applies once every real op passes
        "fail_frac": ((sum(failures.values()) + 1) / (len(ops) + 1), "ratio"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    detail = {
        "runs_per_op": statistics.median(len(t) for t in timings),
        "failures": failures,
        "by_op": [{"kind": op.get("sub", op["kind"]), "n": op["n"], "failure": k, "ms": ms}
                  for op, k, ms in zip(ops, kinds, per_op)],
    }
    return deterministic, len(ops), sum(failures.values()), metrics, detail


def traced(ops, work, checker):
    _worker(work, "run")
    result = json.loads((work / "result.json").read_text())
    metrics = layers.from_trace(result)
    metrics.update(layers.interpreter_layers(_child_env(), ROOT))
    metrics = {name: (metrics[name], unit) for name, unit in layers.METRICS}
    kinds = [checker.check(op, json.loads(out)) for op, out in zip(ops, result["outputs"])]
    failures = _count(kinds)
    return True, len(ops), sum(failures.values()), metrics, {"runs_per_op": 1, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stellar" / "__init__.py").is_file():
        print("error: src/stellar not found; run from the repository root", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops, once, repeat = workloads.generate(args.workload, args.seed, work / "inputs")
        _write_jobs(work, args.workload, ops, once, repeat, args.seconds, bool(args.trace))
        checker = Checker(HERE / ".cache")
        run = traced if args.trace else end_to_end
        correct, attempted, failed, metrics, detail = run(ops, work, checker)
        record = {"environment": environment(), "failures": detail["failures"],
                  "runs_per_op": detail["runs_per_op"]}
        (HERE / ".results").mkdir(exist_ok=True)
        (HERE / ".results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(dict(record, metrics=metrics, detail=detail), indent=1))
    except subprocess.CalledProcessError as exc:
        print((exc.stderr or "")[-2000:], file=sys.stderr)
        print(f"error: worker failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
