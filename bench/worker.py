"""Timed phase of one benchmark run, in a process that does no oracle work.

    python3 bench/worker.py <work_dir> run     the closed loop
    python3 bench/worker.py <work_dir> probe   import stellar, run one op, exit

Both read <work_dir>/<mode>.json; `run` writes <work_dir>/result.json.

Untraced, `run` passes over the job's `repeat` ops until the time budget is
spent (at least one whole pass; the last pass may stop part way, so the wall
time does not jump by a pass), reads the peak RSS, then times its `once` ops
one time each. It keeps every op's first output and a digest of every
output. The once ops come last so that their large arrays (degree-1023 root
finding) neither shape the heap the repeated ops run on nor set the peak
RSS, which would then move with the seed. Where two cores are allowed, a
repeated in-process op runs once on each (the faster time counts), and a CLI
call or a once op runs on the core a calibration finds faster just before it.

Traced, after one warm-up pass over the repeat ops, it runs each once op
and each repeat op one time without tracing and one time with it, unpinned.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))


def calibrate(cpu) -> float:
    """Seconds a small fixed numpy and Python workload takes pinned to cpu;
    leaves this process pinned to cpu."""
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = np.zeros(64, dtype=complex)
        for k in range(200):
            acc = acc * 0.5 + np.arange(64) * k
            str(k) in {str(j): j for j in range(20)}
        best = min(best, perf_counter() - start)
    return best


def faster_cpu(cpus):
    """The cpu on which calibrate runs faster right now; leaves this process
    pinned to it."""
    cpu = min(cpus, key=calibrate)
    os.sched_setaffinity(0, {cpu})
    return cpu


def _run_ops(prepared, order, runs, first, tracer=None, cpus=(None,), fastest=False,
             deadline=float("inf")):
    """Run ops in order until the deadline, appending (op, seconds, digest) to
    runs; an op's first output is kept as JSON text, which the garbage
    collector need not walk.

    With several cpus, each op runs once pinned to each and its time is the
    smaller one: on a shared host one core is often slowed by a neighbour for
    tens of seconds while another is not, which otherwise moves whole runs.
    Ops too slow to run twice (CLI calls, once ops) run once, with `fastest`.
    """
    for i in order:
        if perf_counter() >= deadline:
            break
        run, to_output = prepared[i]
        if tracer is not None:
            tracer.op_id = i
        times, digests = [], set()
        # fastest: run once, on the core that is quicker right now (a CLI
        # call's child process inherits this process's core)
        for cpu in [faster_cpu(cpus)] if fastest else cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            start = perf_counter()
            try:
                result = run()
            except Exception as exc:  # the op failed; the checker classifies it
                times.append(perf_counter() - start)
                output = {"error": type(exc).__name__, "message": str(exc)[:200]}
            else:
                times.append(perf_counter() - start)
                output = to_output(result)
            text = json.dumps(output, sort_keys=True)
            digests.add(hashlib.sha1(text.encode()).hexdigest())
            first.setdefault(i, text)
        # differing outputs of one op reach the checker as two runs
        runs.extend((i, min(times), d) for d in sorted(digests))


def _traced(prepared, once, repeat, residual_tol) -> dict:
    import numpy as np

    import tracing
    from checks import roots_residual

    tracer = tracing.Tracer()
    first = {}
    untraced = traced = 0.0
    # numpy reports floating-point events to the tracer's counter in both
    # runs of an op, so they differ only by the spans; a first pass lets
    # caches and lazy imports settle
    with tracer.counting_fp():
        _run_ops(prepared, repeat, [], {})
        # each op runs untraced and traced back to back, so that a shared
        # host's slow spells fall on both alike; which goes first alternates,
        # since the second run of an op finds warmer caches
        for k, i in enumerate(once + repeat):
            for with_spans in (k % 2 == 0, k % 2 == 1):
                if with_spans:
                    tracer.install()
                start = perf_counter()
                try:
                    _run_ops(prepared, [i], [], first if with_spans else {},
                             tracer if with_spans else None)
                finally:
                    elapsed = perf_counter() - start
                    tracer.uninstall()
                if with_spans:
                    traced += elapsed
                else:
                    untraced += elapsed

    def status(coeffs, roots):
        if roots is None:
            return "raised"
        if not np.all(np.isfinite(roots)):
            return "nonfinite"
        return "ok" if roots_residual(coeffs, roots) <= residual_tol else "residual"

    return {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "outputs": [first[i] for i in range(len(prepared))],
        "spans": tracer.spans,
        "fp_events": tracer.fp_events,
        "root_calls": [[len(c), status(c, r)] for c, r in tracer.root_calls],
    }


def _timed(prepared, once, repeat, budget: float, cpus, fastest: bool, rss_of) -> dict:
    runs, first = [], {}
    start = perf_counter()
    _run_ops(prepared, repeat, runs, first, cpus=cpus, fastest=fastest)
    while perf_counter() - start < budget:
        _run_ops(prepared, repeat, runs, first, cpus=cpus, fastest=fastest,
                 deadline=start + budget)
    maxrss_kb = resource.getrusage(rss_of).ru_maxrss
    _run_ops(prepared, once, runs, first, cpus=cpus, fastest=len(cpus) > 1)
    return {"wall_s": perf_counter() - start, "runs": runs, "maxrss_kb": maxrss_kb,
            "outputs": [first[i] for i in range(len(prepared))]}


def main() -> int:
    work, mode = Path(sys.argv[1]), sys.argv[2]
    job = json.loads((work / f"{mode}.json").read_text())
    import ops  # imports stellar

    prepared = [ops.prepare(op, in_process_cli=job["in_process_cli"]) for op in job["ops"]]
    once, repeat = job["once"], job["repeat"]
    try:
        prepared[(repeat + once)[0]][0]()  # warm-up: lazy imports settle before timing
    except Exception:
        pass
    if mode == "probe":
        return 0
    # the inputs live for the whole run: keep them out of every collection
    gc.collect()
    gc.freeze()
    if job["trace"]:
        result = _traced(prepared, once, repeat, job["residual_tol"])
    else:
        # CLI ops run in child processes; every other workload runs here
        cli = job["workload"] == "cli_small"
        allowed = sorted(os.sched_getaffinity(0))
        cpus = allowed[:2] if len(allowed) > 1 else [None]
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        try:
            result = _timed(prepared, once, repeat, job["seconds"], cpus,
                            cli and len(cpus) > 1, who)
        finally:
            os.sched_setaffinity(0, allowed)
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
