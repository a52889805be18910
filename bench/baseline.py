"""Set the benchmark's numbers beside the ROADMAP Baseline rows they cover.

    python3 bench/baseline.py [--seed N]

Runs the three workloads (untraced) and a traced cli_small run through
bench/run.py, then prints one line per Baseline row: what the ROADMAP
recorded, what this run measured, and whether the two disagree. It gates
nothing and always exits 0 once the runs have finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "20"


def _run(workload: str, seed: int, trace: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
                   cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL)
    path = HERE / ".results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _ops(result: dict, kind: str) -> dict[int, list[dict]]:
    by_n = defaultdict(list)
    for op in result["detail"]["by_op"]:
        if op["kind"] == kind:
            by_n[op["n"]].append(op)
    return by_n


def _outcome(ops: list[dict]) -> str:
    failed = [o["failure"] for o in ops if o["failure"]]
    kinds = ",".join(sorted(set(failed))) or "-"
    return f"{len(failed)}/{len(ops)} failed ({kinds}), median {statistics.median(o['ms'] for o in ops):.1f} ms"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed

    layers = _run("cli_small", seed, 1)["metrics"]
    cli = _run("cli_small", seed, 0)
    roots = _run("roots_random", seed, 0)
    structured = _run("structured", seed, 0)

    rows = []  # (Baseline row, ROADMAP value, measured, agrees)
    imp, sci = layers["import.stellar_ms"][0], layers["import.scipy_ms"][0]
    rows.append(("import stellar, scipy share", "~0.85 s, ~0.73 s scipy.optimize",
                 f"{imp / 1e3:.2f} s, {sci / 1e3:.2f} s scipy ({sci / imp:.0%})", sci / imp >= 0.5))

    majorana = _ops(roots, "majorana")
    for n in sorted(majorana):
        ops = majorana[n]
        failed = sum(1 for o in ops if o["failure"])
        expected = {4: "ok", 5: "1/20 seeds raise"}.get(n, "IndexError" if n >= 10 else "NaN points 20/20")
        if n == 4:
            agrees = failed == 0
        elif n == 5:
            agrees = failed <= max(1, len(ops) // 5)
        elif n >= 10:
            agrees = all(o["failure"] == "exception" for o in ops)
        else:
            agrees = failed == len(ops)
        rows.append((f"Majorana, random state, N={n}", expected, _outcome(ops), agrees))

    alt10 = _ops(roots, "alt")[10]
    rows.append(("Alt constellation, N=10", "~4.3 s", _outcome(alt10),
                 statistics.median(o["ms"] for o in alt10) > 1000))

    spin = _ops(structured, "spin_rot")
    for n, expected, agrees in (
        (6, "2S=63: unitarity error 2.6e-9", lambda ops: all(o["failure"] in (None, "oracle") for o in ops)),
        (7, "2S=127: all NaN", lambda ops: all(o["failure"] for o in ops)),
        (8, "2S=255: OverflowError", lambda ops: all(o["failure"] == "exception" for o in ops)),
    ):
        rows.append((f"wigner_D via rotate_spin, 2S={2**n - 1}", expected, _outcome(spin[n]),
                     agrees(spin[n])))

    points6 = _ops(cli, "points-majorana")[6]
    rows.append(("stellar points, 6 qubits", 'prints "theta": NaN, exits 0', _outcome(points6),
                 all(o["failure"] == "bad_json" for o in points6)))

    width = max(len(r[0]) for r in rows)
    env = roots["environment"]
    print(f"seed {seed}, commit {env['commit']}, {env['cpu']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    for name, recorded, measured, agrees in rows:
        flag = "" if agrees else "   <-- DISAGREES"
        print(f"{name:<{width}}  ROADMAP: {recorded:<32}  measured: {measured}{flag}")
    disagreements = sum(1 for r in rows if not r[3])
    print(f"{disagreements} disagreement(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
