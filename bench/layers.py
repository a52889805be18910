"""Per-layer metrics from a traced run.

Layers are stellar's modules; a metric is `<module>.<function>.<stat>`, with
self_ms the span time minus child spans, summed over one traced pass.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import TRACED, self_times

ROOT_SIZES = range(4, 11)  # find_roots self time split by qubit count, 2^N coefficients

SELF_MS = [f"{module.split('.')[-1]}.{name}" for module, name in TRACED]
FAILED = ["polyroots.find_roots", "majorana.state_from_constellation", "rotations.wigner_D"]

# every per-layer metric with its unit, in report order
METRICS = (
    [("import.stellar_ms", "ms"), ("import.scipy_ms", "ms"), ("cli.interp_ms", "ms")]
    + [(f"{name}.self_ms", "ms") for name in SELF_MS]
    + [(f"{name}.calls", "count") for name in SELF_MS]
    + [(f"{name}.failed", "count") for name in FAILED]
    + [("polyroots.find_roots.nonfinite", "count"), ("polyroots.ok_ratio", "ratio"),
       ("polyroots.fp_events", "count")]
    + [(f"polyroots.find_roots.self_ms.n{n}", "ms") for n in ROOT_SIZES]
    + [("trace.overhead_frac", "ratio")]
)

IMPORT_PROBES = 3
INTERP_PROBES = 5


def from_trace(result: dict) -> dict:
    """Self times, call and failure counts, and the tracing overhead."""
    spans = result["spans"]
    own = self_times(spans)
    out = {f"{name}.self_ms": 0.0 for name in SELF_MS}
    out.update({f"{name}.calls": 0 for name in SELF_MS})
    failed = dict.fromkeys(FAILED, 0)
    by_size = dict.fromkeys(ROOT_SIZES, 0.0)
    root_spans = []
    for (name, _s, _e, _p, _op, ok), t in zip(spans, own):
        out[f"{name}.self_ms"] += t * 1e3
        out[f"{name}.calls"] += 1
        if name in failed and not ok:
            failed[name] += 1
        if name == "polyroots.find_roots":
            root_spans.append(t)
    calls = result["root_calls"]  # [coefficient count, status] per call
    for t, (size, _status) in zip(root_spans, calls):
        n = size.bit_length() - 1
        if size == 2**n and n in by_size:
            by_size[n] += t * 1e3
    for name, count in failed.items():
        out[f"{name}.failed"] = count
    out["polyroots.find_roots.nonfinite"] = sum(1 for _, s in calls if s == "nonfinite")
    out["polyroots.ok_ratio"] = sum(1 for _, s in calls if s == "ok") / len(calls) if calls else 0.0
    out["polyroots.fp_events"] = result["fp_events"]
    for n, t in by_size.items():
        out[f"polyroots.find_roots.self_ms.n{n}"] = t
    out["trace.overhead_frac"] = result["traced_wall_s"] / result["untraced_wall_s"] - 1.0
    return out


def _outermost_import_us(stderr: str, prefix: str) -> int:
    """Cumulative -X importtime microseconds of the outermost modules under prefix."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total, stack = 0, []
    # parents print after their children; walking backwards sees them first
    for level, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = any(n == prefix or n.startswith(prefix + ".") for _, n in stack)
        if (name == prefix or name.startswith(prefix + ".")) and not inside:
            total += cumulative
        stack.append((level, name))
    return total


def interpreter_layers(env: dict, cwd) -> dict:
    """Import cost of stellar and of scipy inside it, and a bare interpreter start."""
    stellar_us, scipy_us = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stellar"],
                              env=env, cwd=cwd, capture_output=True, text=True, check=True)
        stellar_us.append(_outermost_import_us(done.stderr, "stellar"))
        scipy_us.append(_outermost_import_us(done.stderr, "scipy"))
    interp = []
    for _ in range(INTERP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
        interp.append(perf_counter() - start)
    return {
        "import.stellar_ms": statistics.median(stellar_us) / 1e3,
        "import.scipy_ms": statistics.median(scipy_us) / 1e3,
        "cli.interp_ms": statistics.median(interp) * 1e3,
    }
