"""Seeded inputs for the benchmark workloads.

Every op is a plain JSON-able dict, so the same list can be written for the
worker process and kept by the checker. Each workload's op mix is fixed (how
many ops of each kind and size); the seed only draws the states, angles and
points. That keeps the share of slow and of failing ops the same from seed to
seed, which is what makes medians and percentiles comparable across runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("cli_small", "roots_random", "structured")

# roots_random is not in BENCHMARK.json: its latency percentiles land on
# N = 4..5 root findings, which on a shared 2-vCPU Xeon VM ran up to 1.5x
# slower for minutes at a time, so they spread 0.35-0.5 (quartile distance
# over median) across runs. It stays runnable for the baseline report and
# for looking at the root finder by hand.
# roots_random: states per qubit count, roughly halving per added qubit from
# N = 6 up, at least 2 states at N = 10. The large N = 4 and 5 share keeps
# the failing N >= 6 Majorana ops near a twentieth of all ops, so op_p90_ms
# lands on completed ops at the seed commit.
ROOTS_MIX = {4: 160, 5: 20, 6: 8, 7: 4, 8: 2, 9: 2, 10: 2}
# Ops above this N take 0.1-5 s each and run once per run; the rest are
# repeated for the run's time budget (see generate).
ROOTS_ONCE_ABOVE_N = 6
STRUCTURED_ONCE_ABOVE_N = 8  # alt_product only

# cli_small: (subcommand, qubit counts) per op. Each call costs 0.7-1.2 s of
# interpreter start and import on a shared 2-vCPU VM, so 56 calls is what
# fits 22 runs per workload in the benchmark's time budget when the host is
# slow; op_p90_ms has 5 calls beyond it. Majorana points skip N = 5, where
# about one seed in twenty raises, so the failing share stays fixed: the
# three N = 6 Majorana calls print NaN and exit 0.
CLI_MIX = {
    "points-majorana": [2] * 2 + [3] * 3 + [4] * 2 + [6] * 3,
    "points-alt": [2] * 2 + [3] * 2 + [4] * 2 + [5] * 2 + [6] * 2,
    "rotate-spin": [2] * 2 + [3] * 2 + [4] * 2 + [5] * 2,
    "rotate-qubits": [2] * 2 + [3] * 2 + [4] * 2 + [5] * 2,
    "check-sep": [2] * 3 + [3] * 2 + [4] * 2 + [5] * 2 + [6],
    "render": [3, 7, 7, 15, 31, 31, 63, 63, 12, 24],  # point counts
}

# structured: sizes per op kind. At the seed commit the 2S = 127 and 255
# rotations and the N = 9..10 product states fail whatever the draw. At the
# sizes in STRUCTURED_FIXED_DRAW whether an op fails depends on the draw, so
# their inputs come from one fixed stream, the same at every seed: the count
# of failing ops is then a property of the program, not of the seed, and one
# newly failing op moves fail_frac by the same step at every seed. The
# N = 9 and 10 product states (degree 511 and 1023 root findings, 1-5 s
# each) run once per run; every other op repeats. The dozen 8-point
# matchings (brute force, fixed cost) put a block of equal latencies where
# op_p90_ms lands, and the many cheap ops keep the seed-dependent cost of the
# N = 7..8 root findings a small share of a pass.
STRUCTURED_MIX = {
    "spin_rot": [2] * 10 + [3] * 10 + [4] * 10 + [5] * 6 + [6] * 2 + [7] * 2 + [8] * 6,
    "qubit_sep": [n for n in range(2, 9) for _ in range(12)] + [9, 10, 11, 12] * 4,
    "alt_product": [3] * 8 + [4] * 8 + [5] * 6 + [6] * 4 + [7] + [8] + [9] + [10],
    "match": [3, 4, 5, 6, 7] * 3 + [8] * 12 + [12, 16, 24, 32, 48, 64, 96, 128, 192, 255] * 2,
    # (family, point count); see _inverse_points
    "inverse": [("random", d) for d in (3, 7, 15, 31) * 2]
    + [("coherent", d) for d in (63, 127, 255, 511) * 2 + (1023,) * 4]
    + [("dicke", d) for d in (63, 255) * 2 + (1023,) * 4],
    "emit": [3, 7, 15, 31, 63, 127, 255, 511, 1023] * 3,
}
# (op kind, size) drawn from the fixed stream: 2S = 63 rotations (about 3 in 4
# draws fail), N = 6..8 product states (1 in 50, 1 in 3 and nearly every
# draw) and 1023-point inverses (about 9 in 10).
STRUCTURED_FIXED_DRAW = {("spin_rot", 6), ("alt_product", 6), ("alt_product", 7),
                         ("alt_product", 8), ("inverse", 1023)}


def as_cvec(v) -> dict:
    """Complex vector as {"re", "im"} float lists."""
    v = np.asarray(v, dtype=complex)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def cvec(d: dict) -> np.ndarray:
    """Complex vector back from its {"re", "im"} form."""
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def gaussian_state(rng, n: int) -> np.ndarray:
    dim = 2**n
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_factors(rng, n: int) -> np.ndarray:
    """n unit single-qubit factors (a_j, b_j); row j owns qubit j."""
    f = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def product_amplitudes(factors) -> np.ndarray:
    """Dense vector of the tensor product, qubit 0 on the lowest bit."""
    amps = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        amps = np.kron(np.asarray(f, dtype=complex), amps)
    return amps


def entangled_state(rng, n: int) -> np.ndarray:
    """Sum of two random product states: Schmidt rank 2 across every cut."""
    return product_amplitudes(random_factors(rng, n)) + product_amplitudes(
        random_factors(rng, n)
    )


def euler(rng) -> list[float]:
    return [
        float(rng.uniform(0.0, 2.0 * math.pi)),
        float(math.acos(rng.uniform(-1.0, 1.0))),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    ]


def sphere_points(rng, count: int) -> dict:
    """Uniform random points on the sphere as theta/phi lists."""
    theta = np.arccos(rng.uniform(-1.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return {"theta": theta.tolist(), "phi": phi.tolist()}


def cartesian(points: dict) -> np.ndarray:
    t, p = np.asarray(points["theta"]), np.asarray(points["phi"])
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1)


def points_from_cartesian(v: np.ndarray) -> dict:
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2.0 * math.pi)
    return {"theta": theta.tolist(), "phi": phi.tolist()}


def so3(angles) -> np.ndarray:
    """Rz(-alpha) Ry(beta) Rz(-gamma): the documented action of rotate_spin on points."""
    def rz(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(angles[1]), math.sin(angles[1])
    ry = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return rz(-angles[0]) @ ry @ rz(-angles[2])


def _inverse_points(rng, family: str, size: int) -> dict:
    """Point sets whose state the checker can compute independently.

    The expansion of prod_j (alpha_j x + beta_j) for many scattered points
    cancels so badly that no float64 result can be checked, so scattered
    points stay small. Large sets are "coherent" (all points at one
    direction in the northern hemisphere, so the state's weight sits at
    M > 0) or "dicke" (k points at the north pole and the rest at the south
    pole, with k between half and three quarters of the points), whose
    states have closed forms.
    """
    if family == "random":
        return sphere_points(rng, size)
    if family == "coherent":
        theta = math.acos(rng.uniform(0.0, 1.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        return {"theta": [theta] * size, "phi": [phi] * size}
    k = int(rng.integers(size // 2, 3 * size // 4 + 1))
    return {"theta": [0.0] * k + [math.pi] * (size - k), "phi": [0.0] * size}


def _roots_random(rng) -> list[dict]:
    ops = []
    for n, count in ROOTS_MIX.items():
        for _ in range(count):
            state = as_cvec(gaussian_state(rng, n))
            ops.append({"kind": "majorana", "n": n, "state": state})
            ops.append({"kind": "alt", "n": n, "state": state})
    return ops


def _structured(rng) -> list[dict]:
    fixed = np.random.default_rng([0, WORKLOADS.index("structured")])

    def draw(kind: str, size: int):
        return fixed if (kind, size) in STRUCTURED_FIXED_DRAW else rng

    ops = []
    for n in STRUCTURED_MIX["spin_rot"]:
        r = draw("spin_rot", n)
        ops.append({"kind": "spin_rot", "n": n, "state": as_cvec(gaussian_state(r, n)),
                    "angles": euler(r)})
    for i, n in enumerate(STRUCTURED_MIX["qubit_sep"]):
        product = i % 2 == 0
        amps = product_amplitudes(random_factors(rng, n)) if product else entangled_state(rng, n)
        ops.append({"kind": "qubit_sep", "n": n, "state": as_cvec(amps), "product": product,
                    "angles": [euler(rng) for _ in range(n)]})
    for n in STRUCTURED_MIX["alt_product"]:
        ops.append({"kind": "alt_product", "n": n,
                    "factors": [as_cvec(f) for f in random_factors(draw("alt_product", n), n)]})
    for size in STRUCTURED_MIX["match"]:
        pts = sphere_points(rng, size)
        angles = euler(rng)
        # the target is the rotated set, jittered and shuffled, so the
        # matching has to find the permutation
        moved = cartesian(pts) @ so3(angles).T + 0.01 * rng.standard_normal((size, 3))
        moved = moved[rng.permutation(size)]
        ops.append({"kind": "match", "n": size, "points": pts, "angles": angles,
                    "target": points_from_cartesian(moved)})
    for family, size in STRUCTURED_MIX["inverse"]:
        ops.append({"kind": "inverse", "n": size, "family": family,
                    "points": _inverse_points(draw("inverse", size), family, size)})
    for size in STRUCTURED_MIX["emit"]:
        ops.append({"kind": "emit", "n": size, "points": sphere_points(rng, size)})
    return ops


def _state_doc(n: int, amps: np.ndarray) -> str:
    return json.dumps({"n_qubits": n,
                       "amplitudes": [[float(a.real), float(a.imag)] for a in amps]})


def _cli_small(rng, input_dir: Path) -> list[dict]:
    """CLI ops; every input document is written to input_dir here, before timing."""
    input_dir.mkdir(parents=True, exist_ok=True)
    ops = []

    def write(name: str, text: str) -> str:
        path = input_dir / name
        path.write_text(text)
        return str(path)

    for sub, sizes in CLI_MIX.items():
        for i, n in enumerate(sizes):
            name = f"{sub}-{i}.json"
            if sub == "render":
                pts = sphere_points(rng, n)
                doc = json.dumps({"expected_size": n,
                                  "points": [{"theta": t, "phi": p}
                                             for t, p in zip(pts["theta"], pts["phi"])]})
                projection = ("front", "top")[i % 2]
                ops.append({"kind": "cli", "sub": sub, "n": n, "points": pts,
                            "argv": ["render", write(name, doc), "--projection", projection]
                            + (["--axes"] if i % 3 == 0 else [])})
                continue
            product = sub == "check-sep" and i % 2 == 0
            amps = (product_amplitudes(random_factors(rng, n)) if product
                    else gaussian_state(rng, n) if sub != "check-sep"
                    else entangled_state(rng, n))
            path = write(name, _state_doc(n, amps))
            op = {"kind": "cli", "sub": sub, "n": n, "state": as_cvec(amps)}
            if sub.startswith("points"):
                enc = sub.split("-")[1]
                op["argv"] = ["points", path, "--encoding", enc]
            elif sub == "rotate-spin":
                op["angles"] = euler(rng)
                op["argv"] = ["rotate", path, "--mode", "spin",
                              "--angles", ",".join(repr(a) for a in op["angles"])]
            elif sub == "rotate-qubits":
                op["angles"] = [euler(rng) for _ in range(n)]
                op["argv"] = ["rotate", path, "--mode", "qubits", "--angles-per-qubit",
                              ";".join(",".join(repr(a) for a in t) for t in op["angles"])]
            else:
                op["product"] = product
                op["argv"] = ["check-sep", path]
            ops.append(op)
    return ops


def probe_op() -> dict:
    """The set-up probe's one op: a fixed 3-qubit product state through
    alt_constellation and separable_constellation, the same at every seed."""
    factors = random_factors(np.random.default_rng(0), 3)
    return {"kind": "alt_product", "n": 3, "factors": [as_cvec(f) for f in factors]}


def _runs_once(workload: str, op: dict) -> bool:
    if workload == "roots_random":
        return op["n"] > ROOTS_ONCE_ABOVE_N
    return op["kind"] == "alt_product" and op["n"] > STRUCTURED_ONCE_ABOVE_N


def generate(workload: str, seed: int, input_dir: Path):
    """The distinct ops, and two seeded orders of op indices: ops that run
    once per run, and ops that run in passes until the time budget is spent.

    Repeating an op lets its latency be the median of several timings: a
    shared VM can switch between two speeds, 1.5x apart, every few seconds,
    and one timing per op lets that switching decide the percentiles. Only
    roots_random and structured's N = 9..10 product states are too slow to
    repeat.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "roots_random":
        ops = _roots_random(rng)
    elif workload == "structured":
        ops = _structured(rng)
    else:
        ops = _cli_small(rng, input_dir)
    order = [int(i) for i in rng.permutation(len(ops))]
    once = [i for i in order if _runs_once(workload, ops[i])]
    return ops, once, [i for i in order if i not in set(once)]
