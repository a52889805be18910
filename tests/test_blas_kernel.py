"""CLI bytes do not depend on OpenBLAS's kernel, except rotate --mode spin at N >= 2,
and the qubit outputs do not depend on numpy's AVX-512 kernels either.

numpy's OpenBLAS picks its kernels by CPU at start-up, and
OPENBLAS_CORETYPE overrides that choice for one process. The same calls run
in two fresh interpreters, one with the machine's own kernel and one with
Prescott's generic SSE3 kernels, which run on any x86-64 CPU, and every
stdout and demo file must hash the same. The calls are points at N = 2, 5,
8 and 10 in both encodings and on a 10-qubit product state in the alt
encoding, render and demo; and rotate --mode qubits up to N = 10, check-sep
on entangled and product states up to N = 10 and rotate --mode spin at
N = 1. These are the CI workflow's only Prescott checks. rotate --mode spin
at N >= 2 (2S > 1) is left out: its eigh and matrix products go through
LAPACK and BLAS, and their last bits do move with the kernel.

numpy picks its own SIMD kernels by CPU at start-up too, and
NPY_DISABLE_CPU_FEATURES turns targets off for one process. The qubit
calls run a third time with the AVX-512 targets off, which a CPU without
AVX-512 does not have to begin with, and must hash the same as the native
run. The points calls are left out of that run, since their bytes do
depend on numpy's SIMD target; so is turning AVX2 (X86_V3) off as well,
under which most of the qubit calls print other bytes.
"""

import platform
from pathlib import Path

import numpy as np
import pytest

from stellar import state_to_json

import helpers

# run in an empty working directory, so that every argv reads the same in both runs
_CALLS = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from stellar.cli import main

inputs, group = sys.argv[1:]
if group == "points":
    calls = [
        ["points", f"{inputs}/state{n}.json", "--encoding", encoding]
        for n in (2, 5, 8, 10)
        for encoding in ("majorana", "alt")
    ]
    calls += [["points", f"{inputs}/product10.json", "--encoding", "alt"]]
    calls += [["render", "points.json", "--axes"], ["demo", "--out", "demo"]]
else:
    calls = [
        ["rotate", f"{inputs}/state{n}.json", "--mode", "qubits", "--angles", "0.3,1.1,2.0"]
        for n in (1, 2, 5, 8, 10)
    ]
    calls += [
        ["check-sep", f"{inputs}/{kind}{n}.json"]
        for n in (2, 5, 8, 10)
        for kind in ("state", "product")
    ]
    calls += [["rotate", f"{inputs}/state1.json", "--mode", "spin", "--angles", "0.3,1.1,2.0"]]
digests = {}
for argv in calls:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    Path("points.json").write_text(out.getvalue())  # the input of the render call
    digests[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
for path in sorted(Path("demo").glob("*")):
    digests[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


# the targets numpy may pick above AVX2 on x86-64
_NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _digests(inputs: Path, work: Path, coretype: str | None, group: str, env=None) -> dict:
    work.mkdir()
    env = {"OPENBLAS_CORETYPE": coretype, **(env or {})}
    return helpers.fresh_json(_CALLS, str(inputs), group, cwd=work, env=env, timeout=300)


X86_64_ONLY = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="Prescott is an x86-64 OpenBLAS kernel",
)


@X86_64_ONLY
def test_points_render_and_demo_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    rng = np.random.default_rng(2020)
    for n in (2, 5, 8, 10):
        (tmp_path / f"state{n}.json").write_text(state_to_json(helpers.random_state(rng, n)))
    factors = helpers.random_amplitudes(rng, 20).reshape(10, 2)
    (tmp_path / "product10.json").write_text(state_to_json(helpers.product_state(factors)))
    native = _digests(tmp_path, tmp_path / "native", None, "points")
    generic = _digests(tmp_path, tmp_path / "prescott", "Prescott", "points")
    assert len(native) == 11 + 13  # the 11 calls and the 13 files demo writes
    assert generic == native


@X86_64_ONLY
def test_rotate_qubits_and_check_sep_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    rng = np.random.default_rng(2022)
    for n in (1, 2, 5, 8, 10):
        (tmp_path / f"state{n}.json").write_text(state_to_json(helpers.random_state(rng, n)))
    for n in (2, 5, 8, 10):
        factors = helpers.random_amplitudes(rng, 2 * n).reshape(n, 2)
        (tmp_path / f"product{n}.json").write_text(state_to_json(helpers.product_state(factors)))
    native = _digests(tmp_path, tmp_path / "native", None, "qubits")
    generic = _digests(tmp_path, tmp_path / "prescott", "Prescott", "qubits")
    below_avx512 = _digests(tmp_path, tmp_path / "no-avx512", None, "qubits", _NO_AVX512)
    assert len(native) == 14  # 5 qubit rotations, 8 separability tests, 1 spin-1/2 rotation
    assert generic == native
    assert below_avx512 == native
