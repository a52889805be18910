"""points, render and demo bytes do not depend on OpenBLAS's kernel.

numpy's OpenBLAS picks its kernels by CPU at start-up, and
OPENBLAS_CORETYPE overrides that choice for one process. The same calls run
in two fresh interpreters, one with the machine's own kernel and one with
Prescott's generic SSE3 kernels, which run on any x86-64 CPU, and every
stdout and demo file must hash the same. rotate and check-sep are left out:
their matrix products and factorizations go through BLAS, and their last
bits do move with the kernel.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stellar
from stellar import state_to_json

import helpers

# run in an empty working directory, so that every argv reads the same in both runs
_CALLS = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from stellar.cli import main

calls = [
    ["points", f"{sys.argv[1]}/state{n}.json", "--encoding", encoding]
    for n in (2, 5, 8)
    for encoding in ("majorana", "alt")
]
calls += [["render", "points.json", "--axes"], ["demo", "--out", "demo"]]
digests = {}
for argv in calls:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    Path("points.json").write_text(out.getvalue())  # the input of the render call
    digests[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
for path in sorted(Path("demo").iterdir()):
    digests[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


def _digests(inputs: Path, work: Path, coretype: str | None) -> dict:
    src = str(Path(stellar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    work.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _CALLS, str(inputs)],
        cwd=work,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="Prescott is an x86-64 OpenBLAS kernel",
)
def test_points_render_and_demo_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    rng = np.random.default_rng(2020)
    for n in (2, 5, 8):
        (tmp_path / f"state{n}.json").write_text(state_to_json(helpers.random_state(rng, n)))
    native = _digests(tmp_path, tmp_path / "native", None)
    generic = _digests(tmp_path, tmp_path / "prescott", "Prescott")
    assert len(native) == 8 + 13  # the 8 calls and the 13 files demo writes
    assert generic == native
