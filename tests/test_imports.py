"""scipy stays out of the import graph until a point matching needs it.

Each check runs in a fresh interpreter, because the test process itself has
scipy loaded already (the oracles in helpers use it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import stellar
from stellar import (
    constellation_to_json,
    majorana_constellation,
    spin_from_qubits,
    state_to_json,
)

import helpers

_CLI_CALLS = """
import contextlib, io, json, sys
import stellar
from stellar.cli import main

state, constellation, out_dir = sys.argv[1:4]
calls = [
    ["points", state],
    ["points", state, "--encoding", "alt"],
    ["rotate", state, "--mode", "spin", "--angles", "0,1.5707963267948966,0"],
    ["rotate", state, "--mode", "qubits", "--angles", "0,90,0", "--degrees"],
    ["check-sep", state],
    ["render", constellation, "--axes"],
    ["demo", "--out", out_dir],
]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""

_MATCHING = """
import json, sys
import numpy as np
from stellar import BlochPoint, Constellation, matching_max_distance

before = "scipy" in sys.modules
rng = np.random.default_rng(33)
distances = []
for n in (3, 8, 9, 20):
    thetas = np.arccos(rng.uniform(-1, 1, n))
    phis = rng.uniform(0, 2 * np.pi, n)
    pts = [BlochPoint(float(t), float(p)) for t, p in zip(thetas, phis)]
    shuffled = [pts[i] for i in rng.permutation(n)]
    distances.append(matching_max_distance(Constellation(tuple(pts), n),
                                           Constellation(tuple(shuffled), n)))
print(json.dumps({"before": before, "after": "scipy" in sys.modules,
                  "distances": distances}))
"""


def _fresh_python(code: str, *args: str) -> dict:
    src = str(Path(stellar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_subcommands_never_load_scipy(tmp_path):
    pair = helpers.entangled_pair()
    state = tmp_path / "state.json"
    state.write_text(state_to_json(pair))
    constellation = tmp_path / "constellation.json"
    constellation.write_text(
        constellation_to_json(majorana_constellation(spin_from_qubits(pair)))
    )
    demo = tmp_path / "demo"
    result = _fresh_python(_CLI_CALLS, str(state), str(constellation), str(demo))
    assert result["codes"] == [0] * 7
    assert result["scipy"] == []


def test_hungarian_matching_loads_scipy_on_demand():
    result = _fresh_python(_MATCHING)
    assert result["before"] is False
    assert result["after"] is True
    assert np.max(result["distances"]) <= 1e-12
