"""No stellar call loads scipy, point matching included, and the package does
not depend on it: scipy is a test oracle only.

Each check runs in a fresh interpreter, because the test process itself has
scipy loaded already (the oracles in helpers use it).
"""

import re
from pathlib import Path

import numpy as np

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
from stellar import BlochPoint, Constellation, match_constellations, matching_max_distance

rng = np.random.default_rng(33)
distances = []
for n in (0, 3, 8, 9, 20, 255):
    thetas = np.arccos(rng.uniform(-1, 1, n))
    phis = rng.uniform(0, 2 * np.pi, n)
    pts = [BlochPoint(float(t), float(p)) for t, p in zip(thetas, phis)]
    shuffle = rng.permutation(n)
    a, b = Constellation(tuple(pts), n), Constellation(tuple(pts[i] for i in shuffle), n)
    assert (shuffle[match_constellations(a, b)] == np.arange(n)).all()
    distances.append(matching_max_distance(a, b))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"scipy": scipy, "distances": distances}))
"""


def test_cli_subcommands_never_load_scipy(tmp_path):
    pair = helpers.entangled_pair()
    state = tmp_path / "state.json"
    state.write_text(state_to_json(pair))
    constellation = tmp_path / "constellation.json"
    constellation.write_text(
        constellation_to_json(majorana_constellation(spin_from_qubits(pair)))
    )
    demo = tmp_path / "demo"
    result = helpers.fresh_json(_CLI_CALLS, str(state), str(constellation), str(demo))
    assert result["codes"] == [0] * 7
    assert result["scipy"] == []


def test_matching_never_loads_scipy():
    result = helpers.fresh_json(_MATCHING)
    assert result["scipy"] == []
    assert np.max(result["distances"]) <= 1e-12


def test_scipy_is_not_a_dependency():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (dependencies,) = re.findall(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', dependencies) == ["numpy"]
