import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stellar.cli
from stellar import (
    RootFindingError,
    constellation_from_json,
    majorana_constellation,
    matching_max_distance,
    spin_from_qubits,
    state_from_json,
    state_to_json,
)
from stellar.cli import main

import helpers


def write_state(tmp_path, state, name="state.json"):
    path = tmp_path / name
    path.write_text(state_to_json(state))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_points_majorana_matches_library(tmp_path, capsys, ent_pair):
    path = write_state(tmp_path, ent_pair)
    code, out, _ = run(capsys, ["points", path])
    assert code == 0
    c = constellation_from_json(out)
    expected = majorana_constellation(spin_from_qubits(ent_pair))
    assert matching_max_distance(c, expected) <= 1e-12


def test_points_alt_encoding(tmp_path, capsys, ent_pair, product_pair):
    path = write_state(tmp_path, product_pair)
    code, out, _ = run(capsys, ["points", path, "--encoding", "alt"])
    assert code == 0
    alt_of_product = constellation_from_json(out)
    majorana_of_entangled = majorana_constellation(spin_from_qubits(ent_pair))
    assert matching_max_distance(alt_of_product, majorana_of_entangled) <= 1e-9


def test_points_reads_stdin(tmp_path, capsys, monkeypatch, ent_pair):
    monkeypatch.setattr("sys.stdin", io.StringIO(state_to_json(ent_pair)))
    code, out, _ = run(capsys, ["points", "-"])
    assert code == 0
    assert constellation_from_json(out).expected_size == 3


def test_points_output_is_byte_stable(tmp_path, capsys, ent_pair):
    path = write_state(tmp_path, ent_pair)
    _, first, _ = run(capsys, ["points", path])
    _, second, _ = run(capsys, ["points", path])
    assert first == second


def test_rotate_spin_disentangles(tmp_path, capsys, ent_pair):
    path = write_state(tmp_path, ent_pair)
    code, out, _ = run(
        capsys, ["rotate", path, "--mode", "spin", "--angles", "0,1.5707963267948966,0"]
    )
    assert code == 0
    rotated = write_state(tmp_path, state_from_json(out), "rotated.json")
    code, verdict_out, _ = run(capsys, ["check-sep", rotated])
    assert code == 0
    assert json.loads(verdict_out)["separable"] is True


@pytest.mark.parametrize("n", [7, 8])
def test_rotate_spin_on_many_qubits_matches_expm(tmp_path, capsys, n):
    state = helpers.random_state(np.random.default_rng(70 + n), n)
    path = write_state(tmp_path, state)
    code, out, err = run(capsys, ["rotate", path, "--mode", "spin", "--angles", "0.3,1.1,2.0"])
    assert (code, err) == (0, "")

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    doc = json.loads(out, parse_constant=reject)
    got = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    oracle = helpers.expm_rotation(2**n - 1, (0.3, 1.1, 2.0)) @ state.amplitudes
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)


def test_rotate_qubits_uniform_quarter_turn(tmp_path, capsys, product_pair):
    path = write_state(tmp_path, product_pair)
    code, out, _ = run(
        capsys, ["rotate", path, "--mode", "qubits", "--angles", "0,1.5707963267948966,0"]
    )
    assert code == 0
    amps = state_from_json(out).amplitudes
    np.testing.assert_allclose(amps, [0, 0, 0, 2], atol=1e-12)


def test_rotate_degrees_flag(tmp_path, capsys, product_pair):
    path = write_state(tmp_path, product_pair)
    _, radians_out, _ = run(
        capsys, ["rotate", path, "--mode", "qubits", "--angles", "0,1.5707963267948966,0"]
    )
    _, degrees_out, _ = run(
        capsys, ["rotate", path, "--mode", "qubits", "--angles", "0,90,0", "--degrees"]
    )
    a = state_from_json(radians_out).amplitudes
    b = state_from_json(degrees_out).amplitudes
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_rotate_per_qubit_angles(tmp_path, capsys, product_pair):
    path = write_state(tmp_path, product_pair)
    code, out, _ = run(
        capsys,
        [
            "rotate",
            path,
            "--mode",
            "qubits",
            "--angles-per-qubit",
            "0,1.5707963267948966,0;0,0,0",
        ],
    )
    assert code == 0
    amps = state_from_json(out).amplitudes
    # only qubit 0 turned: (1,1) -> (0, sqrt(2)) on the low bit
    np.testing.assert_allclose(amps, [0, np.sqrt(2), 0, np.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize(
    "extra",
    [
        ["--mode", "spin"],  # spin without --angles
        ["--mode", "spin", "--angles", "1,2"],  # not a triple
        ["--mode", "spin", "--angles", "a,b,c"],  # not numbers
        ["--mode", "qubits"],  # neither angle form
        ["--mode", "qubits", "--angles-per-qubit", "0,0,0"],  # wrong count
        ["--mode", "spin", "--angles", "0,0,0", "--angles-per-qubit", "0,0,0;0,0,0"],
        ["--mode", "spin", "--angles", "inf,0,0"],  # not finite
        ["--mode", "qubits", "--angles", "nan,0,0"],  # not finite
    ],
)
def test_rotate_flag_validation(tmp_path, capsys, product_pair, extra):
    path = write_state(tmp_path, product_pair)
    code, _, err = run(capsys, ["rotate", path] + extra)
    assert code == 2
    assert "error:" in err
    # a bad flag is reported as such, not as a defect of the rotated state
    assert "identically zero" not in err


def test_check_sep_verdicts(tmp_path, capsys, ent_pair):
    ghz_path = write_state(tmp_path, helpers.ghz(3), "ghz.json")
    code, out, _ = run(capsys, ["check-sep", ghz_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["separable"] is False and doc["factors"] is None

    ent_path = write_state(tmp_path, ent_pair, "ent.json")
    code, out, _ = run(capsys, ["check-sep", ent_path, "--tol", "0.5"])
    assert code == 0
    # a sloppy tolerance accepts the near-threshold split
    assert json.loads(out)["separable"] is True


def test_malformed_state_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_qubits": 2}')
    code, _, err = run(capsys, ["points", str(bad)])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("encoding", ["majorana", "alt"])
def test_non_finite_amplitude_exits_two(tmp_path, capsys, encoding):
    bad = tmp_path / "nan.json"
    bad.write_text('{"n_qubits": 2, "amplitudes": [[1, 0], [NaN, 0], [0, 0], [1, 0]]}')
    code, out, err = run(capsys, ["points", str(bad), "--encoding", encoding])
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")


def test_ten_qubit_majorana_points_exits_three_without_traceback():
    # a fresh process, so an uncaught exception would show as a traceback on stderr
    amps = np.random.default_rng(10).standard_normal((1024, 2))
    doc = json.dumps({"n_qubits": 10, "amplitudes": amps.tolist()})
    src = str(Path(stellar.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stellar.cli", "points", "-", "--encoding", "majorana"],
        input=doc, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error:")


@pytest.mark.parametrize("command", ["points", "check-sep"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, command, tol):
    path = write_state(tmp_path, helpers.bell_pair())
    code, out, err = run(capsys, [command, path, "--tol", tol])
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, ["points", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in err


def test_root_finder_failure_exits_three(tmp_path, capsys, monkeypatch, ent_pair):
    path = write_state(tmp_path, ent_pair)

    def explode(state, encoding, tol):
        raise RootFindingError("gave up", np.zeros(0, dtype=complex), 0.5)

    monkeypatch.setattr(stellar.cli, "_constellation_for", explode)
    code, _, err = run(capsys, ["points", path])
    assert code == 3
    assert "best residual" in err


def test_unreachable_tolerance_exits_three(tmp_path, capsys):
    state = helpers.make_pure_state(2, [1.1, 2.3, -0.7, 0.9])
    path = write_state(tmp_path, state)
    code, _, err = run(capsys, ["points", path, "--tol", "1e-30"])
    assert code == 3
    assert "error:" in err


def test_six_qubit_majorana_nan_roots_exit_three(tmp_path, capsys):
    # the degree-63 Majorana polynomial of a random 6-qubit state drives the
    # root finder to NaN; that must fail the residual contract, not print NaN
    state = helpers.random_state(np.random.default_rng(66), 6)
    path = write_state(tmp_path, state)
    code, out, err = run(capsys, ["points", path, "--encoding", "majorana"])
    assert code == 3
    assert out == ""
    assert "best residual" in err


def test_render_from_points_pipeline(tmp_path, capsys, ent_pair):
    path = write_state(tmp_path, ent_pair)
    _, points_json, _ = run(capsys, ["points", path])
    cpath = tmp_path / "constellation.json"
    cpath.write_text(points_json)
    code, svg, _ = run(capsys, ["render", str(cpath), "--size", "480", "--axes"])
    assert code == 0
    assert svg.startswith("<svg ") and svg.count("<circle") == 4
    code2, svg2, _ = run(capsys, ["render", str(cpath), "--size", "480", "--axes"])
    assert svg == svg2


def test_render_rejects_undersized_canvas(tmp_path, capsys, ent_pair):
    path = write_state(tmp_path, ent_pair)
    _, points_json, _ = run(capsys, ["points", path])
    cpath = tmp_path / "c.json"
    cpath.write_text(points_json)
    code, _, err = run(capsys, ["render", str(cpath), "--size", "63"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_render_rejects_non_finite_angles(tmp_path, capsys, bad):
    cpath = tmp_path / "c.json"
    cpath.write_text(
        f'{{"expected_size": 2, "points": [{{"theta": {bad}, "phi": 0.0}}, '
        '{"theta": 1.0, "phi": 0.5}]}'
    )
    code, out, err = run(capsys, ["render", str(cpath)])
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1


def test_demo_writes_all_panels(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    code, out, _ = run(capsys, ["demo", "--out", str(out_dir)])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    expected = sorted(
        [f"figure-{row}{label}.svg" for row in "12" for label in "abcdef"]
        + ["summary.txt"]
    )
    assert names == expected

    summary = (out_dir / "summary.txt").read_text()
    assert summary == out
    assert "separable states: (b), (d), (e), (f); entangled states: (a), (c)" in summary
    # per-panel verdict lines
    assert "(a) entangled reference state: entangled" in summary
    assert "(b) collective spin rotation of (a): separable" in summary
    assert "(c) per-qubit rotation of (a): entangled" in summary
    for label in "def":
        assert f"({label}) " in summary

    # all alternative-encoding points of the twice-rotated product sit at the pole
    fig_2f = (out_dir / "figure-2f.svg").read_text()
    assert "&#215;3" in fig_2f


def test_demo_is_reproducible(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    run(capsys, ["demo", "--out", str(first)])
    run(capsys, ["demo", "--out", str(second)])
    for p in first.iterdir():
        assert p.read_bytes() == (second / p.name).read_bytes()


# sha256 of every demo file, so any change that moves a printed digit or an
# SVG byte fails here. The printed angles sit far from rounding edges, the
# poles are exactly 0, and limb points (depth +-1e-16 in the front view) are
# drawn near whatever the sign of their rounding error, so the digests hold
# across machines. Re-record an entry only for a deliberate change of output.
DEMO_DIGESTS = {
    "figure-1a.svg": "454d26e8850b77641e8b5013a62176b106db87b123b294bff76fab30d95c9cfc",
    "figure-1b.svg": "0d0ff46e9bfeb1ee2d9d087822a17173b1417f845678f64bb129c246a0f773be",
    "figure-1c.svg": "c5dc92ec3466dac01603d37981ce793ad739bf1ee5780bf668c9eed0db1f0754",
    "figure-1d.svg": "697bbc28a046131cfe63a541c9718c6474ce2d882f584c14d408bc9f1788d929",
    "figure-1e.svg": "940611e7fca54192d82a158339d8da877bb88f558a57053471c4ada4d7d753a1",
    "figure-1f.svg": "c6b0fcc2f1ebd0860165cdd246b2618f5d5bd8b36bcf0697281ba43cbeb3e827",
    "figure-2a.svg": "d0a3d38b7d58945774f91dfd2e6c2d6e633e1d1ac2b0a8459fd418f4d5d3241a",
    "figure-2b.svg": "9c0438575180ace6b7aa86588d5406923dbe79bba30f85cf92762a9bf4d3fcf7",
    "figure-2c.svg": "c5dc92ec3466dac01603d37981ce793ad739bf1ee5780bf668c9eed0db1f0754",
    "figure-2d.svg": "454d26e8850b77641e8b5013a62176b106db87b123b294bff76fab30d95c9cfc",
    "figure-2e.svg": "368a9e12dc7046f296bcde7c2750084b30f1efda7abd2c3db76865cd9298d8ce",
    "figure-2f.svg": "c6b0fcc2f1ebd0860165cdd246b2618f5d5bd8b36bcf0697281ba43cbeb3e827",
    "summary.txt": "6557c1ec0057707a68da1e7a71caaa969b3ce32a7ff8023385ac729d815f8db5",
}


def test_demo_matches_recorded_digests(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    code, out, _ = run(capsys, ["demo", "--out", str(out_dir)])
    assert code == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()
    }
    assert digests == DEMO_DIGESTS
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_DIGESTS["summary.txt"]
