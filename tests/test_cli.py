import hashlib
import io
import json
import time
import warnings

import numpy as np
import pytest

import stellar.cli
from stellar import (
    RootFindingError,
    constellation_from_json,
    majorana_constellation,
    majorana_polynomial,
    matching_max_distance,
    PureState,
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


def pipe(capsys, monkeypatch, argv, text):
    """main(argv) with text on stdin, in this process."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, argv)


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
    code, out, _ = pipe(capsys, monkeypatch, ["points", "-"], state_to_json(ent_pair))
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


@pytest.mark.parametrize("angles, degrees", [("0.3,1.1,2.0", []), ("30,100,-45", ["--degrees"])])
def test_rotate_qubits_angles_is_the_same_triple_on_every_qubit(tmp_path, capsys, angles, degrees):
    path = write_state(tmp_path, helpers.random_state(np.random.default_rng(73), 3))
    base = ["rotate", path, "--mode", "qubits"] + degrees
    uniform = run(capsys, base + ["--angles", angles])
    per_qubit = run(capsys, base + ["--angles-per-qubit", ";".join([angles] * 3)])
    assert uniform == per_qubit and uniform[0] == 0 and uniform[1]


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
        ["--mode", "qubits", "--angles", "0,0,0", "--angles-per-qubit", "0,0,0;0,0,0"],
    ],
)
def test_rotate_flag_validation(tmp_path, capsys, product_pair, extra):
    path = write_state(tmp_path, product_pair)
    code, _, err = run(capsys, ["rotate", path] + extra)
    assert code == 2
    assert err.count("error:") == 1 and err.startswith("error:")
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


def check_sep_text(tmp_path, capsys, amplitudes, name):
    """check-sep's exit code, stdout and stderr, with every warning an error."""
    path = write_state(tmp_path, PureState(int(np.log2(len(amplitudes))), amplitudes), name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, ["check-sep", path])


@pytest.mark.parametrize("n", range(2, 11))
def test_check_sep_bytes_do_not_depend_on_a_power_of_two_scale(tmp_path, capsys, n):
    rng = np.random.default_rng(650 + n)
    states = {
        "product": helpers.product_state(helpers.random_amplitudes(rng, 2 * n).reshape(n, 2)),
        "gaussian": helpers.random_state(rng, n),
    }
    for name, state in states.items():
        a = state.amplitudes
        tiny = np.abs(a.view(float))[a.view(float) != 0].min()
        base = check_sep_text(tmp_path, capsys, a, f"{name}.json")
        assert base[0] == 0 and base[2] == ""
        for k in (2, 600, -600, 900, -900):
            # every scaled amplitude stays a normal float, so the scaling is exact
            assert np.abs(a.view(float)).max() * 2.0**k < np.finfo(float).max
            assert tiny * 2.0**k >= np.finfo(float).tiny
            scaled_amplitudes = np.ldexp(a.view(float), k).view(complex)
            scaled = check_sep_text(tmp_path, capsys, scaled_amplitudes, f"{name}{k}.json")
            assert scaled == base, (name, k)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e300, 1e-200, 1e-300, 1e-310])
def test_check_sep_at_extreme_scales(tmp_path, capsys, scale):
    # at 1e200 the factor norms used to overflow to a [0, 0, 0, 0] factor, and at 1e-200
    # they underflowed to a NaN that the JSON writer refused
    product, bell = np.array([1.0, 2.0, 3.0, 6.0]), np.array([1.0, 0.0, 0.0, 1.0])
    code, out, err = check_sep_text(tmp_path, capsys, scale * product, "product.json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["separable"] is True
    expected = [[1 / np.sqrt(5), 0, 2 / np.sqrt(5), 0], [1 / np.sqrt(10), 0, 3 / np.sqrt(10), 0]]
    np.testing.assert_allclose(doc["factors"], expected, rtol=0, atol=1e-13)
    code, out, err = check_sep_text(tmp_path, capsys, scale * bell, "bell.json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["separable"] is False and abs(doc["residual"] - 1.0) <= 1e-15


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


def pipe_fresh(argv, text):
    """text piped into a fresh `python -m stellar.cli` process, so an uncaught
    exception would show as a traceback on stderr."""
    return helpers.fresh_python("-m", "stellar.cli", *argv, stdin=text)


def run_fresh(argv, n_qubits, seed):
    """A seeded state piped into a fresh CLI process."""
    amps = np.random.default_rng(seed).standard_normal((2**n_qubits, 2))
    return pipe_fresh(argv, json.dumps({"n_qubits": n_qubits, "amplitudes": amps.tolist()}))


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.count("error:") == 1 and err.startswith("error:")


@pytest.mark.parametrize("tol", ["1", "2"])
@pytest.mark.parametrize("state", [helpers.bell_pair, lambda: helpers.ghz(3)], ids=["bell", "ghz3"])
def test_check_sep_tolerance_not_below_one_exits_two(state, tol):
    # such a tol would accept every state; it used to end in a ZeroDivisionError traceback
    proc = pipe_fresh(["check-sep", "-", "--tol", tol], state_to_json(state()))
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert "tol" in proc.stderr


ONE_POINT = '"points": [{"theta": 1.0, "phi": 0.5}]'


@pytest.mark.parametrize(
    "argv, text",
    [
        (["points", "-"], '{"n_qubits": 100000000000, "amplitudes": [[1, 0], [0, 1]]}'),
        (["points", "-"], '{"n_qubits": 10000000, "amplitudes": [[1, 0], [0, 1]]}'),
        (["check-sep", "-"], '{"n_qubits": 1.7, "amplitudes": [[1, 0], [0, 1]]}'),
        (["points", "-"], '{"n_qubits": true, "amplitudes": [[1, 0], [0, 1]]}'),
        (["render", "-"], '{"expected_size": 1.7, ' + ONE_POINT + "}"),
        (["render", "-"], '{"expected_size": true, ' + ONE_POINT + "}"),
    ],
    ids=["n=1e11", "n=1e7", "n=1.7", "n=true", "size=1.7", "size=true"],
)
def test_counts_must_be_json_integers(argv, text):
    # 2^n is never formed for a count the amplitudes cannot match
    start = time.perf_counter()
    proc = pipe_fresh(argv, text)
    assert time.perf_counter() - start < 2.0
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert "Exceeds the limit" not in proc.stderr


BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, text",
    [
        (["points"], '{"n_qubits": 1, "amplitudes": [[1, 0], [' + BIG + ", 0]]}"),
        (["check-sep"], '{"n_qubits": 1, "amplitudes": [[1, 0], [0, -' + BIG + "]]}"),
        (["render"], '{"expected_size": 1, "points": [{"theta": 1.0, "phi": ' + BIG + "}]}"),
        (["render", "--point-radius", "inf"], '{"expected_size": 1, ' + ONE_POINT + "}"),
        (["render", "--point-radius", "1e400"], '{"expected_size": 1, ' + ONE_POINT + "}"),
        (["render", "--size", BIG], '{"expected_size": 1, ' + ONE_POINT + "}"),
    ],
    ids=["amplitude", "amplitude-imag", "angle", "radius-inf", "radius-1e400", "size-1e400"],
)
def test_numbers_beyond_float64_exit_two(tmp_path, capsys, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert_one_error_line(*run(capsys, [argv[0], str(path), *argv[1:]]))


DEEP = "[" * 1000 + "]" * 1000
DEEP_STATE = '{"n_qubits": 1, "amplitudes": ' + DEEP + "}"


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ["points", "-", "--encoding", "alt"],
            '{"n_qubits": 1, "amplitudes": [["1.5", true], [0, "-2e0"]]}',
        ),
        (
            ["points", "-", "--encoding", "alt"],
            '{"n_qubits": 1, "amplitudes": [["1.5", 0], [0, 1]]}',
        ),
        (["render", "-"], '{"expected_size": 1, "points": [{"theta": "1.0", "phi": false}]}'),
        (["render", "-"], '{"expected_size": 1, "points": [{"theta": 1.0, "phi": false}]}'),
        # nesting beyond the JSON parser's recursion limit
        (["points", "-"], DEEP),
        (["points", "-"], DEEP_STATE),
        (["render", "-"], DEEP),
        (["check-sep", "-"], DEEP_STATE),
        (["rotate", "-", "--mode", "spin", "--angles", "0,1,2"], DEEP_STATE),
    ],
    ids=[
        "state", "state-string", "constellation", "constellation-phi", "deep-points",
        "deep-points-state", "deep-render", "deep-check-sep", "deep-rotate",
    ],
)
def test_strings_and_booleans_are_not_numbers(argv, text):
    proc = pipe_fresh(argv, text)
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)


def test_ten_qubit_majorana_points_exit_zero_without_traceback():
    proc = run_fresh(["points", "-", "--encoding", "majorana"], 10, 10)
    assert proc.returncode == 0
    assert proc.stderr == ""
    points = helpers.strict_json(proc.stdout)["points"]
    assert len(points) == 1023
    assert all(0.0 < p["theta"] < np.pi for p in points)


@pytest.fixture(scope="module")
def ten_qubit_texts():
    """A 10-qubit Gaussian state (seed 10) and a 10-qubit product state of Gaussian
    factors (seed 9048), each as json.dumps of its [re, im] pairs plus a newline."""
    gaussian = np.random.default_rng(10).standard_normal((1024, 2)).tolist()
    product = helpers.product_state(helpers.product_factors(9048)).amplitudes.tolist()
    product = [[z.real, z.imag] for z in product]
    return tuple(json.dumps({"n_qubits": 10, "amplitudes": a}) + "\n" for a in (gaussian, product))


def strict_indent_2(text):
    """The strict parse of text, which must be the standard library's indent-2
    encoding of that parse."""
    doc = helpers.strict_json(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    return doc


@pytest.mark.parametrize("mode", ["spin", "qubits"])
def test_ten_qubit_rotation_round_trip(capsys, monkeypatch, ten_qubit_texts, mode):
    state = ten_qubit_texts[0]
    rotate = ["rotate", "-", "--mode", mode]
    code, rotated, _ = pipe(capsys, monkeypatch, rotate + ["--angles", "0.3,1.1,2.0"], state)
    assert code == 0
    # the inverse rotation; the = form keeps argparse from reading -2.0,... as a flag
    code, back, _ = pipe(capsys, monkeypatch, rotate + ["--angles=-2.0,-1.1,-0.3"], rotated)
    assert code == 0
    a = np.array(helpers.strict_json(state)["amplitudes"])
    r, b = (np.array(strict_indent_2(text)["amplitudes"]) for text in (rotated, back))
    assert r.shape == (1024, 2), r.shape
    d = b - a
    err = np.hypot(d[:, 0], d[:, 1]).max()
    assert err <= 1e-10, err


@pytest.mark.parametrize(
    "which, encoding",
    [(0, "majorana"), (0, "alt"), (1, "alt")],
    ids=["majorana", "alt", "product-alt"],
)
def test_ten_qubit_points_count_and_render(capsys, monkeypatch, ten_qubit_texts, which, encoding):
    argv, text = ["points", "-", "--encoding", encoding], ten_qubit_texts[which]
    code, out, _ = pipe(capsys, monkeypatch, argv, text)
    assert code == 0
    count = len(strict_indent_2(out)["points"])
    assert count == 1023, count
    code, _, _ = pipe(capsys, monkeypatch, ["render", "-"], out)
    assert code == 0


def test_ten_qubit_check_sep_verdicts(capsys, monkeypatch, ten_qubit_texts):
    verdicts = []
    for text in ten_qubit_texts:
        code, out, _ = pipe(capsys, monkeypatch, ["check-sep", "-"], text)
        assert code == 0
        verdicts.append(strict_indent_2(out))
    entangled, product = verdicts
    assert entangled["separable"] is False and entangled["factors"] is None, entangled
    assert product["separable"] is True, product["residual"]
    assert len(product["factors"]) == 10, len(product["factors"])


def test_eleven_qubit_majorana_points_exits_two_naming_the_limit():
    proc = run_fresh(["points", "-", "--encoding", "majorana"], 11, 11)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1 and proc.stderr.startswith("error:")
    assert "2S <= 1029" in proc.stderr


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


def test_coefficients_near_the_float64_limit_exit_three_with_one_error_line(tmp_path, capsys):
    # every amplitude 1e308: the derivative rows overflow, the iteration fails, and
    # stderr carries the error alone, no numpy RuntimeWarning
    state = helpers.make_pure_state(3, np.full(8, 1e308))
    code, out, err = run(capsys, ["points", write_state(tmp_path, state), "--encoding", "alt"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: root iteration failed") and err.count("\n") == 1


def test_unreachable_tolerance_names_the_rounding_floor(tmp_path, capsys):
    # degree 3 after deflation: the floor is 2 * 3 * eps = 1.332e-15
    state = helpers.make_pure_state(2, [1.1, 2.3, -0.7, 0.9])
    code, out, err = run(capsys, ["points", write_state(tmp_path, state), "--tol", "1e-30"])
    assert code == 3
    assert out == ""
    assert "below the rounding floor 2n eps = 1.332e-15 at degree n = 3" in err


def test_six_qubit_majorana_points_match_reference(tmp_path, capsys):
    # this degree-63 Majorana polynomial once drove the root finder to NaN
    state = helpers.random_state(np.random.default_rng(66), 6)
    path = write_state(tmp_path, state)
    code, out, err = run(capsys, ["points", path, "--encoding", "majorana"])
    assert code == 0
    assert err == ""
    helpers.strict_json(out)
    points = constellation_from_json(out)
    reference = helpers.reference_roots(majorana_polynomial(spin_from_qubits(state)).coefficients)
    assert helpers.max_chordal_mismatch(points, reference) <= 1e-9


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
