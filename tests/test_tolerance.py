"""One rule for every tolerance: a real number in [0, 1), read by states._tolerance.

Each tol bounds a ratio that lies in [0, 1]: a root's relative backward error, the
Cauchy-Schwarz defect of two rays, a cut's singular-value ratio s1/s0. A negative tol
would accept nothing and one of 1 or more everything, so both are bad arguments.
"""

import pytest

from stellar import (
    ComplexPolynomial,
    RootFindingError,
    alt_constellation,
    decide_separability,
    find_roots,
    majorana_constellation,
    rays_equal,
    spin_from_qubits,
    state_to_json,
)
from stellar.cli import main

import helpers

# every public entry point that takes a tol, called on an input it accepts at the default
TAKES_TOL = {
    "find_roots": lambda tol: find_roots(ComplexPolynomial([1.0, 2.0, 3.0]), tol=tol),
    "majorana_constellation": lambda tol: majorana_constellation(
        spin_from_qubits(helpers.bell_pair()), tol
    ),
    "alt_constellation": lambda tol: alt_constellation(helpers.bell_pair(), tol),
    "decide_separability": lambda tol: decide_separability(helpers.bell_pair(), tol),
    "rays_equal": lambda tol: rays_equal([1.0, 0.0], [1.0, 0.5], tol=tol),
}
COMMANDS = {
    "points": ["points"],
    "points-alt": ["points", "--encoding", "alt"],
    "check-sep": ["check-sep"],
}
OUTSIDE = pytest.mark.parametrize("tol", [-1e-300, -1.0, 1.0, 1.5])
NON_FINITE = pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
INSIDE = pytest.mark.parametrize("tol", [0.0, -0.0, 0.5])


def cli(tmp_path, capsys, argv, tol):
    """Exit code, stdout and stderr of the subcommand on a Bell pair at --tol=tol."""
    path = tmp_path / "state.json"
    path.write_text(state_to_json(helpers.bell_pair()))
    # --tol=v, as argparse reads "-1e-300" after a bare --tol as an option
    code = main([*argv, str(path), f"--tol={tol!r}"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("call", TAKES_TOL.values(), ids=TAKES_TOL.keys())
@OUTSIDE
def test_a_tolerance_outside_the_unit_interval_is_refused(call, tol):
    with pytest.raises(ValueError, match=r"^tol must lie in \[0, 1\), got "):
        call(tol)


@pytest.mark.parametrize("call", TAKES_TOL.values(), ids=TAKES_TOL.keys())
@NON_FINITE
def test_a_non_finite_tolerance_is_refused(call, tol):
    with pytest.raises(ValueError, match="^tol has a non-finite entry"):
        call(tol)


@pytest.mark.parametrize("call", TAKES_TOL.values(), ids=TAKES_TOL.keys())
@INSIDE
def test_a_tolerance_in_the_unit_interval_is_accepted(call, tol):
    try:
        call(tol)
    except RootFindingError as exc:  # a real tolerance, below the rounding floor 2n eps
        assert tol == 0 and "rounding floor" in str(exc)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
@OUTSIDE
def test_the_cli_refuses_a_tolerance_outside_the_unit_interval(tmp_path, capsys, argv, tol):
    code, out, err = cli(tmp_path, capsys, argv, tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: tol must lie in [0, 1), got ") and err.count("error:") == 1


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
@NON_FINITE
def test_the_cli_refuses_a_non_finite_tolerance(tmp_path, capsys, argv, tol):
    code, out, err = cli(tmp_path, capsys, argv, tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: tol has a non-finite entry") and err.count("error:") == 1


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
@INSIDE
def test_the_cli_accepts_a_tolerance_in_the_unit_interval(tmp_path, capsys, argv, tol):
    code, out, err = cli(tmp_path, capsys, argv, tol)
    if code == 3:  # points below the rounding floor, as find_roots above
        assert tol == 0 and argv[0] == "points" and "rounding floor" in err and out == ""
    else:
        assert (code, err) == (0, "") and out
