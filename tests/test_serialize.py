import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stellar import (
    BlochPoint,
    Constellation,
    InputFormatError,
    SeparabilityVerdict,
    SeparableFactorization,
    constellation_from_json,
    constellation_to_json,
    decide_separability,
    state_from_json,
    state_to_json,
    verdict_to_json,
)

import helpers


def test_state_round_trip_is_bit_exact():
    rng = np.random.default_rng(81)
    state = helpers.random_state(rng, 3)
    back = state_from_json(state_to_json(state))
    assert back.n_qubits == 3
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_state_round_trip_awkward_values():
    amps = [np.pi, 1.0 / 3.0, 1e-300, -7.25e200]
    state = helpers.make_pure_state(2, amps)
    back = state_from_json(state_to_json(state))
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_signed_zeros_and_subnormals_parse_bit_exactly():
    tiny = [0.0, -0.0, 5e-324, -2.5e-310]
    state = helpers.make_pure_state(2, [complex(1.0, t) for t in tiny])
    back = state_from_json(state_to_json(state))
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()
    c = helpers.make_constellation([(5e-324, -0.0), (2.5e-310, 0.0), (np.pi, -0.0)])
    back = constellation_from_json(constellation_to_json(c))
    angles = lambda c: np.array([(p.theta, p.phi) for p in c.points]).tobytes()
    assert angles(back) == angles(c)


def test_state_json_shape():
    doc = json.loads(state_to_json(helpers.entangled_pair()))
    assert set(doc) == {"n_qubits", "amplitudes"}
    assert doc["n_qubits"] == 2
    assert len(doc["amplitudes"]) == 4
    assert all(len(pair) == 2 for pair in doc["amplitudes"])


def test_state_json_deterministic():
    state = helpers.balanced_product()
    assert state_to_json(state) == state_to_json(state)
    assert state_to_json(state).endswith("\n")


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"amplitudes": [[1, 0], [0, 0]]}',
        '{"n_qubits": 0, "amplitudes": []}',
        '{"n_qubits": 1, "amplitudes": [[1, 0]]}',
        '{"n_qubits": 1, "amplitudes": [[1, 0], [0]]}',
        '{"n_qubits": 1, "amplitudes": [[1, 0], 5]}',
        '{"n_qubits": 1, "amplitudes": [[0, 0], [0, 0]]}',
        '{"n_qubits": "two", "amplitudes": [[1, 0], [0, 0]]}',
        # counts are JSON integers, checked without forming 2^n
        '{"n_qubits": 1.7, "amplitudes": [[1, 0], [0, 0]]}',
        '{"n_qubits": true, "amplitudes": [[1, 0], [0, 0]]}',
        '{"n_qubits": 100000000000, "amplitudes": [[1, 0], [0, 0]]}',
        # an integer literal beyond float64
        pytest.param(
            '{"n_qubits": 1, "amplitudes": [[1, 0], [1' + "0" * 400 + ", 0]]}",
            id="401-digit real part",
        ),
        pytest.param(
            '{"n_qubits": 1, "amplitudes": [[1, 0], [0, -1' + "0" * 400 + "]]}",
            id="401-digit imaginary part",
        ),
        # numbers are JSON numbers: not strings, not booleans
        '{"n_qubits": 1, "amplitudes": [["1.5", true], [0, "-2e0"]]}',
        '{"n_qubits": 1, "amplitudes": [[1, 0], ["0.5", 0]]}',
        '{"n_qubits": 1, "amplitudes": [[1, 0], [0, false]]}',
    ],
)
def test_state_from_json_rejects_malformed(text):
    with pytest.raises(InputFormatError):
        state_from_json(text)


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        ('[[1, 0], [0], ["x", 0]]', "amplitude 1 must be a [re, im] pair"),
        ('[[0], ["x", 0]]', "amplitude 0 must be a [re, im] pair"),
        ('[[1, 0], [1, 2, 3]]', "amplitude 1 must be a [re, im] pair"),
        ('[[1, 0], "ab"]', "amplitude 1 must be a [re, im] pair"),
        ('[[1, 0], {"re": 1, "im": 0}]', "amplitude 1 must be a [re, im] pair"),
        ('[[1, 0], 7, ["x", 0]]', "amplitude 1 must be a [re, im] pair"),
        # a bad number ahead of the first item that is not a pair is named first
        ('[["x", 0], [0]]', "expected a finite JSON number, got 'x'"),
        ('[[1, 0], [0, true], 5]', "expected a finite JSON number, got True"),
        ('[[1, NaN], [0, "y"]]', "expected a finite JSON number, got nan"),
        # amplitudes that is not a list at all
        ("5", "amplitudes must be a list of [re, im] pairs"),
        ('"ab"', "amplitudes must be a list of [re, im] pairs"),
        ('{"re": 1}', "amplitudes must be a list of [re, im] pairs"),
    ],
)
def test_state_from_json_names_the_first_malformed_item(amplitudes, message):
    with pytest.raises(InputFormatError) as info:
        state_from_json('{"n_qubits": 1, "amplitudes": ' + amplitudes + "}")
    assert str(info.value) == message


def test_constellation_round_trip_is_bit_exact():
    rng = np.random.default_rng(82)
    pts = [
        (np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi)) for _ in range(7)
    ]
    c = helpers.make_constellation(pts)
    back = constellation_from_json(constellation_to_json(c))
    assert back.expected_size == 7
    assert back.points == c.points


def test_constellation_json_shape():
    c = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    doc = json.loads(constellation_to_json(c))
    assert set(doc) == {"expected_size", "points"}
    assert doc["expected_size"] == 3
    assert all(set(p) == {"theta", "phi"} for p in doc["points"])


def _constellation_holding(pairs):
    # Constellation refuses non-finite angles, so put them in past the check
    c = Constellation.__new__(Constellation)
    thetas, phis = np.array(pairs, dtype=float).T
    c.__dict__.update(thetas=thetas, phis=phis, expected_size=len(pairs))
    return c


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constellation_to_json_refuses_non_finite(bad):
    c = _constellation_holding([(np.pi / 2, 0.0), (bad, 1.0)])
    with pytest.raises(ValueError):
        constellation_to_json(c)


@pytest.mark.parametrize(
    "text",
    [
        "{",
        "42",
        '{"points": []}',
        '{"expected_size": 2, "points": [{"theta": 0.0, "phi": 0.0}]}',
        '{"expected_size": 1, "points": [{"theta": 0.0}]}',
        '{"expected_size": 1, "points": [[0.0, 0.0]]}',
        '{"expected_size": 2, "points": [{"theta": NaN, "phi": 0.0}, '
        '{"theta": 1.0, "phi": 0.0}]}',
        '{"expected_size": 1, "points": [{"theta": 1.0, "phi": Infinity}]}',
        '{"expected_size": 1, "points": [{"theta": -Infinity, "phi": 0.0}]}',
        '{"expected_size": 1.0, "points": [{"theta": 1.0, "phi": 0.0}]}',
        '{"expected_size": true, "points": [{"theta": 1.0, "phi": 0.0}]}',
        '{"expected_size": "1", "points": [{"theta": 1.0, "phi": 0.0}]}',
        pytest.param(
            '{"expected_size": 1, "points": [{"theta": 1' + "0" * 400 + ', "phi": 0.0}]}',
            id="401-digit theta",
        ),
        '{"expected_size": 1, "points": [{"theta": "1.0", "phi": false}]}',
        '{"expected_size": 1, "points": [{"theta": "1.0", "phi": 0.0}]}',
        '{"expected_size": 1, "points": [{"theta": 1.0, "phi": true}]}',
    ],
)
def test_constellation_from_json_rejects_malformed(text):
    with pytest.raises(InputFormatError):
        constellation_from_json(text)


def test_empty_constellation_loads():
    c = constellation_from_json('{"expected_size": 0, "points": []}')
    assert c.expected_size == 0 and c.points == ()


def test_verdict_json_for_separable_state():
    doc = json.loads(verdict_to_json(decide_separability(helpers.balanced_product())))
    assert set(doc) == {"separable", "factors", "residual"}
    assert doc["separable"] is True
    assert len(doc["factors"]) == 2
    assert all(len(row) == 4 for row in doc["factors"])
    assert doc["residual"] <= 1e-12


def test_verdict_json_for_entangled_state():
    doc = json.loads(verdict_to_json(decide_separability(helpers.bell_pair())))
    assert doc["separable"] is False
    assert doc["factors"] is None
    assert doc["residual"] == pytest.approx(1.0)


# floats the writers must spell as the standard library does: signed zero,
# the smallest subnormal, the largest decades and whole numbers
WIRE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e16]),
    st.integers(-(2**60), 2**60).map(float),
)
WRITER_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@WRITER_SETTINGS
@given(st.lists(st.tuples(WIRE_FLOATS, WIRE_FLOATS), max_size=64))
def test_constellation_writer_matches_json_dumps(pairs):
    c = Constellation(tuple(BlochPoint(t, p) for t, p in pairs), len(pairs))
    doc = {"expected_size": len(pairs), "points": [{"theta": t, "phi": p} for t, p in pairs]}
    assert constellation_to_json(c) == helpers.json_dumps_oracle(doc)


@WRITER_SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(WIRE_FLOATS, WIRE_FLOATS), min_size=2**n, max_size=2**n)
)))
def test_state_writer_matches_json_dumps(drawn):
    n, pairs = drawn
    assume(any(re or im for re, im in pairs))
    state = helpers.make_pure_state(n, [complex(re, im) for re, im in pairs])
    doc = {"n_qubits": n, "amplitudes": [list(pair) for pair in pairs]}
    assert state_to_json(state) == helpers.json_dumps_oracle(doc)


@WRITER_SETTINGS
@given(st.lists(st.tuples(*[WIRE_FLOATS] * 4), max_size=64), WIRE_FLOATS)
def test_verdict_writer_matches_json_dumps(rows, residual):
    factors = tuple((complex(a, b), complex(c, d)) for a, b, c, d in rows)
    split = SeparableFactorization(factors, 1.0) if rows else None
    verdict = SeparabilityVerdict(bool(rows), split, residual)
    doc = {"separable": bool(rows), "factors": [list(r) for r in rows] or None,
           "residual": residual}
    assert verdict_to_json(verdict) == helpers.json_dumps_oracle(doc)


def _state_holding(bad):
    # PureState refuses non-finite amplitudes, so put one in past the check
    state = helpers.balanced_product()
    object.__setattr__(state, "amplitudes", np.array([1.0, complex(0.0, bad), 1.0, 1.0]))
    return state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "write",
    [
        lambda bad: constellation_to_json(_constellation_holding([(1.0, 0.5), (0.2, bad)])),
        lambda bad: state_to_json(_state_holding(bad)),
        lambda bad: verdict_to_json(SeparabilityVerdict(False, None, bad)),
        lambda bad: verdict_to_json(
            SeparabilityVerdict(True, SeparableFactorization(((1.0, complex(bad, 0.0)),), 1.0), 0.0)
        ),
    ],
    ids=["constellation", "state", "verdict-residual", "verdict-factor"],
)
def test_writers_refuse_non_finite(write, bad):
    with pytest.raises(ValueError):
        write(bad)
