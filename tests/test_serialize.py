import json

import numpy as np
import pytest

from stellar import (
    InputFormatError,
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
    ],
)
def test_state_from_json_rejects_malformed(text):
    with pytest.raises(InputFormatError):
        state_from_json(text)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constellation_to_json_refuses_non_finite(bad):
    c = helpers.make_constellation([(np.pi / 2, 0.0), (bad, 1.0)])
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
    ],
)
def test_constellation_from_json_rejects_malformed(text):
    with pytest.raises(InputFormatError):
        constellation_from_json(text)


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
