"""JSON wire formats for states, constellations, and separability verdicts.

Floats go through Python's shortest-round-trip repr, so writing and reading
back is bit-exact and byte-identical across runs. Output is strict JSON: a
NaN or infinite value raises ValueError instead of being written.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .altsep import SeparabilityVerdict
from .geometry import BlochPoint, Constellation
from .states import PureState, make_pure_state

__all__ = [
    "InputFormatError",
    "state_to_json",
    "state_from_json",
    "constellation_to_json",
    "constellation_from_json",
    "verdict_to_json",
]


class InputFormatError(ValueError):
    """A JSON document does not match the expected wire format."""


def _dump(obj: Any) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def state_to_json(state: PureState) -> str:
    return _dump(
        {
            "n_qubits": state.n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        }
    )


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from exc


def state_from_json(text: str) -> PureState:
    doc = _load(text)
    if not isinstance(doc, dict):
        raise InputFormatError("state document must be a JSON object")
    try:
        n = int(doc["n_qubits"])
        raw = doc["amplitudes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"missing or malformed state field: {exc}") from exc
    if n < 1:
        raise InputFormatError("n_qubits must be a positive integer")
    if not isinstance(raw, list) or len(raw) != 2**n:
        raise InputFormatError(f"expected {2**n} amplitude pairs for n_qubits={n}")
    amps = np.empty(len(raw), dtype=complex)
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputFormatError(f"amplitude {i} must be a [re, im] pair")
        amps[i] = complex(float(pair[0]), float(pair[1]))
    try:
        return make_pure_state(n, amps)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def constellation_to_json(constellation: Constellation) -> str:
    return _dump(
        {
            "expected_size": constellation.expected_size,
            "points": [{"theta": p.theta, "phi": p.phi} for p in constellation.points],
        }
    )


def constellation_from_json(text: str) -> Constellation:
    doc = _load(text)
    if not isinstance(doc, dict):
        raise InputFormatError("constellation document must be a JSON object")
    try:
        size = int(doc["expected_size"])
        raw = doc["points"]
        pts = tuple(BlochPoint(float(p["theta"]), float(p["phi"])) for p in raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"missing or malformed constellation field: {exc}") from exc
    if not np.isfinite([(p.theta, p.phi) for p in pts]).all():
        raise InputFormatError("point angles must be finite")
    try:
        return Constellation(pts, size)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def verdict_to_json(verdict: SeparabilityVerdict) -> str:
    factors = None
    if verdict.factorization is not None:
        f = verdict.factorization
        factors = [[a.real, a.imag, b.real, b.imag] for a, b in f.factors]
    return _dump(
        {
            "separable": verdict.separable,
            "factors": factors,
            "residual": verdict.worst_bipartite_residual,
        }
    )
