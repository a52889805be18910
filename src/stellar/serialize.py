"""JSON wire formats for states, constellations, and separability verdicts.

Floats go through Python's shortest-round-trip repr, so writing and reading
back is bit-exact and byte-identical across runs. Output is strict JSON: a
NaN or infinite value raises ValueError instead of being written.
"""

from __future__ import annotations

import json
import math
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
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nesting level
        raise InputFormatError("JSON nested too deeply to parse") from exc


def _count(doc: dict, key: str) -> int:
    """doc[key], which must be a JSON integer: not a float, not a bool."""
    value = doc[key]
    if type(value) is not int:
        raise InputFormatError(f"{key} must be a JSON integer")
    return value


def _float(value) -> float:
    """value as a float64. It must be a JSON number, not a string or a bool,
    and finite: NaN, infinities and integers beyond float64 are malformed."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InputFormatError(f"expected a finite JSON number, got {value!r:.40}")
    return number


def state_from_json(text: str) -> PureState:
    doc = _load(text)
    if not isinstance(doc, dict):
        raise InputFormatError("state document must be a JSON object")
    try:
        n = _count(doc, "n_qubits")
        raw = doc["amplitudes"]
    except KeyError as exc:
        raise InputFormatError(f"missing state field: {exc}") from exc
    if not isinstance(raw, list):
        raise InputFormatError("amplitudes must be a list of [re, im] pairs")
    amps = np.empty(len(raw), dtype=complex)
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputFormatError(f"amplitude {i} must be a [re, im] pair")
        amps[i] = complex(_float(pair[0]), _float(pair[1]))
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
        size = _count(doc, "expected_size")
        pts = tuple(BlochPoint(_float(p["theta"]), _float(p["phi"])) for p in doc["points"])
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"missing or malformed constellation field: {exc}") from exc
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
