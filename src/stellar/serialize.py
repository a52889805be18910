"""JSON wire formats for states, constellations, and separability verdicts.

Documents are written straight from arrays, byte for byte as the json
module writes them with a two-space indent. Floats go through Python's
shortest-round-trip repr, so writing and reading back is bit-exact and
byte-identical across runs. Output is strict JSON: a NaN or infinite value
raises ValueError instead of being written.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .altsep import SeparabilityVerdict
from .geometry import Constellation
from .states import PureState, _count, make_pure_state

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


def _table(rows: np.ndarray, keys: tuple[str, ...] = ()) -> str:
    """A (n, k) float array as an indent-2 JSON list one level down: each row
    a list of k numbers or, given k keys, an object."""
    if not np.all(np.isfinite(rows)):
        raise ValueError("Out of range float values are not JSON compliant")
    if rows.size == 0:
        return "[]"
    items = [f'"{k}": %s' for k in keys] or ["%s"] * rows.shape[1]
    opening, closing = "{}" if keys else "[]"
    row = f"{opening}\n      " + ",\n      ".join(items) + f"\n    {closing}"
    text = ",\n    ".join([row] * len(rows)) % tuple(map(float.__repr__, rows.ravel().tolist()))
    return "[\n    " + text + "\n  ]"


def _write(fields: dict[str, Any]) -> str:
    """The json module's strict two-space-indented text of fields, plus a
    newline, written directly: a value that is a tuple holds _table's
    arguments, and any other value is a scalar that the compact encoder
    writes."""
    lines = [
        f'  "{key}": '
        + (_table(*value) if isinstance(value, tuple) else json.dumps(value, allow_nan=False))
        for key, value in fields.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def state_to_json(state: PureState) -> str:
    rows = np.stack([state.amplitudes.real, state.amplitudes.imag], 1)
    return _write({"n_qubits": state.n_qubits, "amplitudes": (rows,)})


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nesting level
        raise InputFormatError("JSON nested too deeply to parse") from exc


def _json_count(doc: dict, key: str) -> int:
    """doc[key], which must be a JSON integer: not a float, not a bool."""
    try:
        return _count(doc[key], key)
    except TypeError as exc:
        raise InputFormatError(f"{key} must be a JSON integer") from exc


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
        n = _json_count(doc, "n_qubits")
        raw = doc["amplitudes"]
    except KeyError as exc:
        raise InputFormatError(f"missing state field: {exc}") from exc
    if not isinstance(raw, list):
        raise InputFormatError("amplitudes must be a list of [re, im] pairs")
    # the numbers ahead of the first item that is not a pair are checked first
    bad = next((i for i, p in enumerate(raw) if not isinstance(p, list) or len(p) != 2), None)
    amps = np.array([_float(v) for pair in raw[:bad] for v in pair], dtype=float).view(complex)
    if bad is not None:
        raise InputFormatError(f"amplitude {bad} must be a [re, im] pair")
    try:
        return make_pure_state(n, amps)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def constellation_to_json(constellation: Constellation) -> str:
    angles = np.stack([constellation.thetas, constellation.phis], 1)
    return _write(
        {"expected_size": constellation.expected_size, "points": (angles, ("theta", "phi"))}
    )


def constellation_from_json(text: str) -> Constellation:
    doc = _load(text)
    if not isinstance(doc, dict):
        raise InputFormatError("constellation document must be a JSON object")
    try:
        size = _json_count(doc, "expected_size")
        angles = [(_float(p["theta"]), _float(p["phi"])) for p in doc["points"]]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"missing or malformed constellation field: {exc}") from exc
    thetas, phis = np.array(angles, dtype=float).reshape(-1, 2).T
    try:
        return Constellation._of(thetas, phis, size)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def verdict_to_json(verdict: SeparabilityVerdict) -> str:
    factors = None
    if verdict.factorization is not None:
        f = verdict.factorization
        factors = (np.array([[a.real, a.imag, b.real, b.imag] for a, b in f.factors]),)
    return _write(
        {
            "separable": verdict.separable,
            "factors": factors,
            "residual": verdict.worst_bipartite_residual,
        }
    )
