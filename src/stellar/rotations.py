"""Wigner rotation matrices and their action on states and constellations.

wigner_D(two_S, angles) returns the z-y-z Euler rotation matrix
e^{-i alpha Sz} e^{-i beta Sy} e^{-i gamma Sz} with rows and columns in
descending magnetic order (index 0 carries M = +S), so the spin-1/2 matrix
acts on qubit components (a, b) directly:

    a' = a cos(b/2) e^{-i(alpha+gamma)/2} - b sin(b/2) e^{ i(gamma-alpha)/2}
    b' = a sin(b/2) e^{-i(gamma-alpha)/2} + b cos(b/2) e^{ i(alpha+gamma)/2}

The small-d matrix is I + W diag(expm1(-i beta m)) W^H, W the eigenvectors of
S_y at their exact eigenvalues m = -S..S (Feng, Wang, Yang & Jin, "Exact
computation of the Wigner d-matrix", Phys. Rev. E 92, 043307, 2015).

rotate_spin multiplies a spin state's ascending amplitude vector by this
matrix as stored. Under that action the Majorana points move rigidly by
so3_matrix(angles) = Rz(-alpha) Ry(beta) Rz(-gamma); the z-angle signs are
tied to the qubit-component convention above and are pinned by tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import Constellation, _from_cartesian, to_cartesian
from .states import PureState, SpinState

__all__ = [
    "EulerAngles",
    "wigner_D",
    "wigner_small_d",
    "rotate_spin",
    "rotate_qubits",
    "rotate_qubits_uniform",
    "rotate_separable_components",
    "so3_matrix",
    "euler_from_so3",
    "rotate_constellation",
]


class EulerAngles(NamedTuple):
    """z-y-z Euler triple in radians."""

    alpha: float
    beta: float
    gamma: float


# holds every qubit count 1..10 at once (2S = 2^N - 1, about 11 MB together)
_EIGENVECTOR_CACHE_SIZE = 16


@lru_cache(maxsize=_EIGENVECTOR_CACHE_SIZE)
def _sy_eigenvectors(two_S: int) -> np.ndarray:
    """Read-only eigenvectors of S_y (i^r times those of S_x), eigenvalues -S..S."""
    r = np.arange(1, two_S + 1)
    off = 0.5 * np.sqrt(r * (two_S + 1.0 - r))  # <M+1|S_x|M> at M = S - r
    _, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = (1j ** np.arange(two_S + 1))[:, None] * v
    w.flags.writeable = False
    return w


def wigner_small_d(two_S: int, beta: float) -> np.ndarray:
    """Real small-d matrix d^S_{M'M}(beta), descending M order both ways."""
    if two_S < 1:
        raise ValueError("two_S must be a positive integer")
    if two_S == 1:  # every per-qubit rotation: exact to the rounding of cos and sin
        c, s = np.cos(0.5 * beta), np.sin(0.5 * beta)
        return np.array([[c, -s], [s, c]])
    w = _sy_eigenvectors(two_S)
    m = np.arange(two_S + 1) - 0.5 * two_S
    # I + W diag(expm1) W^H, not W diag(exp) W^H, so beta = 0 gives I exactly
    return np.eye(two_S + 1) + ((w * np.expm1(-1j * beta * m)) @ w.conj().T).real


def wigner_D(two_S: int, angles: EulerAngles) -> np.ndarray:
    """Unitary z-y-z rotation matrix for spin S, descending-M storage."""
    alpha, beta, gamma = angles
    m = 0.5 * (two_S - 2.0 * np.arange(two_S + 1))
    d = wigner_small_d(two_S, beta)
    return np.exp(-1j * alpha * m)[:, None] * d * np.exp(-1j * gamma * m)[None, :]


def rotate_spin(state: SpinState, angles: EulerAngles) -> SpinState:
    """Amplitudes left-multiplied by wigner_D(two_S, angles)."""
    return SpinState(state.two_S, wigner_D(state.two_S, angles) @ state.amplitudes)


def rotate_qubits(state: PureState, per_qubit_angles: list[EulerAngles]) -> PureState:
    """Apply an independent spin-1/2 rotation to each qubit."""
    n = state.n_qubits
    if len(per_qubit_angles) != n:
        raise ValueError(f"need {n} angle triples, got {len(per_qubit_angles)}")
    # axis k of the reshaped tensor is qubit n-1-k (decimal order, bit 0 fastest)
    tensor = state.amplitudes.reshape([2] * n)
    for j, ang in enumerate(per_qubit_angles):
        axis = n - 1 - j
        u = wigner_D(1, EulerAngles(*ang))
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [axis])), 0, axis)
    return PureState(n, tensor.reshape(-1))


def rotate_qubits_uniform(state: PureState, angles: EulerAngles) -> PureState:
    """Same rotation on every qubit."""
    return rotate_qubits(state, [EulerAngles(*angles)] * state.n_qubits)


def rotate_separable_components(a: complex, b: complex, angles: EulerAngles):
    """Spin-1/2 rotation of one qubit factor a|0> + b|1> by wigner_D(1, angles)."""
    if a == 0 and b == 0:
        raise ValueError("zero spinor has no direction")
    a2, b2 = wigner_D(1, angles) @ np.array([a, b], dtype=complex)
    return complex(a2), complex(b2)


def _rz(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def so3_matrix(angles: EulerAngles) -> np.ndarray:
    """Rotation of Cartesian points matching rotate_spin on constellations.

    Equals Rz(-alpha) Ry(beta) Rz(-gamma); the z signs mirror the
    qubit-component phase convention of wigner_D (see module docstring).
    """
    alpha, beta, gamma = angles
    return _rz(-alpha) @ _ry(beta) @ _rz(-gamma)


def euler_from_so3(matrix: np.ndarray) -> EulerAngles:
    """Euler triple with so3_matrix(result) equal to the given rotation."""
    r = np.asarray(matrix, dtype=float)
    # standard z-y-z extraction of Rz(a) Ry(b) Rz(c), then flip the z signs
    beta = float(np.arctan2(np.hypot(r[0, 2], r[1, 2]), r[2, 2]))
    if np.hypot(r[0, 2], r[1, 2]) < 1e-14:
        # gimbal-locked: all z-rotation folded into one angle
        if r[2, 2] < 0:
            a = float(np.arctan2(-r[1, 0], -r[0, 0]))
            return EulerAngles(-a, np.pi, 0.0)
        a = float(np.arctan2(r[1, 0], r[0, 0]))
        return EulerAngles(-a, 0.0, 0.0)
    a = float(np.arctan2(r[1, 2], r[0, 2]))
    c = float(np.arctan2(r[2, 1], -r[2, 0]))
    return EulerAngles(-a, beta, -c)


def rotate_constellation(constellation: Constellation, matrix: np.ndarray) -> Constellation:
    """Move every point by one SO(3) matrix."""
    return _from_cartesian(to_cartesian(constellation) @ np.asarray(matrix, dtype=float).T)
