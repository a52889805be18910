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

At 2S = 1 the closed form, in the private builder behind wigner_D, makes all
the matrices rotate_qubits applies in one vectorised pass, each applied by one
np.einsum, never BLAS; rotate_spin there is that apply. The public wigner_D at
2S = 1 also takes arrays of angles and returns such a stack; no library path
calls that form.
At 2S > 1 one factored formula applies it to real columns, O((2S)^2) each:
rotate_spin applies it to a state, never forming the matrix; wigner_D applies
it to the identity, building every Wigner matrix: wigner_small_d is its real
part at alpha = gamma = 0. Under rotate_spin the Majorana points move rigidly by
so3_matrix(angles), the spin-1/2 matrix's adjoint action on (sx, -sy, sz), whose
-sy is the convention's mirror; rotate_constellation and euler_from_so3 refuse
any matrix that is not a rotation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import Constellation, _from_cartesian, to_cartesian
from .states import PureState, SpinState, _count, _numbers

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
    """z-y-z Euler triple in radians. Every rotation entry point reads the angles by
    states._numbers as real and finite: TypeError for complex or non-numeric angles
    and a malformed triple, ValueError for NaN or inf."""

    alpha: float
    beta: float
    gamma: float


def _euler(angles, shape: tuple = (3,)) -> np.ndarray:
    """The Euler angles as one float64 array of the given shape, where a last
    ... stands for any further axes: (3, ...) is a stack of triples, (...,) any
    shape, tested first (TypeError) so that _numbers reads only a fitting shape."""
    try:
        a = np.asarray(angles)
    except ValueError:  # ragged: an object, refused below as a misfit or by _numbers
        a = np.array(None)
    if not (a.shape == shape or shape[-1:] == (...,) and a.shape[: len(shape) - 1] == shape[:-1]):
        raise TypeError("Euler triple must hold real numbers, three to a triple")
    return _numbers(angles, float, "Euler triple")  # angles, not a: bools in a list still show


# holds every qubit count 1..10 at once (2S = 2^N - 1; complex, 22.4 MB together)
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
    """Real small-d matrix d^S_{M'M}(beta), descending M order both ways. beta is
    read as an Euler angle; at two_S = 1 it may be an array, giving a stack."""
    two_S = _count(two_S, "two_S")
    # at alpha = gamma = 0 both phases are exactly 1, so the real part is d bit for bit
    return _wigner_D(two_S, 0.0, _euler(beta, (...,) if two_S == 1 else ()), 0.0).real


def _small_d_times(two_S: int, beta: float, x: np.ndarray) -> np.ndarray:
    """d^S(beta) @ x for real columns x at 2S > 1, never forming d."""
    w = _sy_eigenvectors(two_S)
    m = np.arange(two_S + 1) - 0.5 * two_S
    # expm1, not exp, so beta = 0 gives x exactly; W^H x = conj(W^T x) as x is real
    return x + (w @ (np.expm1(-1j * beta * m)[:, None] * (w.T @ x).conj())).real


def wigner_D(two_S: int, angles: EulerAngles) -> np.ndarray:
    """Unitary z-y-z rotation matrix for spin S, descending-M storage. At two_S = 1
    the three angles may be arrays of one shape, giving a stack of shape + (2, 2)."""
    two_S = _count(two_S, "two_S")
    return _wigner_D(two_S, *_euler(angles, (3, ...) if two_S == 1 else (3,)))


def _wigner_D(two_S: int, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """wigner_D for angles already read by _euler."""
    if two_S < 1:
        raise ValueError("two_S must be a positive integer")
    if two_S == 1:  # exact to the rounding of cos and sin; beta may be an array
        c, s = np.cos(0.5 * beta), np.sin(0.5 * beta)
        d = np.stack([c, -s, s, c], axis=-1).reshape(np.shape(beta) + (2, 2))
    else:
        d = _small_d_times(two_S, beta, np.eye(two_S + 1))
    m = np.arange(0.5 * two_S, -0.5 * two_S - 1, -1.0)  # M = S, S - 1, ..., -S
    return (np.exp(np.multiply.outer(-1j * alpha, m))[..., :, None] * d
            * np.exp(np.multiply.outer(-1j * gamma, m))[..., None, :])


def rotate_spin(state: SpinState, angles: EulerAngles) -> SpinState:
    """Amplitudes left-multiplied by wigner_D(two_S, angles), applied in the
    factored form of wigner_small_d; the matrix is never formed."""
    two_S = state.two_S
    if two_S == 1:  # one qubit
        return SpinState(1, rotate_qubits(PureState(1, state.amplitudes), [angles]).amplitudes)
    alpha, beta, gamma = _euler(angles)
    m = 0.5 * (two_S - 2.0 * np.arange(two_S + 1))
    # d is real: Re and Im go through as two real columns
    x = (np.exp(-1j * gamma * m) * state.amplitudes).view(float).reshape(-1, 2)
    y = _small_d_times(two_S, beta, x)
    return SpinState(two_S, np.exp(-1j * alpha * m) * y.view(complex)[:, 0])


def rotate_qubits(state: PureState, per_qubit_angles: list[EulerAngles]) -> PureState:
    """Apply an independent spin-1/2 rotation to each qubit."""
    n = state.n_qubits
    if len(per_qubit_angles) != n:
        raise ValueError(f"need {n} angle triples, got {len(per_qubit_angles)}")
    amplitudes = state.amplitudes
    # turn the lowest bit, then move it to the top; n such steps turn bit j by triple j
    for u in _wigner_D(1, *_euler(per_qubit_angles, (n, 3)).T):
        amplitudes = np.einsum("ab,ib->ai", u, amplitudes.reshape(-1, 2)).reshape(-1)
    return PureState(n, amplitudes)


def rotate_qubits_uniform(state: PureState, angles: EulerAngles) -> PureState:
    """Same rotation on every qubit."""
    return rotate_qubits(state, [angles] * state.n_qubits)


def rotate_separable_components(a: complex, b: complex, angles: EulerAngles):
    """Spin-1/2 rotation of one qubit factor a|0> + b|1>: rotate_spin on the
    spin-1/2 state (a, b), which refuses a zero or non-finite pair."""
    return tuple(rotate_spin(SpinState(1, [a, b]), angles).amplitudes.tolist())


_PAULI = np.array([[[0, 1], [1, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]])


def so3_matrix(angles: EulerAngles) -> np.ndarray:
    """Rotation of Cartesian points matching rotate_spin on constellations: the
    action of U = wigner_D(1, angles) on the Pauli vector P = (sx, -sy, sz),
    R_jk = tr(P_j U P_k U^H) / 2, equal to Rz(-alpha) Ry(beta) Rz(-gamma)."""
    u = _wigner_D(1, *_euler(angles))
    return 0.5 * np.einsum("jab,bc,kcd,ad->jk", _PAULI, u, _PAULI, u.conj()).real


# how far from orthogonal with determinant 1 a matrix given as a rotation may be
_SO3_TOL = 1e-10


def _so3(matrix) -> np.ndarray:
    """The matrix as _numbers reads it, of shape (3, 3), if it is a rotation: every entry of
    R^T R - I, and det R - 1, within 1e-10 of zero. Any other such matrix raises ValueError."""
    r = _numbers(matrix, float, "rotation matrix", (3, 3))
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()  # det as the rows' triple product
    det = a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)
    if np.abs(r.T @ r - np.eye(3)).max() <= _SO3_TOL and abs(det - 1.0) <= _SO3_TOL:
        return r
    raise ValueError("not a 3 x 3 rotation matrix (R^T R != I or det R != 1)")


def euler_from_so3(matrix: np.ndarray) -> EulerAngles:
    """Euler triple with so3_matrix(result) equal to the given rotation matrix. A complex
    matrix raises TypeError, and one not a finite 3 x 3 rotation within 1e-10 ValueError."""
    r = _so3(matrix)
    # standard z-y-z extraction of Rz(a) Ry(b) Rz(c), then flip the z signs
    rho = np.hypot(r[0, 2], r[1, 2])
    if rho < 1e-14:  # gimbal-locked: all z-rotation in one angle; s = -1 flips it for beta = pi
        s = -1.0 if r[2, 2] < 0 else 1.0
        a = float(np.arctan2(s * r[1, 0], s * r[0, 0]))
        return EulerAngles(-a, np.pi if s < 0 else 0.0, 0.0)
    beta = float(np.arctan2(rho, r[2, 2]))
    a = float(np.arctan2(r[1, 2], r[0, 2]))
    c = float(np.arctan2(r[2, 1], -r[2, 0]))
    return EulerAngles(-a, beta, -c)


def rotate_constellation(constellation: Constellation, matrix: np.ndarray) -> Constellation:
    """Move every point by one rotation matrix; any other, a mirror say, raises ValueError."""
    return _from_cartesian(to_cartesian(constellation) @ _so3(matrix).T)
