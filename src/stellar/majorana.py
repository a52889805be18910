"""Majorana encoding: spin states as point constellations on the sphere.

A spin-S state with amplitudes a_m (M = m - S ascending) is encoded as

    P(x) = sum_m sqrt(binom(2S, m)) a_m x^m,

whose 2S roots, sent through tan(theta/2) e^{i phi} = x, are the state's
points. A drop of l in the actual degree contributes l south-pole points.
The inverse direction builds a state from 2S spinors (alpha |+> + beta |->):
the coefficient of x^m in prod_k (alpha_k x + beta_k), divided by the square
root of the binomial weight, is the amplitude at M = m - S, up to one free
overall scale. The product is expanded in place, one factor at a time, in
one array of 2S + 1 coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import BlochPoint, Constellation, points_from_roots
from .polyroots import DEFAULT_ROOT_TOL, ComplexPolynomial, find_roots
from .states import PureState, SpinState, spin_from_qubits

__all__ = [
    "Spinor",
    "sqrt_binomials",
    "majorana_polynomial",
    "qubit_majorana_polynomial",
    "state_from_spinors",
    "spinor_for_point",
    "majorana_constellation",
    "state_from_constellation",
]


class Spinor(NamedTuple):
    """Single spin-1/2 component: alpha on |+>, beta on |->."""

    alpha: complex
    beta: complex


# binom(1030, 515) is the first central binomial beyond the float64 range
_MAX_TWO_S = 1029


@lru_cache(maxsize=64)
def sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(binom(n, k)) for k = 0..n: exact integer binomials, each rounded
    once. The row is cached per n and returned read-only."""
    if n > _MAX_TWO_S:
        raise ValueError(
            f"Majorana weights need 2S <= {_MAX_TWO_S} to fit float64; got 2S = {n}"
        )
    row, c = [1.0], 1
    for k in range(n):
        c = c * (n - k) // (k + 1)
        row.append(float(c))
    row = np.sqrt(row)
    row.flags.writeable = False
    return row


@dataclass(frozen=True, eq=False)
class _MajoranaPolynomial(ComplexPolynomial):
    """A Majorana polynomial that keeps the amplitudes its ends are judged on."""

    amplitudes: np.ndarray

    def _deflation_sizes(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    def __reduce__(self):  # rebuilt from a checked state, so both arrays are read-only
        return majorana_polynomial, (SpinState(self.nominal_degree, self.amplitudes),)


def majorana_polynomial(state: SpinState) -> ComplexPolynomial:
    """Coefficients sqrt(binom(2S, m)) * amplitudes[m], low order first. Its
    near-zero ends are judged on the amplitudes: the weights span about 1e18
    at 2S = 127, so a test on the weighted ends would send roots to the poles."""
    amps = state.amplitudes
    return _MajoranaPolynomial(sqrt_binomials(state.two_S) * amps, amps)


def qubit_majorana_polynomial(state: PureState) -> ComplexPolynomial:
    """Majorana polynomial of the N-qubit state read as one spin 2S = 2^N - 1."""
    return majorana_polynomial(spin_from_qubits(state))


def state_from_spinors(spinors: list[Spinor] | np.ndarray, scale: complex = 1.0) -> SpinState:
    """Symmetrized state of 2S spinors, Spinors or a (2S, 2) array, over the
    binomial weights. A spinor with alpha = 0 (a south-pole direction) lowers
    the product degree; the all-zero spinor is rejected."""
    two_s = len(spinors)
    if two_s == 0:
        raise ValueError("need at least one spinor")
    alpha, beta = np.asarray(spinors, dtype=complex).reshape(two_s, 2).T
    if np.any((alpha == 0) & (beta == 0)):
        raise ValueError("spinor (0, 0) does not define a direction")
    coeffs = np.zeros(two_s + 1, dtype=complex)
    coeffs[0] = 1.0
    for k, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist())):
        high = coeffs[: k + 1] * a
        coeffs[: k + 1] *= b
        coeffs[1 : k + 2] += high
    return SpinState(two_s, scale * coeffs / sqrt_binomials(two_s))


def _spinors(constellation: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Spinor of each point's direction: (cos t/2, -sin t/2 e^{i phi})."""
    half = 0.5 * constellation.thetas
    return np.cos(half), -np.sin(half) * np.exp(1j * constellation.phis)


def spinor_for_point(point: BlochPoint) -> Spinor:
    """Spinor whose direction is the given point: (cos t/2, -sin t/2 e^{i phi})."""
    alpha, beta = _spinors(Constellation((point,), 1))
    return Spinor(alpha[0], beta[0])


def majorana_constellation(state: SpinState, tol: float = DEFAULT_ROOT_TOL) -> Constellation:
    """The 2S Majorana points of a spin state (multiset, south poles padded)."""
    result = find_roots(majorana_polynomial(state), tol)
    return points_from_roots(result.roots, result.leading_deficiency, state.two_S)


def state_from_constellation(constellation: Constellation) -> SpinState:
    """Spin state whose Majorana points are the given constellation (scale 1)."""
    return state_from_spinors(np.stack(_spinors(constellation), axis=-1))
