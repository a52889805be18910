"""Majorana encoding: spin states as point constellations on the sphere.

A spin-S state with amplitudes a_m (M = m - S ascending) is encoded as

    P(x) = sum_m sqrt(binom(2S, m)) a_m x^m,

whose 2S roots, sent through tan(theta/2) e^{i phi} = x, are the state's
points. A drop of l in the actual degree contributes l south-pole points.
The inverse direction builds a state from 2S spinors (alpha |+> + beta |->):
the coefficient of x^m in prod_k (alpha_k x + beta_k), divided by the square
root of the binomial weight, is the amplitude at M = m - S, up to one free
overall scale.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import BlochPoint, Constellation, _angles, points_from_roots
from .polyroots import ComplexPolynomial, _find_roots
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


def sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(binom(n, k)) for k = 0..n: exact integer binomials, each rounded once."""
    if n > _MAX_TWO_S:
        raise ValueError(
            f"Majorana weights need 2S <= {_MAX_TWO_S} to fit float64; got 2S = {n}"
        )
    row, c = [1.0], 1
    for k in range(n):
        c = c * (n - k) // (k + 1)
        row.append(float(c))
    return np.sqrt(row)


def majorana_polynomial(state: SpinState) -> ComplexPolynomial:
    """Coefficients sqrt(binom(2S, m)) * amplitudes[m], low order first."""
    return ComplexPolynomial(sqrt_binomials(state.two_S) * state.amplitudes)


def qubit_majorana_polynomial(state: PureState) -> ComplexPolynomial:
    """Majorana polynomial of the N-qubit state read as one spin 2S = 2^N - 1."""
    return majorana_polynomial(spin_from_qubits(state))


def state_from_spinors(spinors: list[Spinor], scale: complex = 1.0) -> SpinState:
    """Symmetrized state of 2S spinors, via the product polynomial.

    Expands prod_k (alpha_k x + beta_k) by iterated convolution, then strips
    the binomial weights. Any spinor with alpha = 0 (a south-pole direction)
    simply lowers the product degree; the all-zero spinor is rejected.
    """
    if not spinors:
        raise ValueError("need at least one spinor")
    coeffs = np.ones(1, dtype=complex)
    for sp in spinors:
        a, b = complex(sp.alpha), complex(sp.beta)
        if a == 0 and b == 0:
            raise ValueError("spinor (0, 0) does not define a direction")
        coeffs = np.convolve(coeffs, np.array([b, a]))
    two_s = len(spinors)
    return SpinState(two_s, scale * coeffs / sqrt_binomials(two_s))


def _spinors(constellation: Constellation) -> list[Spinor]:
    """Spinor of each point's direction: (cos t/2, -sin t/2 e^{i phi})."""
    theta, phi = _angles(constellation)
    half = 0.5 * theta
    return list(map(Spinor, np.cos(half), -np.sin(half) * np.exp(1j * phi)))


def spinor_for_point(point: BlochPoint) -> Spinor:
    """Spinor whose direction is the given point: (cos t/2, -sin t/2 e^{i phi})."""
    return _spinors(Constellation((point,), 1))[0]


def majorana_constellation(
    state: SpinState, tol: float = 1e-12
) -> Constellation:
    """The 2S Majorana points of a spin state (multiset, south poles padded).

    Deflation is judged on the amplitudes, not on the weighted coefficients:
    the weights span about 1e18 at 2S = 127, so a relative test on the
    weighted ends would send genuine roots to the poles.
    """
    result = _find_roots(majorana_polynomial(state), np.abs(state.amplitudes), tol)
    return points_from_roots(result.roots, result.leading_deficiency, state.two_S)


def state_from_constellation(constellation: Constellation) -> SpinState:
    """Spin state whose Majorana points are the given constellation (scale 1)."""
    return state_from_spinors(_spinors(constellation))
