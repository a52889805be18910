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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import BlochPoint, Constellation, points_from_roots
from .polyroots import DEFAULT_ROOT_TOL, ComplexPolynomial, find_roots
from .states import PureState, SpinState, _count, spin_from_qubits

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


# typed, else 3.0 or True would get the row cached for an equal np.int64, not _count's TypeError
@lru_cache(maxsize=64, typed=True)
def sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(binom(n, k)) for k = 0..n: exact integer binomials, each rounded
    once. The row is cached per n and returned read-only."""
    n = _count(n, "n")
    if not 0 <= n <= _MAX_TWO_S:
        raise ValueError(
            f"Majorana weights need 0 <= 2S <= {_MAX_TWO_S} to fit float64; got 2S = {n}"
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
    the product degree; the all-zero spinor is rejected. The factors, padded
    with (0, 1), are expanded in L blocks of m = isqrt(2S) + 1 side by side and
    folded together by windowed einsums. To first order (u, mu as in
    polyroots._horner) a term of c_j passes 2S - 1 products and at most
    2S - L + (L - 1) m < 4S additions, so |error_j| <= ((2S - 1) mu +
    (2S - L + (L - 1) m) u) M_j < (sqrt(2) + 1) 2S eps M_j, where M_j is the
    coefficient of x^j in prod_k (|alpha_k| x + |beta_k|)."""
    two_s, given = len(spinors), np.asarray(spinors, dtype=complex)
    if two_s == 0:
        raise ValueError("need at least one spinor")
    if given.shape != (two_s, 2):
        raise ValueError(f"spinors: expected 2S (alpha, beta) pairs, got shape {given.shape}")
    m = math.isqrt(two_s) + 1
    blocks = -(-two_s // m)
    pairs = np.full((blocks * m, 2), [0, 1], dtype=complex)
    pairs[:two_s] = given
    alpha, beta = pairs.T.reshape(2, blocks, m, 1)
    if not np.isfinite(pairs).all():
        raise ValueError("spinors must be finite")
    if np.any((alpha == 0) & (beta == 0)):
        raise ValueError("spinor (0, 0) does not define a direction")
    if not (np.isfinite(scale) and scale != 0):
        raise ValueError("scale must be finite and nonzero")
    parts = np.zeros((blocks, m + 1), dtype=complex)
    parts[:, 0] = 1.0
    for k in range(m):
        high = parts[:, : k + 1] * alpha[:, k]
        parts[:, : k + 1] *= beta[:, k]
        parts[:, 1 : k + 2] += high
    coeffs = np.concatenate([np.zeros(m), parts[0], np.zeros((blocks - 1) * m)])
    windows = np.lib.stride_tricks.sliding_window_view(coeffs, m + 1)  # j-th ends at c_j
    for k, part in enumerate(parts[1:], start=2):
        coeffs[m : k * m + m + 1] = np.einsum("jt,t->j", windows[: k * m + 1], part[::-1])
    return SpinState(two_s, scale * coeffs[m : m + two_s + 1] / sqrt_binomials(two_s))


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
