"""Plain amplitude-polynomial encoding and tensor-product factorization.

The alternative encoding drops the binomial weights: an N-qubit state with
decimal amplitudes C_i becomes P(x) = sum_i C_i x^i, of nominal degree
2^N - 1. The state is a tensor product of single-qubit factors exactly when
P factors as prod_j (a_j + b_j x^{2^j}), and in that case the point pattern
of each factor is explicit: qubit j contributes 2^j points at one latitude
whose azimuths are equally spaced by 2 pi / 2^j.

Separability is decided numerically by peeling one qubit at a time with a
rank-1 singular-value test, never symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Constellation, _from_angles, points_from_roots
from .polyroots import DEFAULT_ROOT_TOL, ComplexPolynomial, find_roots
from .states import PureState, tensor_product

__all__ = [
    "SeparableFactorization",
    "SeparabilityVerdict",
    "alt_polynomial",
    "decide_separability",
    "reconstruct_from_factors",
    "separable_constellation",
    "alt_constellation",
]

DEFAULT_SEPARABILITY_TOL = 1e-8


@dataclass(frozen=True)
class SeparableFactorization:
    """scale * (a_0|0>+b_0|1>) x ... x (a_{N-1}|0>+b_{N-1}|1>).

    Factors are unit-norm with their largest component real positive; the
    single complex scale carries everything else.
    """

    factors: tuple[tuple[complex, complex], ...]
    scale: complex


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    factorization: SeparableFactorization | None
    worst_bipartite_residual: float

    def __post_init__(self):
        if self.separable != (self.factorization is not None):
            raise ValueError("factorization must be present exactly when separable")


def alt_polynomial(state: PureState) -> ComplexPolynomial:
    """P(x) = sum_i C_i x^i with the decimal amplitudes as coefficients."""
    return ComplexPolynomial(state.amplitudes)


def _canonical_phase(vec: np.ndarray) -> tuple[np.ndarray, complex]:
    """Rotate a vector so its largest-modulus entry is real positive."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    phase = pivot / abs(pivot)
    return vec * np.conj(phase), phase


def decide_separability(
    state: PureState, tol: float = DEFAULT_SEPARABILITY_TOL
) -> SeparabilityVerdict:
    """Tensor-product test by successive rank-1 peeling of each qubit.

    Qubit j is split off by reshaping the remaining vector to 2 x 2^(rest)
    and thresholding the ratio of its two largest singular values against
    tol. The worst ratio seen is reported; for an entangled state that is
    the ratio at the failing cut.
    """
    vec = state.amplitudes
    factors: list[tuple[complex, complex]] = []
    worst = 0.0
    for _ in range(state.n_qubits - 1):
        # rows: this qubit (low bit of the current index); cols: the rest
        matrix = vec.reshape(-1, 2).T
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        ratio = float(s[1] / s[0])
        worst = max(worst, ratio)
        if ratio > tol:
            return SeparabilityVerdict(False, None, worst)
        factor, phase = _canonical_phase(u[:, 0])
        factors.append((complex(factor[0]), complex(factor[1])))
        vec = s[0] * vh[0] * phase
    last, phase = _canonical_phase(vec)
    norm = float(np.linalg.norm(last))
    factors.append((complex(last[0] / norm), complex(last[1] / norm)))
    scale = norm * phase
    return SeparabilityVerdict(
        True, SeparableFactorization(tuple(factors), complex(scale)), worst
    )


def reconstruct_from_factors(f: SeparableFactorization) -> PureState:
    """Dense amplitude vector of scale * tensor(factors)."""
    qubits = tensor_product([PureState(1, np.array([a, b])) for a, b in f.factors])
    return PureState(qubits.n_qubits, f.scale * qubits.amplitudes)


def separable_constellation(f: SeparableFactorization) -> Constellation:
    """Point pattern of a factorized state, qubit by qubit, in closed form.

    Qubit j with b_j != 0 yields 2^j points at tan(theta/2) =
    |a_j / b_j|^(1/2^j) with azimuths (arg(-a_j/b_j) + 2 pi m) / 2^j; a
    vanishing b_j parks all 2^j points at the south pole.
    """
    thetas, phis = [np.empty(0)], [np.empty(0)]
    for j, (a, b) in enumerate(f.factors):
        count = 2**j
        theta, base = np.pi, 0.0
        if b != 0:
            ratio = -a / b
            theta, base = 2.0 * np.arctan(abs(ratio) ** (1.0 / count)), np.angle(ratio)
        thetas.append(np.full(count, theta))
        phis.append((base + 2.0 * np.pi * np.arange(count)) / count)
    return _from_angles(np.concatenate(thetas), np.concatenate(phis))


def alt_constellation(state: PureState, tol: float = DEFAULT_ROOT_TOL) -> Constellation:
    """The 2^N - 1 roots of the plain amplitude polynomial as sphere points."""
    result = find_roots(alt_polynomial(state), tol)
    return points_from_roots(
        result.roots, result.leading_deficiency, 2**state.n_qubits - 1
    )
