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

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Constellation, _from_angles, points_from_roots
from .polyroots import DEFAULT_ROOT_TOL, ComplexPolynomial, find_roots
from .states import PureState, _numbers, tensor_product

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


def decide_separability(
    state: PureState, tol: float = DEFAULT_SEPARABILITY_TOL
) -> SeparabilityVerdict:
    """Tensor-product test by successive rank-1 peeling of each qubit.

    Qubit j is split off by reshaping the remaining vector to m x 2, column k
    holding this qubit (the low bit) at k, and thresholding the ratio s1/s0
    of its singular values against tol. The worst ratio seen is reported;
    for an entangled state that is the ratio at the failing cut. Gram-Schmidt,
    longer column r_p first, gives R = [[a, 0], [b, d]] with those singular
    values, d the norm of the explicit residual, and R's SVD in closed form.
    To first order in u = eps/2 (Higham 2002, ch. 3 and 19), a, |b| and d are
    within (0.5m + 1.5)ua, (2.9m + 5.9)ua and (3.5m + 9.3)ua of exact, so by
    Weyl (a <= s0) each singular value moves <= (4.6m + 11.1)u s0 and, with
    14.5u from the closed form, |ratio - s1/s0| <= 5 (m + 4) eps.
    tol is read by states._numbers as one real number; as s1/s0 <= 1, a tol of 1 or more
    would accept every state and raises ValueError, and a negative tol stops at the first cut.
    """
    tol = float(_numbers(tol, float, "tol", ()))
    if tol >= 1.0:
        raise ValueError(f"tol must lie below 1, got {tol!r}")
    # an exact power-of-two prescale keeps every sum finite
    exponent = math.frexp(float(np.abs(state.amplitudes.view(float)).max()))[1]
    vec = np.ldexp(state.amplitudes.view(float), -exponent).view(complex)
    factors: list[tuple[complex, complex]] = []
    worst = 0.0
    for _ in range(state.n_qubits):
        cols = vec.reshape(-1, 2)
        gram = np.einsum("ib,ic->bc", cols.conj(), cols).tolist()
        p, q = (1, 0) if gram[1][1].real > gram[0][0].real else (0, 1)
        a2 = gram[p][p].real
        c = gram[p][q] / a2  # b = c a
        e = (cols[:, q] - c * cols[:, p]).view(float)
        a, d, bb = math.sqrt(a2), math.sqrt(np.einsum("i,i->", e, e)), abs(c) ** 2 * a2
        # s0 s1 = ad, s0^2 + s1^2 = F = a^2 + |b|^2 + d^2; F -+ 2ad = (a -+ d)^2 + |b|^2
        root = math.sqrt(((a - d) ** 2 + bb) * ((a + d) ** 2 + bb))
        s0 = math.sqrt(0.5 * (a2 + bb + d * d + root))
        s1 = a * d / s0
        if len(cols) > 1:  # the last qubit is not a cut
            worst = max(worst, s1 / s0)
            if worst > tol:
                return SeparabilityVerdict(False, None, worst)
        top, low = complex(a2 - s1 * s1), c * a2  # s0's left vector at p and q
        norm = math.hypot(top.real, low.real, low.imag)
        factors.append((top / norm, low / norm) if p == 0 else (low / norm, top / norm))
        vec = np.einsum("b,ib->i", np.conj(factors[-1]), cols)
    scale = complex(math.ldexp(vec[0].real, exponent), math.ldexp(vec[0].imag, exponent))
    return SeparabilityVerdict(True, SeparableFactorization(tuple(factors), scale), worst)


def reconstruct_from_factors(f: SeparableFactorization) -> PureState:
    """Dense amplitude vector of scale * tensor(factors)."""
    qubits = tensor_product([PureState(1, np.array([a, b])) for a, b in f.factors])
    return PureState(qubits.n_qubits, f.scale * qubits.amplitudes)


def separable_constellation(f: SeparableFactorization) -> Constellation:
    """Point pattern of a factorized state, qubit by qubit, in closed form.

    Qubit j with b_j != 0 yields 2^j points at tan(theta/2) =
    |a_j / b_j|^(1/2^j) with azimuths (arg(-a_j/b_j) + 2 pi m) / 2^j; a
    vanishing b_j parks all 2^j points at the south pole; a (0, 0) factor raises.
    """
    thetas, phis = [np.empty(0)], [np.empty(0)]
    for j, (a, b) in enumerate(f.factors):
        if a == 0 == b:
            raise ValueError(f"qubit {j} factor is identically zero")
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
    p = alt_polynomial(state)
    result = find_roots(p, tol)
    return points_from_roots(result.roots, result.leading_deficiency, p.nominal_degree)
