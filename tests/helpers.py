"""Shared test data and independent oracles.

The oracles here deliberately avoid the library's own fast paths: the
permutation sum expands the symmetrized product the factorial-cost way,
the minimum-cost assignment is found by trying every permutation, the
spin-1/2 rotation is written out in closed form, Wigner matrices come from
dense matrix exponentials and from the factorial sum, and coherent states
are built term by term in log space, so agreement with the package is
evidence rather than tautology.
"""

import itertools
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from stellar import BlochPoint, Constellation, PureState, make_pure_state

RT3 = math.sqrt(3.0)

# Two-qubit reference states used throughout: an entangled pair whose
# Majorana points sit on the equator, and the balanced product state.
ENTANGLED_PAIR = (RT3, 1.0, 1.0, RT3)
BALANCED_PRODUCT = (1.0, 1.0, 1.0, 1.0)

EQUATORIAL_TRIPLE = (
    (np.pi / 2, np.pi),
    (np.pi / 2, np.pi / 2),
    (np.pi / 2, 3 * np.pi / 2),
)

QUARTER_TURN_Y = (0.0, np.pi / 2, 0.0)


def entangled_pair() -> PureState:
    return make_pure_state(2, ENTANGLED_PAIR)


def balanced_product() -> PureState:
    return make_pure_state(2, BALANCED_PRODUCT)


def make_constellation(pairs) -> Constellation:
    pts = tuple(BlochPoint(float(t), float(p)) for t, p in pairs)
    return Constellation(pts, len(pts))


def random_amplitudes(rng, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_state(rng, n_qubits: int) -> PureState:
    return make_pure_state(n_qubits, random_amplitudes(rng, 2**n_qubits))


def random_spin(rng, two_S: int):
    from stellar import SpinState

    return SpinState(two_S, random_amplitudes(rng, two_S + 1))


def bell_pair() -> PureState:
    return make_pure_state(2, [1.0, 0.0, 0.0, 1.0])


def ghz(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0
    return PureState(n, amps)


def w_state(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    for j in range(n):
        amps[2**j] = 1.0
    return PureState(n, amps)


def max_complex_mismatch(found, expected) -> float:
    """Largest |found - expected| under the best one-to-one pairing."""
    found = np.asarray(found, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    assert found.shape == expected.shape
    cost = np.abs(found[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def permutation_sum_coefficients(spinors) -> np.ndarray:
    """Coefficients of prod_k (alpha_k x + beta_k) the factorial-cost way.

    For each power m, symmetrize the bit pattern 1^m 0^(n-m) over every
    ordering of the spinors (alpha picked where the bit is 1, beta where
    it is 0) and divide by the m!(n-m)! overcount.
    """
    n = len(spinors)
    out = np.zeros(n + 1, dtype=complex)
    for m in range(n + 1):
        bits = (1,) * m + (0,) * (n - m)
        total = 0.0 + 0.0j
        for sigma in itertools.permutations(range(n)):
            term = 1.0 + 0.0j
            for bit, k in zip(bits, sigma):
                a, b = spinors[k]
                term *= a if bit else b
            total += term
        out[m] = total / (math.factorial(m) * math.factorial(n - m))
    return out


def exhaustive_min_assignment(cost) -> float:
    """Smallest total cost of a one-to-one row-to-column assignment.

    Tries all n! permutations; meant for n <= 8.
    """
    rows = np.asarray(cost, dtype=float).tolist()
    return min(
        sum(row[j] for row, j in zip(rows, perm))
        for perm in itertools.permutations(range(len(rows)))
    )


def closed_form_spinor_rotation(a: complex, b: complex, angles):
    """z-y-z Euler rotation of a|0> + b|1>, written out component by component.

    a' = a cos(beta/2) e^{-i(alpha+gamma)/2} - b sin(beta/2) e^{ i(gamma-alpha)/2}
    b' = a sin(beta/2) e^{-i(gamma-alpha)/2} + b cos(beta/2) e^{ i(alpha+gamma)/2}
    """
    alpha, beta, gamma = angles
    c, s = np.cos(0.5 * beta), np.sin(0.5 * beta)
    a2 = a * c * np.exp(-0.5j * (alpha + gamma)) - b * s * np.exp(0.5j * (gamma - alpha))
    b2 = a * s * np.exp(-0.5j * (gamma - alpha)) + b * c * np.exp(0.5j * (alpha + gamma))
    return complex(a2), complex(b2)


def expm_rotation(two_S: int, angles) -> np.ndarray:
    """e^{-i alpha S_z} e^{-i beta S_y} e^{-i gamma S_z} by matrix exponentials.

    Dense generators, highest level first (the storage order of wigner_D).
    """
    alpha, beta, gamma = angles
    S = two_S / 2.0
    m = S - np.arange(two_S + 1)
    sp = np.zeros((two_S + 1, two_S + 1))
    for r in range(1, two_S + 1):
        sp[r - 1, r] = np.sqrt(S * (S + 1) - m[r] * (m[r] + 1))
    sy, sz = (sp - sp.T) / 2j, np.diag(m)
    return expm(-1j * alpha * sz) @ expm(-1j * beta * sy) @ expm(-1j * gamma * sz)


def factorial_sum_small_d(two_S: int, beta: float) -> np.ndarray:
    """Wigner's factorial sum for d^S_{M'M}(beta), descending M both ways.

    O(dim^3) terms; accurate to about 1e-15 up to 2S = 15, it loses digits
    from 2S ~ 31 and overflows from 2S = 171.
    """
    dim = two_S + 1
    fact = [float(math.factorial(k)) for k in range(two_S + 1)]
    c, s = np.cos(0.5 * beta), np.sin(0.5 * beta)
    out = np.zeros((dim, dim))
    for r in range(dim):
        pp = two_S - 2 * r  # 2 M'
        for q in range(dim):
            p = two_S - 2 * q  # 2 M
            jm = (two_S + p) // 2  # j + m
            jmp = (two_S - pp) // 2  # j - m'
            pref = np.sqrt(
                fact[(two_S + pp) // 2] * fact[(two_S - pp) // 2]
                * fact[jm] * fact[two_S - jm]
            )
            total = 0.0
            for k in range(max(0, (p - pp) // 2), min(jm, jmp) + 1):
                dk = k + (pp - p) // 2  # k - m + m'
                term = pref / (fact[jm - k] * fact[k] * fact[jmp - k] * fact[dk])
                term *= c ** (two_S - 2 * k + (p - pp) // 2) * s ** (2 * k - (p - pp) // 2)
                total += -term if dk % 2 else term
            out[r, q] = total
    return out


def coherent_amplitudes(two_S: int, theta: float, phi: float) -> np.ndarray:
    """Spin amplitudes (ascending M) whose 2S Majorana points all sit at (theta, phi).

    a_m = sqrt(binom(2S, m)) alpha^m beta^(2S-m) for the point's spinor
    alpha = cos(theta/2), beta = -sin(theta/2) e^{i phi}, computed in log space
    with math.lgamma and scaled so the largest amplitude is 1. Needs
    0 < theta < pi.
    """
    log_a, log_b = math.log(math.cos(0.5 * theta)), math.log(math.sin(0.5 * theta))
    m = np.arange(two_S + 1)
    log_binom = np.array(
        [math.lgamma(two_S + 1) - math.lgamma(k + 1) - math.lgamma(two_S - k + 1) for k in m]
    )
    log_mag = 0.5 * log_binom + m * log_a + (two_S - m) * log_b
    phase = (two_S - m) * (phi + np.pi)
    return np.exp(log_mag - log_mag.max() + 1j * phase)


def ray_mismatch(a, b) -> float:
    """Largest entry of |a e^{i chi} / |a| - b / |b|| at the best phase chi."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    overlap = np.vdot(a, b)
    return float(np.abs(a * (overlap / abs(overlap)) - b).max())
