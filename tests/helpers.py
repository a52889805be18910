"""Shared test data and independent oracles.

The oracles here deliberately avoid the library's own fast paths: the
permutation sum expands the symmetrized product the factorial-cost way,
the sequential product multiplies it out by one np.convolve per factor and
the mpmath product at 200 bits, the minimum-cost assignment is found by
trying every permutation, the spin-1/2 rotation is written out in closed
form, Wigner matrices come from dense matrix exponentials and from the
factorial sum, coherent states are built term by term in log space, sphere
points are built and read one point at a time with scalar arithmetic, and
reference roots come from the companion matrix's eigenvalues with
residuals in extended precision, so agreement with the package is evidence
rather than tautology.
"""

import itertools
import json
import math

import mpmath
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


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def extended_horner(coeffs, x):
    """p(x) for low-order-first coefficients, in numpy's extended precision."""
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def extended_residual(coeffs, roots) -> float:
    """The root finder's contract max |p(x)| / (max|c| max(1,|x|)^d), evaluated
    in extended precision, through the reversed polynomial at 1/x for |x| > 1."""
    c = np.asarray(coeffs, dtype=np.clongdouble)
    c = c / np.max(np.abs(c))
    x = np.asarray(roots).astype(np.clongdouble)
    big = np.abs(x) > 1
    y = np.where(big, 1 / np.where(big, x, 1), x)
    return float(np.max(np.abs(np.where(big, extended_horner(c[::-1], y), extended_horner(c, y)))))


def reference_roots(coeffs) -> np.ndarray:
    """numpy.roots (companion-matrix eigenvalues), then three Newton steps in
    extended precision."""
    c = np.asarray(coeffs, dtype=complex)
    x = np.roots(c[::-1]).astype(np.clongdouble)
    c = c.astype(np.clongdouble)
    for _ in range(3):
        val, der = np.zeros_like(x), np.zeros_like(x)
        for ck in c[::-1]:
            der = der * x + val
            val = val * x + ck
        x = x - val / der
    return x.astype(complex)


def max_chordal_mismatch(constellation, roots) -> float:
    """Largest chordal distance between the constellation's points and the
    sphere images of the roots, under the best one-to-one pairing."""
    theta = np.array([p.theta for p in constellation.points])
    phi = np.array([p.phi for p in constellation.points])
    roots = np.asarray(roots, dtype=complex)

    def unit(t, f):
        return np.stack([np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t)], axis=-1)

    u, v = unit(theta, phi), unit(2.0 * np.arctan(np.abs(roots)), np.angle(roots))
    cost = np.linalg.norm(u[:, None, :] - v[None, :, :], axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


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


def sequential_convolution_coefficients(spinors) -> np.ndarray:
    """Coefficients of prod_k (alpha_k x + beta_k), low order first, by one
    np.convolve per factor."""
    product = np.ones(1, dtype=complex)
    for a, b in spinors:
        product = np.convolve(product, [b, a])
    return product


def mpmath_product_coefficients(spinors) -> np.ndarray:
    """Coefficients of prod_k (alpha_k x + beta_k) in mpmath at 200 bits,
    rounded to complex once at the end."""
    with mpmath.workprec(200):
        coeffs = [mpmath.mpc(1)]
        for a, b in spinors:
            a, b = mpmath.mpc(complex(a)), mpmath.mpc(complex(b))
            low, high = [c * b for c in coeffs], [c * a for c in coeffs]
            coeffs = [low[0]] + [lo + hi for lo, hi in zip(low[1:], high)] + [high[-1]]
        return np.array([complex(c) for c in coeffs])


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


def scalar_bloch_point(theta: float, phi: float) -> BlochPoint:
    """The canonical-angle rule for one point: clamp theta, wrap phi, phi = 0 at poles."""
    theta = float(min(max(theta, 0.0), np.pi))
    phi = float(np.mod(phi, 2.0 * np.pi))
    if theta == 0.0 or theta == np.pi or phi == 2.0 * np.pi:
        phi = 0.0
    return BlochPoint(theta, phi)


def pointwise_points_from_roots(roots, leading_deficiency: int) -> tuple:
    """Root by root: theta = 2 atan|x|, phi = arg x; then one south pole per deficiency."""
    pts = [scalar_bloch_point(2.0 * np.arctan(abs(x)), np.angle(x)) for x in roots]
    return tuple(pts) + (BlochPoint(float(np.pi), 0.0),) * leading_deficiency


def pointwise_cartesian(p: BlochPoint) -> np.ndarray:
    """Unit vector of one point from scalar sines and cosines."""
    st, ct = np.sin(p.theta), np.cos(p.theta)
    return np.array([st * np.cos(p.phi), st * np.sin(p.phi), ct])


def pointwise_point_from_cartesian(v) -> BlochPoint:
    """Direction of one nonzero 3-vector, phi = 0 on the z axis."""
    x, y, z = (float(c) for c in v)
    rho = np.hypot(x, y)
    if rho == 0.0 and z == 0.0:
        raise ValueError("zero vector has no direction")
    phi = np.arctan2(y, x) if rho > 0.0 else 0.0
    return scalar_bloch_point(np.arctan2(rho, z), phi)


def per_qubit_separable_points(factors) -> tuple:
    """Closed-form points of a product state, qubit by qubit and point by point.

    Qubit j with b_j != 0 gives 2^j points at tan(theta/2) = |a_j/b_j|^(1/2^j)
    and phi = (arg(-a_j/b_j) + 2 pi m) / 2^j; b_j = 0 gives 2^j south poles.
    """
    pts = []
    for j, (a, b) in enumerate(factors):
        count = 2**j
        if b == 0:
            pts.extend([BlochPoint(float(np.pi), 0.0)] * count)
            continue
        ratio = -a / b
        theta = 2.0 * np.arctan(abs(ratio) ** (1.0 / count))
        base = np.angle(ratio)
        pts.extend(
            scalar_bloch_point(theta, (base + 2.0 * np.pi * m) / count) for m in range(count)
        )
    return tuple(pts)


def pointwise_spinor(p: BlochPoint) -> tuple:
    """(cos t/2, -sin t/2 e^{i phi}) for one point."""
    half = 0.5 * p.theta
    return np.cos(half), -np.sin(half) * np.exp(1j * p.phi)


def root_spread(rng, count: int) -> np.ndarray:
    """Roots with |x| from e^-8 to e^8, plus 0, negative reals and -0.0 imaginary parts."""
    x = np.exp(rng.uniform(-8.0, 8.0, count)) * np.exp(1j * rng.uniform(-np.pi, np.pi, count))
    special = [0.0, complex(-0.0, -0.0), -2.5, complex(-1.0, -0.0), complex(3.0, -0.0),
               complex(0.0, -1.5), complex(-0.0, 2.0), 1.0]
    return np.concatenate([special, x]).astype(complex)


def coincident_points(rng, count: int) -> Constellation:
    """count uniform points, where every fifth repeats its predecessor and a few sit on
    the poles and the front limb."""
    pts = []
    for _ in range(count):
        theta = float(np.arccos(rng.uniform(-1.0, 1.0)))
        pts.append(BlochPoint(theta, float(rng.uniform(0.0, 2 * np.pi))))
    for i in range(5, count, 5):
        pts[i] = pts[i - 1]
    pts[:4] = [BlochPoint(0.0, 0.0), BlochPoint(np.pi, 0.0)] * 2
    pts[4] = BlochPoint(np.pi / 2, np.pi / 2)
    return Constellation(tuple(pts), count)
