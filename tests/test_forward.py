"""Forward calls from 5 to 10 qubits: state -> polynomial -> roots -> points.

Every Gaussian state here, and three 10-qubit product states, must come back
with finite points that meet the residual contract; the roots are checked
against the companion-matrix eigenvalues (numpy.roots, polished in extended
precision) up to 8 qubits, against mpmath.polyroots up to 5, and for the
product states against their per-qubit factors' roots in mpmath.
"""

import hashlib

import mpmath
import numpy as np
import pytest

from stellar import (
    EulerAngles,
    alt_constellation,
    alt_polynomial,
    constellation_to_json,
    find_roots,
    majorana_constellation,
    majorana_polynomial,
    matching_max_distance,
    points_from_roots,
    qubit_majorana_polynomial,
    rotate_constellation,
    rotate_spin,
    so3_matrix,
    spin_from_qubits,
)

import helpers


def polynomial(encoding, state):
    if encoding == "majorana":
        return majorana_polynomial(spin_from_qubits(state))
    return alt_polynomial(state)


def constellation(encoding, state):
    if encoding == "majorana":
        return majorana_constellation(spin_from_qubits(state))
    return alt_constellation(state)


# sha256 of constellation_to_json for the seeded Gaussian N = 9 and 10 calls
# below; the bytes are those of the Aberth iterates, which certification
# never moves
FORWARD_DIGESTS = {
    ("majorana", 9): "18fa826117d665c2b94e7f254200d4a4570232ffc29cb81cb2652a62c4c9c152",
    ("alt", 9): "8a9b60170344d23b85040369df0fbb93cae60e88328c423b236920beedf310f4",
    ("majorana", 10): "cd0da2c7d7f0fffacec8d2031aefcee5febd2b5754efabe1ddfa3aeb8eae00e0",
    ("alt", 10): "3856111a997fdfd3220a9ba01c7f9321096919dfed078a8b0b4f59b1ba419015",
}

# 10-qubit product states of Gaussian factors whose exact roots, rounded to
# float64, miss |p(x)| <= 1e-12 max|c| max(1,|x|)^d at a root near |x| = 1
PRODUCT_SEEDS = (9048, 9100, 5080)

# Gaussian states at N = 5..10, then the N = 10 product states
CONTRACT_STATES = [pytest.param(n, 700 + n, False, id=str(n)) for n in range(5, 11)] + [
    pytest.param(10, seed, True, id=f"product{seed}") for seed in PRODUCT_SEEDS
]


def thetas(c):
    return np.array([p.theta for p in c.points])


@pytest.mark.parametrize("encoding", ["majorana", "alt"])
@pytest.mark.parametrize("n, seed, product", CONTRACT_STATES)
def test_forward_call_meets_the_contract(encoding, n, seed, product):
    if product:
        state = helpers.product_state(helpers.product_factors(seed))
    else:
        state = helpers.random_state(np.random.default_rng(seed), n)
    poly = polynomial(encoding, state)
    result = find_roots(poly)
    assert result.residual <= 1e-12
    assert np.all(np.isfinite(result.roots))
    assert len(result.roots) + result.leading_deficiency == 2**n - 1
    # the reported backward error is an upper bound: at least its value
    # recomputed in extended precision, against the coefficients left after
    # deflation, of which the appended zero roots are exact roots
    lo, hi = result.trailing_zero_roots, poly.nominal_degree - result.leading_deficiency
    found = result.roots[: result.roots.size - lo]
    assert result.residual >= helpers.extended_backward_error(poly.coefficients[lo : hi + 1], found)
    # the earlier, coarser promise still holds in extended precision
    assert helpers.extended_residual(poly.coefficients, result.roots) <= 1e-11
    points = constellation(encoding, state)
    assert points.expected_size == 2**n - 1
    assert np.all(np.isfinite(thetas(points)))
    # Gaussian amplitudes imply no root at infinity
    assert not np.any(thetas(points) == np.pi)
    if not product and (encoding, n) in FORWARD_DIGESTS:
        digest = hashlib.sha256(constellation_to_json(points).encode()).hexdigest()
        assert digest == FORWARD_DIGESTS[encoding, n]


# Gaussian amplitudes make both polynomials Gaussian analytic functions whose
# covariance depends on x = |z|^2 through K(x): Kostlan's (1 + x)^d for the
# Majorana encoding, Kac's sum_{k <= d} x^k for the alt one. The expected number
# of roots with |z| < r is then x K'(x) / K(x) at x = r^2 (Edelman & Kostlan,
# Bull. AMS 32, 1, 1995), so the expected share of points above each latitude is
# known exactly: cos theta is uniform on [-1, 1] for Majorana (Hannay, J. Phys. A
# 29, L101, 1996), and the alt points lie within O(1/d) of the equator (Shepp &
# Vanderbei, Trans. AMS 347, 4365, 1995), their median |theta - pi/2| tending to
# 1.80 / d, where coth(m) - 1/m = 1/2. The roots repel one another, so the
# Dvoretzky-Kiefer-Wolfowitz bound for d independent points is a loose ceiling
# on how far their empirical distribution strays from the expected one.
def dkw_bound(d, alpha=1e-3):
    """P(sup |F_d - F| > bound) <= alpha for d iid samples (Massart's constant)."""
    return np.sqrt(np.log(2 / alpha) / (2 * d))


def kac_share_inside(r, d):
    """x K'(x) / K(x) / d for K(x) = sum_{k <= d} x^k: the mean of k / d under weights x^k."""
    log_w = 2.0 * np.arange(d + 1) * np.log(r)
    w = np.exp(log_w - log_w.max())
    return np.arange(d + 1) @ w / w.sum() / d


@pytest.mark.parametrize("n", range(5, 11))
def test_gaussian_majorana_points_are_uniform_on_the_sphere(n):
    d = 2**n - 1
    state = helpers.random_state(np.random.default_rng(700 + n), n)  # as the contract test
    expected = (1.0 + np.sort(np.cos(thetas(constellation("majorana", state))))) / 2.0
    rank = np.arange(d)
    ks = max(np.max((rank + 1) / d - expected), np.max(expected - rank / d))
    assert ks <= dkw_bound(d)


@pytest.mark.parametrize("n", range(5, 11))
def test_gaussian_alt_points_lie_within_order_1_over_d_of_the_equator(n):
    d = 2**n - 1
    state = helpers.random_state(np.random.default_rng(700 + n), n)  # as the contract test
    median = np.median(np.abs(thetas(constellation("alt", state)) - np.pi / 2))
    # theta = 2 arctan |z|, so |theta - pi/2| <= m is tan(pi/4 - m/2) <= |z| <= tan(pi/4 + m/2)
    inside = kac_share_inside(np.tan(np.pi / 4 + median / 2), d) - kac_share_inside(
        np.tan(np.pi / 4 - median / 2), d
    )
    # the sample median of d (odd) points has empirical share 1/2 within 1/(2d)
    assert abs(inside - 0.5) <= dkw_bound(d) + 0.5 / d


@pytest.mark.parametrize("n", range(7, 11))
def test_majorana_polynomial_deflates_on_the_amplitudes(n):
    # on |c_k| the weights would send hundreds of the 1023 roots at N = 10 to
    # the poles; the public calls must give majorana_constellation's points
    state = helpers.random_state(np.random.default_rng(700 + n), n)
    result = find_roots(qubit_majorana_polynomial(state))
    assert result.trailing_zero_roots == result.leading_deficiency == 0
    points = points_from_roots(result.roots, result.leading_deficiency, 2**n - 1)
    assert points == majorana_constellation(spin_from_qubits(state))


@pytest.mark.parametrize("seed", PRODUCT_SEEDS)
def test_product_state_points_match_mpmath_factor_roots(seed):
    factors = helpers.product_factors(seed)
    points = alt_constellation(helpers.product_state(factors))
    assert len(points.points) == points.expected_size == 1023
    assert np.all(np.isfinite(thetas(points)))
    exact = helpers.mpmath_product_roots(factors)
    assert helpers.max_chordal_mismatch(points, exact) <= 1e-12


@pytest.mark.parametrize("encoding", ["majorana", "alt"])
@pytest.mark.parametrize("n, seed", [(6, 0), (7, 1), (7, 2), (8, 3), (8, 4)])
def test_points_match_numpy_roots(encoding, n, seed):
    state = helpers.random_state(np.random.default_rng(seed), n)
    reference = helpers.reference_roots(polynomial(encoding, state).coefficients)
    points = constellation(encoding, state)
    assert not np.any(thetas(points) == np.pi)
    assert helpers.max_chordal_mismatch(points, reference) <= 1e-9


@pytest.mark.parametrize("encoding", ["majorana", "alt"])
@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (4, 2), (4, 3), (5, 4)])
def test_points_match_mpmath_polyroots(encoding, n, seed):
    state = helpers.random_state(np.random.default_rng(seed), n)
    coeffs = polynomial(encoding, state).coefficients
    exact = mpmath.polyroots(
        [mpmath.mpc(complex(c)) for c in coeffs[::-1]], maxsteps=200, extraprec=60
    )
    reference = np.array([complex(r) for r in exact])
    assert helpers.max_chordal_mismatch(constellation(encoding, state), reference) <= 1e-12


@pytest.mark.parametrize("n", range(7, 11))
def test_spin_rotation_moves_many_qubit_points_rigidly(n):
    rng = np.random.default_rng(800 + n)
    spin = spin_from_qubits(helpers.random_state(rng, n))
    angles = EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
    by_state = majorana_constellation(rotate_spin(spin, angles))
    by_points = rotate_constellation(majorana_constellation(spin), so3_matrix(angles))
    assert matching_max_distance(by_state, by_points) <= 1e-10
