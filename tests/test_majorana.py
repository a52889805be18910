import math

import numpy as np
import pytest

from stellar import (
    BlochPoint,
    Constellation,
    Spinor,
    SpinState,
    find_roots,
    majorana_constellation,
    majorana_polynomial,
    matching_max_distance,
    qubit_majorana_polynomial,
    ray_fidelity,
    rays_equal,
    spin_from_qubits,
    spinor_for_point,
    sqrt_binomials,
    state_from_constellation,
    state_from_spinors,
)

import helpers

RT3 = helpers.RT3


def test_sqrt_binomials_against_math_comb():
    for n in (1, 4, 9, 30):
        expected = [math.sqrt(math.comb(n, k)) for k in range(n + 1)]
        np.testing.assert_allclose(sqrt_binomials(n), expected, rtol=1e-13)


def test_entangled_pair_polynomial_has_equal_coefficients(ent_pair):
    p = qubit_majorana_polynomial(ent_pair)
    np.testing.assert_allclose(p.coefficients, [RT3, RT3, RT3, RT3], rtol=1e-14)


def test_balanced_product_polynomial(product_pair):
    p = qubit_majorana_polynomial(product_pair)
    np.testing.assert_allclose(p.coefficients, [1, RT3, RT3, 1], rtol=1e-14)
    # equatorial like the entangled pair's points, but at different azimuths
    assert helpers.max_complex_mismatch(find_roots(p).roots, [-1, 1j, -1j]) > 0.1


def test_ground_state_polynomial_is_constant():
    p = qubit_majorana_polynomial(helpers.make_pure_state(2, [1, 0, 0, 0]))
    np.testing.assert_array_equal(p.coefficients, [1, 0, 0, 0])
    assert find_roots(p).leading_deficiency == 3


def test_top_level_polynomial_is_pure_power():
    p = majorana_polynomial(SpinState(4, [0, 0, 0, 0, 1]))
    result = find_roots(p)
    np.testing.assert_array_equal(result.roots, [0, 0, 0, 0])


def test_state_from_spinors_reference_directions():
    spinors = [Spinor(1, 1), Spinor(1, -1j), Spinor(1, 1j)]
    state = state_from_spinors(spinors, scale=RT3)
    np.testing.assert_allclose(state.amplitudes, [RT3, 1, 1, RT3], rtol=1e-14)


def test_state_from_spinors_all_up_gives_top_level():
    state = state_from_spinors([Spinor(1, 0)] * 5)
    np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 0, 0, 1])


def test_state_from_spinors_rejects_empty_and_null():
    with pytest.raises(ValueError, match="need at least one spinor"):
        state_from_spinors([])
    with pytest.raises(ValueError, match="need at least one spinor"):
        state_from_constellation(Constellation((), 0))
    null = "spinor \\(0, 0\\) does not define a direction"
    with pytest.raises(ValueError, match=null):
        state_from_spinors([Spinor(1, 0), Spinor(0, 0)])
    with pytest.raises(ValueError, match=null):
        state_from_spinors([Spinor(1, 0), Spinor(0, 0), Spinor(0.6, 0.8j)])
    for wrong in ([[1, 2, 3]], np.ones((2, 2, 2)), 5, np.float64(1)):
        with pytest.raises(ValueError, match=r"^spinors: expected 2S \(alpha, beta\) pairs"):
            state_from_spinors(wrong)
    with pytest.raises(TypeError, match="^spinors must hold numbers"):
        state_from_spinors("ab")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_state_from_spinors_refuses_non_finite_spinors(bad):
    # the spinors are blamed, not the state they would have made
    with pytest.raises(ValueError, match="^spinors has a non-finite entry"):
        state_from_spinors([(bad, 1.0)] * 3)


@pytest.mark.parametrize(
    "scale", [np.nan, np.inf, complex(0.0, -np.inf), 0.0, 0j], ids=["nan", "inf", "inf-imag", "zero", "zero-complex"]
)
def test_state_from_spinors_refuses_a_non_finite_or_zero_scale(scale):
    # a bad argument, not a bad state: the message names scale
    message = "scale must be finite and nonzero" if scale == 0 else "^scale has a non-finite entry"
    with pytest.raises(ValueError, match=message):
        state_from_spinors([(0.6, 0.8j)] * 3, scale=scale)


def test_state_from_spinors_matches_permutation_sum_oracle():
    rng = np.random.default_rng(41)
    spinors = [
        Spinor(*helpers.random_amplitudes(rng, 2)) for _ in range(4)
    ]
    oracle = helpers.permutation_sum_coefficients(spinors)
    state = state_from_spinors(spinors)
    np.testing.assert_allclose(
        state.amplitudes * sqrt_binomials(4),
        oracle,
        rtol=1e-12,
    )


def test_state_from_spinors_permutation_invariant():
    rng = np.random.default_rng(42)
    spinors = [Spinor(*helpers.random_amplitudes(rng, 2)) for _ in range(5)]
    shuffled = [spinors[i] for i in (3, 0, 4, 1, 2)]
    a = state_from_spinors(spinors).amplitudes
    b = state_from_spinors(shuffled).amplitudes
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_product_polynomial_identity():
    # the polynomial of the symmetrized state is the spinor product itself
    rng = np.random.default_rng(43)
    for count in (1, 2, 6):
        spinors = [Spinor(*helpers.random_amplitudes(rng, 2)) for _ in range(count)]
        scale = complex(*rng.standard_normal(2))
        state = state_from_spinors(spinors, scale)
        product = helpers.sequential_convolution_coefficients(spinors)
        np.testing.assert_allclose(
            majorana_polynomial(state).coefficients,
            scale * product,
            atol=1e-12 * np.max(np.abs(product)) * abs(scale),
        )


def test_spinor_for_point_inverts_root_map():
    rng = np.random.default_rng(44)
    for _ in range(20):
        p = BlochPoint(rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi))
        alpha, beta = spinor_for_point(p)
        x = -beta / alpha
        assert abs(x) == pytest.approx(np.tan(p.theta / 2), rel=1e-12)
        # compare azimuths on the circle to dodge the 0 / 2pi seam
        assert abs(np.exp(1j * (np.angle(x) - p.phi)) - 1) < 1e-12


def test_entangled_pair_constellation_is_equatorial_triple(ent_pair):
    c = majorana_constellation(spin_from_qubits(ent_pair))
    expected = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    assert matching_max_distance(c, expected) <= 1e-9


def test_bottom_level_constellation_is_all_south():
    c = majorana_constellation(SpinState(4, [1, 0, 0, 0, 0]))
    assert all(p == BlochPoint(np.pi, 0.0) for p in c.points)


def test_constellation_is_ray_invariant():
    rng = np.random.default_rng(45)
    spin = helpers.random_spin(rng, 5)
    scaled = SpinState(5, 7.3 * np.exp(1j * np.pi / 5) * spin.amplitudes)
    assert matching_max_distance(
        majorana_constellation(spin), majorana_constellation(scaled)
    ) <= 1e-10


def test_distinct_rays_have_distinct_constellations():
    rng = np.random.default_rng(46)
    a = helpers.random_spin(rng, 4)
    b = helpers.random_spin(rng, 4)
    assert matching_max_distance(
        majorana_constellation(a), majorana_constellation(b)
    ) > 1e-3


def test_state_from_constellation_recovers_entangled_pair(ent_pair):
    c = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    state = state_from_constellation(c)
    assert ray_fidelity(state.amplitudes, ent_pair.amplitudes) >= 1 - 1e-12


def test_all_north_constellation_is_top_level():
    c = helpers.make_constellation([(0.0, 0.0)] * 4)
    state = state_from_constellation(c)
    assert rays_equal(state.amplitudes, [0, 0, 0, 0, 1])


def test_constellation_round_trip_from_points():
    rng = np.random.default_rng(47)
    pts = [
        (np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi)) for _ in range(6)
    ]
    c = helpers.make_constellation(pts)
    back = majorana_constellation(state_from_constellation(c))
    assert matching_max_distance(c, back) <= 1e-8


@pytest.mark.parametrize("two_S", [1, 2, 3, 7, 10])
def test_state_round_trip_preserves_ray(two_S):
    rng = np.random.default_rng(48 + two_S)
    spin = helpers.random_spin(rng, two_S)
    back = state_from_constellation(majorana_constellation(spin))
    assert ray_fidelity(back.amplitudes, spin.amplitudes) >= 1 - 1e-9


def test_degree_deficiency_becomes_south_poles():
    rng = np.random.default_rng(49)
    amps = helpers.random_amplitudes(rng, 7)
    amps[5:] = 0.0  # two vanished top levels
    c = majorana_constellation(SpinState(6, amps))
    south = [p for p in c.points if p.theta == np.pi]
    assert len(south) == 2


@pytest.mark.parametrize("n", [1, 4, 9, 30, 31, 32, 100, 511, 1023])
def test_sqrt_binomials_square_to_exact_binomials(n):
    row = sqrt_binomials(n)
    assert np.all(np.isfinite(row))
    for k, s in enumerate(row.tolist()):
        assert math.isclose(s * s, math.comb(n, k), rel_tol=4 * np.finfo(float).eps)


def test_sqrt_binomials_row_is_cached_read_only():
    row = sqrt_binomials(255)
    assert sqrt_binomials(255) is row
    with pytest.raises(ValueError):
        row *= 2.0
    assert math.isclose(row[1] ** 2, 255.0)


def test_sqrt_binomials_cache_does_not_let_a_non_integer_through():
    # 3.0 and True equal and hash as the np.int64 rows cached first
    sqrt_binomials(np.int64(3)), sqrt_binomials(np.int64(1))
    for bad in (3.0, np.float64(3.0), True, np.True_):
        with pytest.raises(TypeError, match="n must be an integer"):
            sqrt_binomials(bad)


def test_sqrt_binomials_stop_at_the_float64_limit():
    assert np.all(np.isfinite(sqrt_binomials(1029)))
    for n in (1030, -3):
        with pytest.raises(ValueError, match="2S <= 1029"):
            sqrt_binomials(n)


@pytest.mark.parametrize("count", [1, 7, 31, 1023])
def test_spinor_map_matches_pointwise_oracle(count):
    c = helpers.coincident_points(np.random.default_rng(606), 1023)
    c = Constellation(c.points[:count], count)
    spinors = [Spinor(*helpers.pointwise_spinor(p)) for p in c.points]
    for p, expected in zip(c.points, spinors):
        assert tuple(spinor_for_point(p)) == tuple(expected)
    np.testing.assert_array_equal(
        state_from_constellation(c).amplitudes, state_from_spinors(spinors).amplitudes
    )


@pytest.mark.parametrize("seed", range(4))
def test_coherent_inverse_at_1023_points(seed):
    rng = np.random.default_rng(607 + seed)
    theta, phi = float(np.arccos(rng.uniform(-1.0, 1.0))), float(rng.uniform(0.0, 2 * np.pi))
    state = state_from_constellation(Constellation((BlochPoint(theta, phi),) * 1023, 1023))
    assert rays_equal(state.amplitudes, helpers.coherent_amplitudes(1023, theta, phi))


@pytest.mark.parametrize("north", [0, 1, 511, 600, 767, 1022, 1023])
def test_dicke_inverse_at_1023_points(north):
    # north points at the north pole and the rest at the south pole: level m = north
    pts = (BlochPoint(0.0, 0.0),) * north + (BlochPoint(np.pi, 0.0),) * (1023 - north)
    state = state_from_constellation(Constellation(pts, 1023))
    assert rays_equal(state.amplitudes, np.eye(1024)[north])


@pytest.mark.parametrize(
    "kind, two_S",
    [("scattered", 7), ("scattered", 31), ("scattered", 127), ("scattered", 255),
     ("coherent", 511), ("dicke", 255)],
)
def test_spinor_product_within_rounding_bound_of_mpmath(kind, two_S):
    # componentwise |error_k| <= 2S eps coef_k(prod_j (|alpha_j| x + |beta_j|)),
    # so where that coefficient is 0 (Dicke inputs) the error is exactly 0
    rng = np.random.default_rng(708 + two_S)
    if kind == "scattered":
        thetas = np.arccos(rng.uniform(-1.0, 1.0, two_S))
        pairs = zip(thetas, rng.uniform(0.0, 2 * np.pi, two_S))
        spinors = [spinor_for_point(p) for p in helpers.make_constellation(pairs).points]
    elif kind == "coherent":
        theta, phi = np.arccos(rng.uniform(-0.9, 0.9)), rng.uniform(0.0, 2 * np.pi)
        spinors = [spinor_for_point(BlochPoint(float(theta), float(phi)))] * two_S
    else:
        up = rng.permutation(two_S) < 100
        spinors = [Spinor(1.0, 0.0) if u else Spinor(0.0, 1.0) for u in up]
    got = state_from_spinors(spinors).amplitudes * sqrt_binomials(two_S)
    error = np.abs(got - helpers.mpmath_product_coefficients(spinors))
    magnitudes = helpers.sequential_convolution_coefficients(
        [(abs(a), abs(b)) for a, b in spinors]
    ).real
    assert np.all(error <= two_S * np.finfo(float).eps * magnitudes)


@pytest.mark.parametrize("two_S", [1, 2, 3, 4, 8, 9, 15, 16, 17, 24, 25, 63, 64])
def test_spinor_product_within_its_documented_bound_at_block_edges(two_S):
    # state_from_spinors' docstring: |error_j| <= ((2S - 1) mu + (2S - L + (L - 1) m) u) M_j
    # to first order, M_j the coefficient of x^j in prod_k (|alpha_k| x + |beta_k|); three
    # roundings more here: dividing the weights out, multiplying them back and
    # rounding the mpmath product
    u = np.finfo(float).eps / 2
    mu = math.sqrt(2) * 2 * u / (1 - 2 * u)
    m = math.isqrt(two_S) + 1
    blocks = -(-two_S // m)
    rng = np.random.default_rng(900 + two_S)
    spinors = [Spinor(*helpers.random_amplitudes(rng, 2)) for _ in range(two_S)]
    sizes = helpers.mpmath_product_coefficients([(abs(a), abs(b)) for a, b in spinors]).real
    bound = ((two_S - 1) * mu + (two_S - blocks + (blocks - 1) * m + 3) * u) * sizes
    got = state_from_spinors(spinors).amplitudes * sqrt_binomials(two_S)
    assert np.all(np.abs(got - helpers.mpmath_product_coefficients(spinors)) <= bound)
    # reversed, which moves factors across block boundaries wherever there are two blocks
    back = state_from_spinors(spinors[::-1]).amplitudes * sqrt_binomials(two_S)
    assert np.all(np.abs(back - got) <= 2 * bound)
