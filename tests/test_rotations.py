import numpy as np
import pytest

from stellar import (
    EulerAngles,
    SpinState,
    decide_separability,
    euler_from_so3,
    majorana_constellation,
    matching_max_distance,
    qubits_from_spin,
    rays_equal,
    rotate_constellation,
    rotate_qubits,
    rotate_qubits_uniform,
    rotate_separable_components,
    rotate_spin,
    so3_matrix,
    spin_from_qubits,
    tensor_product,
    wigner_D,
    wigner_small_d,
)

import helpers

QUARTER = EulerAngles(*helpers.QUARTER_TURN_Y)


def random_angles(rng) -> EulerAngles:
    return EulerAngles(
        rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
    )


def test_single_qubit_rotation_about_y():
    beta = 0.7
    expected = np.array(
        [
            [np.cos(beta / 2), -np.sin(beta / 2)],
            [np.sin(beta / 2), np.cos(beta / 2)],
        ]
    )
    np.testing.assert_allclose(
        wigner_D(1, EulerAngles(0.0, beta, 0.0)), expected, atol=1e-15
    )


@pytest.mark.parametrize("two_S", [1, 2, 3, 6, 63, 255])
def test_identity_angles_give_identity_matrix(two_S):
    np.testing.assert_array_equal(
        wigner_D(two_S, EulerAngles(0, 0, 0)), np.eye(two_S + 1)
    )


def test_small_d_rejects_nonpositive_spin():
    with pytest.raises(ValueError):
        wigner_small_d(0, 1.0)


@pytest.mark.parametrize("two_S", [1, 2, 3, 5, 63, 127, 255, 511, 1023])
def test_rotation_matrix_is_unitary(two_S):
    rng = np.random.default_rng(51 + two_S)
    u = wigner_D(two_S, random_angles(rng))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(two_S + 1), atol=1e-12)


@pytest.mark.parametrize("two_S", [1, 2, 3, 4, 7, 31, 63, 127])
def test_matches_matrix_exponential_oracle(two_S):
    rng = np.random.default_rng(55 + two_S)
    for _ in range(5):
        ang = random_angles(rng)
        np.testing.assert_allclose(
            wigner_D(two_S, ang), helpers.expm_rotation(two_S, ang), atol=1e-10
        )


@pytest.mark.parametrize("two_S", [1, 2, 3, 7, 15])
def test_small_d_matches_factorial_sum(two_S):
    for beta in np.linspace(0.0, np.pi, 7):
        np.testing.assert_allclose(
            wigner_small_d(two_S, beta),
            helpers.factorial_sum_small_d(two_S, beta),
            atol=1e-13,
        )


@pytest.mark.parametrize("two_S", [2, 3])
def test_composition_up_to_global_sign(two_S):
    rng = np.random.default_rng(58)
    for _ in range(10):
        g1, g2 = random_angles(rng), random_angles(rng)
        combined = euler_from_so3(so3_matrix(g1) @ so3_matrix(g2))
        product = wigner_D(two_S, g1) @ wigner_D(two_S, g2)
        direct = wigner_D(two_S, combined)
        # rays, not raw matrices: half-integer spins pick up a sign
        v = helpers.random_amplitudes(rng, two_S + 1)
        assert rays_equal(product @ v, direct @ v, tol=1e-10)


def test_rotate_spin_preserves_norm():
    rng = np.random.default_rng(59)
    for two_S in (1, 4, 9):
        spin = helpers.random_spin(rng, two_S)
        rotated = rotate_spin(spin, random_angles(rng))
        np.testing.assert_allclose(
            np.linalg.norm(rotated.amplitudes),
            np.linalg.norm(spin.amplitudes),
            rtol=1e-12,
        )


def test_rotate_spin_identity_keeps_ray():
    rng = np.random.default_rng(60)
    spin = helpers.random_spin(rng, 3)
    rotated = rotate_spin(spin, EulerAngles(0, 0, 0))
    assert rays_equal(rotated.amplitudes, spin.amplitudes)


def test_quarter_turn_disentangles_reference_pair(ent_pair):
    rotated = rotate_spin(spin_from_qubits(ent_pair), QUARTER)
    verdict = decide_separability(qubits_from_spin(rotated))
    assert verdict.separable


def test_rotate_qubits_identity_and_length_check(product_pair):
    same = rotate_qubits(product_pair, [EulerAngles(0, 0, 0)] * 2)
    assert rays_equal(same.amplitudes, product_pair.amplitudes)
    with pytest.raises(ValueError):
        rotate_qubits(product_pair, [EulerAngles(0, 0, 0)])


def test_uniform_quarter_turn_on_product_state(product_pair):
    rotated = rotate_qubits_uniform(product_pair, QUARTER)
    # each factor (1,1) goes to (0, sqrt(2)): only the all-ones amplitude survives
    np.testing.assert_allclose(rotated.amplitudes, [0, 0, 0, 2], atol=1e-15)


def test_closed_form_survives_reference_rotation():
    a, b = rotate_separable_components(1.0, 1.0, QUARTER)
    assert a == pytest.approx(0.0, abs=1e-15)
    assert b == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert rotate_separable_components(0.5, -2j, EulerAngles(0, 0, 0)) == (0.5, -2j)


def test_closed_form_rejects_zero_spinor():
    with pytest.raises(ValueError):
        rotate_separable_components(0.0, 0.0, QUARTER)


def test_closed_form_matches_matrix_action():
    rng = np.random.default_rng(61)
    for _ in range(25):
        a, b = helpers.random_amplitudes(rng, 2)
        ang = random_angles(rng)
        got = np.array(rotate_separable_components(a, b, ang))
        expected = np.array(helpers.closed_form_spinor_rotation(a, b, ang))
        np.testing.assert_allclose(got, expected, atol=1e-13)


def test_rotate_qubits_factors_through_components():
    rng = np.random.default_rng(62)
    for n in (2, 3, 4):
        factors = [helpers.random_state(rng, 1) for _ in range(n)]
        triples = [random_angles(rng) for _ in range(n)]
        whole = rotate_qubits(tensor_product(factors), triples)
        rotated_factors = [
            helpers.make_pure_state(
                1, helpers.closed_form_spinor_rotation(f.amplitudes[0], f.amplitudes[1], t)
            )
            for f, t in zip(factors, triples)
        ]
        piecewise = tensor_product(rotated_factors)
        np.testing.assert_allclose(
            whole.amplitudes, piecewise.amplitudes, atol=1e-12
        )


def test_so3_matrix_basics():
    np.testing.assert_allclose(so3_matrix(EulerAngles(0, 0, 0)), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(
        so3_matrix(QUARTER) @ [0, 0, 1.0], [1.0, 0, 0], atol=1e-15
    )


def test_so3_matrix_is_special_orthogonal():
    rng = np.random.default_rng(63)
    for _ in range(20):
        r = so3_matrix(random_angles(rng))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_euler_extraction_round_trip():
    rng = np.random.default_rng(64)
    for _ in range(30):
        r = so3_matrix(random_angles(rng))
        np.testing.assert_allclose(so3_matrix(euler_from_so3(r)), r, atol=1e-12)
    # gimbal-locked branches
    for ang in (EulerAngles(0.4, 0.0, 1.1), EulerAngles(-0.2, np.pi, 0.9)):
        r = so3_matrix(ang)
        np.testing.assert_allclose(so3_matrix(euler_from_so3(r)), r, atol=1e-12)


def test_so3_composition_is_homomorphic():
    rng = np.random.default_rng(65)
    g1, g2 = random_angles(rng), random_angles(rng)
    product = so3_matrix(g1) @ so3_matrix(g2)
    np.testing.assert_allclose(
        so3_matrix(euler_from_so3(product)), product, atol=1e-12
    )


def test_rotate_constellation_identity_and_distances():
    rng = np.random.default_rng(66)
    pts = [
        (np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi)) for _ in range(5)
    ]
    c = helpers.make_constellation(pts)
    same = rotate_constellation(c, np.eye(3))
    assert matching_max_distance(c, same) <= 1e-12

    r = so3_matrix(random_angles(rng))
    moved = rotate_constellation(c, r)
    from stellar import geodesic_distance

    for i in range(5):
        for j in range(i + 1, 5):
            assert geodesic_distance(moved.points[i], moved.points[j]) == pytest.approx(
                geodesic_distance(c.points[i], c.points[j]), abs=1e-12
            )


def test_constellation_rotates_rigidly_with_the_state(ent_pair):
    spin = spin_from_qubits(ent_pair)
    by_state = majorana_constellation(rotate_spin(spin, QUARTER))
    by_points = rotate_constellation(majorana_constellation(spin), so3_matrix(QUARTER))
    assert matching_max_distance(by_state, by_points) <= 1e-9


def test_rigid_body_property_random_spins():
    rng = np.random.default_rng(67)
    for _ in range(20):
        two_S = int(rng.integers(1, 8))
        spin = helpers.random_spin(rng, two_S)
        ang = random_angles(rng)
        by_state = majorana_constellation(rotate_spin(spin, ang))
        by_points = rotate_constellation(majorana_constellation(spin), so3_matrix(ang))
        assert matching_max_distance(by_state, by_points) <= 1e-8


@pytest.mark.parametrize("two_S", [127, 255, 511, 1023])
def test_coherent_state_rotates_rigidly_at_large_spin(two_S):
    # the state with all 2S points at n is carried to the one at so3_matrix @ n;
    # no root finding, which does not reach these sizes
    rng = np.random.default_rng(68 + two_S)
    for _ in range(2):
        theta, phi = rng.uniform(0.3, np.pi - 0.3), rng.uniform(0, 2 * np.pi)
        ang = random_angles(rng)
        n = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        x, y, z = so3_matrix(ang) @ n
        rotated = rotate_spin(
            SpinState(two_S, helpers.coherent_amplitudes(two_S, theta, phi)), ang
        )
        expected = helpers.coherent_amplitudes(two_S, np.arccos(z), np.arctan2(y, x))
        assert helpers.ray_mismatch(rotated.amplitudes, expected) <= 1e-10


def test_per_qubit_rotation_is_not_rigid(ent_pair):
    original = majorana_constellation(spin_from_qubits(ent_pair))
    twisted = majorana_constellation(
        spin_from_qubits(rotate_qubits_uniform(ent_pair, QUARTER))
    )

    def distance_multiset(c):
        from stellar import geodesic_distance

        n = len(c.points)
        return sorted(
            geodesic_distance(c.points[i], c.points[j])
            for i in range(n)
            for j in range(i + 1, n)
        )

    gaps = np.abs(np.array(distance_multiset(original)) - distance_multiset(twisted))
    assert gaps.max() > 1e-3


@pytest.mark.parametrize(
    "angles",
    [(0.0, 0.0, 0.0), (0.0, np.pi, 0.0), (0.0, np.pi / 2, 0.0), (0.0, -np.pi / 2, 0.0),
     (np.pi / 2, np.pi / 2, 0.0), (1.0, 0.0, 2.0), (0.3, 1.1, 2.0)],
    ids=["identity", "flip", "quarter", "minus-quarter", "x-to-pole", "about-z", "generic"],
)
def test_rotate_constellation_matches_pointwise_oracle(angles):
    # the quarter turns and the flip carry equator and pole points onto the poles
    c = helpers.coincident_points(np.random.default_rng(604), 1023)
    r = so3_matrix(EulerAngles(*angles))
    expected = tuple(
        helpers.pointwise_point_from_cartesian(v)
        for v in np.array([helpers.pointwise_cartesian(p) for p in c.points]) @ r.T
    )
    assert rotate_constellation(c, r).points == expected
