import warnings

import numpy as np
import pytest

import stellar.rotations
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
random_angles = helpers.random_angles


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


@pytest.mark.parametrize("two_S", [31, 255, 1023])
def test_small_d_group_law_at_large_spin(two_S):
    # error model: with W orthonormal, each computed d is within about n eps of the
    # exact one (Higham's gamma_n for its n-term sums), and d1 @ d2 adds one more sum
    n, eps = two_S + 1, np.finfo(float).eps
    b1, b2 = np.random.default_rng(70 + two_S).uniform(-np.pi, np.pi, 2)
    d1, d2 = wigner_small_d(two_S, b1), wigner_small_d(two_S, b2)
    assert np.max(np.abs(d1 @ d2 - wigner_small_d(two_S, b1 + b2))) <= 4 * n * eps
    assert np.max(np.abs(d1.T - wigner_small_d(two_S, -b1))) <= 2 * n * eps


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
    for two_S in (1, 4, 9, 1023):
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


@pytest.mark.parametrize("two_S", [1, 2, 3, 7, 63, 255, 1023])
def test_rotate_spin_matches_dense_matrix(two_S):
    rng = np.random.default_rng(90 + two_S)
    for _ in range(3):
        spin, ang = helpers.random_spin(rng, two_S), random_angles(rng)
        dense = wigner_D(two_S, ang) @ spin.amplitudes
        err = np.max(np.abs(rotate_spin(spin, ang).amplitudes - dense))
        assert err <= 1e-14 * np.linalg.norm(spin.amplitudes)


@pytest.mark.parametrize("two_S", [2, 3, 4, 7, 31, 63, 127])
def test_rotate_spin_matches_matrix_exponential_oracle(two_S):
    rng = np.random.default_rng(91 + two_S)
    for _ in range(3):
        spin, ang = helpers.random_spin(rng, two_S), random_angles(rng)
        np.testing.assert_allclose(
            rotate_spin(spin, ang).amplitudes,
            helpers.expm_rotation(two_S, ang) @ spin.amplitudes,
            atol=1e-10,
        )


@pytest.mark.parametrize("two_S", [3, 255])
def test_rotate_spin_identity_angles_are_exact(two_S):
    spin = helpers.random_spin(np.random.default_rng(93 + two_S), two_S)
    rotated = rotate_spin(spin, EulerAngles(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(rotated.amplitudes, spin.amplitudes)


def test_rotate_spin_never_forms_the_matrix(monkeypatch):
    from stellar import rotations

    def refuse(*args):
        raise AssertionError("dense rotation matrix formed")

    rng = np.random.default_rng(94)
    spin, ang = helpers.random_spin(rng, 255), random_angles(rng)
    monkeypatch.setattr(rotations, "wigner_D", refuse)
    monkeypatch.setattr(rotations, "wigner_small_d", refuse)
    assert rotate_spin(spin, ang).two_S == 255


def test_quarter_turn_disentangles_reference_pair(ent_pair):
    rotated = rotate_spin(spin_from_qubits(ent_pair), QUARTER)
    verdict = decide_separability(qubits_from_spin(rotated))
    assert verdict.separable


def test_rotate_qubits_identity_and_length_check(product_pair):
    same = rotate_qubits(product_pair, [EulerAngles(0, 0, 0)] * 2)
    assert rays_equal(same.amplitudes, product_pair.amplitudes)
    with pytest.raises(ValueError):
        rotate_qubits(product_pair, [EulerAngles(0, 0, 0)])


@pytest.mark.parametrize(
    "triple",
    [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), ("x", 0.2, 0.3), (None, 0.2, 0.3), 0.5],
    ids=["two", "four", "text", "none", "scalar"],
)
def test_rotate_qubits_refuses_a_triple_that_is_not_three_numbers(product_pair, triple):
    with pytest.raises(TypeError):
        rotate_qubits(product_pair, [triple, (0.1, 0.2, 0.3)])
    with pytest.raises(TypeError):  # ragged: the good triple comes first
        rotate_qubits(product_pair, [(0.1, 0.2, 0.3), triple])


# every public way in to a rotation, each taking one Euler triple
ROTATION_ENTRY_POINTS = {
    "wigner_D-1": lambda ang: wigner_D(1, ang),
    "wigner_D-1-stack": lambda ang: wigner_D(1, tuple(np.full((2, 3), x) for x in ang)),
    "wigner_D-3": lambda ang: wigner_D(3, ang),
    "rotate_spin-1": lambda ang: rotate_spin(SpinState(1, [1.0, 2.0]), ang),
    "rotate_spin-3": lambda ang: rotate_spin(SpinState(3, [1, 1, 1, 1]), ang),
    "rotate_qubits": lambda ang: rotate_qubits(helpers.make_pure_state(2, [1, 2, 3, 4]), [ang] * 2),
    "rotate_qubits_uniform": lambda ang: rotate_qubits_uniform(
        helpers.make_pure_state(2, [1, 2, 3, 4]), ang
    ),
    "rotate_separable_components": lambda ang: rotate_separable_components(1.0, 2.0, ang),
    "so3_matrix": so3_matrix,
}

# a complex angle breaks unitarity even with a zero imaginary part in another
# entry, and a non-finite one must be blamed on the angles, not on the state
BAD_ANGLES = {
    "complex": ((1j, 0.5, 0.0), TypeError),
    "complex-alpha": ((1j, 1.0, 2.0), TypeError),
    "complex-real-valued": ((0.5 + 0j, 0.5, 0.0), TypeError),
    "nan": ((np.nan, 0.0, 0.0), ValueError),
    "inf": ((0.0, np.inf, 0.0), ValueError),
    "-inf": ((0.0, 0.0, -np.inf), ValueError),
}


@pytest.mark.parametrize("form", ["python", "numpy"])
@pytest.mark.parametrize("bad", BAD_ANGLES)
@pytest.mark.parametrize("entry", ROTATION_ENTRY_POINTS)
def test_every_rotation_entry_point_refuses_complex_and_non_finite_angles(entry, bad, form):
    angles, error = BAD_ANGLES[bad]
    # Python scalars in an EulerAngles, or one complex128 or float64 array
    angles = EulerAngles(*angles) if form == "python" else np.array(angles)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way to the refusal
        with pytest.raises(error, match="Euler triple"):  # the angles are blamed, not the state
            ROTATION_ENTRY_POINTS[entry](angles)


# BAD_ANGLES' values, as the one angle wigner_small_d takes
BAD_BETAS = {
    "complex": (1j, TypeError),
    "complex-real-valued": (0.5 + 0j, TypeError),
    "nan": (np.nan, ValueError),
    "inf": (np.inf, ValueError),
    "-inf": (-np.inf, ValueError),
}


@pytest.mark.parametrize("form", ["python", "numpy", "stack"])
@pytest.mark.parametrize("bad", BAD_BETAS)
@pytest.mark.parametrize("two_S", [1, 3])
def test_small_d_refuses_complex_and_non_finite_beta(two_S, bad, form):
    beta, error = BAD_BETAS[bad]
    beta = {"python": beta, "numpy": np.array(beta), "stack": np.array([0.5, beta])}[form]
    if form == "stack" and two_S == 3:
        error = TypeError  # stacks only at 2S = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way to the refusal
        with pytest.raises(error, match="Euler"):
            wigner_small_d(two_S, beta)


@pytest.mark.parametrize("two_S", [1, 3])
def test_small_d_refuses_a_ragged_beta_as_the_reader_does(two_S):
    with pytest.raises(TypeError, match="Euler"):
        wigner_small_d(two_S, [0.1, [0.2, 0.3]])


def test_qubit_rotation_reads_its_angles_once(monkeypatch):
    reads = []
    read = stellar.rotations._euler
    monkeypatch.setattr(stellar.rotations, "_euler", lambda *a: reads.append(a) or read(*a))
    state = helpers.random_state(np.random.default_rng(71), 3)
    rotate_qubits(state, [QUARTER] * 3)
    wigner_D(1, QUARTER)
    assert len(reads) == 2


def test_small_d_stacks_betas_at_spin_half():
    betas = np.array([[0.5, 1.0], [-2.0, 3]])
    stack = wigner_small_d(1, betas)
    assert stack.shape == (2, 2, 2, 2)
    for index in np.ndindex(betas.shape):
        np.testing.assert_array_equal(stack[index], wigner_small_d(1, float(betas[index])))


_PINNED_BETAS = [0.0, -0.0, np.pi, 1e-300, *np.random.default_rng(33).uniform(-7, 7, 2)]


@pytest.mark.parametrize(
    "two_S, beta",
    [(k, b) for k in (1, 2, 3, 7, 63) for b in _PINNED_BETAS] + [(1, np.array(_PINNED_BETAS))],
    ids=repr,
)
def test_small_d_is_the_real_part_of_wigner_D_bit_for_bit(two_S, beta):
    big = wigner_D(two_S, (np.zeros_like(beta), beta, np.zeros_like(beta)))
    # tobytes keeps signed zeros apart, which array_equal would not
    assert wigner_small_d(two_S, beta).tobytes() == big.real.tobytes()
    assert not np.any(big.imag)


@pytest.mark.parametrize("entry", ROTATION_ENTRY_POINTS)
def test_integer_and_float32_angles_are_read_as_float64(entry):
    def call(angles):  # a state's amplitudes, or the matrix itself
        out = ROTATION_ENTRY_POINTS[entry](angles)
        return getattr(out, "amplitudes", out)

    np.testing.assert_array_equal(call((1, 2, -3)), call((1.0, 2.0, -3.0)))
    third = np.float32(1 / 3)  # cos and sin of it run in float64, not float32
    np.testing.assert_array_equal(
        call(np.array([third, third, 0], dtype=np.float32)), call((float(third), float(third), 0.0))
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: so3_matrix((0.1, 0.2)),
        lambda: so3_matrix((0.1, 0.2, 0.3, 0.4)),
        lambda: wigner_D(3, (np.zeros(2), np.zeros(2), np.zeros(2))),  # stacks only at 2S = 1
        lambda: wigner_D(1, (np.zeros(2), 0.5, 0.0)),  # arrays of different shapes
        lambda: rotate_spin(SpinState(3, [1, 1, 1, 1]), ("x", 0.0, 0.0)),
        lambda: rotate_spin(SpinState(1, [1, 1]), (None, 0.0, 0.0)),
    ],
    ids=["two", "four", "stack-at-2S-3", "ragged-stack", "text", "none"],
)
def test_a_malformed_triple_is_a_type_error_at_every_entry_point(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("n", range(1, 11))
def test_rotate_qubits_matches_the_kronecker_oracle(n):
    rng = np.random.default_rng(630 + n)
    for _ in range(2):
        state = helpers.random_state(rng, n)  # entangled
        triples = [random_angles(rng) for _ in range(n)]
        err = np.max(np.abs(
            rotate_qubits(state, triples).amplitudes
            - helpers.kronecker_qubit_rotation(state.amplitudes, triples)
        ))
        assert err <= 1e-14 * np.linalg.norm(state.amplitudes)


def test_rotating_a_basis_qubit_returns_the_columns_of_wigner_D():
    # the einsum apply adds exact zeros to u[a, b] * 1, so the bits must match
    rng = np.random.default_rng(640)
    for _ in range(20):
        ang = random_angles(rng)
        u = wigner_D(1, ang)
        for b in (0, 1):
            basis = np.eye(2)[b]
            np.testing.assert_array_equal(rotate_spin(SpinState(1, basis), ang).amplitudes, u[:, b])
            np.testing.assert_array_equal(
                rotate_qubits(helpers.make_pure_state(1, basis), [ang]).amplitudes, u[:, b]
            )


@pytest.mark.parametrize("k", [None, 1, 3, 12], ids=["0-d", "1", "3", "12"])
def test_spin_half_stack_holds_one_matrix_per_triple(k):
    # rotate_qubits applies this stack, so each slice must be the scalar call's bits
    rng = np.random.default_rng(650 + (k or 0))
    triples = [random_angles(rng) for _ in range(k or 1)]
    alpha, beta, gamma = np.transpose(triples) if k else map(np.array, triples[0])  # 0-d
    stack = wigner_D(1, (alpha, beta, gamma))
    assert stack.shape == np.shape(alpha) + (2, 2)
    for j in np.ndindex(np.shape(alpha)):
        one = wigner_D(1, EulerAngles(alpha[j], beta[j], gamma[j]))
        np.testing.assert_array_equal(stack[j], one)


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


def test_so3_matrix_matches_the_axis_rotation_product():
    # so3_matrix is the spin-1/2 matrix's adjoint action; the oracle multiplies
    # 3 x 3 axis rotations, so the two share no code
    rng = np.random.default_rng(67)
    triples = [rng.uniform(-7.0, 7.0, 3) for _ in range(1000)]
    triples += [(rng.uniform(-7.0, 7.0), beta, rng.uniform(-7.0, 7.0))
                for beta in (0.0, np.pi) for _ in range(20)]
    worst = max(np.abs(so3_matrix(EulerAngles(*t)) - helpers.zyz_point_rotation(t)).max()
                for t in triples)
    assert worst <= 1e-15


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
    # gimbal-locked: beta exactly 0 or pi, all z-rotation in alpha, gamma exactly 0
    locked = [so3_matrix(EulerAngles(0.4, 0.0, 1.1)), so3_matrix(EulerAngles(-0.2, np.pi, 0.9))]
    locked += [np.diag(d) for d in ([-1.0, -1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0])]
    for r in locked:
        e = euler_from_so3(r)
        assert e.beta == (np.pi if r[2, 2] < 0 else 0.0) and e.gamma == 0.0
        np.testing.assert_allclose(so3_matrix(e), r, atol=1e-12)


@pytest.mark.parametrize(
    "matrix",
    [np.zeros((3, 3)), 2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan),
     np.eye(2), np.eye(3) + 0.5j],
    ids=["zero", "twice-identity", "reflection", "nan", "2x2", "complex"],
)
@pytest.mark.parametrize(
    "entry",
    [euler_from_so3, lambda m: rotate_constellation(helpers.make_constellation([(0.3, 0.0)]), m)],
    ids=["euler_from_so3", "rotate_constellation"],
)
def test_matrix_entries_refuse_matrices_that_are_not_rotations(entry, matrix):
    # a complex matrix is not real numbers, as complex Euler angles are not
    with pytest.raises(TypeError if np.iscomplexobj(matrix) else ValueError, match="rotation"):
        entry(matrix)


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
