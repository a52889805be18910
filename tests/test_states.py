import copy
import pickle

import numpy as np
import pytest

from stellar import (
    BasisLabel,
    BlochPoint,
    ComplexPolynomial,
    Constellation,
    PureState,
    SpinState,
    alt_constellation,
    constellation_from_json,
    decimal_index,
    find_roots,
    label_from_index,
    majorana_polynomial,
    make_pure_state,
    qubits_from_spin,
    ray_fidelity,
    rays_equal,
    spin_from_qubits,
    tensor_product,
)

import helpers


def test_make_pure_state_accepts_reference_vector():
    state = make_pure_state(2, helpers.ENTANGLED_PAIR)
    assert state.n_qubits == 2
    assert state.amplitudes.dtype == complex
    np.testing.assert_allclose(state.amplitudes, helpers.ENTANGLED_PAIR)


def test_make_pure_state_single_qubit():
    state = make_pure_state(1, [1.0, 0.0])
    assert state.amplitudes.shape == (2,)


@pytest.mark.parametrize(
    "n, amps",
    [
        (2, [0.0, 0.0, 0.0, 0.0]),  # identically zero
        (2, [1.0, 0.0]),  # wrong length
        (0, [1.0]),  # no qubits
        (2, [[1.0, 0.0], [0.0, 1.0]]),  # not 1-d
        (2, [1.0, np.nan, 0.0, 1.0]),  # NaN amplitude
        (1, [np.inf, 1.0]),  # infinite amplitude
        (1, [1.0, complex(0.0, -np.inf)]),  # infinite imaginary part
    ],
)
def test_make_pure_state_rejects_bad_input(n, amps):
    with pytest.raises(ValueError):
        make_pure_state(n, amps)


def test_spin_state_validation():
    with pytest.raises(ValueError):
        SpinState(0, [1.0])
    with pytest.raises(ValueError):
        SpinState(2, [1.0, 0.0])
    with pytest.raises(ValueError):
        SpinState(1, [0.0, 0.0])
    with pytest.raises(ValueError):
        SpinState(1, [1.0, np.nan])
    with pytest.raises(ValueError):
        SpinState(2, [np.inf, 0.0, 1.0])


def test_basis_label_validation():
    assert BasisLabel((0, 1, 1)).bits == (0, 1, 1)
    with pytest.raises(ValueError):
        BasisLabel(())
    with pytest.raises(ValueError):
        BasisLabel((0, 2))


def test_decimal_index_low_bit_is_qubit_zero():
    # qubit j contributes i_j * 2^j, so |i_0=0, i_1=1> sits at position 2
    assert decimal_index(BasisLabel((0, 1))) == 2
    assert decimal_index(BasisLabel((0, 0, 0))) == 0
    assert decimal_index(BasisLabel((1, 1, 1))) == 7
    assert decimal_index(BasisLabel((1, 0, 0))) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_decimal_index_bijection(n):
    seen = set()
    for i in range(2**n):
        label = label_from_index(i, n)
        assert decimal_index(label) == i
        seen.add(label.bits)
    assert len(seen) == 2**n


def test_label_from_index_range_check():
    with pytest.raises(ValueError):
        label_from_index(4, 2)
    with pytest.raises(ValueError):
        label_from_index(-1, 2)


def test_tensor_product_of_uniform_qubits_is_balanced_product():
    plus = make_pure_state(1, [1.0, 1.0])
    combined = tensor_product([plus, plus])
    np.testing.assert_allclose(combined.amplitudes, helpers.BALANCED_PRODUCT)


def test_tensor_product_ground_states():
    zero = make_pure_state(1, [1.0, 0.0])
    combined = tensor_product([zero, zero])
    np.testing.assert_allclose(combined.amplitudes, [1, 0, 0, 0])


def test_tensor_product_first_factor_owns_qubit_zero():
    one = make_pure_state(1, [0.0, 1.0])
    zero = make_pure_state(1, [1.0, 0.0])
    combined = tensor_product([one, zero])
    # |i_0=1, i_1=0> is decimal index 1
    np.testing.assert_allclose(combined.amplitudes, [0, 1, 0, 0])


def test_tensor_product_matches_brute_force_indexing():
    rng = np.random.default_rng(7)
    factors = [helpers.random_state(rng, 1) for _ in range(3)]
    combined = tensor_product(factors)
    for i in range(8):
        bits = label_from_index(i, 3).bits
        expected = 1.0 + 0.0j
        for f, b in zip(factors, bits):
            expected *= f.amplitudes[b]
        np.testing.assert_allclose(combined.amplitudes[i], expected, rtol=1e-13)


def test_tensor_product_associativity_and_scaling():
    rng = np.random.default_rng(8)
    a, b, c = (helpers.random_state(rng, 1) for _ in range(3))
    left = tensor_product([tensor_product([a, b]), c])
    flat = tensor_product([a, b, c])
    np.testing.assert_allclose(left.amplitudes, flat.amplitudes, rtol=1e-13)

    scaled = PureState(1, 2.5j * a.amplitudes)
    np.testing.assert_allclose(
        tensor_product([scaled, b]).amplitudes,
        2.5j * tensor_product([a, b]).amplitudes,
        rtol=1e-13,
    )


def test_tensor_product_rejects_empty_list():
    with pytest.raises(ValueError):
        tensor_product([])


def test_spin_from_qubits_carries_amplitudes_over(ent_pair):
    spin = spin_from_qubits(ent_pair)
    assert spin.two_S == 3
    np.testing.assert_array_equal(spin.amplitudes, ent_pair.amplitudes)


def test_spin_from_qubits_ground_state_is_lowest_magnetic_level():
    spin = spin_from_qubits(make_pure_state(2, [1, 0, 0, 0]))
    # index 0 holds M = -S
    np.testing.assert_allclose(spin.amplitudes, [1, 0, 0, 0])


def test_qubits_from_spin_round_trip():
    rng = np.random.default_rng(9)
    state = helpers.random_state(rng, 3)
    back = qubits_from_spin(spin_from_qubits(state))
    assert back.n_qubits == 3
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)


def test_qubits_from_spin_needs_power_of_two_dimension():
    with pytest.raises(ValueError):
        qubits_from_spin(SpinState(2, [1.0, 0.0, 0.0]))


def test_spin_identification_is_linear():
    rng = np.random.default_rng(10)
    a = helpers.random_amplitudes(rng, 4)
    b = helpers.random_amplitudes(rng, 4)
    lhs = spin_from_qubits(PureState(2, a + 2j * b)).amplitudes
    rhs = spin_from_qubits(PureState(2, a)).amplitudes + 2j * spin_from_qubits(
        PureState(2, b)
    ).amplitudes
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


def test_ray_fidelity_scalar_multiple_is_one():
    rng = np.random.default_rng(11)
    v = helpers.random_amplitudes(rng, 8)
    assert ray_fidelity(v, 3.7j * v) == pytest.approx(1.0, abs=1e-14)
    assert rays_equal(v, (-2 + 1j) * v)


def test_ray_fidelity_orthogonal_is_zero():
    assert ray_fidelity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)
    assert not rays_equal([1, 0], [0, 1])
    assert not rays_equal([1, 0.1], [1, 0])


@pytest.mark.parametrize("helper", [ray_fidelity, rays_equal])
@pytest.mark.parametrize(
    "pair, message",
    [
        (([0, 0], [1, 0]), "identically zero"),
        (([1j, 2], [0, 0]), "identically zero"),
        (([np.nan, 1], [1, 1]), "non-finite"),
        (([1, 1], [1j, np.nan]), "non-finite"),
        (([np.inf, 1], [1, 1]), "non-finite"),
        (([1, 1], [1, -np.inf]), "non-finite"),
    ],
    ids=["a", "b", "nan-a", "nan-b", "inf-a", "inf-b"],
)
def test_ray_helpers_reject_zero_vectors(helper, pair, message):
    with pytest.raises(ValueError, match=message):
        helper(*pair)


# unscaled, <a|a><b|b> underflows to 0 at 1e-170 and overflows to inf at 1e160
@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_rays_equal_far_from_unit_size(scale):
    assert not rays_equal([scale, 0], [0, scale])
    assert rays_equal([scale, 1j * scale], [-scale, -1j * scale])


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1e-170, 0], [0, 1e-170], 0.0),
        ([1e160, 0], [1e160, 1e160], 0.5),
        ([1e-170, 0], [1e-170, 1e-170], 0.5),
    ],
)
def test_ray_fidelity_far_from_unit_size(a, b, expected):
    assert ray_fidelity(a, b) == pytest.approx(expected, abs=1e-15)


def test_ray_helpers_reject_shape_mismatch():
    with pytest.raises(ValueError):
        ray_fidelity([1, 0], [1, 0, 0])


# each entry builds an object from one caller-owned array, and lists the arrays it holds
HOLDERS = {
    "PureState": (lambda a: PureState(2, a), lambda o: [o.amplitudes]),
    "SpinState": (lambda a: SpinState(3, a), lambda o: [o.amplitudes]),
    "ComplexPolynomial": (ComplexPolynomial, lambda o: [o.coefficients]),
    "majorana_polynomial": (
        lambda a: majorana_polynomial(SpinState(3, a)),
        lambda o: [o.coefficients, o.amplitudes],
    ),
}


@pytest.mark.parametrize("build, held", HOLDERS.values(), ids=HOLDERS.keys())
def test_array_holders_own_a_read_only_copy_and_compare_by_identity(build, held):
    source = np.array([1, 2j, -3, 4], dtype=complex)
    obj = build(source)
    kept = [array.copy() for array in held(obj)]
    source[:] = 0
    for array, expected in zip(held(obj), kept):
        np.testing.assert_array_equal(array, expected)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = np.nan
    # states are rays, compared with rays_equal; == is identity and never raises
    twin = build(np.array([1, 2j, -3, 4], dtype=complex))
    assert obj == obj and (obj == twin) is False
    assert isinstance(hash(obj), int) and isinstance(hash(twin), int)


TWO_POINTS = (
    '{"expected_size": 2, "points": [{"theta": 1.0, "phi": 2.0}, {"theta": 0.5, "phi": 0.25}]}'
)


def _angles(constellation):
    return [constellation.thetas, constellation.phis]


# each array-holding value type, built by a call without arguments, and its held arrays
REBUILT = {
    name: (lambda build=build: build([1, 2j, -3, 4]), held)
    for name, (build, held) in HOLDERS.items()
}
REBUILT.update(
    Constellation=(lambda: Constellation((BlochPoint(1, 2), BlochPoint(0.5, 0.25)), 2), _angles),
    alt_constellation=(lambda: alt_constellation(PureState(2, [1, 2j, -3, 4])), _angles),
    constellation_from_json=(lambda: constellation_from_json(TWO_POINTS), _angles),
)

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("build, held", REBUILT.values(), ids=REBUILT.keys())
def test_copies_and_unpickled_objects_are_rebuilt_by_the_constructor(build, held, duplicate):
    obj = build()
    other = duplicate(obj)
    assert type(other) is type(obj)
    for original, array in zip(held(obj), held(other), strict=True):
        # each is its holder's own read-only copy, a view of no other array
        for own in (original, array):
            assert not own.flags.writeable and own.base is None
        assert array.dtype == original.dtype and array.shape == original.shape
        assert array.tobytes() == original.tobytes()


def test_root_results_compare_by_identity():
    p = ComplexPolynomial([1, 0, -1])
    first, second = find_roots(p), find_roots(p)
    assert first == first and (first == second) is False
    assert isinstance(hash(first), int)
