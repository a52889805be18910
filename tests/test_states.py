import copy
import functools
import pickle

import numpy as np
import pytest

from stellar import (
    BasisLabel,
    BlochPoint,
    ComplexPolynomial,
    Constellation,
    EulerAngles,
    InputFormatError,
    PureState,
    RenderSpec,
    SpinState,
    alt_constellation,
    bloch_point,
    constellation_from_json,
    constellation_to_json,
    decide_separability,
    decimal_index,
    euler_from_so3,
    evaluate,
    find_roots,
    geodesic_distance,
    label_from_index,
    majorana_polynomial,
    make_pure_state,
    point_from_cartesian,
    points_from_roots,
    qubits_from_spin,
    ray_fidelity,
    rays_equal,
    rotate_qubits,
    so3_matrix,
    spin_from_qubits,
    sqrt_binomials,
    state_from_json,
    state_from_spinors,
    state_to_json,
    tensor_product,
    to_cartesian,
    wigner_D,
    wigner_small_d,
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
    # bits are counts: a float is refused, not truncated
    with pytest.raises(TypeError):
        BasisLabel((0.5, 1))
    with pytest.raises(TypeError):
        BasisLabel((1.9,))


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


# each entry reads one four-entry complex vector, and the name its refusals give it
VECTOR_READERS = {
    "PureState": (lambda v: PureState(2, v), "state vector"),
    "SpinState": (lambda v: SpinState(3, v), "state vector"),
    "ComplexPolynomial": (ComplexPolynomial, "coefficient vector"),
    "rays_equal-a": (lambda v: rays_equal(v, v), "state vector a"),
    "rays_equal-b": (lambda v: rays_equal(np.ones(4), v), "state vector b"),
    "ray_fidelity-a": (lambda v: ray_fidelity(v, v), "state vector a"),
    "ray_fidelity-b": (lambda v: ray_fidelity(np.ones(4), v), "state vector b"),
}


@pytest.mark.parametrize("read, name", VECTOR_READERS.values(), ids=VECTOR_READERS.keys())
@pytest.mark.parametrize(
    "vector, message",
    [
        ([1, np.nan, 0, 1], " has a non-finite entry"),
        ([np.inf, 1, 0, 1], " has a non-finite entry"),
        ([1, 1, 0, complex(0, -np.inf)], " has a non-finite entry"),
        ([0, 0, 0, 0], " is identically zero"),
        ([[1, 0], [0, 1]], ": expected a 1-d array of "),
    ],
    ids=["nan", "inf", "minus-inf", "zero", "2-d"],
)
def test_every_complex_vector_is_refused_by_one_reader(read, name, vector, message):
    # a 2-d pair of one shape must not be read as its flattened vectors
    with pytest.raises(ValueError, match=f"^{name}{message}"):
        read(np.array(vector, dtype=complex))


@pytest.mark.parametrize("read, name", VECTOR_READERS.values(), ids=VECTOR_READERS.keys())
@pytest.mark.parametrize(
    "vector",
    [
        ["1", "0", "0", "1"],
        [b"1", b"0", b"0", b"1"],
        [None, 1, 0, 1],
        [2**70, 1, 0, 1],
        [True, False, False, True],
        np.array([True, False, False, True]),
        [1.0, True, 0.0, 1.0],
        [1.0, np.False_, 0.0, 1.0],
        [1.0, np.array(True), 0.0, 1.0],
    ],
    ids=["str", "bytes", "None", "beyond-int64", "bool", "numpy-bool", "bool-among-floats",
         "numpy-bool-among-floats", "numpy-bool-array-among-floats"],
)
def test_vector_readers_refuse_entries_that_are_not_numbers(read, name, vector):
    # numpy would parse the strings and read bools as 0 and 1, also among floats; None and
    # big ints make an object array
    with pytest.raises(TypeError, match=f"^{name} must hold numbers"):
        read(vector)


# every other entry point that reads numbers, each putting one value v into the
# argument it names; every one reads them by the same rule as VECTOR_READERS
NUMBER_READERS = {
    "Constellation": (lambda v: Constellation((BlochPoint(v, 0.0),), 1), "theta"),
    "bloch_point-theta": (lambda v: bloch_point(v, 0.0), "theta"),
    "bloch_point-phi": (lambda v: bloch_point(0.5, v), "phi"),
    "to_cartesian": (lambda v: to_cartesian(BlochPoint(v, 0.0)), "theta"),
    "geodesic_distance": (
        lambda v: geodesic_distance(BlochPoint(0.5, 0.0), BlochPoint(0.5, v)), "phi"
    ),
    "points_from_roots": (lambda v: points_from_roots([v], 0, 1), "roots"),
    "point_from_cartesian": (lambda v: point_from_cartesian([v, 0.0, 1.0]), "v"),
    "state_from_spinors": (lambda v: state_from_spinors([(v, 1.0)]), "spinors"),
    "evaluate": (lambda v: evaluate(ComplexPolynomial([1, 2]), v), "x"),
    "evaluate-list": (lambda v: evaluate(ComplexPolynomial([1, 2]), [0.5, v]), "x"),
    "so3_matrix": (lambda v: so3_matrix((v, 0.0, 0.0)), "Euler triple"),
    "rotate_qubits": (
        lambda v: rotate_qubits(PureState(1, [1, 0]), [EulerAngles(0.5, v, 0.0)]), "Euler triple"
    ),
    "euler_from_so3": (
        lambda v: euler_from_so3([[v, 0, 0], [0, 1, 0], [0, 0, 1]]), "rotation matrix"
    ),
    # the scalars that govern a computation, each read as one number of shape ()
    "find_roots-tol": (lambda v: find_roots(ComplexPolynomial([1, 2]), tol=v), "tol"),
    "rays_equal-tol": (lambda v: rays_equal([1, 0], [1, 0], tol=v), "tol"),
    "decide_separability-tol": (lambda v: decide_separability(PureState(1, [1, 0]), v), "tol"),
    "state_from_spinors-scale": (lambda v: state_from_spinors([(1, 1)], scale=v), "scale"),
    "RenderSpec": (lambda v: RenderSpec(point_radius_px=v), "point_radius_px"),
}


@pytest.mark.parametrize("read, name", NUMBER_READERS.values(), ids=NUMBER_READERS.keys())
@pytest.mark.parametrize(
    "value",
    ["1", b"1", None, 2**70, [1, [2, 3]]],
    ids=["str", "bytes", "None", "beyond-int64", "ragged"],
)
def test_number_readers_refuse_entries_that_are_not_numbers(read, name, value):
    # numpy would parse the strings; the others make an object array
    with pytest.raises(TypeError, match=f"^{name} must hold (real )?numbers"):
        read(value)


@pytest.mark.parametrize("read, name", NUMBER_READERS.values(), ids=NUMBER_READERS.keys())
@pytest.mark.parametrize(
    "value", [True, np.False_, np.array(True)], ids=["bool", "numpy-bool", "numpy-bool-array"]
)
def test_number_readers_refuse_bools(read, name, value):
    # as _count refuses a bool as a count; numpy would read it as 0 or 1, also where v shares
    # a list or tuple with numbers, nested or not, as in six of the readers
    with pytest.raises(TypeError, match=f"^{name} must hold (real )?numbers, got bool entries"):
        read(value)


def test_a_numpy_bool_array_among_number_arrays_is_refused():
    # numpy reads the array's bools as 0 and 1 once it shares a list with numbers; a 0-d bool
    # array among numbers is the "numpy-bool-array" case above
    with pytest.raises(TypeError, match="^spinors must hold numbers, got bool entries"):
        state_from_spinors([np.array([True, False]), np.array([0.5, 1.0])])


@pytest.mark.parametrize("read, name", NUMBER_READERS.values(), ids=NUMBER_READERS.keys())
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_number_readers_refuse_non_finite_entries(read, name, value):
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry"):
        read(value)


PAIR = np.array([0.5, 0.25])

# each entry gives the number reader an argument of a shape it refuses, under the
# name its refusal gives; the scalars of NUMBER_READERS are given as length-2 arrays
SHAPE_READERS = {
    "bloch_point-theta": (lambda: bloch_point(PAIR, 0.0), "theta"),
    "bloch_point-phi": (lambda: bloch_point(0.5, PAIR), "phi"),
    "Constellation": (lambda: Constellation((BlochPoint(PAIR, 0.0),), 1), "theta"),
    "point_from_cartesian-2": (lambda: point_from_cartesian([1.0, 0.0]), "v"),
    "point_from_cartesian-6": (lambda: point_from_cartesian(np.ones(6)), "v"),
    "euler_from_so3": (lambda: euler_from_so3(np.eye(2)), "rotation matrix"),
    **{
        key: (functools.partial(read, PAIR), name)
        for key, (read, name) in NUMBER_READERS.items()
        if name in ("tol", "scale", "point_radius_px")
    },
}


@pytest.mark.parametrize("read, name", SHAPE_READERS.values(), ids=SHAPE_READERS.keys())
def test_number_readers_refuse_a_shape_that_does_not_fit(read, name):
    # before, these raised numpy's errors or returned array-valued angles
    with pytest.raises(ValueError, match=f"^{name} of shape"):
        read()


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


# Each public entry that takes a count: a count it accepts, and a call on a count k
# returning the counts its result holds, as a tuple, or the array it returns. The
# call's other arguments follow int(k), so at a bad k only the count's type is wrong.
COUNT_ENTRIES = {
    "PureState": (2, lambda k: (PureState(k, np.ones(2 ** int(k))).n_qubits,)),
    "SpinState": (3, lambda k: (SpinState(k, np.ones(int(k) + 1)).two_S,)),
    "BasisLabel": (1, lambda k: BasisLabel((0, k)).bits),
    "label_from_index-index": (3, lambda k: label_from_index(k, 2).bits),
    "label_from_index-n_qubits": (2, lambda k: label_from_index(1, k).bits),
    "Constellation": (
        2,
        lambda k: (Constellation([BlochPoint(1.0, 0.5)] * int(k), k).expected_size,),
    ),
    "Constellation._of": (
        2,
        lambda k: (Constellation._of([1.0] * int(k), [0.5] * int(k), k).expected_size,),
    ),
    "points_from_roots-deficiency": (2, lambda k: points_from_roots([0.5], k, int(k) + 1).thetas),
    "points_from_roots-size": (
        3,
        lambda k: (points_from_roots([0.5], int(k) - 1, k).expected_size,),
    ),
    "sqrt_binomials": (5, sqrt_binomials),
    "wigner_small_d-spin-half": (1, lambda k: wigner_small_d(k, 0.3)),
    "wigner_small_d": (3, lambda k: wigner_small_d(k, 0.3)),
    "wigner_D-spin-half": (1, lambda k: wigner_D(k, (0.1, 0.2, 0.3))),
    "wigner_D": (3, lambda k: wigner_D(k, (0.1, 0.2, 0.3))),
    "RenderSpec": (64, lambda k: (RenderSpec(size_px=k).size_px,)),
}


@pytest.mark.parametrize("bad", [True, np.True_, 2.0, 3.0, "2"], ids=repr)
@pytest.mark.parametrize(
    "call", [call for _, call in COUNT_ENTRIES.values()], ids=COUNT_ENTRIES.keys()
)
def test_counts_that_are_not_integers_raise_type_error(call, bad):
    with pytest.raises(TypeError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("integer", [np.int64, np.int32])
@pytest.mark.parametrize("count, call", COUNT_ENTRIES.values(), ids=COUNT_ENTRIES.keys())
def test_numpy_integer_counts_are_held_as_python_ints(count, call, integer):
    got, want = call(integer(count)), call(count)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want and all(type(c) is int for c in got)


@pytest.mark.parametrize("literal", ["true", "2.0", "3.0", '"2"'])
@pytest.mark.parametrize(
    "read, text",
    [
        (state_from_json, '{"n_qubits": %s, "amplitudes": [[1, 0], [0, 0], [0, 0], [1, 0]]}'),
        (constellation_from_json, TWO_POINTS.replace("2", "%s", 1)),
    ],
    ids=["n_qubits", "expected_size"],
)
def test_json_counts_that_are_not_integers_are_malformed(read, text, literal):
    with pytest.raises(InputFormatError, match="must be a JSON integer"):
        read(text % literal)


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_containers_of_numpy_integer_counts_write_the_documents_of_python_ints(integer):
    amplitudes = [1, 2j, -3, 4]
    text = state_to_json(PureState(integer(2), amplitudes))
    assert text == state_to_json(PureState(2, amplitudes))
    assert state_to_json(state_from_json(text)) == text
    points = [BlochPoint(1.0, 2.0), BlochPoint(0.5, 0.25)]
    text = constellation_to_json(Constellation(points, integer(2)))
    assert text == constellation_to_json(Constellation(points, 2))
    assert constellation_from_json(text) == Constellation(points, 2)


@pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300])
def test_rays_equal_refuses_a_nan_or_negative_tolerance(tol):
    assert rays_equal([1, 0], [1, 0]) is True and rays_equal([1, 0], [0, 1]) is False
    with pytest.raises(ValueError, match="tol"):
        rays_equal([1, 0], [1, 0], tol=tol)
