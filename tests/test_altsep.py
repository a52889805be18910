import numpy as np
import pytest

from stellar import (
    EulerAngles,
    PureState,
    SeparabilityVerdict,
    SeparableFactorization,
    alt_constellation,
    alt_polynomial,
    decide_separability,
    make_pure_state,
    matching_max_distance,
    ray_fidelity,
    reconstruct_from_factors,
    rotate_qubits_uniform,
    rotate_spin,
    separable_constellation,
    spin_from_qubits,
    qubits_from_spin,
    tensor_product,
)

import helpers

QUARTER = EulerAngles(*helpers.QUARTER_TURN_Y)


def test_alt_polynomial_is_raw_amplitudes(product_pair):
    p = alt_polynomial(product_pair)
    np.testing.assert_array_equal(p.coefficients, [1, 1, 1, 1])
    q = alt_polynomial(make_pure_state(3, [1] + [0] * 7))
    np.testing.assert_array_equal(q.coefficients, [1, 0, 0, 0, 0, 0, 0, 0])


def test_alt_polynomial_of_tensor_state_factors_by_powers():
    # product over qubits j of (a_j + b_j x^(2^j)), expanded
    rng = np.random.default_rng(71)
    factors = [helpers.random_state(rng, 1) for _ in range(4)]
    state = tensor_product(factors)
    expected = np.ones(1, dtype=complex)
    for j, f in enumerate(factors):
        a, b = f.amplitudes
        sparse = np.zeros(2**j + 1, dtype=complex)
        sparse[0], sparse[-1] = a, b
        expected = np.convolve(expected, sparse)
    np.testing.assert_allclose(
        alt_polynomial(state).coefficients,
        expected,
        atol=1e-12 * np.max(np.abs(expected)),
    )


def test_balanced_product_is_separable_with_equal_components(product_pair):
    verdict = decide_separability(product_pair)
    assert verdict.separable
    assert verdict.worst_bipartite_residual <= 1e-12
    for a, b in verdict.factorization.factors:
        assert a == pytest.approx(b, rel=1e-12)
    rebuilt = reconstruct_from_factors(verdict.factorization)
    assert ray_fidelity(rebuilt.amplitudes, product_pair.amplitudes) >= 1 - 1e-12
    # the reconstruction carries the scale too, not just the ray
    np.testing.assert_allclose(rebuilt.amplitudes, product_pair.amplitudes, atol=1e-12)


def test_quarter_turned_entangled_pair_is_separable(ent_pair):
    rotated = qubits_from_spin(rotate_spin(spin_from_qubits(ent_pair), QUARTER))
    verdict = decide_separability(rotated)
    assert verdict.separable
    assert verdict.worst_bipartite_residual <= 1e-8
    rebuilt = reconstruct_from_factors(verdict.factorization)
    assert ray_fidelity(rebuilt.amplitudes, rotated.amplitudes) >= 1 - 1e-9


def test_bell_pair_ratio_is_exactly_one():
    verdict = decide_separability(helpers.bell_pair())
    assert not verdict.separable
    assert verdict.factorization is None
    # reshaping [1,0,0,1] splits into the identity matrix: equal singular values
    assert verdict.worst_bipartite_residual == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cat_and_single_excitation_states_are_entangled(n):
    assert not decide_separability(helpers.ghz(n)).separable
    assert not decide_separability(helpers.w_state(n)).separable


def test_entangled_pair_is_entangled(ent_pair):
    verdict = decide_separability(ent_pair)
    assert not verdict.separable
    assert verdict.worst_bipartite_residual > 1e-2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_tensor_states_classified_separable(n):
    rng = np.random.default_rng(72 + n)
    for _ in range(20):
        state = tensor_product([helpers.random_state(rng, 1) for _ in range(n)])
        verdict = decide_separability(state)
        assert verdict.separable
        rebuilt = reconstruct_from_factors(verdict.factorization)
        assert ray_fidelity(rebuilt.amplitudes, state.amplitudes) >= 1 - 1e-9


def test_tolerance_flag_tightens_the_verdict():
    # a barely-perturbed product state flips with the tolerance
    base = tensor_product(
        [make_pure_state(1, [1.0, 0.4]), make_pure_state(1, [0.7, 1.0])]
    )
    noisy = PureState(2, base.amplitudes + np.array([0, 0, 0, 1e-6]))
    loose = decide_separability(noisy, tol=1e-3)
    tight = decide_separability(noisy, tol=1e-9)
    assert loose.separable and not tight.separable
    assert tight.worst_bipartite_residual > 1e-9


def test_verdict_invariant_enforced():
    with pytest.raises(ValueError):
        SeparabilityVerdict(True, None, 0.0)
    with pytest.raises(ValueError):
        SeparabilityVerdict(
            False, SeparableFactorization(((1 + 0j, 0j),), 1 + 0j), 0.5
        )


def test_separable_constellation_of_balanced_product(product_pair):
    f = decide_separability(product_pair).factorization
    c = separable_constellation(f)
    expected = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    assert matching_max_distance(c, expected) <= 1e-12


def test_separable_constellation_pole_rules():
    north = separable_constellation(
        SeparableFactorization(((0j, 1 + 0j), (0j, 1 + 0j)), 1 + 0j)
    )
    assert all(p.theta == 0.0 for p in north.points)
    south = separable_constellation(
        SeparableFactorization(((1 + 0j, 0j), (1 + 0j, 0j)), 1 + 0j)
    )
    assert all(p.theta == np.pi for p in south.points)


def test_separable_constellation_pattern_law():
    rng = np.random.default_rng(73)
    factors = tuple(
        (complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        for _ in range(3)
    )
    c = separable_constellation(SeparableFactorization(factors, 1 + 0j))
    start = 0
    for j in range(3):
        group = c.points[start : start + 2**j]
        start += 2**j
        thetas = [p.theta for p in group]
        assert max(thetas) - min(thetas) <= 1e-10
        if 2**j > 1:
            phis = np.sort([p.phi for p in group])
            gaps = np.diff(np.concatenate([phis, [phis[0] + 2 * np.pi]]))
            np.testing.assert_allclose(gaps, 2 * np.pi / 2**j, atol=1e-10)


def test_alt_constellation_of_entangled_pair_matches_root_oracle(ent_pair):
    c = alt_constellation(ent_pair)
    assert len(c.points) == 3
    oracle_roots = np.roots(ent_pair.amplitudes[::-1])
    expected = helpers.make_constellation(
        [(2 * np.arctan(abs(x)), np.angle(x) % (2 * np.pi)) for x in oracle_roots]
    )
    assert matching_max_distance(c, expected) <= 1e-8


def test_alt_constellation_of_product_equals_majorana_of_entangled(
    ent_pair, product_pair
):
    from stellar import majorana_constellation

    alt = alt_constellation(product_pair)
    majorana = majorana_constellation(spin_from_qubits(ent_pair))
    assert matching_max_distance(alt, majorana) <= 1e-9


def test_quarter_turned_product_collapses_to_north_pole(product_pair):
    rotated = rotate_qubits_uniform(product_pair, QUARTER)
    c = alt_constellation(rotated)
    assert all(p.theta <= 1e-9 for p in c.points)


def test_alt_constellation_consistent_with_factor_pattern():
    rng = np.random.default_rng(74)
    for n in (2, 3, 4):
        state = tensor_product([helpers.random_state(rng, 1) for _ in range(n)])
        verdict = decide_separability(state)
        direct = alt_constellation(state)
        patterned = separable_constellation(verdict.factorization)
        assert matching_max_distance(direct, patterned) <= 1e-8


def test_alt_constellation_is_ray_invariant():
    rng = np.random.default_rng(75)
    state = helpers.random_state(rng, 3)
    scaled = PureState(3, (0.3 - 2.1j) * state.amplitudes)
    assert matching_max_distance(
        alt_constellation(state), alt_constellation(scaled)
    ) <= 1e-10


def test_single_qubit_ground_state_sits_at_south_pole():
    c = alt_constellation(make_pure_state(1, [1.0, 0.0]))
    assert c.points == (helpers.make_constellation([(np.pi, 0.0)]).points)


@pytest.mark.parametrize("n", range(1, 11))
def test_separable_constellation_matches_per_qubit_oracle(n):
    rng = np.random.default_rng(605 + n)
    factors = [
        (complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))) for _ in range(n)
    ]
    factors[0] = (0j, 1 + 0j)  # a_j = 0: north pole
    factors[n // 2] = (1 + 0j, 0j)  # b_j = 0: south poles
    c = separable_constellation(SeparableFactorization(tuple(factors), 1 + 0j))
    assert c.expected_size == 2**n - 1
    assert c.points == helpers.per_qubit_separable_points(factors)
