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

from stellar.altsep import DEFAULT_SEPARABILITY_TOL

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


@pytest.mark.parametrize("tol", [np.nan, 1.0, 2.0])
@pytest.mark.parametrize("state", [helpers.bell_pair, lambda: helpers.ghz(3)], ids=["bell", "ghz3"])
def test_a_tolerance_not_below_one_is_refused(state, tol):
    # s1/s0 <= 1, so such a tol would call every state separable; at these
    # states' equal singular values it divided by a zero left vector instead
    message = "^tol has a non-finite entry" if np.isnan(tol) else r"tol must lie in \[0, 1\)"
    with pytest.raises(ValueError, match=message):
        decide_separability(state(), tol)


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


@pytest.mark.parametrize("zero_at", [0, 1])
def test_a_zero_qubit_factor_is_refused_as_reconstruction_refuses_it(zero_at):
    factors = [(1 + 0j, 1 + 0j)] * 2
    factors[zero_at] = (0j, 0j)
    f = SeparableFactorization(tuple(factors), 1.0)
    for entry in (reconstruct_from_factors, separable_constellation):
        with pytest.raises(ValueError, match="identically zero"):
            entry(f)


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


def separability_battery(n: int, seed: int) -> dict:
    """Named n-qubit states around the separability threshold: Gaussian-factor
    products, the same products perturbed by a relative delta, GHZ, W and a
    Gaussian state, plus the Bell pair at n = 2."""
    rng = np.random.default_rng(seed)
    product = helpers.product_state(
        rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    ).amplitudes
    states = {"product": product}
    for delta in (1e-12, 1e-9, 1e-6):
        noise = helpers.random_amplitudes(rng, 2**n)
        noise *= delta * np.linalg.norm(product) / np.linalg.norm(noise)
        states[f"delta={delta:g}"] = product + noise
    states.update(ghz=helpers.ghz(n).amplitudes, w=helpers.w_state(n).amplitudes)
    states["gaussian"] = helpers.random_amplitudes(rng, 2**n)
    if n == 2:
        states["bell"] = helpers.bell_pair().amplitudes
    return {name: PureState(n, amps) for name, amps in states.items()}


@pytest.mark.parametrize("n", range(2, 11))
def test_verdicts_agree_with_the_lapack_peel(n):
    for seed in (800 + n, 900 + n):
        for name, state in separability_battery(n, seed).items():
            verdict = decide_separability(state)
            oracle = helpers.lapack_peel(state, DEFAULT_SEPARABILITY_TOL)
            assert verdict.separable == oracle.separable, (name, seed)
            if verdict.separable:
                # the factorization rebuilds the state, scale included
                rebuilt = reconstruct_from_factors(verdict.factorization).amplitudes
                assert ray_fidelity(rebuilt, state.amplitudes) >= 1 - 1e-9, (name, seed)
                # each of the n - 1 cuts drops a singular value of at most tol s0
                err = np.linalg.norm(rebuilt - state.amplitudes)
                bound = n * DEFAULT_SEPARABILITY_TOL * np.linalg.norm(state.amplitudes)
                assert err <= bound, (name, seed, err)


@pytest.mark.parametrize("n", range(2, 7))
def test_cut_ratio_is_within_the_documented_bound_of_a_50_digit_svd(n):
    # tol = 0 stops at the first cut with a ratio above 0, so the reported ratio is
    # that cut's; every later cut is the same computation on a shorter vector,
    # which the smaller n cover
    m, eps = 2 ** (n - 1), np.finfo(float).eps
    for seed in (810 + n, 910 + n):
        for name, state in separability_battery(n, seed).items():
            ratio = decide_separability(state, tol=0.0).worst_bipartite_residual
            assert ratio > 0, (name, seed)
            exact = helpers.mpmath_cut_ratio(state.amplitudes)
            assert abs(ratio - exact) <= 5 * (m + 4) * eps, (name, seed, ratio, exact)
