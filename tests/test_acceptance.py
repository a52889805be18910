"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (outside pytest's capture), so
a full run reads as a checklist. Tolerances are part of the contract and
are asserted exactly as stated, never loosened.
"""

import json

import numpy as np

from stellar import (
    EulerAngles,
    Spinor,
    alt_constellation,
    decide_separability,
    find_roots,
    majorana_constellation,
    match_constellations,
    matching_max_distance,
    qubit_majorana_polynomial,
    qubits_from_spin,
    ray_fidelity,
    reconstruct_from_factors,
    rotate_constellation,
    rotate_qubits,
    rotate_qubits_uniform,
    rotate_spin,
    separable_constellation,
    so3_matrix,
    spin_from_qubits,
    sqrt_binomials,
    state_from_constellation,
    state_from_json,
    state_from_spinors,
    state_to_json,
    tensor_product,
    wigner_D,
    geodesic_distance,
)
from stellar.cli import main as cli_main

import helpers

QUARTER = EulerAngles(*helpers.QUARTER_TURN_Y)
random_angles = helpers.random_angles


def report(capsys, number, ok, label):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def azimuth_gap(a, b):
    return abs(np.exp(1j * (a - b)) - 1)


def test_criterion_01_reference_roots_and_points(capsys):
    ent = helpers.entangled_pair()
    result = find_roots(qubit_majorana_polynomial(ent))
    roots_ok = helpers.max_complex_mismatch(result.roots, [-1.0, 1j, -1j]) <= 1e-9

    c = majorana_constellation(spin_from_qubits(ent))
    expected = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    perm = match_constellations(c, expected)
    angles_ok = all(
        abs(c.points[i].theta - expected.points[perm[i]].theta) <= 1e-9
        and azimuth_gap(c.points[i].phi, expected.points[perm[i]].phi) <= 1e-9
        for i in range(3)
    )
    report(
        capsys,
        1,
        roots_ok and angles_ok,
        "entangled-pair roots are {-1, i, -i} and the points are the "
        "equatorial triple (1e-9)",
    )


def test_criterion_02_cross_encoding_identity(capsys):
    alt = alt_constellation(helpers.balanced_product())
    majorana = majorana_constellation(spin_from_qubits(helpers.entangled_pair()))
    ok = matching_max_distance(alt, majorana) <= 1e-9
    report(
        capsys,
        2,
        ok,
        "alternative points of the product pair equal the Majorana points "
        "of the entangled pair (1e-9)",
    )


def test_criterion_03_rigid_rotation_of_constellations(capsys):
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(200):
        two_S = trial % 7 + 1
        spin = helpers.random_spin(rng, two_S)
        ang = random_angles(rng)
        by_state = majorana_constellation(rotate_spin(spin, ang))
        by_points = rotate_constellation(
            majorana_constellation(spin), so3_matrix(ang)
        )
        worst = max(worst, matching_max_distance(by_state, by_points))
    report(
        capsys,
        3,
        worst <= 1e-8,
        f"200 random spin rotations move the points rigidly "
        f"(worst mismatch {worst:.2e} <= 1e-8)",
    )


def test_criterion_04_qubit_rotations_are_not_rigid(capsys):
    ent = helpers.entangled_pair()

    def pair_distances(c):
        n = len(c.points)
        return np.sort(
            [
                geodesic_distance(c.points[i], c.points[j])
                for i in range(n)
                for j in range(i + 1, n)
            ]
        )

    before = pair_distances(majorana_constellation(spin_from_qubits(ent)))
    after = pair_distances(
        majorana_constellation(spin_from_qubits(rotate_qubits_uniform(ent, QUARTER)))
    )
    gap = float(np.max(np.abs(before - after)))
    report(
        capsys,
        4,
        gap > 1e-3,
        f"per-qubit quarter turn changes the pairwise-distance multiset "
        f"(largest change {gap:.3f} > 1e-3)",
    )


def test_criterion_05_quarter_turn_disentangles(capsys):
    rotated = qubits_from_spin(
        rotate_spin(spin_from_qubits(helpers.entangled_pair()), QUARTER)
    )
    verdict = decide_separability(rotated)
    ok = verdict.separable and verdict.worst_bipartite_residual <= 1e-8
    if ok:
        rebuilt = reconstruct_from_factors(verdict.factorization)
        ok = ray_fidelity(rebuilt.amplitudes, rotated.amplitudes) >= 1 - 1e-9
    report(
        capsys,
        5,
        ok,
        "spin quarter turn makes the entangled pair separable "
        "(residual <= 1e-8, fidelity >= 1 - 1e-9)",
    )


def test_criterion_06_north_pole_collapse(capsys):
    rotated = rotate_qubits_uniform(helpers.balanced_product(), QUARTER)
    c = alt_constellation(rotated)
    ok = len(c.points) == 3 and all(p.theta <= 1e-9 for p in c.points)
    report(
        capsys,
        6,
        ok,
        "per-qubit quarter turn drives all three alternative points to the "
        "north pole (theta <= 1e-9)",
    )


def test_criterion_07_separability_classifier(capsys):
    rng = np.random.default_rng(1007)
    ok = True
    for n in range(2, 7):
        for _ in range(500):
            state = tensor_product(
                [helpers.random_state(rng, 1) for _ in range(n)]
            )
            verdict = decide_separability(state)
            if not verdict.separable:
                ok = False
                break
            rebuilt = reconstruct_from_factors(verdict.factorization)
            if ray_fidelity(rebuilt.amplitudes, state.amplitudes) < 1 - 1e-9:
                ok = False
                break
        if not ok:
            break
    entangled = [helpers.bell_pair()]
    entangled += [helpers.ghz(n) for n in (3, 4, 5)]
    entangled += [helpers.w_state(n) for n in (3, 4, 5)]
    ok = ok and all(not decide_separability(s).separable for s in entangled)
    report(
        capsys,
        7,
        ok,
        "2500 random tensor states classified separable (fidelity >= 1 - 1e-9); "
        "Bell, cat, and single-excitation states classified entangled",
    )


def test_criterion_08_componentwise_rotation_consistency(capsys):
    rng = np.random.default_rng(1008)
    ok = True
    for _ in range(100):
        a, b = helpers.random_amplitudes(rng, 2)
        ang = random_angles(rng)
        closed = np.array(helpers.closed_form_spinor_rotation(a, b, ang))
        matrix = wigner_D(1, ang) @ np.array([a, b])
        if np.max(np.abs(closed - matrix)) > 1e-12:
            ok = False
            break

        n = int(rng.integers(2, 5))
        factors = [helpers.random_state(rng, 1) for _ in range(n)]
        triples = [random_angles(rng) for _ in range(n)]
        whole = rotate_qubits(tensor_product(factors), triples)
        pieces = tensor_product(
            [
                helpers.make_pure_state(
                    1,
                    helpers.closed_form_spinor_rotation(
                        f.amplitudes[0], f.amplitudes[1], t
                    ),
                )
                for f, t in zip(factors, triples)
            ]
        )
        if np.max(np.abs(whole.amplitudes - pieces.amplitudes)) > 1e-12:
            ok = False
            break
    report(
        capsys,
        8,
        ok,
        "closed-form qubit rotation matches the 2x2 matrix action and "
        "factors through tensor products (1e-12)",
    )


def test_criterion_09_permutation_sum_oracle(capsys):
    rng = np.random.default_rng(1009)
    ok = True
    for trial in range(50):
        two_S = trial % 6 + 1
        spinors = [
            Spinor(*helpers.random_amplitudes(rng, 2)) for _ in range(two_S)
        ]
        convolved = state_from_spinors(spinors).amplitudes * sqrt_binomials(two_S)
        oracle = helpers.permutation_sum_coefficients(spinors)
        if np.max(np.abs(convolved - oracle)) > 1e-10 * np.max(np.abs(oracle)):
            ok = False
            break
    report(
        capsys,
        9,
        ok,
        "50 random spinor products: convolution coefficients equal the "
        "permutation-sum oracle (1e-10 relative)",
    )


def test_criterion_10_round_trips_and_demo(capsys, tmp_path):
    rng = np.random.default_rng(1010)
    trips_ok = True
    for two_S in range(1, 11):
        spin = helpers.random_spin(rng, two_S)
        back = state_from_constellation(majorana_constellation(spin))
        if ray_fidelity(back.amplitudes, spin.amplitudes) < 1 - 1e-9:
            trips_ok = False
            break

    state = helpers.random_state(rng, 3)
    json_ok = np.array_equal(
        state_from_json(state_to_json(state)).amplitudes, state.amplitudes
    )

    out_dir = tmp_path / "demo"
    demo_ok = cli_main(["demo", "--out", str(out_dir)]) == 0
    capsys.readouterr()  # swallow the demo's own stdout
    panels = {f"figure-{row}{label}.svg" for row in "12" for label in "abcdef"}
    demo_ok = demo_ok and panels <= {p.name for p in out_dir.iterdir()}
    summary = (out_dir / "summary.txt").read_text()
    demo_ok = (
        demo_ok
        and "separable states: (b), (d), (e), (f); entangled states: (a), (c)"
        in summary
    )
    report(
        capsys,
        10,
        trips_ok and json_ok and demo_ok,
        "state/constellation round trips (fidelity >= 1 - 1e-9), bit-exact "
        "JSON, and the 12-panel demo with its verdict summary",
    )


def test_criterion_11_separable_pattern_law(capsys):
    rng = np.random.default_rng(1011)
    ok = True
    for n in range(2, 6):
        for _ in range(10):
            state = tensor_product(
                [helpers.random_state(rng, 1) for _ in range(n)]
            )
            f = decide_separability(state).factorization
            c = separable_constellation(f)
            start = 0
            for j in range(n):
                group = c.points[start : start + 2**j]
                start += 2**j
                thetas = [p.theta for p in group]
                if max(thetas) - min(thetas) > 1e-10:
                    ok = False
                if len(group) > 1:
                    phis = np.sort([p.phi for p in group])
                    gaps = np.diff(np.concatenate([phis, [phis[0] + 2 * np.pi]]))
                    if np.max(np.abs(gaps - 2 * np.pi / 2**j)) > 1e-10:
                        ok = False
    report(
        capsys,
        11,
        ok,
        "factorized states show one latitude per qubit with azimuths evenly "
        "spaced by 2 pi / 2^j (1e-10)",
    )
