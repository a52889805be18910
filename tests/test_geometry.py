import numpy as np
import pytest

from stellar import (
    BlochPoint,
    Constellation,
    bloch_point,
    geodesic_distance,
    match_constellations,
    matching_max_distance,
    point_from_cartesian,
    points_from_roots,
    to_cartesian,
)

import helpers


def test_bloch_point_canonicalization():
    p = bloch_point(np.pi / 3, -np.pi / 2)
    assert p.phi == pytest.approx(3 * np.pi / 2)
    assert bloch_point(0.0, 1.7).phi == 0.0
    assert bloch_point(np.pi, 2.0) == BlochPoint(np.pi, 0.0)
    assert bloch_point(-0.1, 0.0).theta == 0.0
    assert bloch_point(3.5, 0.0).theta == np.pi


def test_constellation_size_check():
    pts = (BlochPoint(0.0, 0.0),)
    with pytest.raises(ValueError):
        Constellation(pts, 2)
    assert Constellation((), 0).points == ()


def test_points_from_roots_equatorial_triple():
    c = points_from_roots([-1.0, 1j, -1j], 0, 3)
    expected = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    assert matching_max_distance(c, expected) <= 1e-15


def test_points_from_roots_deficiency_pads_south_poles():
    c = points_from_roots([], 3, 3)
    assert all(p == BlochPoint(np.pi, 0.0) for p in c.points)


def test_points_from_roots_origin_is_north_pole():
    c = points_from_roots([0.0], 0, 1)
    assert c.points[0] == BlochPoint(0.0, 0.0)


def test_points_from_roots_size_mismatch():
    with pytest.raises(ValueError):
        points_from_roots([1.0], 1, 3)


def test_root_modulus_sets_latitude():
    (p,) = points_from_roots([2.0j], 0, 1).points
    assert p.theta == pytest.approx(2 * np.arctan(2.0))
    assert p.phi == pytest.approx(np.pi / 2)


def test_cartesian_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = rng.standard_normal(3)
        p = point_from_cartesian(v)
        np.testing.assert_allclose(to_cartesian(p), v / np.linalg.norm(v), atol=1e-12)


def test_point_from_cartesian_poles_and_zero():
    assert point_from_cartesian([0, 0, 2.0]) == BlochPoint(0.0, 0.0)
    assert point_from_cartesian([0, 0, -1.0]) == BlochPoint(np.pi, 0.0)
    with pytest.raises(ValueError):
        point_from_cartesian([0.0, 0.0, 0.0])


def test_geodesic_distance_known_values():
    north = BlochPoint(0.0, 0.0)
    south = BlochPoint(np.pi, 0.0)
    equator = BlochPoint(np.pi / 2, 0.0)
    assert geodesic_distance(north, south) == pytest.approx(np.pi)
    assert geodesic_distance(north, equator) == pytest.approx(np.pi / 2)
    assert geodesic_distance(equator, equator) == 0.0
    # azimuth separation along the equator is the geodesic angle itself
    other = BlochPoint(np.pi / 2, 0.4)
    assert geodesic_distance(equator, other) == pytest.approx(0.4)


def test_match_constellations_finds_permutation():
    a = helpers.make_constellation([(0.3, 0.1), (1.2, 2.0), (2.8, 5.0)])
    b = helpers.make_constellation([(2.8, 5.0), (0.3, 0.1), (1.2, 2.0)])
    perm = match_constellations(a, b)
    np.testing.assert_array_equal(perm, [1, 2, 0])
    assert matching_max_distance(a, b) <= 1e-15


def test_match_constellations_size_mismatch():
    a = helpers.make_constellation([(0.3, 0.1)])
    b = helpers.make_constellation([(0.3, 0.1), (1.0, 1.0)])
    with pytest.raises(ValueError):
        match_constellations(a, b)


def test_matching_reports_true_displacement():
    a = helpers.make_constellation([(np.pi / 2, 0.0), (np.pi / 2, np.pi)])
    b = helpers.make_constellation([(np.pi / 2, np.pi), (np.pi / 2, 0.05)])
    assert matching_max_distance(a, b) == pytest.approx(0.05)


@pytest.mark.parametrize("n", range(3, 9))
def test_brute_force_and_assignment_solver_agree(n):
    # jittered, shuffled targets, so the optimum need not be the shuffle itself
    rng = np.random.default_rng(32 + n)
    for _ in range(4):
        pts_a = [(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi)) for _ in range(n)]
        pts_b = [
            (float(np.clip(pts_a[i][0] + rng.normal(0, 0.4), 0, np.pi)),
             pts_a[i][1] + rng.normal(0, 0.4))
            for i in rng.permutation(n)
        ]
        a = helpers.make_constellation(pts_a)
        b = helpers.make_constellation(pts_b)
        cost = np.array([[geodesic_distance(p, q) for q in b.points] for p in a.points])
        perm = match_constellations(a, b)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        total = cost[np.arange(n), perm].sum()
        assert abs(total - helpers.exhaustive_min_assignment(cost)) <= 1e-12


@pytest.mark.parametrize("n", [9, 20])
def test_assignment_recovers_large_shuffles(n):
    rng = np.random.default_rng(32)
    pts_a = [(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi)) for _ in range(n)]
    shuffle = rng.permutation(n)
    pts_b = [pts_a[i] for i in shuffle]
    a = helpers.make_constellation(pts_a)
    b = helpers.make_constellation(pts_b)
    assert matching_max_distance(a, b) <= 1e-12


# The array path against the point-by-point oracles in helpers: exact equality.


@pytest.mark.parametrize("count, deficiency", [(0, 3), (9, 0), (40, 2), (1023, 0), (1015, 8)])
def test_points_from_roots_matches_pointwise_oracle(count, deficiency):
    roots = helpers.root_spread(np.random.default_rng(600 + count), count)
    c = points_from_roots(roots, deficiency, roots.shape[0] + deficiency)
    assert c.points == helpers.pointwise_points_from_roots(roots, deficiency)


def test_bloch_point_matches_scalar_oracle():
    rng = np.random.default_rng(601)
    thetas = np.append(rng.uniform(-1.0, 4.5, 200), [0.0, -0.0, np.pi, 3.5, -0.1])
    phis = np.append(rng.uniform(-20.0, 20.0, 200), [1.7, 2.0, -1e-20, 2 * np.pi, -np.pi])
    for t, p in zip(thetas.tolist(), phis.tolist()):
        assert bloch_point(t, p) == helpers.scalar_bloch_point(t, p)


@pytest.mark.parametrize("count", [0, 1, 7, 1023])
def test_to_cartesian_matches_pointwise_oracle(count):
    c = helpers.coincident_points(np.random.default_rng(602), 1023)
    c = Constellation(c.points[:count], count)
    expected = np.array([helpers.pointwise_cartesian(p) for p in c.points]).reshape(-1, 3)
    np.testing.assert_array_equal(to_cartesian(c), expected)
    for p in c.points:
        np.testing.assert_array_equal(to_cartesian(p), helpers.pointwise_cartesian(p))


def test_point_from_cartesian_matches_pointwise_oracle():
    rng = np.random.default_rng(603)
    vectors = rng.standard_normal((300, 3)) * np.exp(rng.uniform(-8, 8, (300, 1)))
    vectors[::7, :2] = 0.0
    vectors[1::7, 2] = 0.0
    vectors[2::7, 1] = -0.0
    for v in vectors:
        assert point_from_cartesian(v) == helpers.pointwise_point_from_cartesian(v)
