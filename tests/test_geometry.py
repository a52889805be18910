import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from stellar import (
    BlochPoint,
    Constellation,
    EulerAngles,
    RenderSpec,
    bloch_point,
    geodesic_distance,
    match_constellations,
    matching_max_distance,
    point_from_cartesian,
    points_from_roots,
    render_svg,
    rotate_constellation,
    so3_matrix,
    to_cartesian,
)

from stellar import geometry

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


def test_non_finite_angles_are_refused_wherever_a_constellation_is_built():
    equator = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    with pytest.raises(ValueError, match="non-finite"):
        render_svg(Constellation((BlochPoint(np.nan, 0.0), BlochPoint(1.0, 0.5)), 2), RenderSpec())
    with pytest.raises(ValueError, match="non-finite"):
        bloch_point(np.nan, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        so3_matrix(EulerAngles(np.nan, 0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite"):  # the number reader refuses the NaN matrix
        rotate_constellation(equator, np.full((3, 3), np.nan))


def test_constellation_from_points_keeps_its_angles_in_read_only_arrays():
    pts = helpers.coincident_points(np.random.default_rng(604), 9).points
    c = Constellation(pts, 9)
    assert c.points == pts and c.expected_size == 9
    for name, got in (("theta", c.thetas), ("phi", c.phis)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([getattr(p, name) for p in pts]).tobytes()
        with pytest.raises(ValueError):
            got[0] = 1.0
    with pytest.raises(AttributeError):
        c.thetas = np.zeros(9)
    for other in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert other == c and not other.thetas.flags.writeable


@pytest.mark.parametrize("count", [0, 1, 7, 1023])
def test_points_built_from_arrays_round_trip_exactly(count):
    roots = helpers.root_spread(np.random.default_rng(605), 1023)[:count]
    c = points_from_roots(roots, 0, count)
    assert c.points == tuple(map(BlochPoint, c.thetas.tolist(), c.phis.tolist()))
    back = Constellation(c.points, count)
    assert back.thetas.tobytes() == c.thetas.tobytes()
    assert back.phis.tobytes() == c.phis.tobytes()
    assert back.points == c.points


def test_points_come_from_the_arrays_even_when_built_from_int_angles():
    c = Constellation((BlochPoint(0, 0), BlochPoint(1, 2)), 2)
    assert c.points == (BlochPoint(0.0, 0.0), BlochPoint(1.0, 2.0))
    assert [p.theta for p in c.points] == c.thetas.tolist()
    assert [p.phi for p in c.points] == c.phis.tolist()
    assert all(type(x) is float for p in c.points for x in (p.theta, p.phi))
    assert repr(c) == (
        "Constellation(points=(BlochPoint(theta=0.0, phi=0.0), "
        "BlochPoint(theta=1.0, phi=2.0)), expected_size=2)"
    )


def test_constellation_equality_and_hash_follow_points():
    arrays = points_from_roots([2.0j, -1.0, 0.0], 1, 4)
    pts = arrays.points
    signed = tuple(BlochPoint(p.theta, -p.phi if p.phi == 0.0 else p.phi) for p in pts)
    moved = pts[:-1] + (BlochPoint(pts[-1].theta, 1e-300),)
    for other in (pts, signed, moved, pts[:-1] + (pts[0],)):
        c = Constellation(other, 4)
        assert (c == arrays) == (other == pts) == (arrays == c)
        if other == pts:
            assert hash(c) == hash(arrays)
    assert arrays != Constellation(pts[:3], 3)
    assert arrays != pts


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
    # a negative deficiency is refused as such, not left to numpy's negative-size error
    for roots, deficiency, size in (([1, 2, 3, 4, 5], -2, 3), ([], -1, -1)):
        with pytest.raises(ValueError, match="deficiency"):
            points_from_roots(roots, deficiency, size)


@pytest.mark.parametrize("roots, size", [(np.zeros((3, 2)), 3), (1.0, 1)], ids=["2-d", "0-d"])
def test_points_from_roots_refuses_roots_that_are_not_1d(roots, size):
    # a (3, 2) array has shape[0] == 3 but holds 6 roots
    with pytest.raises(ValueError, match="roots of shape"):
        points_from_roots(roots, 0, size)


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
    # signed zeros beside either pole still give phi = +0.0
    for x, y, z in itertools.product((0.0, -0.0), (0.0, -0.0), (1.0, -1.0)):
        phi = point_from_cartesian([x, y, z]).phi
        assert phi == 0.0 and math.copysign(1.0, phi) == 1.0
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


def test_matching_of_two_empty_constellations_is_zero():
    empty = Constellation((), 0)
    assert matching_max_distance(empty, empty) == 0.0
    assert match_constellations(empty, empty).shape == (0,)


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


# The assignment solver against scipy's linear_sum_assignment, which implements
# the same shortest-augmenting-path scheme in C.


def _assert_optimal(cost, perm):
    """perm is a permutation whose total is scipy's; returns scipy's permutation."""
    n = cost.shape[0]
    np.testing.assert_array_equal(np.sort(perm), np.arange(n))
    _, expected = linear_sum_assignment(cost)
    best = cost[np.arange(n), expected].sum()
    assert abs(cost[np.arange(n), perm].sum() - best) <= 1e-12 * max(1.0, best)
    return expected


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(0, 40),
    kind=st.sampled_from(["continuous", "ties", "scaled"]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-300, 300),
)
def test_assignment_solver_agrees_with_scipy(n, kind, seed, k):
    rng = np.random.default_rng(seed)
    cost = {
        "continuous": rng.standard_normal((n, n)),
        "ties": rng.integers(0, 4, (n, n)).astype(float),  # many optimal assignments
        "scaled": rng.uniform(0.0, np.pi, (n, n)) * 10.0**k,
    }[kind]
    perm = geometry._assign(cost)
    expected = _assert_optimal(cost, perm)
    if kind != "ties":  # a continuous draw has one optimum
        np.testing.assert_array_equal(perm, expected)


@pytest.mark.parametrize("jitter", [0.0, 0.01])
@pytest.mark.parametrize("n", [255, 1023])
@pytest.mark.parametrize("family", ["coherent", "dicke"])
def test_assignment_of_coincident_points_agrees_with_scipy(family, n, jitter):
    # every source point at one direction, or k at the north pole and the rest at the
    # south pole, against the rotated copy, jittered and shuffled: the rows of the
    # distance matrix repeat, and without jitter its entries tie
    rng = np.random.default_rng(35 + n)
    k = n if family == "coherent" else 2 * n // 3
    a = helpers.make_constellation([(1.1, 2.3) if family == "coherent" else (0.0, 0.0)] * k
                                   + [(np.pi, 0.0)] * (n - k))
    moved = to_cartesian(rotate_constellation(a, so3_matrix(EulerAngles(0.3, 1.1, 2.0))))
    b = geometry._from_cartesian((moved + jitter * rng.standard_normal((n, 3)))[rng.permutation(n)])
    perm = match_constellations(a, b)
    _assert_optimal(geometry._match(a, b)[1], perm)


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


@pytest.mark.parametrize("count", [1, 8, 9, 128, 255])
def test_pairwise_angles_match_the_cross_product_oracle(count):
    rng = np.random.default_rng(606 + count)
    a = helpers.coincident_points(rng, count) if count >= 5 else helpers.make_constellation(
        [(1.0, 2.0)] * count
    )
    b = helpers.make_constellation(
        [(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi)) for _ in range(count)]
    )
    expected = helpers.cross_product_angles(to_cartesian(a), to_cartesian(b))
    np.testing.assert_array_equal(geometry._match(a, b)[1], expected)
    i, j = rng.integers(count, size=(2, 8))
    got = [geodesic_distance(a.points[k], b.points[m]) for k, m in zip(i, j)]
    np.testing.assert_array_equal(got, expected[i, j])


def test_phi_just_below_zero_wraps_to_zero():
    # np.mod(-1e-16, 2pi) rounds to exactly 2pi, outside [0, 2pi)
    assert bloch_point(1.0, -1e-16).phi == 0.0
    assert points_from_roots([1 - 1e-17j], 0, 1).points[0].phi == 0.0
