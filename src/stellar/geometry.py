"""Bloch-sphere points, constellations, and optimal point matching."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import _count

__all__ = [
    "BlochPoint",
    "Constellation",
    "bloch_point",
    "points_from_roots",
    "to_cartesian",
    "point_from_cartesian",
    "geodesic_distance",
    "match_constellations",
    "matching_max_distance",
]

@dataclass(frozen=True)
class BlochPoint:
    """Sphere point with polar angle theta in [0, pi], azimuth phi in [0, 2pi).

    Taken as given; bloch_point and library outputs set phi = 0 at theta 0 or pi.
    """

    theta: float
    phi: float


class Constellation:
    """Multiset of sphere points; expected_size tracks 2S or 2^N - 1.

    The points are stored as read-only float64 copies, thetas and phis, that no
    caller shares. The tuple of BlochPoints in .points is built from those
    arrays only, on first access, and cached; so its angles are floats even
    where the BlochPoints given to the constructor held ints.
    """

    def __init__(self, points, expected_size: int):
        points = tuple(points)
        self._store([p.theta for p in points], [p.phi for p in points], expected_size)

    @classmethod
    def _of(cls, thetas, phis, expected_size: int) -> Constellation:
        """Build from copies of two angle sequences, without BlochPoints."""
        c = cls.__new__(cls)
        c._store(thetas, phis, expected_size)
        return c

    def _store(self, thetas, phis, expected_size: int) -> None:
        expected_size = _count(expected_size, "expected_size")
        thetas, phis = np.array(thetas, dtype=float), np.array(phis, dtype=float)
        if thetas.size != expected_size:
            raise ValueError(f"constellation has {thetas.size} points, expected {expected_size}")
        if not (np.isfinite(thetas).all() and np.isfinite(phis).all()):
            raise ValueError("constellation has a non-finite angle")
        thetas.flags.writeable = phis.flags.writeable = False
        self.__dict__.update(thetas=thetas, phis=phis, expected_size=expected_size)

    def __setattr__(self, name, value):
        raise AttributeError(f"Constellation is read-only: cannot set {name!r}")

    def __reduce__(self):  # copies and unpickled ones are rebuilt by _store
        return Constellation._of, (self.thetas, self.phis, self.expected_size)

    @cached_property
    def points(self) -> tuple[BlochPoint, ...]:
        return tuple(map(BlochPoint, self.thetas.tolist(), self.phis.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Constellation):
            return NotImplemented
        return (self.points, self.expected_size) == (other.points, other.expected_size)

    def __hash__(self):
        return hash((self.points, self.expected_size))

    def __repr__(self):
        return f"Constellation(points={self.points!r}, expected_size={self.expected_size!r})"


def _from_angles(thetas, phis) -> Constellation:
    """Points under the one canonical-angle rule: theta clamped into [0, pi],
    phi wrapped into [0, 2pi), and phi = 0 where theta is exactly 0 or pi."""
    thetas = np.clip(np.asarray(thetas, dtype=float), 0.0, np.pi)
    # np.mod rounds phi in about (-4.4e-16, 0) up to exactly 2pi
    phis = np.mod(phis, 2.0 * np.pi)
    phis = np.where((thetas == 0.0) | (thetas == np.pi) | (phis == 2.0 * np.pi), 0.0, phis)
    return Constellation._of(thetas, phis, thetas.size)


def _from_cartesian(rows) -> Constellation:
    """Canonical sphere points for the directions of nonzero 3-vector rows."""
    x, y, z = np.asarray(rows, dtype=float).T
    rho = np.hypot(x, y)
    if np.any((rho == 0.0) & (z == 0.0)):
        raise ValueError("zero vector has no direction")
    return _from_angles(np.arctan2(rho, z), np.arctan2(y, x))


def bloch_point(theta: float, phi: float) -> BlochPoint:
    """Canonicalize angles: clamp theta into [0, pi], wrap phi, fix poles."""
    return _from_angles([theta], [phi]).points[0]


def points_from_roots(roots, leading_deficiency: int, expected_size: int) -> Constellation:
    """Map polynomial roots to sphere points via tan(theta/2) e^{i phi} = x.

    Each missing leading degree is a root at infinity, one south-pole point, so
    the 1-d roots plus leading_deficiency >= 0 must make exactly expected_size points.
    """
    leading_deficiency = _count(leading_deficiency, "leading_deficiency")
    expected_size = _count(expected_size, "expected_size")
    roots = np.asarray(roots, dtype=complex)
    if leading_deficiency < 0 or roots.shape != (expected_size - leading_deficiency,):
        raise ValueError(
            "need deficiency >= 0 and 1-d roots of expected size - deficiency entries, got "
            f"roots of shape {roots.shape}, deficiency {leading_deficiency}, size {expected_size}"
        )
    x = np.append(roots, np.full(leading_deficiency, np.inf))
    # hypot, not np.abs: on AVX-512 np.abs can differ from the scalar in the last bit
    return _from_angles(2.0 * np.arctan(np.hypot(x.real, x.imag)), np.angle(x))


def to_cartesian(obj) -> np.ndarray:
    """Unit vector(s) for a BlochPoint or a Constellation."""
    theta, phi = (obj.thetas, obj.phis) if isinstance(obj, Constellation) else (obj.theta, obj.phi)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def point_from_cartesian(v) -> BlochPoint:
    """Sphere point for a (not necessarily unit) nonzero 3-vector."""
    return _from_cartesian(np.asarray(v, dtype=float).reshape(1, 3)).points[0]


def _angle(u, v) -> np.ndarray:
    """Great-circle angle between unit vectors given as their x, y and z
    coordinate planes, (ux, uy, uz) and (vx, vy, vz), broadcast together."""
    (ux, uy, uz), (vx, vy, vz) = u, v
    dots = np.clip(ux * vx + uy * vy + uz * vz, -1.0, 1.0)
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), dots)


def geodesic_distance(p: BlochPoint, q: BlochPoint) -> float:
    """Great-circle angle between two sphere points, in [0, pi]."""
    return float(_angle(to_cartesian(p), to_cartesian(q)))


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-total assignment of a square cost matrix.

    Column reduction first: v_j = min_i c_ij, and each column proposes its
    cheapest row. If no two columns propose one row, that assignment is optimal
    by complementary slackness (u = 0, and every assigned c_ij - v_j is 0).
    Each row left free then gets one shortest augmenting path: Dijkstra on the
    reduced costs c_ij - u_i - v_j >= 0, then a dual update (Jonker & Volgenant,
    Computing 38 (1987) 325-340, in the form of Crouse, IEEE TAES 52 (2016)
    1679-1696, the scheme scipy's linear_sum_assignment implements in C). The
    result is exact, so where the optimum is unique it is scipy's. Among equally
    near columns a free one ends the path; without that, n coincident points
    take O(n^2) Dijkstra steps, not O(n).
    """
    n = cost.shape[0]
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    if n == 0:  # argmin has no empty reduction
        return col4row
    col4row[cost.argmin(axis=0)] = np.arange(n)  # a row proposed twice keeps one column
    if col4row.min() >= 0:
        return col4row
    held = np.flatnonzero(col4row >= 0)
    row4col[col4row[held]] = held
    u, v = np.zeros(n), cost.min(axis=0)
    near, r = np.empty(n), np.empty(n)
    nearer, path = np.empty(n, dtype=bool), np.empty(n, dtype=int)
    for start in np.flatnonzero(col4row < 0).tolist():
        # w is v with -inf at the scanned columns: r reads +inf there, so no later row
        # moves them, and near is set to +inf there, so argmin passes them over
        near.fill(np.inf)
        w, free = v.copy(), np.flatnonzero(row4col < 0)
        rows, cols, dists = [start], [], [0.0]  # dists[k]: path length to cols[k - 1]
        while True:
            i = rows[-1]
            np.subtract(cost[i], w, out=r)
            r += dists[-1] - u[i]
            np.less(r, near, out=nearer)
            np.copyto(near, r, where=nearer)
            np.copyto(path, i, where=nearer)
            j, f = int(near.argmin()), int(free[near[free].argmin()])
            if near[f] == near[j]:  # the path ends at a free column
                j = f
            cols.append(j)
            dists.append(near[j])
            near[j], w[j] = np.inf, -np.inf
            if j == f:
                break
            rows.append(int(row4col[j]))
        step = dists[-1] - np.array(dists)
        u[rows] += step[:-1]
        v[cols] -= step[1:]
        i = -1
        while i != start:  # flip the path back from the free column j
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
    return col4row


def _match(a: Constellation, b: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignment (b-indices aligned to a) and the distance matrix."""
    if a.expected_size != b.expected_size:
        raise ValueError("cannot match constellations of different sizes")
    dist = _angle(to_cartesian(a).T[:, :, None], to_cartesian(b).T[:, None, :])
    return _assign(dist), dist


def match_constellations(a: Constellation, b: Constellation) -> np.ndarray:
    """Minimum-total-distance assignment (Hungarian); b-indices aligned to a."""
    return _match(a, b)[0]


def matching_max_distance(a: Constellation, b: Constellation) -> float:
    """Largest per-pair geodesic distance under the optimal matching."""
    perm, dist = _match(a, b)
    return float(dist[np.arange(a.expected_size), perm].max(initial=0.0))
