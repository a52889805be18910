"""Bloch-sphere points, constellations, and optimal point matching."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        thetas, phis = np.array(thetas, dtype=float), np.array(phis, dtype=float)
        if thetas.size != expected_size:
            raise ValueError(f"constellation has {thetas.size} points, expected {expected_size}")
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
    return _from_angles(np.arctan2(rho, z), np.where(rho > 0.0, np.arctan2(y, x), 0.0))


def bloch_point(theta: float, phi: float) -> BlochPoint:
    """Canonicalize angles: clamp theta into [0, pi], wrap phi, fix poles."""
    return _from_angles([theta], [phi]).points[0]


def points_from_roots(roots, leading_deficiency: int, expected_size: int) -> Constellation:
    """Map polynomial roots to sphere points via tan(theta/2) e^{i phi} = x.

    Each missing leading degree is a root at infinity, one south-pole point,
    so the constellation always carries expected_size points.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape[0] + leading_deficiency != expected_size:
        raise ValueError(
            f"{roots.shape[0]} roots + deficiency {leading_deficiency} "
            f"!= expected size {expected_size}"
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


def _match(a: Constellation, b: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignment (b-indices aligned to a) and the distance matrix."""
    if a.expected_size != b.expected_size:
        raise ValueError("cannot match constellations of different sizes")
    # deferred so that `import stellar` and the CLI load numpy only
    from scipy.optimize import linear_sum_assignment

    dist = _angle(to_cartesian(a).T[:, :, None], to_cartesian(b).T[:, None, :])
    # square cost matrix: the row indices come back as arange(n)
    _, cols = linear_sum_assignment(dist)
    return cols, dist


def match_constellations(a: Constellation, b: Constellation) -> np.ndarray:
    """Minimum-total-distance assignment (Hungarian); b-indices aligned to a."""
    return _match(a, b)[0]


def matching_max_distance(a: Constellation, b: Constellation) -> float:
    """Largest per-pair geodesic distance under the optimal matching."""
    perm, dist = _match(a, b)
    return float(dist[np.arange(a.expected_size), perm].max(initial=0.0))
