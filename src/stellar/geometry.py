"""Bloch-sphere points, constellations, and optimal point matching."""

from __future__ import annotations

from dataclasses import dataclass

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

    Poles are canonical: theta exactly 0 or pi forces phi = 0.
    """

    theta: float
    phi: float


@dataclass(frozen=True)
class Constellation:
    """Multiset of sphere points; expected_size tracks 2S or 2^N - 1."""

    points: tuple[BlochPoint, ...]
    expected_size: int

    def __post_init__(self):
        if len(self.points) != self.expected_size:
            raise ValueError(
                f"constellation has {len(self.points)} points, expected {self.expected_size}"
            )


def _from_angles(thetas, phis) -> Constellation:
    """Points under the one canonical-angle rule: theta clamped into [0, pi],
    phi wrapped into [0, 2pi), and phi = 0 where theta is exactly 0 or pi."""
    thetas = np.clip(np.asarray(thetas, dtype=float), 0.0, np.pi)
    # np.mod rounds phi in about (-4.4e-16, 0) up to exactly 2pi
    phis = np.mod(phis, 2.0 * np.pi)
    phis = np.where((thetas == 0.0) | (thetas == np.pi) | (phis == 2.0 * np.pi), 0.0, phis)
    return Constellation(tuple(map(BlochPoint, thetas.tolist(), phis.tolist())), thetas.size)


def _angles(constellation: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """theta and phi arrays of a constellation's points, in order."""
    return np.array([(p.theta, p.phi) for p in constellation.points]).reshape(-1, 2).T


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
    theta, phi = _angles(obj) if isinstance(obj, Constellation) else (obj.theta, obj.phi)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def point_from_cartesian(v) -> BlochPoint:
    """Sphere point for a (not necessarily unit) nonzero 3-vector."""
    return _from_cartesian(np.asarray(v, dtype=float).reshape(1, 3)).points[0]


def _angle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Great-circle angle between unit vectors on the last axis, broadcast."""
    dots = np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)
    return np.arctan2(np.linalg.norm(np.cross(u, v), axis=-1), dots)


def geodesic_distance(p: BlochPoint, q: BlochPoint) -> float:
    """Great-circle angle between two sphere points, in [0, pi]."""
    return float(_angle(to_cartesian(p), to_cartesian(q)))


def _match(a: Constellation, b: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignment (b-indices aligned to a) and the distance matrix."""
    if a.expected_size != b.expected_size:
        raise ValueError("cannot match constellations of different sizes")
    # deferred so that `import stellar` and the CLI load numpy only
    from scipy.optimize import linear_sum_assignment

    dist = _angle(to_cartesian(a)[:, None, :], to_cartesian(b)[None, :, :])
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
