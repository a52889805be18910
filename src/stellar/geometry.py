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

_TWO_PI = 2.0 * np.pi


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


def bloch_point(theta: float, phi: float) -> BlochPoint:
    """Canonicalize angles: clamp theta into [0, pi], wrap phi, fix poles."""
    theta = float(min(max(theta, 0.0), np.pi))
    phi = float(np.mod(phi, _TWO_PI))
    if theta == 0.0 or theta == np.pi:
        phi = 0.0
    return BlochPoint(theta, phi)


def points_from_roots(roots, leading_deficiency: int, expected_size: int) -> Constellation:
    """Map polynomial roots to sphere points via tan(theta/2) e^{i phi} = x.

    Each missing leading degree contributes one south-pole point, so the
    constellation always carries expected_size points.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape[0] + leading_deficiency != expected_size:
        raise ValueError(
            f"{roots.shape[0]} roots + deficiency {leading_deficiency} "
            f"!= expected size {expected_size}"
        )
    pts = [bloch_point(2.0 * np.arctan(abs(x)), np.angle(x)) for x in roots]
    pts += [BlochPoint(float(np.pi), 0.0)] * leading_deficiency
    return Constellation(tuple(pts), expected_size)


def to_cartesian(obj) -> np.ndarray:
    """Unit vector(s) for a BlochPoint or a Constellation."""
    if isinstance(obj, Constellation):
        return np.array([to_cartesian(p) for p in obj.points]).reshape(-1, 3)
    st, ct = np.sin(obj.theta), np.cos(obj.theta)
    return np.array([st * np.cos(obj.phi), st * np.sin(obj.phi), ct])


def point_from_cartesian(v) -> BlochPoint:
    """Sphere point for a (not necessarily unit) nonzero 3-vector."""
    x, y, z = (float(c) for c in v)
    rho = np.hypot(x, y)
    if rho == 0.0 and z == 0.0:
        raise ValueError("zero vector has no direction")
    theta = np.arctan2(rho, z)
    phi = np.arctan2(y, x) if rho > 0.0 else 0.0
    return bloch_point(theta, phi)


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
    return float(dist[np.arange(a.expected_size), perm].max())
