"""Deterministic SVG rendering of constellations.

Orthographic projection of the unit sphere: "front" looks down the +x axis
(screen x = y, screen y = z), "top" looks down the +z axis (screen x = x,
screen y = y). Points on the far hemisphere are drawn faded; coincident
points get a multiplicity badge. Output is a pure function of the inputs:
fixed-precision coordinates, no timestamps, no randomness.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .geometry import Constellation, to_cartesian
from .states import _count, _numbers

__all__ = ["RenderSpec", "render_svg"]

_MIN_SIZE = 64
# limb points have depth 0, up to +-1e-16 of rounding; they draw as near
_LIMB_TOL = 1e-12


@dataclass(frozen=True)
class RenderSpec:
    """Drawing options; point_radius_px is held as a float, and show_axes must be a bool."""

    projection: str = "front"
    size_px: int = 512
    show_axes: bool = False
    point_radius_px: float = 6.0

    def __post_init__(self):
        object.__setattr__(self, "size_px", _count(self.size_px, "size_px"))
        radius = float(_numbers(self.point_radius_px, float, "point_radius_px", ()))
        object.__setattr__(self, "point_radius_px", radius)
        if not isinstance(self.show_axes, (bool, np.bool_)):
            raise TypeError(f"show_axes must be a bool, got {self.show_axes!r:.40}")
        if self.projection not in ("front", "top"):
            raise ValueError(f"unknown projection {self.projection!r}")
        if not _MIN_SIZE <= self.size_px <= sys.float_info.max:  # geometry is float64
            raise ValueError(f"size_px must be at least {_MIN_SIZE} and within float64 range")
        if radius <= 0:
            raise ValueError(f"point_radius_px must be positive, got {radius!r}")


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


def render_svg(constellation: Constellation, spec: RenderSpec) -> str:
    size = spec.size_px
    cx = cy = size / 2.0
    radius = size / 2.0 - max(8.0, 0.06 * size)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        f'fill="#eef3f8" stroke="#444444" stroke-width="1.5"/>',
    ]
    if spec.show_axes:
        # principal great circles project onto the two screen diameters; as
        # cx == cy, screen y of v, cy - v * radius, is screen x of t = -v to the bit
        lo, mid, hi = (_fmt(cx + t * radius) for t in (-1.0, 0.0, 1.0))
        for x1, y1, x2, y2 in ((lo, mid, hi, mid), (mid, hi, mid, lo)):
            lines.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#99aabb" stroke-width="1" stroke-dasharray="5,4"/>'
            )

    view = [1, 2, 0] if spec.projection == "front" else [0, 1, 2]
    u, v, depth = to_cartesian(constellation)[:, view].T
    near = depth >= -_LIMB_TOL
    # far hemisphere first so near points overdraw; then deterministic order
    order = np.lexsort((constellation.phis, constellation.thetas, near))

    xs = map(_fmt, (cx + u[order] * radius).tolist())
    ys = map(_fmt, (cy - v[order] * radius).tolist())
    point_r = _fmt(spec.point_radius_px)
    groups: dict[tuple[str, str], int] = {}
    for key, is_near in zip(zip(xs, ys), near[order].tolist()):
        groups[key] = groups.get(key, 0) + 1
        fill, opacity = ("#1f5fbf", "1.0") if is_near else ("#7da4d6", "0.55")
        lines.append(
            f'<circle cx="{key[0]}" cy="{key[1]}" r="{point_r}" '
            f'fill="{fill}" fill-opacity="{opacity}" stroke="#10305f" stroke-width="1"/>'
        )
    badge_off = spec.point_radius_px + 3.0
    for (sx, sy), count in sorted(item for item in groups.items() if item[1] > 1):
        bx = _fmt(float(sx) + badge_off)
        by = _fmt(float(sy) - badge_off)
        lines.append(
            f'<text x="{bx}" y="{by}" font-family="sans-serif" '
            f'font-size="{_fmt(max(10.0, size / 36.0))}" fill="#10305f">'
            f"&#215;{count}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
