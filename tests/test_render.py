import hashlib

import numpy as np
import pytest

from stellar import RenderSpec, render_svg

import helpers


def render(points, **kwargs):
    return render_svg(helpers.make_constellation(points), RenderSpec(**kwargs))


def test_svg_skeleton_and_determinism():
    c = helpers.make_constellation(helpers.EQUATORIAL_TRIPLE)
    spec = RenderSpec()
    out = render_svg(c, spec)
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert out.endswith("</svg>\n")
    assert out == render_svg(c, spec)


def test_marker_count():
    out = render(helpers.EQUATORIAL_TRIPLE)
    # one sphere outline plus one marker per point
    assert out.count("<circle") == 4


def test_empty_constellation_draws_sphere_only():
    out = render([])
    assert out.count("<circle") == 1
    assert "<text" not in out


def test_axes_flag_adds_two_guide_lines():
    c = helpers.EQUATORIAL_TRIPLE
    assert render(c, show_axes=True).count("<line") == 2
    assert "<line" not in render(c)


def test_front_projection_depth_cueing():
    # +x faces the viewer in the front projection, -x is behind the sphere
    out = render([(np.pi / 2, 0.0), (np.pi / 2, np.pi * 0.75)])
    assert '"#1f5fbf"' in out and '"#7da4d6"' in out
    assert out.count('fill-opacity="0.55"') == 1
    # far marker is drawn first so the near one overprints it
    assert out.index("#7da4d6") < out.index("#1f5fbf")


@pytest.mark.parametrize(
    "projection, theta, phi, nudged",
    [
        ("front", np.pi / 2, np.pi / 2, "phi"),
        ("front", np.pi / 2, 1.5 * np.pi, "phi"),
        ("top", np.pi / 2, 1.0, "theta"),
    ],
    ids=["front-quarter", "front-three-quarter", "top-equator"],
)
def test_limb_point_style_survives_one_ulp(projection, theta, phi, nudged):
    # depth is 0 in exact arithmetic and +-1e-16 in floating point either side
    def nudge(t, p, toward):
        if nudged == "phi":
            return t, np.nextafter(p, toward)
        return np.nextafter(t, toward), p

    outs = {
        render([nudge(theta, phi, toward)], projection=projection)
        for toward in (-np.inf, np.inf)
    }
    outs.add(render([(theta, phi)], projection=projection))
    assert len(outs) == 1
    assert "#7da4d6" not in outs.pop()


def test_top_projection_moves_the_view():
    equatorial = [(np.pi / 2, 1.0)]
    front = render(equatorial)
    top = render(equatorial, projection="top")
    assert front != top
    # looking down the z-axis, an equatorial point is on the rim (near side)
    assert "#7da4d6" not in top


def test_north_pole_lands_on_top_of_front_view():
    out = render([(0.0, 0.0)], size_px=512)
    # canvas center is 256; the pole must project above it (smaller y)
    lines = [ln for ln in out.splitlines() if "#1f5fbf" in ln]
    assert len(lines) == 1
    cy = float(lines[0].split('cy="')[1].split('"')[0])
    assert cy < 100


def test_coincident_points_get_multiplicity_badge():
    out = render([(0.0, 0.0)] * 3)
    assert out.count("&#215;3") == 1
    assert out.count("<text") == 1


def test_distinct_points_have_no_badge():
    assert "<text" not in render(helpers.EQUATORIAL_TRIPLE)


def test_point_radius_is_respected():
    out = render([(np.pi / 2, 0.0)], point_radius_px=9.5)
    assert 'r="9.500"' in out


@pytest.mark.parametrize(
    "kwargs",
    [
        {"projection": "side"},
        {"size_px": 63},
        {"point_radius_px": 0.0},
        {"point_radius_px": -2.0},
    ],
)
def test_render_spec_validation(kwargs):
    with pytest.raises(ValueError):
        RenderSpec(**kwargs)


# recorded from the point-by-point projection and sort that the array path replaced
COINCIDENT_1023_DIGESTS = {
    ("front", False): "bd3c47cdd70e19268249cddf5082a014d52497aab06cf7929ead57f5c214514f",
    ("front", True): "270351270635865fc87db932273f22c68e0c7b091d03334ccfd039b594a73c8a",
    ("top", False): "31e6fd704d49377a0c5b8826d33607a7b2de68adc8fcd35f83e19c967d61d317",
    ("top", True): "c7752a2a97dbdc18219f30f8d40eb9cbae9be85fc934f2ba8d0ebc3dec2f1a90",
}


@pytest.mark.parametrize("projection, axes", sorted(COINCIDENT_1023_DIGESTS))
def test_coincident_1023_points_match_recorded_digest(projection, axes):
    c = helpers.coincident_points(np.random.default_rng(608), 1023)
    svg = render_svg(c, RenderSpec(projection=projection, show_axes=axes))
    assert "&#215;" in svg
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == COINCIDENT_1023_DIGESTS[(projection, axes)]
