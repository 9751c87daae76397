"""SVG output: structure and determinism."""

import math
from fractions import Fraction as F

import pytest

from slopespectra import Conic, Configuration, EXACT, float_backend, render_svg
from slopespectra.errors import RenderTooLarge
from slopespectra.render import _SAMPLES, _conic_ellipse_params
from slopespectra.generators import delete_vertices, regular_polygon

from conftest import exact_config, parabola_config


SQUARE = exact_config([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestRenderStructure:
    def test_points_and_labels(self):
        svg = render_svg(SQUARE)
        assert svg.startswith("<svg ")
        assert svg.count("<circle") == 4
        assert svg.count("<text") == 4

    def test_conic_highlight_has_curve_element(self):
        cfg = parabola_config([0, 1, 3, 4, 5, 6])
        svg = render_svg(cfg, "conic")
        assert 'id="conic"' in svg
        assert "<path" in svg or "<ellipse" in svg

    def test_hyperbola_path_breaks_where_no_real_point(self):
        # x^2 - y^2 = 1 has no point with |x| < 1: each branch is two runs,
        # and no step of a run may span that gap
        cfg = exact_config([(F(5, 4), F(3, 4)), (F(5, 3), F(4, 3)), (F(-5, 4), F(-3, 4)),
                            (F(-5, 3), F(-4, 3)), (F(5, 4), F(-3, 4))])
        svg = render_svg(cfg, "conic")
        width = float(svg.split('width="')[1].split('"')[0])
        d = svg.split('<path id="conic" d="')[1].split('"')[0]
        runs = [[tuple(map(float, pt.split(","))) for pt in run[1:].split("L")]
                for run in d.split()]
        steps = [abs(q[0] - p[0]) for run in runs for p, q in zip(run, run[1:])]
        assert max(steps) <= width / _SAMPLES + 1e-3
        assert len(runs) == 4

    def test_circle_conic_becomes_ellipse(self):
        cfg = delete_vertices(regular_polygon(8), [0])
        svg = render_svg(cfg, "conic")
        assert "<ellipse" in svg

    def test_parallel_class_shares_dash(self):
        svg = render_svg(SQUARE, "parallel (1,0)")
        lines = [ln for ln in svg.splitlines() if "<line" in ln]
        assert len(lines) == 2  # the two horizontal sides
        dashes = {ln.split('class="')[1].split('"')[0] for ln in lines}
        assert len(dashes) == 1

    def test_parallel_all_distinct_dashes(self):
        svg = render_svg(SQUARE, "parallel all")
        lines = [ln for ln in svg.splitlines() if "<line" in ln]
        assert len(lines) == 6
        classes = {ln.split('class="')[1].split('"')[0] for ln in lines}
        assert len(classes) == 4

    def test_forbidden_markers(self):
        svg = render_svg(SQUARE, "forbidden 0")
        assert 'class="forbidden-0"' in svg

    def test_determinism(self):
        cfg = delete_vertices(regular_polygon(9), [2])
        assert render_svg(cfg, "parallel all") == render_svg(cfg, "parallel all")

    def test_point_cap(self):
        from slopespectra.render import POINT_CAP

        coords = [(i, i * i) for i in range(POINT_CAP + 1)]
        big = Configuration.from_coords(coords, EXACT)
        with pytest.raises(RenderTooLarge):
            render_svg(big)


def off_mod_pi(angle, target):
    """Distance between two axis angles, which are defined modulo pi."""
    r = (angle - target) % math.pi
    return min(r, math.pi - r)


class TestEllipseParams:
    def test_axis_aligned(self):
        # 4(x-1)^2 + 9(y+2)^2 = 36: centre (1, -2), semi-axes 3 along x and 2
        conic = Conic.from_coeffs((4, 0, 9, -8, 36, 4), EXACT)
        cx, cy, r1, r2, theta = _conic_ellipse_params(conic)
        assert (cx, cy, r1, r2) == pytest.approx((1, -2, 3, 2), abs=1e-12)
        assert off_mod_pi(theta, 0) <= 1e-12

    def test_rotated(self):
        x0, y0, ra, rb, phi = 1.5, -0.5, 3.0, 2.0, math.pi / 6
        cs, sn = math.cos(phi), math.sin(phi)
        a = cs * cs / ra ** 2 + sn * sn / rb ** 2
        b = 2 * cs * sn * (1 / ra ** 2 - 1 / rb ** 2)
        c = sn * sn / ra ** 2 + cs * cs / rb ** 2
        coeffs = (a, b, c, -2 * a * x0 - b * y0, -b * x0 - 2 * c * y0,
                  a * x0 * x0 + b * x0 * y0 + c * y0 * y0 - 1)
        cx, cy, r1, r2, theta = _conic_ellipse_params(Conic.from_coeffs(coeffs, float_backend()))
        assert (cx, cy, r1, r2) == pytest.approx((x0, y0, ra, rb), abs=1e-9)
        assert off_mod_pi(theta, phi) <= 1e-9
