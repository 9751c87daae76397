"""Chain test, affine-regularity certification, affine map solving."""

import math
import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from slopespectra import (
    AffineMap,
    Configuration,
    EXACT,
    Point,
    apply_affine,
    conic_through_5,
    convex_position_order,
    float_backend,
    is_affinely_regular,
    korchmaros_chain,
    normalize_to_regular,
    perturb,
    random_affine_map,
    regular_polygon,
    solve_affine_map,
)
from slopespectra.errors import (
    BackendMismatch,
    CollinearSource,
    CollinearTriple,
    DuplicatePoints,
    NonInvertible,
    NotConvexPosition,
    TooFewPoints,
)

from slopespectra.regularity import common_conic, convex_polygon

from conftest import exact_config

F = Fraction


def ep(x, y):
    return Point(F(x), F(y))


class TestKorchmarosChain:
    def test_unit_square_cyclic(self):
        cfg = exact_config([(0, 0), (1, 0), (1, 1), (0, 1)])
        ok, j = korchmaros_chain(cfg.points, EXACT)
        assert ok and j is None

    def test_regular_hexagon(self):
        cfg = regular_polygon(6)
        ok, _ = korchmaros_chain(cfg.points, cfg.backend)
        assert ok

    def test_moved_vertex_fails_with_index(self):
        cfg = perturb(regular_polygon(6), 0.05, seed=1)
        ok, j = korchmaros_chain(cfg.points, cfg.backend)
        assert not ok
        assert isinstance(j, int)

    def test_wrap_windows_checked(self):
        # four consecutive vertices of a hexagon: window j=0 holds, the
        # windows that wrap around fail
        hexagon = regular_polygon(6)
        ok, _ = korchmaros_chain(hexagon.points[:4], hexagon.backend)
        assert not ok

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            korchmaros_chain([ep(0, 0), ep(1, 0), ep(0, 1)], EXACT)


class TestIsAffinelyRegular:
    def test_regular_7gon(self):
        cert = is_affinely_regular(regular_polygon(7))
        assert cert.granted
        assert not cert.conic.degenerate

    def test_sheared_7gon(self):
        shear = AffineMap(((1, 2), (0, 1)), (0, 0))
        cert = is_affinely_regular(apply_affine(regular_polygon(7), shear))
        assert cert.granted

    def test_chord_chain_refusal(self):
        # rational points of the unit circle, convex and on one conic, but no
        # affine image of a regular polygon: the chain breaks at window 0
        ts = [F(0), F(1, 5), F(1, 2), F(1), F(2), F(5), F(-3), F(-1, 2)]
        cfg = Configuration.from_coords(
            [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts], EXACT)
        cert = is_affinely_regular(cfg)
        assert not cert.granted and not cert.conic.degenerate
        assert cert.reason == "chord chain fails at cyclic index 0"

    def test_vertex_pulled_to_center_fails(self):
        cfg = regular_polygon(7)
        coords = [tuple(p) for p in cfg.points]
        x, y = coords[3]
        coords[3] = (x / 2, y / 2)  # midpoint with the center
        from slopespectra import Configuration

        bad = Configuration.from_coords(coords, cfg.backend)
        # the pulled vertex is interior, or lands off the conic: not granted
        from slopespectra.errors import NotConvexPosition

        try:
            cert = is_affinely_regular(bad)
            assert not cert.granted
        except NotConvexPosition:
            pass

    def test_affine_invariance_of_verdict(self):
        from slopespectra import Configuration, random_convex_position

        for seed in range(6):
            cfg = random_convex_position(7, seed)
            T = random_affine_map(seed + 99)
            img = apply_affine(cfg, T)
            assert is_affinely_regular(cfg).granted == is_affinely_regular(img).granted

    def test_every_regular_mgon_certified(self):
        # every certificate also survives the numeric diagnostic
        for m in range(5, 25):
            cfg = regular_polygon(m)
            cert = is_affinely_regular(cfg)
            assert cert.granted
            pts = [cfg.points[i] for i in cert.order]
            _, residual = normalize_to_regular(pts, m, cfg.backend)
            assert residual <= 10 * cfg.backend.eps_rel


class TestCommonConic:
    def test_witness_is_input_index(self):
        # the regular 9-gon with vertex 3 pushed 1% outward stays convex; its
        # hull order starts at vertex 5, so vertex 3 sits at hull position 7
        coords = [tuple(p) for p in regular_polygon(9).points]
        coords[3] = (1.01 * coords[3][0], 1.01 * coords[3][1])
        cfg = Configuration.from_coords(coords, float_backend())
        order, pts = convex_polygon(cfg)
        assert order[0] == 5 and order.index(3) == 7
        conic, reason, witness = common_conic(pts, order, cfg.backend)
        assert not conic.degenerate
        assert (reason, witness) == ("point 3 is off the common conic", 3)
        cert = is_affinely_regular(cfg)
        assert not cert.granted and cert.reason == reason

    def test_five_hull_points_always_fit(self):
        # common_conic relies on this: five hull points of a configuration in
        # general and convex position have a conic, on the float backend too
        fitted = near_collinear = 0
        for case, (coords, backend) in enumerate(convex_float_cases(1, 300)):
            try:
                _, pts = convex_polygon(Configuration.from_coords(coords, backend))
            except (DuplicatePoints, CollinearTriple, NotConvexPosition):
                continue
            near_collinear += case % 2
            for five in combinations(pts, 5):
                conic_through_5(five, backend)
                fitted += 1
        assert fitted > 3000 and near_collinear > 50


def convex_float_cases(seed: int, count: int):
    """(coords, backend): 5 to 8 points on an ellipse of axis ratio 1e-3 .. 1,
    rotated, translated by up to 1e3 and scaled by 1e-6 .. 1e6, read with an
    eps of 1e-15 .. 0.3.  In every second case the first three points are about
    1e-7 .. 1e-1 turns apart on the ellipse: two near-collinear sides."""
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randint(5, 8)
        gaps = [rng.uniform(0.2, 1.0) for _ in range(n)]
        if case % 2:
            gaps[0] = gaps[1] = 10 ** rng.uniform(-7, -1) * sum(gaps)
        angles = [2 * math.pi * a / sum(gaps) for a in accumulate(gaps, initial=0.0)][:n]
        ratio, phi = 10 ** rng.uniform(-3, 0), rng.uniform(0, 2 * math.pi)
        ox, oy = (rng.choice((-1, 1)) * 10 ** rng.uniform(-1, 3) for _ in range(2))
        scale = 10 ** rng.uniform(-6, 6)
        c, s = math.cos(phi), math.sin(phi)
        coords = [(scale * (c * math.cos(t) - s * ratio * math.sin(t) + ox),
                   scale * (s * math.cos(t) + c * ratio * math.sin(t) + oy)) for t in angles]
        yield coords, float_backend(10 ** rng.uniform(-15, math.log10(0.3)))


class TestSolveAffineMap:
    def test_identity(self):
        tri = [ep(0, 0), ep(1, 0), ep(0, 1)]
        T = solve_affine_map(tri, tri, EXACT)
        assert T.linear == ((1, 0), (0, 1)) and T.translation == (0, 0)

    def test_diagonal_scaling(self):
        src = [ep(0, 0), ep(1, 0), ep(0, 1)]
        dst = [ep(0, 0), ep(2, 0), ep(0, 3)]
        T = solve_affine_map(src, dst, EXACT)
        assert T.linear == ((2, 0), (0, 3)) and T.translation == (0, 0)

    def test_collinear_source(self):
        with pytest.raises(CollinearSource):
            solve_affine_map([ep(0, 0), ep(1, 1), ep(2, 2)],
                             [ep(0, 0), ep(1, 0), ep(0, 1)], EXACT)

    def test_collinear_destination_noninvertible(self):
        with pytest.raises(NonInvertible):
            solve_affine_map([ep(0, 0), ep(1, 0), ep(0, 1)],
                             [ep(0, 0), ep(1, 1), ep(2, 2)], EXACT)

    def test_roundtrip_exact(self):
        from slopespectra import SplitMix64

        rng = SplitMix64(23)
        for _ in range(25):
            src = [Point(rng.fraction(9), rng.fraction(9)) for _ in range(3)]
            dst = [Point(rng.fraction(9), rng.fraction(9)) for _ in range(3)]
            from slopespectra import orientation

            if orientation(*src, EXACT) == 0 or orientation(*dst, EXACT) == 0:
                continue
            T = solve_affine_map(src, dst, EXACT)
            for s, d in zip(src, dst):
                assert T.apply(s, EXACT) == d


class TestNormalizeToRegular:
    def test_affinely_regular_hexagon(self):
        shear = AffineMap(((3, 1), (0, F(1, 2))), (5, -2))
        cfg = apply_affine(regular_polygon(6), shear)
        order = convex_position_order(cfg)
        pts = [cfg.points[i] for i in order]
        _, residual = normalize_to_regular(pts, 6, cfg.backend)
        assert residual <= 1e-9

    def test_octagon_minus_vertex_gap_aware(self):
        from slopespectra import delete_vertices

        cfg = delete_vertices(regular_polygon(8), [0])
        order = convex_position_order(cfg)
        pts = [cfg.points[i] for i in order]
        # hull starts at the leftmost survivor; the deleted vertex sits four
        # steps later, so targets skip one index there
        _, residual = normalize_to_regular(pts, 8, cfg.backend,
                                           targets=[0, 1, 2, 3, 5, 6, 7])
        assert residual <= 1e-9

    def test_random_heptagon_large_residual(self):
        from slopespectra import Configuration, random_convex_position

        cfg = random_convex_position(7, 4)
        coords = [(float(p.x), float(p.y)) for p in cfg.points]
        fcfg = Configuration.from_coords(coords, float_backend())
        order = convex_position_order(fcfg)
        pts = [fcfg.points[i] for i in order]
        _, residual = normalize_to_regular(pts, 7, fcfg.backend)
        assert residual > 1e-6  # reported, not an error

    def test_exact_backend_refused(self):
        with pytest.raises(BackendMismatch):
            normalize_to_regular([ep(0, 0), ep(1, 0), ep(0, 1)], 5, EXACT)
