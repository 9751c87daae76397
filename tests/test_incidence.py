"""The incidence pass on both backends against brute-force loops, and its
cost in orientation tests counted rather than timed.

The oracles here loop over pairs and triples with their own rational
arithmetic; they share no code with `Configuration.direction_classes`.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopespectra
from slopespectra import (
    Configuration,
    Criticality,
    classify_criticality,
    classify_proof_case,
    convex_position_order,
    delete_vertices,
    float_backend,
    forbidden_slope_table,
    is_general_position,
    random_convex_position,
    random_general_position,
    random_noncollinear,
    regular_polygon,
    slope_spectrum,
    verify_theorem,
)

from conftest import brute_slope_count, exact_config


def _slope(p, q):
    dx, dy = q.x - p.x, q.y - p.y
    return None if dx == 0 else Fraction(dy, dx)


def _direction_slope(d):
    """The slope of a spectrum direction, None when vertical; a float unit
    vector is rounded to the nearest slope of denominator at most 10^4, far
    above the denominators of `random_noncollinear(n, seed, bound=4)`."""
    if d.dx == 0:
        return None
    if d.exact:
        return Fraction(d.dy, d.dx)
    return Fraction(d.dy / d.dx).limit_denominator(10 ** 4)


def brute_first_collinear_triple(config):
    pts = config.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = pts[i], pts[j], pts[k]
                if (b.x - a.x) * (c.y - a.y) == (b.y - a.y) * (c.x - a.x):
                    return (i, j, k)
    return None


def brute_forbidden(config):
    """Per point, the slope values of all pairs less those of pairs at it."""
    pts = config.points
    n = len(pts)
    every = {_slope(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)}
    return [every - {_slope(pts[i], pts[j]) for j in range(n) if j != i}
            for i in range(n)]


def brute_criticality(config):
    n = len(config)
    count = brute_slope_count(config)
    gp = brute_first_collinear_triple(config) is None
    if count == n - 1:
        return Criticality.CRITICAL, count, gp
    if count == n:
        return (Criticality.GENERAL_POSITION_MINIMAL if gp else Criticality.NEAR_CRITICAL), count, gp
    if count == n + 1:
        return Criticality.N_PLUS_ONE, count, gp
    return Criticality.OTHER, count, gp


class TestAgainstBruteForce:
    # bound 4 leaves few distinct coordinates: many collinear triples and
    # many pairs per class
    @given(st.integers(7, 25), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_pass_matches_loops(self, n, seed):
        exact = random_noncollinear(n, seed, bound=4)
        # the float image answers to the same exact oracles
        image = Configuration.from_coords([(p.x, p.y) for p in exact.points], float_backend())
        triple = brute_first_collinear_triple(exact)
        for cfg in (exact, image):
            assert is_general_position(cfg) == (triple is None, triple)

            spectrum = slope_spectrum(cfg)
            assert spectrum.count == brute_slope_count(exact)
            table = forbidden_slope_table(cfg, spectrum)
            got = [[_direction_slope(d) for d in dirs] for dirs in table.per_point]
            assert [len(dirs) for dirs in got] == [len(set(dirs)) for dirs in got]
            assert [set(dirs) for dirs in got] == brute_forbidden(exact)

            crit = classify_criticality(cfg)
            assert (crit.verdict, crit.count, crit.general_position) == brute_criticality(exact)

    def test_first_triple_is_lexicographic_not_first_found(self):
        # from point 0, points 2 and 3 share a line first scanned at k = 3,
        # but (0, 1, 4) is the lexicographically first triple
        cfg = exact_config([(0, 0), (1, 0), (0, 1), (0, 2), (3, 0), (5, 7)])
        assert brute_first_collinear_triple(cfg) == (0, 1, 4)
        assert is_general_position(cfg) == (False, (0, 1, 4))


@pytest.fixture
def orientation_calls(monkeypatch):
    """Counts calls of `geometry.orientation` through every module binding it."""
    original = slopespectra.geometry.orientation
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("slopespectra.") and getattr(module, "orientation", None) is original:
            monkeypatch.setattr(module, "orientation", counted)
    return calls


@pytest.fixture
def cmp_calls(monkeypatch):
    """Counts calls of `Backend.cmp`, the floored three-way comparison."""
    original = slopespectra.Backend.cmp
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(slopespectra.Backend, "cmp", counted)
    return calls


class TestScaling:
    """Orientation tests made, where the triple loops made O(n^3), and
    Direction objects made, counted rather than timed."""

    def test_exact_general_position_makes_none(self, orientation_calls):
        cfg = random_convex_position(150, 1)
        assert is_general_position(cfg) == (True, None)
        assert orientation_calls[0] == 0

    def test_exact_verify_is_linear(self, orientation_calls):
        cfg = random_convex_position(150, 1)
        verify_theorem(cfg)
        assert orientation_calls[0] < 4 * len(cfg)

    def test_float_general_position_makes_none(self, orientation_calls):
        cfg = delete_vertices(regular_polygon(256), [0])
        assert is_general_position(cfg) == (True, None)
        assert orientation_calls[0] == 0

    def test_float_verify_is_linear(self, orientation_calls):
        cfg = delete_vertices(regular_polygon(256), [0])
        verify_theorem(cfg)
        assert orientation_calls[0] < 4 * len(cfg)

    def test_generator_makes_none(self, orientation_calls):
        random_general_position(60, 1)
        assert orientation_calls[0] == 0

    def test_float_verify_makes_no_cmp(self, cmp_calls):
        # every direction decision is the sine test of `geometry.turn`
        verify_theorem(delete_vertices(regular_polygon(256), [0]))
        assert cmp_calls[0] == 0

    def test_float_proof_case_makes_no_cmp(self, cmp_calls):
        classify_proof_case(delete_vertices(regular_polygon(12), [1]))
        assert cmp_calls[0] == 0

    def test_float_pass_makes_one_direction_per_class(self, monkeypatch):
        # a key per pair, a Direction per class: not one per pair
        cfg = delete_vertices(regular_polygon(64), [0])
        original = slopespectra.geometry.Direction
        made = [0]

        def counted(*args, **kwargs):
            made[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(slopespectra.geometry, "Direction", counted)
        classes = cfg.direction_classes
        assert made[0] == len(classes) < len(cfg) * (len(cfg) - 1) // 2

    def test_exact_hull_makes_none(self, orientation_calls):
        cfg = random_convex_position(150, 1)
        assert sorted(convex_position_order(cfg)) == list(range(150))
        assert orientation_calls[0] == 0
