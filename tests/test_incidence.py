"""The incidence pass on both backends against brute-force loops, and its
cost in orientation tests counted rather than timed.

The oracles here loop over pairs and triples with their own rational
arithmetic; they share no code with the two class tables,
`Configuration.pair_partition` and its naming `Configuration.direction_classes`.
`tuple_pass`, the float pass as sorted (angle, i, j) tuples, shares its
angle routine: it checks the pass's sort and merge, bit for bit.
"""

import itertools
import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopespectra
from slopespectra import (
    AffineMap,
    Configuration,
    Criticality,
    SlopeClass,
    Stage,
    apply_affine,
    classify_criticality,
    classify_proof_case,
    convex_position_order,
    delete_vertices,
    float_backend,
    forbidden_slope_table,
    is_general_position,
    perturb,
    random_convex_position,
    random_general_position,
    random_noncollinear,
    regular_polygon,
    slope_spectrum,
    verify_theorem,
)
from slopespectra.errors import DuplicatePoints
from slopespectra.geometry import _unit_direction, direction_from_vector

from conftest import brute_slope_count, exact_config, float_config


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


def brute_partition(config):
    """The pairs grouped by their exact slope value, a sorted tuple each."""
    pts = config.points
    classes = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            classes.setdefault(_slope(pts[i], pts[j]), []).append((i, j))
    return sorted(tuple(ps) for ps in classes.values())


def decoded(cfg):
    """`pair_partition` read with `combinations` order: index k is the k-th
    pair, and each class's first index is its representative."""
    pairs = list(itertools.combinations(range(len(cfg)), 2))
    return [(pairs[ks[0]], tuple(sorted(pairs[k] for k in ks))) for ks in cfg.pair_partition]


def assert_partition(cfg):
    """`direction_classes` names the partition that `pair_partition` holds:
    the pair tuples of `decoded`, each representative in its own class;
    float classes in the same order.  Each named class lists distinct pairs
    in ascending order, and the classes cover every pair exactly once."""
    unnamed = decoded(cfg)
    if cfg.backend.exact:  # an exact class ascends from its representative
        assert all(ks == sorted(ks) for ks in cfg.pair_partition)
    assert all(rep in pairs for rep, pairs in unnamed)
    named = [cls.pairs for cls in cfg.direction_classes]
    assert all(list(pairs) == sorted(set(pairs)) for pairs in named)
    if cfg.backend.exact:
        assert sorted(pairs for _, pairs in unnamed) == sorted(named)
    else:
        assert [pairs for _, pairs in unnamed] == named
    assert sorted(p for pairs in named for p in pairs) == \
        [(i, j) for i in range(len(cfg)) for j in range(i + 1, len(cfg))]


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
            assert_partition(cfg)
            assert sorted(cls.pairs for cls in cfg.direction_classes) == brute_partition(exact)
            assert is_general_position(cfg) == (triple is None, triple)

            spectrum = slope_spectrum(cfg)
            assert spectrum.count == brute_slope_count(exact)
            table = forbidden_slope_table(cfg)
            got = [[_direction_slope(spectrum.classes[k].direction) for k in ks] for ks in table]
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


# Pairs of the first set share the rounded slope 1.0 though no two are
# parallel; the others put exact slopes of +-1 next to slopes within a
# rounding of them on either side of the |dx| = |dy| regime boundary, and
# vertical and horizontal pairs in both directions.
BIG = 2 ** 80
ADVERSARIAL = [
    [(0, 0), (BIG, BIG + 1), (BIG + 1, BIG + 2), (2 * BIG, 2 * BIG + 3)],
    [(0, 0), (BIG, BIG), (BIG + 1, BIG), (BIG, BIG + 1), (-BIG, BIG), (-BIG - 1, BIG),
     (1, 1), (2, -2), (0, BIG), (BIG, 0), (-5, 0), (-5, 7), (0, -3)],
    [(5, 0), (0, 0), (-3, 0), (0, 4), (0, -4), (2, 2), (4, 4), (3, -3), (7, 1), (1, 7)],
]
# signed zeros in the coordinates, and horizontal and vertical pairs
SIGNED_ZEROS = [(0.0, 0.0), (-0.0, 1.0), (1.0, -0.0), (-2.0, -0.0), (-0.0, -3.0),
                (2.5, 2.5), (-1.5, 1.5), (4.0, 1.0), (-0.0, 7.0)]


class TestPartition:
    """The partition on pinned inputs where rounded slopes meet: the exact
    pass must split what rounding joins, the float pass must keep signed
    zeros in one class."""

    @pytest.mark.parametrize("coords", ADVERSARIAL)
    def test_exact_buckets_split_by_direction(self, coords):
        cfg = exact_config(coords)
        assert_partition(cfg)
        assert sorted(pairs for _, pairs in decoded(cfg)) == brute_partition(cfg)
        assert len(cfg.direction_classes) == brute_slope_count(cfg)

    def test_rounded_slopes_meet(self):
        # the premise of the first set: distinct slopes, one rounded key
        pts = exact_config(ADVERSARIAL[0]).points
        slopes = {_slope(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)}
        assert len(slopes) == 6 and {float(1 / s) for s in slopes} == {1.0}

    def test_float_signed_zeros(self):
        cfg = float_config(SIGNED_ZEROS)
        exact = exact_config([(Fraction(x), Fraction(y)) for x, y in SIGNED_ZEROS])
        assert_partition(cfg)
        assert sorted(pairs for _, pairs in decoded(cfg)) == brute_partition(exact)
        assert_same_pass(cfg)
        assert all(cls.direction.angle == 0.0 and math.copysign(1, cls.direction.dy) == 1
                   for cls in cfg.direction_classes if cls.direction.dy == 0)


# A point near the origin sees the far pair (1e6, y), (1e6, y + 1e-4) about
# 1e-10 rad apart, within eps: its two segments to them share a class,
# though the pair's own segment is vertical.
FAR_PAIR = [(1e6, 0.0), (1e6, 1e-4)]


def far_pair_witness(points):
    """The first sorted triple two of whose segments share a class: the
    far pair with the first-numbered near point."""
    near = min(k for k, p in enumerate(points) if p not in FAR_PAIR)
    return tuple(sorted([points.index(p) for p in FAR_PAIR] + [near]))


class TestFloatNumbering:
    """A float general-position verdict does not depend on how the points
    are numbered: a shared point in (h, i), (i, k) counts as in (i, j), (i, k)."""

    def test_every_order_of_five(self):
        five = FAR_PAIR + [(0.0, 0.0), (3.0, 7.0), (-5.0, 2.0)]
        for order in itertools.permutations(five):
            assert is_general_position(float_config(order)) == (False, far_pair_witness(order))

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_near_points(self, seed):
        rng = random.Random(seed)
        # near points 0.5 apart in y: a far point sees them 5e-7 rad apart
        points = FAR_PAIR + [(rng.uniform(-10, 10), k + rng.random() / 2) for k in range(6)]
        for _ in range(4):
            rng.shuffle(points)
            assert is_general_position(float_config(points)) == (False, far_pair_witness(points))


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


def tuple_pass(config):
    """The float incidence pass as one sorted list of (angle, i, j) tuples,
    merged by neighbours within eps_rel radians, the pi/0 wraparound
    included: an independent formulation of the same classes."""
    pts, b = config.points, config.backend
    items = [(_unit_direction(q.x - p.x, q.y - p.y)[2], i, j)
             for i, p in enumerate(pts) for j, q in enumerate(pts[i + 1:], i + 1)]
    items.sort()
    groups = []
    for item in items:
        if groups and item[0] - groups[-1][-1][0] <= b.eps_rel:
            groups[-1].append(item)
        else:
            groups.append([item])
    if len(groups) > 1 and groups[0][0][0] + math.pi - groups[-1][-1][0] <= b.eps_rel:
        groups[0] += groups.pop()
    out = []
    for grp in groups:
        _, i, j = grp[0]
        d = direction_from_vector(pts[j].x - pts[i].x, pts[j].y - pts[i].y, b)
        out.append(SlopeClass(d, tuple(sorted((i, j) for _, i, j in grp))))
    return tuple(out)


def bits(classes):
    """Each class as the bytes of dx, dy and angle, and its pairs."""
    return [(struct.pack("<3d", c.direction.dx, c.direction.dy, c.direction.angle), c.pairs)
            for c in classes]


def assert_same_pass(config):
    assert bits(config.direction_classes) == bits(tuple_pass(config))


def power_scaled(config, k, backend):
    return Configuration.from_coords(
        [(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in config.points], backend)


MAPS = [AffineMap(((1, 0), (0, 1)), (0, 0)), AffineMap(((2, 1), (0, 3)), (1, 1)),
        AffineMap(((0.3, -1.7), (2.5, 0.1)), (1e3, -7))]


class TestFloatPass:
    """`direction_classes` on floats against `tuple_pass`, bit for bit."""

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=2, max_size=24, unique=True))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_sets(self, coords):
        try:
            cfg = Configuration.from_coords(coords, float_backend())
        except DuplicatePoints:
            return
        assert_same_pass(cfg)

    @pytest.mark.parametrize("m", [8, 12, 31, 64])
    @pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-9, 1e-6])
    def test_affine_polygons_and_perturbations(self, m, delta):
        base = delete_vertices(regular_polygon(m), [m // 3])
        for seed, T in enumerate(MAPS):
            assert_same_pass(perturb(apply_affine(base, T), delta, seed))

    @given(st.integers(-40, 40), st.sampled_from([12, 31]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_power_of_two_scalings(self, k, m):
        # at the default eps the equality floor max(1, ...) makes points of
        # the 2^-40 image duplicates; 1e-14 keeps them apart
        b = float_backend(1e-14)
        assert_same_pass(power_scaled(delete_vertices(regular_polygon(m), [1]), k, b))

    def test_overflowing_differences(self):
        # differences of +-1e308 overflow to inf, and their angles are NaN
        big = 1e308
        cfg = float_config([(big, 0.0), (-big, 1.0), (0.0, big), (big, -big),
                            (-big, big), (0.5, 0.25), (-1.5 * big, -1.5 * big)])
        assert any(math.isnan(c.direction.angle) for c in cfg.direction_classes)
        assert_same_pass(cfg)
        assert_partition(cfg)


@pytest.fixture
def eq_calls(monkeypatch):
    """Counts calls of `Backend.eq`, the scalar equality rule."""
    original = slopespectra.Backend.eq
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(slopespectra.Backend, "eq", counted)
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

    def test_float_verify_tests_each_point_on_the_conic_once(self, monkeypatch):
        # common_conic tests every input point; the group steps add input
        # points without testing them again, so a handful of tests remain
        original = slopespectra.conics.is_on_conic
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return original(*args)

        for name in ("conics", "regularity"):
            monkeypatch.setattr(getattr(slopespectra, name), "is_on_conic", counted)
        cfg = delete_vertices(regular_polygon(256), [0])
        assert verify_theorem(cfg).full_chain_ok
        assert len(cfg) < calls[0] <= len(cfg) + 16

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

    def test_float_duplicate_test_is_a_sweep(self, eq_calls):
        # the mirror pairs of the 1000-gon share their x; no other pair is
        # within the sweep's window
        regular_polygon(1000)
        assert eq_calls[0] <= 2 * 1000

    def test_subset_runs_no_duplicate_test(self, eq_calls):
        # the points of a configuration are pairwise distinct, and so are any of them
        polygon = regular_polygon(64)
        eq_calls[0] = 0
        deleted = delete_vertices(polygon, [0, 5])
        assert eq_calls[0] == 0
        assert deleted.points == polygon.points[1:5] + polygon.points[6:]

    def test_repeated_index_names_the_first_equal_pair(self, eq_calls):
        polygon = regular_polygon(64)
        eq_calls[0] = 0
        with pytest.raises(DuplicatePoints) as exc:
            polygon.reordered([7, 3, 9, 3, 7])
        assert exc.value.indices == (0, 4)
        assert eq_calls[0] > 0

    def test_exact_duplicate_test_makes_none(self, eq_calls):
        cfg = random_general_position(200, 3)
        eq_calls[0] = 0
        Configuration(cfg.points, cfg.backend)
        assert eq_calls[0] == 0

    @pytest.mark.parametrize("coords", [
        None, [(0, 0), (4, 0), (0, 4), (1, 1), (5, 7), (9, 2), (3, 11), (12, 5)]],
        ids=["convex", "not-convex"])
    def test_exact_verify_makes_no_direction(self, monkeypatch, coords):
        # verify reads the partition: exact input stops by SlopeCount, which
        # counts classes without naming them
        cfg = random_convex_position(40, 2) if coords is None else exact_config(coords)
        made = [0]
        original = slopespectra.geometry.Direction

        def counted(*args, **kwargs):
            made[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(slopespectra.geometry, "Direction", counted)
        verdict = verify_theorem(cfg)
        stage = Stage.SLOPE_COUNT if coords is None else Stage.CONVEX_POSITION
        assert verdict.stage is stage and made[0] == 0

    def test_float_verify_reads_only_the_partition(self):
        # general position and the slope count read flat pair indices: no
        # class is named, so no pair tuple is decoded
        cfg = delete_vertices(regular_polygon(256), [0])
        assert verify_theorem(cfg).full_chain_ok
        assert "pair_partition" in vars(cfg) and "direction_classes" not in vars(cfg)

    def test_exact_rounded_slopes_stay_quadratic(self, monkeypatch):
        # every slope 1 + (j + i) / 2^80 rounds to one key, and pairs with one
        # j + i are parallel: one bucket of n(n-1)/2 pairs split into 2n - 3
        # classes with at most a cross product and one gcd per pair, not a
        # cross product per pair and class
        n = 80
        cfg = exact_config([(BIG * k, BIG * k + k * k) for k in range(n)])
        calls = {"turn": 0, "primitive_direction": 0}

        def counting(name):
            original = getattr(slopespectra.geometry, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(slopespectra.geometry, name, counting(name))
        partition = cfg.pair_partition
        pairs = n * (n - 1) // 2
        assert len(partition) == 2 * n - 3
        assert all(len({i + j for i, j in ps}) == 1 for _, ps in decoded(cfg))
        assert calls["turn"] < pairs and calls["primitive_direction"] == pairs

    def test_exact_hull_makes_none(self, orientation_calls):
        cfg = random_convex_position(150, 1)
        assert sorted(convex_position_order(cfg)) == list(range(150))
        assert orientation_calls[0] == 0
