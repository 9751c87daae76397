"""Slope spectra, forbidden slopes, the chord dichotomy, criticality."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopespectra import (
    EXACT,
    Configuration,
    Criticality,
    Forbidden,
    ParallelWitness,
    apply_affine,
    classify_criticality,
    convex_position_order,
    delete_vertices,
    float_backend,
    forbidden_slope_table,
    forbidden_slopes_at,
    lemma1_dichotomy,
    perturb,
    random_affine_map,
    random_convex_position,
    random_general_position,
    random_noncollinear,
    regular_polygon,
    slope_spectrum,
)
from slopespectra.errors import AllCollinear, IndexOrder, LemmaViolation, TooFewPoints

from conftest import brute_slope_count, exact_config, parabola_config


class TestSlopeSpectrum:
    def test_unit_square_four_classes(self):
        # oracle: 6 pairs enumerated by hand -> sides (1,0),(0,1),
        # diagonals (1,1),(1,-1)
        spec = slope_spectrum(exact_config([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert spec.count == 4
        assert [(c.direction.dx, c.direction.dy) for c in spec.classes] == [
            (0, 1), (1, -1), (1, 0), (1, 1)]

    def test_parabola_chord_slopes_vieta(self):
        # oracle: chord slope of (ti,ti^2),(tj,tj^2) is ti+tj, so t in
        # {0,1,2,3} yields slopes {1,2,3,4,5}
        spec = slope_spectrum(parabola_config([0, 1, 2, 3]))
        assert spec.count == 5
        assert [(c.direction.dx, c.direction.dy) for c in spec.classes] == [
            (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]

    def test_regular_octagon_eight_classes(self):
        # oracle: chords of a regular m-gon are parallel iff their endpoint
        # index sums agree mod m, giving exactly m classes
        spec = slope_spectrum(regular_polygon(8))
        assert spec.count == 8

    def test_partition_property(self):
        for seed in range(10):
            cfg = random_general_position(7, seed, bound=50)
            spec = slope_spectrum(cfg)
            pairs = [p for cls in spec.classes for p in cls.pairs]
            assert len(pairs) == 21
            assert len(set(pairs)) == 21

    def test_matches_independent_slope_oracle(self):
        for seed in range(20):
            cfg = random_general_position(6, seed, bound=30)
            assert slope_spectrum(cfg).count == brute_slope_count(cfg)

    def test_affine_invariance_exact(self):
        for seed in range(10):
            cfg = random_general_position(6, seed, bound=30)
            T = random_affine_map(seed + 1000)
            image = apply_affine(cfg, T)
            s1, s2 = slope_spectrum(cfg), slope_spectrum(image)
            assert s1.count == s2.count
            # induced map on classes is a bijection preserving pair sets
            assert {frozenset(c.pairs) for c in s1.classes} == \
                {frozenset(c.pairs) for c in s2.classes}

    def test_wraparound_merge(self):
        # two nearly-horizontal segments straddling the pi/0 seam must merge
        b = float_backend()
        cfg = Configuration.from_coords(
            [(0.0, 0.0), (1.0, 1e-12), (-1.0, 1e-12)], b)
        spec = slope_spectrum(cfg)
        assert spec.count == 1

    def test_float_classes_sorted_by_angle(self):
        spec = slope_spectrum(regular_polygon(11))
        angles = [c.direction.angle for c in spec.classes]
        assert angles == sorted(angles)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            slope_spectrum(Configuration.from_coords([(0, 0)], EXACT))


class TestForbiddenSlopes:
    def test_square_one_forbidden_each(self):
        cfg = exact_config([(0, 0), (1, 0), (1, 1), (0, 1)])
        spec = slope_spectrum(cfg)
        for i in range(4):
            assert len(forbidden_slopes_at(cfg, spec, i)) == 1

    def test_octagon_minus_vertex_two_forbidden_each(self):
        cfg = delete_vertices(regular_polygon(8), [0])
        spec = slope_spectrum(cfg)
        assert spec.count == 8
        for i in range(7):
            assert len(forbidden_slopes_at(cfg, spec, i)) == 2

    def test_parabola_forbidden_at_first_point(self):
        # realized at t=0: slopes {1,2,3}; spectrum {1..5}; forbidden {4,5}
        cfg = parabola_config([0, 1, 2, 3])
        spec = slope_spectrum(cfg)
        dirs = forbidden_slopes_at(cfg, spec, 0)
        assert [(d.dx, d.dy) for d in dirs] == [(1, 4), (1, 5)]

    def test_table_counts_complement(self):
        cfg = parabola_config([0, 1, 2, 4, 7])
        spec = slope_spectrum(cfg)
        table = forbidden_slope_table(cfg, spec)
        assert len(table) == len(cfg)
        for i, ks in enumerate(table):
            dirs = [spec.classes[k].direction for k in ks]
            realized = {
                ci for ci, cls in enumerate(spec.classes)
                if any(i in p for p in cls.pairs)
            }
            assert len(realized) + len(dirs) == spec.count
            assert realized.isdisjoint(ks)
            assert dirs == forbidden_slopes_at(cfg, spec, i)


class TestLemma1Dichotomy:
    def test_parabola_parallel_witness(self):
        # chord-slope arithmetic: slope(A0 A3)=0+4=4=1+3=slope(A1 A2)
        cfg = parabola_config([0, 1, 3, 4])
        verdict = lemma1_dichotomy(cfg, 0, 1, 3)
        assert verdict == ParallelWitness(2)

    def test_parabola_forbidden(self):
        # slope(A0 A2)=3; slopes at A1 are 1,4,5 -> forbidden
        cfg = parabola_config([0, 1, 3, 4])
        assert lemma1_dichotomy(cfg, 0, 1, 2) == Forbidden()

    def test_quadrilateral_no_candidate(self):
        # with j the only index strictly between, the witness branch has no
        # candidate p, so the verdict is Forbidden whenever no chord at A_j
        # matches
        cfg = exact_config([(0, 0), (2, -1), (5, 0), (3, 4)])
        cfg = cfg.reordered(convex_position_order(cfg))
        verdict = lemma1_dichotomy(cfg, 0, 1, 2)
        assert verdict == Forbidden()

    def test_index_order_enforced(self):
        cfg = parabola_config([0, 1, 3, 4])
        with pytest.raises(IndexOrder):
            lemma1_dichotomy(cfg, 1, 1, 3)
        with pytest.raises(IndexOrder):
            lemma1_dichotomy(cfg, 2, 1, 3)

    def test_totality_on_random_convex(self):
        from slopespectra import random_convex_position

        for seed in range(10):
            cfg = random_convex_position(7, seed)
            cfg = cfg.reordered(convex_position_order(cfg))
            n = len(cfg)
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        verdict = lemma1_dichotomy(cfg, i, j, k)
                        assert isinstance(verdict, (Forbidden, ParallelWitness))

    @pytest.mark.parametrize("make", [
        lambda: delete_vertices(regular_polygon(12), [1]),
        lambda: delete_vertices(regular_polygon(15), [0]),
        lambda: apply_affine(delete_vertices(regular_polygon(12), [1]), random_affine_map(3)),
        lambda: apply_affine(delete_vertices(regular_polygon(16), [5]), random_affine_map(8)),
        lambda: perturb(delete_vertices(regular_polygon(12), [1]), 1e-11, 12),
    ])
    def test_float_follows_forbidden_table(self, make):
        # on float input the verdict follows the class merge, as the table does
        cfg = make()
        spectrum = slope_spectrum(cfg)
        table = forbidden_slope_table(cfg, spectrum)
        class_of = {pair: c for c, cls in enumerate(spectrum.classes) for pair in cls.pairs}
        for i, j, k in combinations(range(len(cfg)), 3):
            verdict = lemma1_dichotomy(cfg, i, j, k)
            c = class_of[i, k]
            assert (verdict == Forbidden()) == (c in table[j])
            if verdict != Forbidden():
                assert class_of[min(j, verdict.p), max(j, verdict.p)] == c


def brute_lemma1(points, i, j, k):
    """Lemma 1 restated on exact cross products, one scan per condition in
    the order the library checks them: the verdict, or the LemmaViolation
    message."""
    def parallel(a, b, c, d):
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = (points[t] for t in (a, b, c, d))
        return (bx - ax) * (dy - cy) - (by - ay) * (dx - cx) == 0

    n = len(points)
    at_j = [l for l in range(n) if l != j and parallel(i, k, j, l)]
    if not at_j:
        return Forbidden()
    if len(at_j) > 1:
        return f"slope of A{i}A{k} realized at A{j} by several segments {at_j}"
    p = at_j[0]
    if not i < p < k:
        return f"witness p={p} for ({i},{j},{k}) lies outside the open range ({i},{k})"
    at_i = [l for l in range(n) if l not in (i, k) and parallel(i, k, i, l)]
    if at_i:
        return f"witness slope A{j}A{p} equals A{i}A{at_i[0]}"
    return ParallelWitness(p)


class TestLemma1AgainstBruteForce:
    def test_exact_inputs(self):
        # convex inputs in hull order, and lattice inputs with collinear
        # triples in arbitrary order, which reach every LemmaViolation
        cfgs = [random_convex_position(7, s, bound=5) for s in range(10)]
        cfgs = [cfg.reordered(convex_position_order(cfg)) for cfg in cfgs]
        cfgs += [random_noncollinear(8, s, bound=3) for s in range(30)]
        kinds = set()
        for cfg in cfgs:
            points = [(p.x, p.y) for p in cfg.points]
            n = len(cfg)
            for i, j, k in combinations(range(n), 3):
                try:
                    got = lemma1_dichotomy(cfg, i, j, k)
                except LemmaViolation as e:
                    got = str(e)
                    kinds.add(next(w for w in ("several", "outside", "equals") if w in got))
                assert got == brute_lemma1(points, i, j, k), (cfg, i, j, k)
        assert kinds == {"several", "outside", "equals"}


class TestCriticality:
    def test_regular_octagon_minimal(self):
        rep = classify_criticality(regular_polygon(8))
        assert rep.verdict == Criticality.GENERAL_POSITION_MINIMAL
        assert rep.count == 8 and rep.general_position

    def test_octagon_minus_vertex_n_plus_one(self):
        rep = classify_criticality(delete_vertices(regular_polygon(8), [0]))
        assert rep.verdict == Criticality.N_PLUS_ONE
        assert rep.count == 8 and rep.n == 7

    def test_hexagon_plus_center_critical(self):
        # oracle: the 6-gon's three side/long-diagonal classes plus three
        # short-diagonal classes = 6 classes for 7 points
        b = float_backend()
        coords = [(math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)) for k in range(6)]
        coords.append((0.0, 0.0))
        cfg = Configuration.from_coords(coords, b)
        rep = classify_criticality(cfg)
        assert rep.count == 6 and rep.n == 7
        assert rep.verdict == Criticality.CRITICAL
        assert not rep.general_position

    def test_all_collinear_rejected(self):
        with pytest.raises(AllCollinear):
            classify_criticality(exact_config([(0, 0), (1, 1), (2, 2), (3, 3)]))

    def test_other_for_generic(self):
        cfg = random_general_position(6, 3, bound=100)
        rep = classify_criticality(cfg)
        # a generic set has ~n(n-1)/2 slopes
        assert rep.verdict in (Criticality.OTHER, Criticality.N_PLUS_ONE)


class TestLiteratureBounds:
    def test_jamison_bound_general_position_1000(self):
        for seed in range(1000):
            n = 4 + seed % 9
            cfg = random_general_position(n, seed, bound=60)
            assert slope_spectrum(cfg).count >= n

    @given(st.integers(0, 100))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_ungar_bound_noncollinear(self, seed):
        from slopespectra import random_noncollinear

        n = 4 + seed % 9
        cfg = random_noncollinear(n, seed, bound=12)
        assert slope_spectrum(cfg).count >= 2 * (n // 2)

    @given(st.integers(0, 60))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_interior_point_bound(self, seed):
        from slopespectra import random_with_interior_point

        n = 4 + seed % 7
        cfg = random_with_interior_point(n, seed, bound=40)
        assert slope_spectrum(cfg).count >= n + 2
