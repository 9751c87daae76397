"""Acceptance suite: ten desk-scale criteria, one test per criterion.

Each test prints one PASS line (run with -s to see them; pytest -v shows
the per-criterion outcome either way).  Tolerances and runtime budgets are
pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

from slopespectra import (
    Applicable,
    CaseTag,
    Certificate,
    ConicGroup,
    EXACT,
    Point,
    Refutation,
    SplitMix64,
    Stage,
    apply_affine,
    classify_proof_case,
    coconic_determinant,
    conic_through_5,
    delete_vertices,
    float_backend,
    forbidden_slopes_at,
    group_add,
    group_neg,
    group_scalar_mul,
    is_general_position,
    lemma1_dichotomy,
    pascal_parallel_coconic,
    perturb,
    random_affine_map,
    random_convex_position,
    random_noncollinear,
    random_with_interior_point,
    regular_polygon,
    segments_parallel,
    slope_spectrum,
    verify_theorem,
)
from slopespectra.slopes import Forbidden, ParallelWitness

F = Fraction


def _passline(k: int, text: str):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_regular_polygon_slope_counts():
    """Regular m-gon determines exactly m slopes, m in 3..24, under 1 s."""
    t0 = time.perf_counter()
    backend = float_backend(1e-9)
    for m in range(3, 25):
        cfg = regular_polygon(m, backend)
        assert slope_spectrum(cfg).count == m, f"m={m}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passline(1, f"22 polygons, {elapsed * 1e3:.0f} ms")


def test_criterion_2_single_deletions_certify():
    """Every single-vertex deletion of the m-gon, m in 8..24: slope count
    m = n+1, two forbidden slopes per point, certificate with the missing
    vertex within 1e-7 of the deleted one; under 5 s."""
    t0 = time.perf_counter()
    checked = 0
    for m in range(8, 25):
        base = regular_polygon(m)
        for k in range(m):
            cfg = delete_vertices(base, [k])
            n = len(cfg)
            spectrum = slope_spectrum(cfg)
            assert spectrum.count == m == n + 1, f"m={m} k={k}"
            for i in range(n):
                assert len(forbidden_slopes_at(cfg, i)) == 2, f"m={m} k={k} i={i}"
            verdict = verify_theorem(cfg)
            assert isinstance(verdict, Certificate), f"m={m} k={k}: {verdict}"
            bx, by = verdict.missing_vertex.as_floats()
            ex = math.cos(2 * math.pi * k / m)
            ey = math.sin(2 * math.pi * k / m)
            assert math.hypot(bx - ex, by - ey) <= 1e-7, f"m={m} k={k}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passline(2, f"{checked} deletion instances certified, {elapsed:.2f} s")


def test_criterion_3_affine_invariance_of_verdicts():
    """50 seeded rational affine images of a 7-of-8-gon keep slope count 8
    and keep certifying."""
    base = delete_vertices(regular_polygon(8), [0])
    assert slope_spectrum(base).count == 8
    for seed in range(50):
        T = random_affine_map(seed, bound=5)
        img = apply_affine(base, T)
        assert slope_spectrum(img).count == 8, f"seed={seed}"
        assert isinstance(verify_theorem(img), Certificate), f"seed={seed}"
    _passline(3, "50 affine images certified with slope count 8")


def test_criterion_4_ungar_bound():
    """10^3 seeded random non-collinear rational configurations, n in 4..12,
    determine at least 2*floor(n/2) slopes; under 30 s, exact backend."""
    t0 = time.perf_counter()
    for seed in range(1000):
        n = 4 + seed % 9
        bound = 8 if seed % 2 else 200  # small bound provokes collinear triples
        cfg = random_noncollinear(n, seed, bound=bound)
        count = slope_spectrum(cfg).count
        assert count >= 2 * (n // 2), f"seed={seed} n={n} count={count}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _passline(4, f"1000 configurations, {elapsed:.2f} s")


def test_criterion_5_interior_point_bound():
    """10^3 seeded general-position configurations with a guaranteed interior
    point determine at least n+2 slopes; exact backend."""
    for seed in range(1000):
        n = 4 + seed % 9
        cfg = random_with_interior_point(n, seed, bound=60)
        ok, _ = is_general_position(cfg)
        assert ok, f"seed={seed}"
        count = slope_spectrum(cfg).count
        assert count >= n + 2, f"seed={seed} n={n} count={count}"
    _passline(5, "1000 interior-point configurations")


def test_criterion_6_group_law_oracle():
    """On the parabola with base at the origin, the group operations agree
    exactly with parameter arithmetic; the parallelism law holds exactly."""

    def pp(t):
        t = F(t)
        return Point(t, t * t)

    conic = conic_through_5([pp(t) for t in range(5)], EXACT)
    group = ConicGroup(conic, pp(0))
    rng = SplitMix64(606)

    for _ in range(1000):
        a, b, c = (rng.fraction(9) for _ in range(3))
        A, B, C = pp(a), pp(b), pp(c)
        ab = group_add(group, A, B)
        assert ab == pp(a + b)
        assert group_add(group, B, A) == ab
        assert group_add(group, ab, C) == group_add(group, A, group_add(group, B, C))
        assert group_neg(group, A) == pp(-a)
        k = rng.randint(-6, 6)
        assert group_scalar_mul(group, k, A) == pp(k * a)

    checked = 0
    while checked < 1000:
        a, b, c, d = (rng.fraction(9) for _ in range(4))
        if a == b or c == d:
            continue
        checked += 1
        same_sum = group_add(group, pp(a), pp(b)) == group_add(group, pp(c), pp(d))
        par = segments_parallel(pp(a), pp(b), pp(c), pp(d), EXACT)
        assert same_sum == par == (a + b == c + d)
    _passline(6, "1000 triples + 1000 quadruples, all exact")


def _parameter_family(which: int):
    """(point, op, inv, identity_check) for a conic family with a rational
    group parameterization matching the chord-parallelism group."""
    if which == 0:
        # parabola y = x^2, base (0, 0): parameters add
        return (lambda t: Point(t, t * t),
                lambda s, t: s + t,
                lambda t: -t,
                lambda t: True)
    if which == 1:
        # hyperbola xy = 1, base (1, 1): parameters multiply
        return (lambda t: Point(t, 1 / t),
                lambda s, t: s * t,
                lambda t: 1 / t,
                lambda t: t != 0)
    # unit circle, base (1, 0): tangent-half-angle addition
    return (lambda t: Point((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)),
            lambda s, t: None if 1 - s * t == 0 else (s + t) / (1 - s * t),
            lambda t: -t,
            lambda t: True)


def test_criterion_7_parallel_hexagons_are_coconic():
    """200 seeded random solutions of the three parallelism conditions on
    random rational conics give Applicable(True) with an exactly zero
    incidence determinant."""
    rng = SplitMix64(707)
    produced = 0
    while produced < 200:
        point, op, inv, valid = _parameter_family(produced % 3)
        ts = [rng.fraction(7) for _ in range(4)]
        t1, t2, t3, t6 = ts
        if not all(valid(t) for t in ts):
            continue
        t4 = op(op(t2, t3), inv(t1)) if op(t2, t3) is not None else None
        if t4 is None or op(t2, t3) is None:
            continue
        mid = op(t1, t6)
        t5 = op(mid, inv(t2)) if mid is not None else None
        if t5 is None:
            continue
        params = [t1, t2, t3, t4, t5, t6]
        if len(set(params)) != 6 or not all(valid(t) for t in params):
            continue
        pts = [point(t) for t in params]
        T = random_affine_map(rng.randint(0, 10 ** 9), bound=4)
        pts = [T.apply(p, EXACT) for p in pts]
        verdict = pascal_parallel_coconic(pts, EXACT)
        assert verdict == Applicable(True), f"family={produced % 3}: {verdict}"
        assert coconic_determinant(pts, EXACT) == 0
        produced += 1
    _passline(7, "200 hexagons across parabola/hyperbola/circle families")


def test_criterion_8_dichotomy_totality():
    """The chord dichotomy returns exactly one branch on every index triple
    of 100 seeded random convex general-position rational configurations."""
    from slopespectra import convex_position_order

    triples = 0
    for seed in range(100):
        n = 5 + seed % 6
        cfg = random_convex_position(n, seed, bound=60)
        cfg = cfg.reordered(convex_position_order(cfg))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    verdict = lemma1_dichotomy(cfg, i, j, k)  # raises on violation
                    assert isinstance(verdict, (Forbidden, ParallelWitness))
                    triples += 1
    _passline(8, f"{triples} triples, no violations")


def test_criterion_9_case_classification():
    """Single-deletion instances classify as Case2_2 for m in 8..16, the
    seven consecutive vertices of a 9-gon classify as Case2_2, and regular
    m-gons classify as Case1_1."""
    seven_of_nine = delete_vertices(regular_polygon(9), [7, 8])
    assert classify_proof_case(seven_of_nine).tag == CaseTag.CASE_2_2
    for m in range(8, 17):
        for k in range(m):
            cfg = delete_vertices(regular_polygon(m), [k])
            assert classify_proof_case(cfg).tag == CaseTag.CASE_2_2, f"m={m} k={k}"
        assert classify_proof_case(regular_polygon(m)).tag == CaseTag.CASE_1_1, f"m={m}"
    _passline(9, "deletion instances Case2_2, regular polygons Case1_1")


def test_criterion_10_negative_controls():
    """Perturbed instances (delta = 1e-3) are refuted at ChainGap, Coconic or
    SlopeCount across 100 seeds, never spuriously certified."""
    stages = set()
    for seed in range(100):
        m = 8 + seed % 5
        cfg = delete_vertices(regular_polygon(m), [seed % m])
        noisy = perturb(cfg, 1e-3, seed)
        verdict = verify_theorem(noisy)
        assert isinstance(verdict, Refutation), f"seed={seed}: spurious certificate"
        assert verdict.stage in (Stage.CHAIN_GAP, Stage.COCONIC, Stage.SLOPE_COUNT), \
            f"seed={seed}: stage {verdict.stage}"
        stages.add(verdict.stage)
    _passline(10, f"100 perturbed instances refuted (stages seen: "
                  f"{sorted(s.value for s in stages)})")
