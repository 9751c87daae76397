"""Conic fitting, membership, the group law, and the hexagon certificate.

The parabola y = x^2 with base point at the origin is the main oracle: its
chord-parallelism group is plain parameter addition, so every group result
can be checked against rational arithmetic on parameters.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slopespectra import (
    Applicable,
    Conic,
    ConicGroup,
    EXACT,
    NotApplicable,
    Point,
    SplitMix64,
    coconic_6,
    coconic_determinant,
    conic_through_5,
    float_backend,
    group_add,
    group_neg,
    group_scalar_mul,
    is_on_conic,
    pascal_parallel_coconic,
    second_intersection,
    tangent_direction,
    direction_from_vector,
)
from slopespectra.conics import _kernel
from slopespectra.errors import (
    BackendMismatch,
    CollinearTriple,
    DegenerateConic,
    DegenerateInput,
    NoSecondIntersection,
    OperandOffConic,
    RankDeficient,
    SingularPoint,
)

from conftest import parabola_points

F = Fraction


def pp(t):
    """Parabola point at parameter t."""
    t = F(t)
    return Point(t, t * t)


def parabola_group():
    conic = conic_through_5(parabola_points([0, 1, 2, 3, 4]), EXACT)
    return ConicGroup(conic, pp(0))


class TestConicThrough5:
    def test_unit_circle_by_nullspace(self):
        pts = [Point(F(1), F(0)), Point(F(0), F(1)), Point(F(-1), F(0)),
               Point(F(0), F(-1)), Point(F(3, 5), F(4, 5))]
        conic = conic_through_5(pts, EXACT)
        assert conic.coeffs == (1, 0, 1, 0, 0, -1)
        assert not conic.degenerate

    def test_parabola_normalized(self):
        conic = conic_through_5(parabola_points([0, 1, 2, 3, 4]), EXACT)
        assert conic.coeffs == (1, 0, 0, 0, -1, 0)

    def test_collinear_triple_rejected(self):
        pts = [Point(F(0), F(0)), Point(F(1), F(1)), Point(F(2), F(2)),
               Point(F(0), F(1)), Point(F(5), F(2))]
        with pytest.raises(CollinearTriple) as exc:
            conic_through_5(pts, EXACT)
        assert exc.value.witness == (0, 1, 2)

    def test_all_five_on_result(self):
        rng = SplitMix64(11)
        for _ in range(20):
            ts = set()
            while len(ts) < 5:
                ts.add(rng.fraction(9))
            pts = [pp(t) for t in ts]
            conic = conic_through_5(pts, EXACT)
            assert all(is_on_conic(conic, p) for p in pts)
            assert not conic.degenerate

    def test_float_fit(self):
        import math

        b = float_backend()
        pts = [Point(math.cos(a), math.sin(a)) for a in (0.1, 0.9, 2.0, 3.5, 5.0)]
        conic = conic_through_5(pts, b)
        assert all(is_on_conic(conic, p) for p in pts)
        assert not conic.degenerate

    def test_rank_deficient_duplicate_direction(self):
        # four distinct points + near-duplicate rows cannot pin six coeffs
        b = float_backend()
        pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0), Point(1.0, 1.0),
               Point(1.0, 1.0 + 1e-15)]
        with pytest.raises((RankDeficient, CollinearTriple, Exception)):
            conic_through_5(pts, b)


class TestMembership:
    def test_pythagorean_point(self):
        circle = Conic.from_coeffs((1, 0, 1, 0, 0, -1), EXACT)
        assert is_on_conic(circle, Point(F(3, 5), F(4, 5)))
        assert not is_on_conic(circle, Point(F(1), F(1)))

    def test_parabola_far_point(self):
        parabola = Conic.from_coeffs((1, 0, 0, 0, -1, 0), EXACT)
        assert is_on_conic(parabola, Point(F(7), F(49)))

    @pytest.mark.parametrize("p", [Point(1e200, 0.0), Point(1e200, 1e200)])
    def test_float_far_point_off_unit_circle(self, p):
        # x^2 + y^2 - 1 overflows to inf there, which is no zero of the form
        circle = Conic.from_coeffs([1, 0, 1, 0, 0, -1], float_backend())
        assert not is_on_conic(circle, p)


class TestCoconic6:
    def test_parabola_exactly_zero(self):
        pts = parabola_points([0, 1, 3, 4, 5, 6])
        assert coconic_determinant(pts, EXACT) == 0
        assert coconic_6(pts, EXACT)

    def test_generic_six_not_coconic(self):
        pts = [Point(F(0), F(0)), Point(F(1), F(0)), Point(F(1), F(1)),
               Point(F(0), F(1)), Point(F(2), F(0)), Point(F(0), F(3))]
        assert coconic_determinant(pts, EXACT) != 0
        assert not coconic_6(pts, EXACT)

    def test_duplicate_gives_rank_drop(self):
        pts = parabola_points([0, 1, 2, 3, 4]) + [pp(0)]
        assert coconic_6(pts, EXACT)

    @pytest.mark.parametrize("count", [5, 7])
    def test_six_points_required(self, count):
        with pytest.raises(DegenerateInput, match="exactly 6 points"):
            coconic_determinant(parabola_points(list(range(count))), EXACT)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e5, 1e9])
    def test_float_verdict_is_scale_invariant(self, scale):
        # the determinant and the bound by columns both scale as s^8, so
        # scaling moves neither verdict
        generic = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (0, 3)]
        assert not coconic_6([Point(x * scale, y * scale) for x, y in generic],
                             float_backend())
        circle = [Point(scale * math.cos(t), scale * math.sin(t))
                  for t in (0.1, 0.9, 2.0, 3.3, 4.4, 5.5)]
        assert coconic_6(circle, float_backend())


def _sign(perm) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


SIGNED_PERMUTATIONS = {n: [(_sign(p), p) for p in permutations(range(n))] for n in (5, 6)}


def leibniz(rows):
    """The determinant of a 5x5 or 6x6 matrix by the permutation expansion."""
    total = 0
    for sign, perm in SIGNED_PERMUTATIONS[len(rows)]:
        term = sign
        for row, col in zip(rows, perm):
            term *= row[col]
            if not term:
                break
        total += term
    return total


def leibniz_det(points) -> Fraction:
    """The 6x6 incidence determinant by the permutation expansion, on the
    exact rationals of the coordinates."""
    rows = []
    for p in points:
        x, y = F(p.x), F(p.y)
        rows.append((x * x, x * y, y * y, x, y, F(1)))
    return F(leibniz(rows))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)


@st.composite
def six_points(draw):
    """Six rational points; on request the last lies on the parabola
    y = q x^2 + r x + s through the first five, so the determinant is 0."""
    if not draw(st.booleans()):
        return [Point(draw(rationals), draw(rationals)) for _ in range(6)]
    q, r, s = draw(rationals), draw(rationals), draw(rationals)
    xs = draw(st.lists(rationals, min_size=6, max_size=6, unique=True))
    return [Point(x, q * x * x + r * x + s) for x in xs]


class TestIntegerKernel:
    """The Laplace determinant and the one-elimination kernel against
    Leibniz expansions that share no code with the package."""

    @given(six_points())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_determinant_value(self, pts):
        assert coconic_determinant(pts, EXACT) == leibniz_det(pts)
        image = [Point(float(p.x), float(p.y)) for p in pts]
        assert coconic_determinant(image, float_backend()) == float(leibniz_det(image))

    @given(six_points())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_fit_vanishes_at_the_five(self, pts):
        five = pts[:5]
        assume(len(set(five)) == 5 and all(
            (b.x - a.x) * (c.y - a.y) != (b.y - a.y) * (c.x - a.x)
            for i, a in enumerate(five) for j, b in enumerate(five[i + 1:], i + 1)
            for c in five[j + 1:]))
        coeffs = conic_through_5(five, EXACT).coeffs
        assert any(coeffs)
        for p in five:
            x, y = F(p.x), F(p.y)
            assert sum(c * t for c, t in zip(coeffs, (x * x, x * y, y * y, x, y, 1))) == 0

    def test_kernel_is_the_signed_minors(self):
        full = deficient = 0
        for rows in kernel_cases(7, 600):
            minors = signed_minors(rows)
            vec = _kernel(rows)
            if not any(minors):
                deficient += 1
                assert vec is None
                continue
            full += 1
            assert vec == minors
        assert full > 300 and deficient > 50


def signed_minors(rows) -> list[int]:
    """The six signed 5x5 minors (-1)^j M_j of five rows of six, each by
    `leibniz`: by Cramer's rule they span the kernel, and all vanish iff the
    rank is < 5."""
    return [(-1) ** j * leibniz([r[:j] + r[j + 1:] for r in rows]) for j in range(6)]


def kernel_cases(seed: int, count: int):
    """Five random integer rows of six, a fifth of them with a zero first
    column, a fifth with a dependent row, a fifth with a zero column
    elsewhere (sometimes a zero row too) and a fifth with two proportional
    columns, so the elimination must pivot across columns."""
    rng = random.Random(seed)
    for case in range(count):
        bound = rng.choice((3, 10, 2 ** 40, 2 ** 110))
        rows = [[rng.randint(-bound, bound) for _ in range(6)] for _ in range(5)]
        kind = case % 5
        if kind == 1:
            for r in rows:
                r[0] = 0
        elif kind == 2:
            u, v = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[rng.randrange(2, 5)] = [u * a + v * b for a, b in zip(rows[0], rows[1])]
        elif kind == 3:
            col = rng.randrange(6)
            for r in rows:
                r[col] = 0
            if rng.random() < 0.3:
                rows[4] = [0] * 6
        elif kind == 4:
            for r in rows:
                r[1] = 2 * r[0]
        yield rows


class TestTangentAndSecondIntersection:
    def test_circle_vertical_tangent(self):
        circle = Conic.from_coeffs((1, 0, 1, 0, 0, -1), EXACT)
        d = tangent_direction(circle, Point(F(1), F(0)))
        assert (d.dx, d.dy) == (0, 1)

    def test_parabola_vertex_tangent(self):
        parabola = Conic.from_coeffs((1, 0, 0, 0, -1, 0), EXACT)
        d = tangent_direction(parabola, pp(0))
        assert (d.dx, d.dy) == (1, 0)

    def test_parabola_slope_two(self):
        parabola = Conic.from_coeffs((1, 0, 0, 0, -1, 0), EXACT)
        d = tangent_direction(parabola, pp(1))
        assert (d.dx, d.dy) == (1, 2)

    def test_singular_point_of_degenerate(self):
        crossed_lines = Conic.from_coeffs((1, 0, -1, 0, 0, 0), EXACT)  # x^2 = y^2
        assert crossed_lines.degenerate
        with pytest.raises(SingularPoint):
            tangent_direction(crossed_lines, Point(F(0), F(0)))

    def test_chord_intersection(self):
        parabola = Conic.from_coeffs((1, 0, 0, 0, -1, 0), EXACT)
        r = second_intersection(parabola, pp(0), direction_from_vector(F(1), F(1), EXACT))
        assert r == pp(1)

    def test_tangent_returns_same_point(self):
        parabola = Conic.from_coeffs((1, 0, 0, 0, -1, 0), EXACT)
        r = second_intersection(parabola, pp(0), direction_from_vector(F(1), F(0), EXACT))
        assert r == pp(0)

    def test_axis_direction_has_no_second(self):
        parabola = Conic.from_coeffs((1, 0, 0, 0, -1, 0), EXACT)
        with pytest.raises(NoSecondIntersection):
            second_intersection(parabola, pp(0), direction_from_vector(F(0), F(1), EXACT))


class TestArgumentRefusals:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: ConicGroup(parabola_group().conic, Point(F(1), F(2))),
         OperandOffConic, "base point"),
        (lambda: second_intersection(parabola_group().conic, pp(0),
                                     direction_from_vector(1.0, 1.0, float_backend())),
         BackendMismatch, "direction backend"),
        # the x-axis lies in the line pair xy = 0
        (lambda: second_intersection(Conic.from_coeffs((0, 1, 0, 0, 0, 0), EXACT),
                                     Point(F(1), F(0)), direction_from_vector(F(1), F(0), EXACT)),
         NoSecondIntersection, "contained in the conic"),
        (lambda: conic_through_5(parabola_points([0, 1, 2, 3]), EXACT),
         DegenerateInput, "need exactly 5 points, got 4"),
        (lambda: conic_through_5(parabola_points([0, 1, 2, 3, 4, 5]), EXACT),
         DegenerateInput, "need exactly 5 points, got 6"),
        (lambda: pascal_parallel_coconic(parabola_points([0, 1, 3, 4, 5]), EXACT),
         DegenerateInput, "need exactly 6 points, got 5"),
        (lambda: pascal_parallel_coconic(parabola_points([0, 1, 3, 4, 5, 6, 7]), EXACT),
         DegenerateInput, "need exactly 6 points, got 7"),
        (lambda: Conic.from_coeffs((0,) * 6, EXACT),
         DegenerateConic, "all six coefficients are zero"),
        (lambda: Conic.from_coeffs((0.0,) * 6, float_backend()),
         DegenerateConic, "all six coefficients are zero"),
    ], ids=["group-base-off-conic", "float-direction-exact-conic", "line-in-conic",
            "fit-4-points", "fit-6-points", "pascal-5-points", "pascal-7-points",
            "zero-coeffs-exact", "zero-coeffs-float"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestGroupLaw:
    def test_functions_are_the_methods(self):
        assert group_add is ConicGroup.add
        assert group_neg is ConicGroup.neg
        assert group_scalar_mul is ConicGroup.scalar_mul

    def test_addition_is_parameter_addition(self):
        g = parabola_group()
        assert group_add(g, pp(1), pp(2)) == pp(3)

    def test_identity(self):
        g = parabola_group()
        assert group_add(g, pp(5), pp(0)) == pp(5)

    def test_inverse_chord_through_tangent(self):
        g = parabola_group()
        assert group_add(g, pp(1), pp(-1)) == pp(0)
        assert group_neg(g, pp(2)) == pp(-2)
        assert group_neg(g, pp(0)) == pp(0)

    def test_circle_negation(self):
        circle = Conic.from_coeffs((1, 0, 1, 0, 0, -1), EXACT)
        g = ConicGroup(circle, Point(F(1), F(0)))
        assert group_neg(g, Point(F(0), F(1))) == Point(F(0), F(-1))

    def test_scalar_multiples(self):
        g = parabola_group()
        assert group_scalar_mul(g, 3, pp(1)) == pp(3)
        assert group_scalar_mul(g, 0, pp(2)) == pp(0)
        assert group_scalar_mul(g, -2, pp(1)) == pp(-2)

    def test_group_axioms_random(self):
        g = parabola_group()
        rng = SplitMix64(5)
        for _ in range(200):
            a, b, c = (rng.fraction(9) for _ in range(3))
            A, B, C = pp(a), pp(b), pp(c)
            ab = group_add(g, A, B)
            assert ab == pp(a + b)                      # oracle: parameters add
            assert group_add(g, B, A) == ab             # commutativity
            assert group_add(g, ab, C) == group_add(g, A, group_add(g, B, C))
            assert group_add(g, A, group_neg(g, A)) == pp(0)
            assert is_on_conic(g.conic, ab)             # closure

    def test_operands_validated(self):
        g = parabola_group()
        with pytest.raises(OperandOffConic):
            group_add(g, Point(F(1), F(2)), pp(0))

    def test_degenerate_conic_refused(self):
        crossed = Conic.from_coeffs((1, 0, -1, 0, 0, 0), EXACT)
        with pytest.raises(DegenerateConic):
            ConicGroup(crossed, Point(F(1), F(1)))

    def test_parallelism_law(self):
        # P+Q = R+S  iff  PQ || RS (tangent convention aside, params distinct)
        from slopespectra import segments_parallel

        g = parabola_group()
        rng = SplitMix64(17)
        checked = 0
        while checked < 200:
            a, b, c, d = (rng.fraction(9) for _ in range(4))
            if a == b or c == d:
                continue
            checked += 1
            lhs = group_add(g, pp(a), pp(b)) == group_add(g, pp(c), pp(d))
            rhs = segments_parallel(pp(a), pp(b), pp(c), pp(d), EXACT)
            assert lhs == rhs == (a + b == c + d)


class TestPascalParallel:
    def test_parabola_positive(self):
        pts = parabola_points([0, 1, 3, 4, 5, 6])
        assert pascal_parallel_coconic(pts, EXACT) == Applicable(True)

    def test_parabola_consecutive_positive(self):
        # all three sums balance for parameters 0..5 as well
        pts = parabola_points([0, 1, 2, 3, 4, 5])
        assert pascal_parallel_coconic(pts, EXACT) == Applicable(True)

    def test_square_plus_generic_not_applicable(self):
        pts = [Point(F(0), F(0)), Point(F(1), F(0)), Point(F(1), F(1)),
               Point(F(0), F(1)), Point(F(3), F(5)), Point(F(-2), F(7))]
        verdict = pascal_parallel_coconic(pts, EXACT)
        assert isinstance(verdict, NotApplicable)

    def test_degenerate_input(self):
        pts = parabola_points([0, 1, 2, 3, 4]) + [pp(0)]
        with pytest.raises(DegenerateInput):
            pascal_parallel_coconic(pts, EXACT)
