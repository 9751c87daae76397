"""The exact backend as the float backend's oracle on small integer sets.

For integer coordinates with |x|, |y| <= B, two non-parallel difference
vectors u, v have |u x v| >= 1 and |u| |v| <= 8 B^2, so the sine between
them is at least 1 / (8 B^2): above eps_rel = 1e-9 for B <= 5000, where
every product is exact in a double.  Distinct points differ by at least 1,
more than eps_rel max(1, |a|, |b|).  So every float decision (duplicates,
`turn`, the angle merge, the hull) is the exact one, and the float verdict
must be the exact verdict: stage, reason and witness.  So must the
`analyze` results that do not depend on how a backend encodes a direction
or orders its classes: the spectrum's classes and each point's forbidden
slopes as sets of pair sets, and the criticality class.

Each backend's slope count is also held to two theorems: a non-collinear
set of n points has at least 2 floor(n / 2) slopes (P. Ungar, "2N
noncollinear points determine at least 2N directions", JCTA 1982), and one
with no three points collinear at least n (Jamison).

The test reads only the public API.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from slopespectra import (
    Refutation,
    classify_criticality,
    forbidden_slope_table,
    is_general_position,
    slope_spectrum,
    verify_theorem,
)
from slopespectra.errors import SlopeSpectraError

from conftest import exact_config, float_config

BOUNDS = (3, 10, 100, 5000)


def strict_hull(points):
    """The vertices of the convex hull, no three collinear (monotone chain)."""
    pts = sorted(points)

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


@st.composite
def integer_sets(draw):
    """n = 3..30 distinct integer points with |x|, |y| <= B: random, with a
    collinear triple put in, or in convex position."""
    bound = draw(st.sampled_from(BOUNDS))
    n = draw(st.integers(3, 30))
    coord = st.integers(-bound, bound)
    shape = draw(st.sampled_from(["random", "collinear", "convex"]))
    size = 60 if shape == "convex" else n
    points = draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size, unique=True))
    if shape == "convex":
        hull = strict_hull(points)
        return hull[:n] if len(hull) >= 3 else points[:n]
    if shape == "collinear":
        (x0, y0), (x1, y1) = points[0], points[1]
        dx, dy = x1 - x0, y1 - y0
        line = [(x0 + t * dx, y0 + t * dy) for t in range(-2 * bound, 2 * bound + 1)]
        free = [p for p in line if max(map(abs, p)) <= bound and p not in points]
        if free:
            points[-1] = draw(st.sampled_from(free))
    return points


def verdict(v):
    return (v.stage, v.reason, v.witness) if isinstance(v, Refutation) else type(v)


def partition(cfg):
    return {frozenset(ks) for ks in cfg.pair_partition}


def spectrum_classes(cfg):
    return {frozenset(cls.pairs) for cls in slope_spectrum(cfg).classes}


def criticality(cfg):
    try:
        report = classify_criticality(cfg)
    except SlopeSpectraError as exc:  # AllCollinear: one class
        return type(exc)
    return report.verdict, report.count, report.general_position


def forbidden(cfg):
    """Per point, its forbidden classes as a set of pair sets."""
    classes = slope_spectrum(cfg).classes
    return [{frozenset(classes[k].pairs) for k in row} for row in forbidden_slope_table(cfg)]


@given(integer_sets())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_float_agrees_with_exact(points):
    n = len(points)
    exact, approx = exact_config(points), float_config(points)
    assert verdict(verify_theorem(approx)) == verdict(verify_theorem(exact))
    assert partition(approx) == partition(exact)
    assert spectrum_classes(approx) == spectrum_classes(exact)
    assert criticality(approx) == criticality(exact)
    assert forbidden(approx) == forbidden(exact)
    for cfg in (exact, approx):
        count = slope_spectrum(cfg).count
        assert count == 1 or count >= 2 * (n // 2)  # Ungar
        if is_general_position(cfg)[0]:
            assert count >= n  # Jamison
