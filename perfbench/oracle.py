"""Known answers in integer arithmetic, independent of slopespectra.

Nothing here imports the package under test.  Coordinates (ints, Fractions
or floats, which are dyadic rationals) are put on one integer grid by the
lcm of their denominators; collinearity, convexity and parallelism do not
change under that scaling, so every answer below is exact.

Directions are primitive integer vectors (dx, dy) with dx > 0, or dx = 0
and dy > 0: the mathematical canonical form of a parallelism class.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def int_grid(coords) -> list[tuple[int, int]]:
    """Coordinates scaled by one common factor onto the integer lattice."""
    fr = [(Fraction(x), Fraction(y)) for x, y in coords]
    scale = lcm(*(v.denominator for p in fr for v in p))
    return [(int(x * scale), int(y * scale)) for x, y in fr]


def canonical(dx: int, dy: int) -> tuple[int, int]:
    g = gcd(dx, dy)
    dx, dy = dx // g, dy // g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy


def spectrum(pts) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Parallelism classes: canonical direction -> sorted index pairs."""
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            key = canonical(pts[j][0] - xi, pts[j][1] - yi)
            classes.setdefault(key, []).append((i, j))
    return classes


def forbidden(classes, n: int) -> list[set[tuple[int, int]]]:
    """Per point, the directions of the classes with no pair at that point."""
    touching: list[set] = [set() for _ in range(n)]
    for key, pairs in classes.items():
        for i, j in pairs:
            touching[i].add(key)
            touching[j].add(key)
    every = set(classes)
    return [every - t for t in touching]


def first_collinear_triple(pts):
    """The lexicographically first collinear triple (i, j, k), or None."""
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        rays: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, n):
            rays.setdefault(canonical(pts[j][0] - xi, pts[j][1] - yi), []).append(j)
        pairs = [(js[0], js[1]) for js in rays.values() if len(js) >= 2]
        if pairs:
            return (i,) + min(pairs)
    return None


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_order(pts) -> list[int]:
    """Strict convex hull, counterclockwise from the lexicographically
    smallest point (no three points collinear assumed)."""
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def chain(indices):
        out: list[int] = []
        for i in indices:
            while len(out) >= 2 and _cross(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    return lower[:-1] + upper[:-1]


def expected_refutation(pts):
    """(stage, witness) of the first failing stage up to the slope count,
    or None when the input passes every stage this oracle decides."""
    n = len(pts)
    if n < 7:
        return "Size", n
    triple = first_collinear_triple(pts)
    if triple is not None:
        return "GeneralPosition", list(triple)
    hull = hull_order(pts)
    if len(hull) < n:
        return "ConvexPosition", min(set(range(n)) - set(hull))
    classes = spectrum(pts)
    if len(classes) != n + 1:
        return "SlopeCount", len(classes)
    for i, dirs in enumerate(forbidden(classes, n)):
        if len(dirs) != 2:
            return "SlopeCount", i
    return None


def criticality(count: int, n: int, general_position: bool) -> str:
    if count == n - 1:
        return "Critical"
    if count == n:
        return "GeneralPositionMinimal" if general_position else "NearCritical"
    if count == n + 1:
        return "NPlusOne"
    return "Other"


def analysis(pts) -> dict:
    """What `analyze` must report: classes, forbidden sets, criticality."""
    n = len(pts)
    classes = spectrum(pts)
    gp = first_collinear_triple(pts) is None
    return {
        "n": n,
        "classes": {k: sorted(v) for k, v in classes.items()},
        "forbidden": forbidden(classes, n),
        "general_position": gp,
        "criticality": criticality(len(classes), n, gp),
    }


def polygon_chord_classes(m: int, kept) -> int:
    """Slope count of the regular m-gon vertices `kept`: chord (i, j) of a
    regular polygon has the direction class (i + j) mod m."""
    kept = sorted(kept)
    return len({(a + b) % m for x, a in enumerate(kept) for b in kept[x + 1:]})


def polygon_expected_stage(m: int, deleted) -> str | None:
    """The refutation stage of a regular m-gon minus `deleted` (any affine
    image), or None when it is an instance (exactly one vertex missing)."""
    kept = [v for v in range(m) if v not in set(deleted)]
    n = len(kept)
    if n < 7:
        return "Size"
    if len(deleted) == 1:
        return None
    classes = polygon_chord_classes(m, kept)
    if classes != n + 1:
        return "SlopeCount"
    for v in kept:
        seen = {(v + w) % m for w in kept if w != v}
        if classes - len(seen) != 2:
            return "SlopeCount"
    return "ChainGap"


def _parallel(p, q, r, s) -> bool:
    return (q[0] - p[0]) * (s[1] - r[1]) == (q[1] - p[1]) * (s[0] - r[0])


def proof_case(pts):
    """(tag, rotation, reflected) of the structural case on convex input in
    general position; None for Case 1 (all chain windows parallel)."""
    order = hull_order(pts)
    n = len(order)
    hull = [pts[i] for i in order]
    if all(_parallel(hull[(i + 1) % n], hull[(i + 2) % n], hull[i], hull[(i + 3) % n])
           for i in range(n)):
        return None
    for rotation in range(n):
        for reflected in (False, True):
            step = -1 if reflected else 1
            lab = [hull[(rotation + step * t) % n] for t in range(n)]
            if _parallel(lab[1], lab[2], lab[0], lab[3]):
                continue
            # A_3 strictly closer than A_0 to the line A_1 A_2
            if abs(_cross(lab[1], lab[2], lab[3])) >= abs(_cross(lab[1], lab[2], lab[0])):
                continue
            tag = "Case2_1" if _parallel(lab[n - 2], lab[1], lab[n - 1], lab[0]) else "Case2_2"
            return tag, rotation, reflected
    raise ValueError("no admissible reindexing")
