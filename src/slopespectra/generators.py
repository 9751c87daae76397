"""Constructors for test and verification inputs.

Every random constructor takes an explicit seed and drives a SplitMix64
generator, so outputs are reproducible across platforms and implementations.
SplitMix64 state update (all arithmetic mod 2^64):

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Test vectors: seed 0 -> 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4;
seed 42 -> 0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52.
Random rational coordinates use bounded numerators and denominators
(default <= 1000) so downstream exact determinants stay fast.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from ._frozen import Frozen
from .errors import (
    GenerationExhausted,
    InvalidSpec,
    PolygonTooSmall,
    TooFewRemaining,
)
from .geometry import (
    Configuration,
    Point,
    is_general_position,
    orientation,
    primitive_direction,
    require_indices,
)
from .regularity import AffineMap, regular_vertex
from .scalars import Backend, EXACT, float_backend

_MASK64 = (1 << 64) - 1
_MAX_DRAWS = 100_000  # tries of random_general_position and random_noncollinear
_MAX_CONVEX_ATTEMPTS = 200
_MAX_INTERIOR_ATTEMPTS = 2000


class SplitMix64:
    """Portable 64-bit generator; see the module docstring for the algorithm."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (2.0 ** -53)  # 53-bit mantissa in [0, 1)
        return lo + (hi - lo) * u

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (modulo reduction; bias is irrelevant
        at the ranges used here and keeps the draw count deterministic);
        InvalidSpec, before any draw, for an empty range."""
        if hi < lo:
            raise InvalidSpec(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def fraction(self, bound: int) -> Fraction:
        """A rational with |numerator| <= bound and denominator in [1, bound];
        InvalidSpec, before any draw, for a bound below 1."""
        _require_bound(bound)
        return Fraction(self.randint(-bound, bound), self.randint(1, bound))

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]


def regular_polygon(m: int, backend: Optional[Backend] = None) -> Configuration:
    """The regular m-gon (cos 2*pi*k/m, sin 2*pi*k/m), counterclockwise."""
    if m < 3:
        raise PolygonTooSmall(f"need m >= 3, got {m}")
    b = backend if backend is not None else float_backend()
    vertices = [regular_vertex(k, m) for k in range(m)]
    return Configuration.from_coords([(v.x, v.y) for v in vertices], b)


def delete_vertices(config: Configuration, indices: Sequence[int]) -> Configuration:
    """The order-preserving subconfiguration without the given indices."""
    drop = set(indices)
    require_indices(drop, len(config))
    keep = [i for i in range(len(config)) if i not in drop]
    if len(keep) < 3:
        raise TooFewRemaining(f"only {len(keep)} points would remain")
    return config.reordered(keep)


def apply_affine(config: Configuration, T: AffineMap) -> Configuration:
    """Pointwise affine image; the backend is preserved, and a float image
    beyond the float range is refused (BackendMismatch)."""
    b = config.backend
    return Configuration.from_coords(T.image_coords(config.points, b), b)


def perturb(config: Configuration, delta, seed: int) -> Configuration:
    """Displace every coordinate by a seeded uniform value in [-delta, delta].

    The exact backend draws rational displacements (resolution 1/10^6 of
    delta) so the result stays rational; delta = 0 returns an equal copy.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    rng = SplitMix64(seed)
    b = config.backend
    res = 10 ** 6
    # keep rational deltas small-denominator: floats go through their
    # decimal string, not their binary expansion
    delta_q = Fraction(str(delta)) if isinstance(delta, float) else Fraction(delta)
    coords = []
    for p in config.points:
        if b.exact:
            dx = Fraction(rng.randint(-res, res), res) * delta_q
            dy = Fraction(rng.randint(-res, res), res) * delta_q
        else:
            dx = rng.uniform(-float(delta), float(delta))
            dy = rng.uniform(-float(delta), float(delta))
        coords.append((p.x + dx, p.y + dy))
    return Configuration.from_coords(coords, b)


def _require_bound(bound: int) -> None:
    if bound < 1:
        raise InvalidSpec(f"need bound >= 1, got {bound}")


def _ratios(x: Fraction, y: Fraction) -> tuple[int, int, int, int]:
    return x.numerator, x.denominator, y.numerator, y.denominator


def _directions_if_free(accepted, dirs, cand) -> Optional[list[tuple[int, int]]]:
    """The directions from each accepted point to the candidate, or None when
    it repeats a point or lies on a line through two of them.

    Points are given by the `_ratios` (a, b, c, d) of (a/b, c/d).  From
    p = (e/f, g/h) to the candidate the integer vector
    ((a f - e b) d h, (c h - g d) b f) is (cand - p) times b d f h > 0, so
    its `primitive_direction` is the class of cand - p, one gcd per accepted
    point; it is zero iff the candidate repeats p.  dirs[i] holds the
    directions from accepted[i] to the other accepted points; the candidate
    is on the line through accepted[i] and accepted[j] iff its direction
    from accepted[i] is in dirs[i], so the test is O(len(accepted)).
    """
    a, b, c, d = cand
    keys = []
    for (e, f, g, h), seen in zip(accepted, dirs):
        vx = (a * f - e * b) * d * h
        vy = (c * h - g * d) * b * f
        if not (vx or vy):
            return None
        key = primitive_direction(vx, vy)
        if key in seen:
            return None
        keys.append(key)
    return keys


def random_general_position(n: int, seed: int, bound: int = 1000) -> Configuration:
    """n random rational points with no three collinear; deterministic per seed."""
    if n < 3:
        raise TooFewRemaining(f"need n >= 3, got {n}")
    _require_bound(bound)
    rng = SplitMix64(seed)
    pts: list[Point] = []
    accepted: list[tuple[int, int, int, int]] = []
    dirs: list[set[tuple[int, int]]] = []
    tries = 0
    while len(pts) < n:
        if tries >= _MAX_DRAWS:
            raise GenerationExhausted(f"no general-position configuration after {_MAX_DRAWS} draws")
        tries += 1
        x, y = rng.fraction(bound), rng.fraction(bound)
        cand = _ratios(x, y)
        keys = _directions_if_free(accepted, dirs, cand)
        if keys is None:
            continue
        for seen, key in zip(dirs, keys):
            seen.add(key)
        dirs.append(set(keys))
        accepted.append(cand)
        pts.append(Point(x, y))
    return Configuration(tuple(pts), EXACT)


def random_noncollinear(n: int, seed: int, bound: int = 1000) -> Configuration:
    """n distinct random rational points, not all on one line.

    Collinear triples are allowed (unlike random_general_position), which
    exercises bounds that only assume the set is not fully collinear.  A
    coordinate takes V(b) = 1 + 2 #{1 <= p, q <= b : gcd(p, q) = 1} values
    at bound b, and n > V(b)^2 raises GenerationExhausted before any draw.
    """
    if n < 3:
        raise TooFewRemaining(f"need n >= 3, got {n}")
    _require_bound(bound)
    if n > (2 * bound + 1) ** 2:  # V(b) >= 2b + 1, from the integers -b..b
        side = range(1, bound + 1)
        values = 1 + 2 * sum(gcd(p, q) == 1 for p in side for q in side)
        if n > values ** 2:
            raise GenerationExhausted(f"bound {bound} gives {values} coordinate values, so at "
                                      f"most {values ** 2} distinct points; need {n}")
    rng = SplitMix64(seed)
    tries = 0
    while True:
        if tries >= _MAX_DRAWS:
            raise GenerationExhausted(f"no non-collinear configuration after {_MAX_DRAWS} draws")
        tries += 1
        pts: list[Point] = []
        ok = True
        for _ in range(n):
            cand = Point(rng.fraction(bound), rng.fraction(bound))
            if any(p == cand for p in pts):
                ok = False
                break
            pts.append(cand)
        if not ok:
            continue
        if all(orientation(pts[0], pts[1], p, EXACT) == 0 for p in pts[2:]):
            continue
        return Configuration(tuple(pts), EXACT)


def _angle_key(v: tuple[Fraction, Fraction]) -> tuple:
    """Exact sort key of the nonzero vector's angle in [0, 2 pi): the lower
    half-plane (dy < 0, or dy = 0 and dx < 0) after the upper, and within a
    half the horizontal vector first, then ascending -dx/dy."""
    dx, dy = v
    return dy < 0 or (dy == 0 and dx < 0), dy != 0, -dx / dy if dy else 0


def random_convex_position(n: int, seed: int, bound: int = 1000) -> Configuration:
    """A random rational strictly convex polygon (general position).

    Uses Valtr's construction: random x- and y-increments are paired,
    angularly sorted exactly, and prefix-summed into a convex chain.
    Draws are rejected until no two edge vectors are parallel, which rules
    out collinear triples.
    """
    if n < 3:
        raise TooFewRemaining(f"need n >= 3, got {n}")
    _require_bound(bound)
    rng = SplitMix64(seed)
    for _ in range(_MAX_CONVEX_ATTEMPTS):
        xs = sorted(rng.fraction(bound) for _ in range(n))
        ys = sorted(rng.fraction(bound) for _ in range(n))

        def increments(vals):
            lo, hi = vals[0], vals[-1]
            a = lo
            b = lo
            out = []
            for v in vals[1:-1]:
                if rng.next_u64() & 1:
                    out.append(v - a)
                    a = v
                else:
                    out.append(b - v)
                    b = v
            out.append(hi - a)
            out.append(b - hi)
            return out

        dx = increments(xs)
        dy = increments(ys)
        rng.shuffle(dy)
        vecs = list(zip(dx, dy))
        if any(v == (0, 0) for v in vecs):
            continue
        vecs.sort(key=_angle_key)
        keys = [_angle_key(v) for v in vecs]
        if any(keys[i] == keys[(i + 1) % n] for i in range(n)):
            continue  # parallel edges would create a collinear triple
        pts = []
        x = Fraction(0)
        y = Fraction(0)
        for vx, vy in vecs:
            pts.append(Point(x, y))
            x += vx
            y += vy
        return Configuration(tuple(pts), EXACT)
    raise GenerationExhausted(f"no convex configuration after {_MAX_CONVEX_ATTEMPTS} attempts")


def random_with_interior_point(n: int, seed: int, bound: int = 1000) -> Configuration:
    """A general-position configuration of n points, one of which lies
    strictly inside the convex hull of the others."""
    if n < 4:
        raise TooFewRemaining(f"need n >= 4, got {n}")
    pts = random_general_position(n - 1, seed, bound).points
    rng = SplitMix64(seed ^ 0x9E3779B97F4A7C15)
    # a strict convex combination of any three non-collinear points lies
    # strictly inside the hull
    a, b, c = pts[0], pts[1], pts[2]
    for _ in range(_MAX_INTERIOR_ATTEMPTS):
        w1 = Fraction(rng.randint(1, 97), 100)
        w2 = Fraction(rng.randint(1, int((1 - w1) * 100) - 1), 100)
        w3 = 1 - w1 - w2
        cand = Point(w1 * a.x + w2 * b.x + w3 * c.x, w1 * a.y + w2 * b.y + w3 * c.y)
        if cand in pts:
            continue
        # the outer points are in general position: a refusal puts cand on a line through two
        config = Configuration(pts + (cand,), EXACT)
        if is_general_position(config)[0]:
            return config
    raise GenerationExhausted(f"no interior point found after {_MAX_INTERIOR_ATTEMPTS} attempts")


def random_affine_map(seed: int, bound: int = 5) -> AffineMap:
    """A seeded invertible affine map with small rational entries."""
    _require_bound(bound)
    rng = SplitMix64(seed)
    while True:
        a, b, c, d = (rng.fraction(bound) for _ in range(4))
        if a * d - b * c != 0:
            break
    tx, ty = rng.fraction(bound), rng.fraction(bound)
    return AffineMap(((a, b), (c, d)), (tx, ty))


class GeneratorSpec(Frozen):
    """A composable generation pipeline: source, then optional transforms.

    Exactly one of polygon/random must be set; deletion, affine image and
    perturbation are applied in that order.  Every random step is driven by
    the explicit seed.
    """

    polygon: Optional[int] = None
    random: Optional[int] = None
    delete: tuple[int, ...] = ()
    affine: Optional[AffineMap] = None
    perturb_delta: Optional[object] = None
    seed: int = 0
    bound: int = 1000

    def build(self) -> Configuration:
        if (self.polygon is None) == (self.random is None):
            raise InvalidSpec("exactly one of polygon/random must be given")
        if self.polygon is not None:
            config = regular_polygon(self.polygon)
        else:
            config = random_general_position(self.random, self.seed, self.bound)
        if self.delete:
            config = delete_vertices(config, self.delete)
        if self.affine is not None:
            config = apply_affine(config, self.affine)
        if self.perturb_delta is not None:
            config = perturb(config, self.perturb_delta, self.seed)
        return config
