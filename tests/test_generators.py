"""Generator constructors, the PRNG contract, determinism."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopespectra import (
    EXACT,
    Configuration,
    Point,
    GeneratorSpec,
    SplitMix64,
    apply_affine,
    delete_vertices,
    is_general_position,
    orientation,
    perturb,
    random_affine_map,
    random_convex_position,
    random_general_position,
    random_noncollinear,
    random_with_interior_point,
    regular_polygon,
    serialize_points,
    slope_spectrum,
)
from slopespectra import generators
from slopespectra.errors import (
    GenerationExhausted,
    IndexOutOfRange,
    InvalidSpec,
    PolygonTooSmall,
    TooFewRemaining,
)
from slopespectra.generators import _directions_if_free, _ratios
from slopespectra.geometry import direction_from_vector
from slopespectra.regularity import AffineMap


def sha(config) -> str:
    return hashlib.sha256(serialize_points(config).encode()).hexdigest()


class TestSplitMix64:
    def test_reference_vectors(self):
        # frozen outputs; seed 0 matches the published SplitMix64 sequence
        assert [SplitMix64(0).next_u64() for _ in [0]] == [0xE220A8397B1DCDAF]
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == [
            0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52]

    def test_uniform_range(self):
        rng = SplitMix64(7)
        vals = [rng.uniform(-2.0, 3.0) for _ in range(1000)]
        assert all(-2.0 <= v < 3.0 for v in vals)

    def test_fraction_bounds(self):
        rng = SplitMix64(9)
        for _ in range(500):
            f = rng.fraction(50)
            assert abs(f.numerator) <= 50 * 50 and 1 <= f.denominator <= 50

    @pytest.mark.parametrize("lo, hi", [(5, 4), (3, -3)])
    def test_empty_range_refused(self, lo, hi):
        rng = SplitMix64(1)
        with pytest.raises(InvalidSpec, match="empty range"):
            rng.randint(lo, hi)
        assert rng.state == SplitMix64(1).state  # refused before drawing

    @pytest.mark.parametrize("bound", [0, -3])
    def test_fraction_bound_refused_before_drawing(self, bound):
        rng = SplitMix64(1)
        with pytest.raises(InvalidSpec, match="need bound >= 1"):
            rng.fraction(bound)
        assert rng.state == SplitMix64(1).state


class TestRegularPolygon:
    def test_square_on_axes(self):
        cfg = regular_polygon(4)
        assert cfg.points[0].x == pytest.approx(1.0)
        assert cfg.points[1].y == pytest.approx(1.0)

    def test_octagon_slope_count(self):
        assert slope_spectrum(regular_polygon(8)).count == 8

    def test_triangle(self):
        assert slope_spectrum(regular_polygon(3)).count == 3

    def test_m_too_small(self):
        with pytest.raises(PolygonTooSmall):
            regular_polygon(2)

    def test_mgon_count_equals_m(self):
        for m in range(3, 25):
            assert slope_spectrum(regular_polygon(m)).count == m

    def test_mgon_minus_vertex_keeps_count(self):
        for m in range(8, 25):
            cfg = delete_vertices(regular_polygon(m), [m // 3])
            assert slope_spectrum(cfg).count == m


class TestDeleteAndAffine:
    def test_delete_preserves_order(self):
        cfg = regular_polygon(9)
        out = delete_vertices(cfg, [3])
        assert len(out) == 8
        assert out.points[:3] == cfg.points[:3]
        assert out.points[3:] == cfg.points[4:]
        assert slope_spectrum(out).count == 9

    def test_delete_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            delete_vertices(regular_polygon(5), [-1])
        with pytest.raises(IndexOutOfRange):
            delete_vertices(regular_polygon(5), [5])

    def test_delete_too_many(self):
        with pytest.raises(TooFewRemaining):
            delete_vertices(regular_polygon(4), [0, 1])

    def test_identity_affine(self):
        cfg = regular_polygon(5)
        assert apply_affine(cfg, AffineMap.identity()).points == cfg.points

    def test_shear_square_keeps_four_slopes(self):
        from conftest import exact_config

        square = exact_config([(0, 0), (1, 0), (1, 1), (0, 1)])
        shear = AffineMap(((1, 2), (0, 1)), (0, 0))
        assert slope_spectrum(apply_affine(square, shear)).count == 4

    def test_scaled_deleted_octagon(self):
        cfg = delete_vertices(regular_polygon(8), [2])
        T = AffineMap(((3, 0), (0, Fraction(1, 2))), (1, 2))
        assert slope_spectrum(apply_affine(cfg, T)).count == 8


class TestPerturb:
    def test_zero_delta_identity(self):
        cfg = regular_polygon(6)
        assert perturb(cfg, 0.0, seed=3).points == cfg.points

    def test_seed_determinism(self):
        cfg = regular_polygon(6)
        assert perturb(cfg, 0.05, seed=1).points == perturb(cfg, 0.05, seed=1).points

    def test_breaks_chain(self):
        from slopespectra import korchmaros_chain

        cfg = perturb(regular_polygon(6), 0.05, seed=1)
        ok, _ = korchmaros_chain(cfg.points, cfg.backend)
        assert not ok

    def test_exact_backend_stays_rational(self):
        cfg = random_general_position(4, 8, bound=20)
        out = perturb(cfg, Fraction(1, 100), seed=5)
        assert all(isinstance(p.x, Fraction) for p in out.points)


class TestRandomConfigurations:
    def test_general_position_postcondition(self):
        for seed in (0, 42, 1234):
            cfg = random_general_position(8, seed)
            ok, _ = is_general_position(cfg)
            assert ok

    def test_three_points_make_triangle(self):
        from slopespectra import orientation

        for seed in range(10):
            cfg = random_general_position(3, seed)
            assert orientation(*cfg.points, EXACT) != 0

    def test_determinism(self):
        a = random_general_position(8, 42)
        b = random_general_position(8, 42)
        assert a.points == b.points

    @pytest.mark.parametrize("make,seed,digest", [
        (lambda s: random_general_position(30, s), 1,
         "c168eabc212f347bcfbdca4c665e7594a04943894fd994ac5af0215bc74a3051"),
        (lambda s: random_general_position(30, s), 7,
         "4cab8a6df250893da2b0329c24b1d3ba7a7405859404588059bc01432b6af63a"),
        (lambda s: random_general_position(30, s), 2024,
         "393277610b81825baf38fc1dae8b947dc2663f5172a8746f73ee2b5a1aa19415"),
        (lambda s: random_with_interior_point(20, s), 1,
         "49289caa319ddf08096670519fc1d036219e9b8cc65f27312d9837a3a8042ab2"),
        (lambda s: random_with_interior_point(20, s), 7,
         "e47efdb6305bf16a81524b9f7b9af96be20d2c8c83baa153abb8bd0e48eb4328"),
        (lambda s: random_with_interior_point(20, s), 2024,
         "625f8e2d128944f9d041c9f29ad3c447ddeac9e6fc1618270bc9587ab8bfb296"),
        (lambda s: random_convex_position(7, s), 1,
         "ea7997d60284a6bfb748623c6039c080efe1fb519572215282c44fcc8145c5b9"),
        (lambda s: random_convex_position(30, s), 2,
         "ba7d8d29181ff6ed5a096d5ce5551825bcb9d2130f50bdedf2a34f5d2fe7791e"),
        (lambda s: random_convex_position(150, s), 1,
         "93dd39dc2ed616619ea90af445c69f06b6c92c960b5a01438e8910d317059118"),
        # small bounds: draws with parallel edges are rejected first
        (lambda s: random_convex_position(9, s, bound=4), 3,
         "8e7aa06ec20db093f6e911d432680518eea8364988635991d25a84682ded9b71"),
        (lambda s: random_convex_position(16, s, bound=6), 7,
         "203d2774065293a9b439643dedb962b096600a9fed0e29ced11fcdd145305f8a"),
        (lambda s: random_noncollinear(12, s), 1,
         "31c80dd7a15df798b4df8e8106f85f3dab79488b078730abebee3d603013765c"),
        (lambda s: random_noncollinear(25, s), 7,
         "4aac4fbcd79e4b9ca640cc954e19284b2e8dcf69470f65f68c236507e50cabdc"),
        # small bound: draws that repeat a point are rejected first
        (lambda s: random_noncollinear(6, s, bound=4), 3,
         "631a574888a86d37590243b5e91e414d802ea2047697d63a657c38d01bbf3a01"),
    ])
    def test_output_pinned(self, make, seed, digest):
        # the accept/reject sequence of the collinearity test fixes the
        # output; these digests were taken from the triple-loop version, and
        # the convex ones from the version that sorted edge vectors with a
        # half-plane and cross-product comparator
        assert sha(make(seed)) == digest

    @pytest.mark.parametrize("make", [
        lambda: random_general_position(5, 1, bound=0),
        lambda: random_general_position(5, 1, bound=-3),
        lambda: random_noncollinear(5, 1, bound=0),
        lambda: random_convex_position(5, 1, bound=0),
        lambda: random_with_interior_point(5, 1, bound=0),
        lambda: random_affine_map(1, bound=0),
        lambda: GeneratorSpec(random=5, bound=0).build(),
    ])
    def test_bound_below_one_refused(self, make):
        with pytest.raises(InvalidSpec, match="bound >= 1"):
            make()

    @pytest.mark.parametrize("make, error, match", [
        (lambda: perturb(regular_polygon(5), -0.5, 1), ValueError, "delta must be nonnegative"),
        (lambda: random_noncollinear(2, 1), TooFewRemaining, "need n >= 3, got 2"),
        (lambda: random_convex_position(2, 1), TooFewRemaining, "need n >= 3, got 2"),
        (lambda: random_with_interior_point(3, 1), TooFewRemaining, "need n >= 4, got 3"),
    ], ids=["negative-delta", "noncollinear-2", "convex-2", "interior-3"])
    def test_argument_refused(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_noncollinear_allows_triples(self):
        # small bound makes collinear triples likely but never all-collinear
        found_triple = False
        for seed in range(30):
            cfg = random_noncollinear(6, seed, bound=4)
            ok, _ = is_general_position(cfg)
            found_triple = found_triple or not ok
        assert found_triple

    def test_interior_point_config(self):
        from slopespectra import convex_position_order
        from slopespectra.errors import NotConvexPosition

        cfg = random_with_interior_point(7, 3)
        ok, _ = is_general_position(cfg)
        assert ok
        with pytest.raises(NotConvexPosition):
            convex_position_order(cfg)

    def test_convex_position_generator(self):
        from slopespectra import convex_position_order

        for seed in range(8):
            cfg = random_convex_position(9, seed)
            ok, _ = is_general_position(cfg)
            assert ok
            assert len(convex_position_order(cfg)) == 9

    def test_affine_map_invertible(self):
        for seed in range(20):
            T = random_affine_map(seed)
            assert T.det != 0


def assert_general_position(points):
    """No two points equal and no three collinear, by an exact triple loop."""
    assert len(set(points)) == len(points)
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            for r in points[j + 1:]:
                assert orientation(p, points[j], r, EXACT) != 0


class TestRejectionLoops:
    """Each rejection branch of the generators, taken at bounds 1 to 3, where
    the few coordinates make rejections likely; every output is checked by
    brute force."""

    @pytest.fixture
    def refused(self, monkeypatch):
        """For each candidate that `_directions_if_free` refuses, the number
        of accepted points it was tested against."""
        sizes, real = [], generators._directions_if_free

        def counted(accepted, dirs, cand):
            keys = real(accepted, dirs, cand)
            if keys is None:
                sizes.append(len(accepted))
            return keys

        monkeypatch.setattr(generators, "_directions_if_free", counted)
        return sizes

    @pytest.mark.parametrize("n, seed, bound", [(5, 1, 1), (8, 0, 2), (6, 2, 3)])
    def test_general_position(self, refused, n, seed, bound):
        cfg = random_general_position(n, seed, bound)
        assert refused
        assert_general_position(cfg.points)

    @pytest.mark.parametrize("seed, bound", [(8, 1), (6, 2), (56, 3)])
    def test_noncollinear(self, monkeypatch, seed, bound):
        # with three points, an orientation of 0 is a collinear draw refused
        turns = []

        def counted(*args):
            turns.append(orientation(*args))
            return turns[-1]

        monkeypatch.setattr(generators, "orientation", counted)
        cfg = random_noncollinear(3, seed, bound)
        assert 0 in turns
        assert_general_position(cfg.points)

    @pytest.mark.parametrize("n, seed, bound", [(5, 134, 1), (6, 71, 2), (6, 11, 3)])
    def test_interior_point(self, monkeypatch, n, seed, bound):
        # the interior loop asks `is_general_position` of the outer points
        # with each candidate; the outer draw never calls it
        verdicts, real = [], generators.is_general_position

        def counted(config):
            found = real(config)
            verdicts.append((len(config), found[0]))
            return found

        monkeypatch.setattr(generators, "is_general_position", counted)
        cfg = random_with_interior_point(n, seed, bound)
        assert (n, False) in verdicts
        assert_general_position(cfg.points)
        # strictly inside a triangle of the others, so strictly inside their hull
        a, b, c, inner = *cfg.points[:3], cfg.points[-1]
        turn = orientation(a, b, c, EXACT)
        assert all(orientation(p, q, inner, EXACT) == turn for p, q in ((a, b), (b, c), (c, a)))

    def test_noncollinear_draw_cap(self, monkeypatch):
        # seed 1's first draw at bound 1 is refused, so one draw is too few
        monkeypatch.setattr(generators, "_MAX_DRAWS", 1)
        with pytest.raises(GenerationExhausted,
                           match="^no non-collinear configuration after 1 draws$"):
            random_noncollinear(3, 1, bound=1)

    def test_convex_attempt_cap(self, monkeypatch):
        # eight sorted coordinates from -1, 0, 1 repeat, so every attempt
        # has a zero or a parallel edge; each attempt shuffles once
        shuffles, real = [], SplitMix64.shuffle
        monkeypatch.setattr(SplitMix64, "shuffle",
                            lambda rng, seq: shuffles.append(1) or real(rng, seq))
        monkeypatch.setattr(generators, "_MAX_CONVEX_ATTEMPTS", 3)
        with pytest.raises(GenerationExhausted, match="^no convex configuration after 3 attempts$"):
            random_convex_position(8, 1, bound=1)
        assert len(shuffles) == 3

    def test_interior_attempt_cap(self, monkeypatch):
        # the first candidate of (5, 134, 1) is refused by general position
        verdicts, real = [], generators.is_general_position
        monkeypatch.setattr(generators, "is_general_position",
                            lambda config: verdicts.append(real(config)) or verdicts[-1])
        monkeypatch.setattr(generators, "_MAX_INTERIOR_ATTEMPTS", 1)
        with pytest.raises(GenerationExhausted,
                           match="^no interior point found after 1 attempts$"):
            random_with_interior_point(5, 134, 1)
        assert [ok for ok, _ in verdicts] == [False]

    def test_interior_candidate_equal_to_outer_point(self, monkeypatch):
        # the candidates depend only on the seed and the first three outer
        # points, so an outer set that holds the first candidate skips it
        tested, real = [], generators.is_general_position
        monkeypatch.setattr(generators, "is_general_position",
                            lambda config: tested.append(config.points[-1]) or real(config))
        random_with_interior_point(5, 1)
        first = tested[0]
        outer = random_general_position(4, 1).points + (first,)
        monkeypatch.setattr(generators, "random_general_position",
                            lambda n, seed, bound: Configuration(outer, EXACT))
        tested.clear()
        cfg = random_with_interior_point(5, 1)
        assert first not in tested
        assert cfg.points[:5] == outer and tested == [cfg.points[5]]

    def test_exhausted(self):
        # a 3x3 lattice holds at most 6 points with no three in a line
        with pytest.raises(GenerationExhausted):
            random_general_position(7, 1, bound=1)

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_noncollinear_beyond_capacity(self, monkeypatch, bound):
        # bound 1 allows the values -1, 0 and 1, so at most 9 distinct
        # points: one more is refused before any draw
        values = len({Fraction(p, q) for p in range(-bound, bound + 1)
                      for q in range(1, bound + 1)})
        draws = []
        real = SplitMix64.next_u64
        monkeypatch.setattr(SplitMix64, "next_u64", lambda rng: draws.append(1) or real(rng))
        with pytest.raises(GenerationExhausted,
                           match=f"gives {values} coordinate values, so at most {values ** 2} "):
            random_noncollinear(values ** 2 + 1, 1, bound)
        assert draws == []


class TestGeneratorSpec:
    def test_pipeline(self):
        cfg = GeneratorSpec(polygon=8, delete=(0,)).build()
        assert len(cfg) == 7

    def test_source_required(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec().build()
        with pytest.raises(InvalidSpec):
            GeneratorSpec(polygon=5, random=5).build()

    def test_random_pipeline_deterministic(self):
        s = GeneratorSpec(random=6, seed=9, bound=50)
        assert s.build().points == s.build().points


class TestPipelinePinned:
    """Bits of the polygon pipeline and of an exact affine image, pinned
    before the map's entries were converted once per call."""

    @pytest.mark.parametrize("m,digests", [
        (7, ("bd0680ba0f2961dff15f9b34ff4fd9944ba26682db46e7a3dd52da75adf3bc03",
             "f1eb6367cb9e2cb09f7eee70e3e288ebe9093f165e5065ad43faeba1bf2d857f",
             "53d3dc0f6a15ea5e7ee8a7b2d527eb5d936fe02be8603b84e9f7ed6c276699d9",
             "2798eec0321c56d4d4c477b45dded8845d01e646fe1f3c1dc37710388199759a")),
        (16, ("18d94c4d42248a1d228f671a09c7d70065f1bb9e33a9854d2000e1dfd958faba",
              "97b4a39e9089d022942a6103eeac42ff5b38d36c71f4477cefb899da0219503a",
              "cf3c7cf1b204de8a1ac1c4c170a5a7876b05332ddc8dc2a1c94af959f7acaae9",
              "22deed215d401037c3306a2528bb8f9a5d3779ff2a1a939a69b7fa011406ef95")),
        (91, ("b1b85169ad20a6c85038ccdd6f690124fc231a8d89a47e8aac68639c5a489629",
              "d031709e79347e9cf2221f6fbb68f46d757016b6f715c758187a528ae4179609",
              "a35a3dcdaafdd14c4f9594c51c7d196fb14bf70b3efea9b0ec2a6bbcbbe12fa3",
              "64317231bc2fc612fcc86d6e4c20f7fbc131c6d820bd6f64a205a82c34ac1462")),
    ])
    def test_float_polygon_pipeline(self, m, digests):
        poly = regular_polygon(m)
        deleted = delete_vertices(poly, [m // 3])
        mapped = apply_affine(deleted, random_affine_map(m, 5))
        perturbed = perturb(mapped, 1e-3, m)
        assert tuple(map(sha, (poly, deleted, mapped, perturbed))) == digests

    def test_exact_affine_image(self):
        mapped = apply_affine(random_general_position(10, 3), random_affine_map(3, 5))
        perturbed = perturb(mapped, Fraction(1, 100), 3)
        assert (sha(mapped), sha(perturbed)) == (
            "e630bec7d18e2bd20b126e1534f655a0387d89fa5761d13b07497378d3427bd8",
            "855bcac6d280c6450ba33499a3d6fd627edd666499353c233b82ea47fbd69a43")


RATIONALS = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000))
POINTS = st.builds(Point, RATIONALS, RATIONALS)


def reference_directions(pts, dirs, cand):
    """The Fraction formulation of the rejection test: None when cand
    repeats a point of pts or lies on a line through two of them."""
    if any(p == cand for p in pts):
        return None
    keys = []
    for p, seen in zip(pts, dirs):
        d = direction_from_vector(cand.x - p.x, cand.y - p.y, EXACT)
        key = d.dx, d.dy
        if key in seen:
            return None
        keys.append(key)
    return keys


class TestIntegerRejection:
    @given(cands=st.lists(POINTS, min_size=2, max_size=12, unique=True), data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_fraction_reference(self, cands, data):
        pts, accepted, dirs = [], [], []
        for cand in cands:
            keys = _directions_if_free(accepted, dirs, _ratios(cand.x, cand.y))
            assert keys == reference_directions(pts, dirs, cand)
            if keys is None:
                continue
            for seen, key in zip(dirs, keys):
                seen.add(key)
            dirs.append(set(keys))
            accepted.append(_ratios(cand.x, cand.y))
            pts.append(cand)
        # the first two candidates are distinct, so both were accepted
        i, j = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2,
                                  unique=True))
        t = data.draw(RATIONALS.filter(lambda t: t not in (0, 1)))
        p, q = pts[i], pts[j]
        on_line = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
        for cand in (p, on_line):
            assert reference_directions(pts, dirs, cand) is None
            assert _directions_if_free(accepted, dirs, _ratios(cand.x, cand.y)) is None
