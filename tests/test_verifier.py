"""Theorem verdicts: certificates, refutation stages, case classification."""

import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopespectra import (
    AffineMap,
    CaseTag,
    Certificate,
    Configuration,
    ConicGroup,
    EXACT,
    Refutation,
    Stage,
    apply_affine,
    classify_proof_case,
    conic_through_5,
    convex_position_order,
    delete_vertices,
    float_backend,
    group_add,
    group_neg,
    group_scalar_mul,
    is_affinely_regular,
    korchmaros_chain,
    normalize_to_regular,
    perturb,
    points_equal,
    random_affine_map,
    random_convex_position,
    random_general_position,
    random_noncollinear,
    reconstruct_missing_vertex,
    regular_polygon,
    segments_parallel,
    serialize_points,
    slope_spectrum,
    verify_theorem,
)
from slopespectra import cli
from slopespectra.errors import InconsistentGap, TooFewPoints
from slopespectra.verifier import _locate_gap

from conftest import parabola_config


def gon_minus(m, k=0):
    return delete_vertices(regular_polygon(m), [k])


def residues_name_classes(config, residues):
    """Whether (i, j) -> r_i + r_j mod n+1 takes one value on each slope
    class and a different value on each class."""
    m = len(config) + 1
    sums = [{(residues[i] + residues[j]) % m for i, j in cls.pairs}
            for cls in slope_spectrum(config).classes]
    return all(len(s) == 1 for s in sums) and len(set().union(*sums)) == len(sums)


class TestCertificates:
    def test_octagon_minus_vertex(self):
        cfg = gon_minus(8, 0)
        v = verify_theorem(cfg)
        assert isinstance(v, Certificate)
        bx, by = v.missing_vertex.as_floats()
        assert math.hypot(bx - 1.0, by - 0.0) <= 1e-8  # deleted vertex was (1, 0)
        assert v.full_chain_ok

    def test_residues_cover_range_missing_one(self):
        cfg = gon_minus(9, 4)
        v = verify_theorem(cfg)
        assert isinstance(v, Certificate)
        n = len(cfg)
        assert sorted(v.residues) == list(range(n))  # {0..n} minus the vertex residue n

    @pytest.mark.parametrize("m", [8, 11, 16, 23, 37, 59])
    def test_residues_name_the_classes(self, m):
        # the n + 1 classes are the residue sums of the (n+1)-gon's vertices;
        # a certificate with two residues swapped names them no longer
        certified = 0
        for k, seed, delta in product((0, 3), range(4), (0, 1e-11)):
            cfg = apply_affine(gon_minus(m, k), random_affine_map(seed, 5))
            cfg = perturb(cfg, delta, seed) if delta else cfg
            v = verify_theorem(cfg)
            if isinstance(v, Certificate):
                certified += 1
                assert residues_name_classes(cfg, v.residues)
                swapped = list(v.residues)
                swapped[0], swapped[1] = swapped[1], swapped[0]
                assert not residues_name_classes(cfg, swapped)
        assert certified >= 9

    def test_group_data_rechecks(self):
        cfg = gon_minus(10, 3)
        v = verify_theorem(cfg)
        assert isinstance(v, Certificate)
        b = cfg.backend
        group = ConicGroup(v.conic, v.base_point)
        n = len(cfg)
        for i, t in enumerate(v.residues):
            assert points_equal(group_scalar_mul(group, t, v.generator),
                                cfg.points[i], b)
        # torsion: x has order exactly n+1
        assert points_equal(group_scalar_mul(group, n + 1, v.generator), v.base_point, b)
        for j in range(1, n + 1):
            assert not points_equal(group_scalar_mul(group, j, v.generator),
                                    v.base_point, b)

    def test_soundness_completed_polygon_regular(self):
        for m in (8, 11, 14):
            cfg = gon_minus(m, 1)
            v = verify_theorem(cfg)
            assert isinstance(v, Certificate)
            hull = [cfg.points[i] for i in v.hull_order]
            completed = hull[:v.gap_position + 1] + [v.missing_vertex] + hull[v.gap_position + 1:]
            full = Configuration(tuple(completed), cfg.backend)
            cert = is_affinely_regular(full)
            assert cert.granted
            order = convex_position_order(full)
            pts = [full.points[i] for i in order]
            _, residual = normalize_to_regular(pts, m, full.backend)
            assert residual <= 10 * cfg.backend.eps_rel

    def test_affine_images_still_certify(self):
        base = gon_minus(8, 0)
        for seed in range(12):
            T = random_affine_map(seed)
            img = apply_affine(base, T)
            assert slope_spectrum(img).count == 8
            assert isinstance(verify_theorem(img), Certificate)

    @pytest.mark.parametrize("m,seed", [(32, 20), (91, 1), (91, 2), (91, 3), (91, 4)])
    def test_larger_affine_images_certify(self, m, seed):
        # a conic fitted in floating point drifted far enough to fail these
        img = apply_affine(gon_minus(m, seed % m), random_affine_map(seed))
        assert isinstance(verify_theorem(img), Certificate)

    def test_127_of_128_gon_certifies(self):
        # double-and-add multiples of the generator piled up rounding past
        # eps here; one group step per input point does not accumulate it
        img = apply_affine(gon_minus(128, 30), random_affine_map(3586016, bound=5))
        v = verify_theorem(img)
        assert isinstance(v, Certificate), v
        assert sorted(v.residues) == list(range(127))

    def test_verify_builds_no_hull_configuration(self, monkeypatch):
        # the stages read the hull as a list of the input's points: no
        # second Configuration, and no second O(n^2) duplicate test
        cfg = gon_minus(256)
        original = Configuration.__post_init__
        sizes = []

        def recorded(self):
            sizes.append(len(self.points))
            original(self)

        monkeypatch.setattr(Configuration, "__post_init__", recorded)
        assert isinstance(verify_theorem(cfg), Certificate)
        assert all(size <= 6 for size in sizes), sizes


# the smallest bound at which each generator finds n <= 12 points at once
_GENERATORS = {random_convex_position: 3, random_general_position: 3, random_noncollinear: 2}


class TestExactInputNeverPassesSlopeCount:
    """A consequence of the theorem: on exact input with n >= 7 the verdict
    stops at Size, GeneralPosition, ConvexPosition or SlopeCount.  n + 1
    slopes would make the input an affine image of a regular (n+1)-gon minus
    a vertex, which Niven's theorem rules out over the rationals; a later
    stage on exact input would mean a spectrum bug."""

    EARLY = {Stage.SIZE, Stage.GENERAL_POSITION, Stage.CONVEX_POSITION, Stage.SLOPE_COUNT}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_generated(self, data):
        gen = data.draw(st.sampled_from(list(_GENERATORS)))
        bounds = [b for b in (1, 2, 3, 5, 60, 1000) if b >= _GENERATORS[gen]]
        bound = data.draw(st.sampled_from(bounds))
        cfg = gen(data.draw(st.integers(7, 12)), data.draw(st.integers(0, 10**6)), bound=bound)
        assert verify_theorem(cfg).stage in self.EARLY

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(8, 40), st.integers(0, 39), st.integers(1, 6))
    def test_rounded_polygons(self, m, deleted, digits):
        # the m-gon minus a vertex, rounded to denominators up to 10^digits:
        # the nearest rational inputs to a float instance
        def rounded(x):
            return Fraction(x).limit_denominator(10**digits)

        pts = gon_minus(m, deleted % m).points
        cfg = Configuration.from_coords([(rounded(p.x), rounded(p.y)) for p in pts], EXACT)
        assert verify_theorem(cfg).stage in self.EARLY


class TestRefutations:
    def test_size(self):
        cfg = parabola_config([0, 1, 2, 3, 4, 5])
        v = verify_theorem(cfg)
        assert isinstance(v, Refutation) and v.stage == Stage.SIZE

    def test_general_position_witness_rechecks(self):
        from slopespectra import orientation

        coords = [(float(k), float(k * k)) for k in range(7)]
        coords[3] = (3.0, 8.0)  # not on the parabola
        coords.append((1.0, 3.0))
        cfg = Configuration.from_coords(coords, float_backend())
        # force a collinear triple
        coords2 = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 5.0), (4.0, 1.0),
                   (5.0, 9.0), (6.0, 1.5)]
        cfg2 = Configuration.from_coords(coords2, float_backend())
        v = verify_theorem(cfg2)
        assert v.stage == Stage.GENERAL_POSITION
        i, j, k = v.witness
        assert orientation(cfg2.points[i], cfg2.points[j], cfg2.points[k], cfg2.backend) == 0

    def test_convex_position(self):
        coords = [(math.cos(2 * math.pi * k / 7), math.sin(2 * math.pi * k / 7))
                  for k in range(7)] + [(0.01, 0.02)]
        cfg = Configuration.from_coords(coords, float_backend())
        v = verify_theorem(cfg)
        assert v.stage == Stage.CONVEX_POSITION
        assert v.witness == 7

    def test_tiny_polygon_hull_is_exact(self):
        # the hull's turns are exact on the dyadic values, so no tolerance
        # floor sees a 1e-6-scaled polygon as collinear
        cfg = apply_affine(gon_minus(12, 3), AffineMap(((1e-6, 0.0), (0.0, 1e-6)), (0.0, 0.0)))
        assert convex_position_order(cfg) == convex_position_order(gon_minus(12, 3))
        assert getattr(verify_theorem(cfg), "stage", None) != Stage.CONVEX_POSITION

    def test_slope_count_witness_rechecks(self):
        cfg = regular_polygon(8)
        v = verify_theorem(cfg)
        assert v.stage == Stage.SLOPE_COUNT
        assert v.witness == slope_spectrum(cfg).count == 8

    def test_coconic_stage(self):
        # seven points with 8 slopes that are NOT coconic do not exist by the
        # theorem itself; build a synthetic failure by bypassing earlier
        # stages is impossible, so exercise the stage via the conic check on
        # an off-conic completion: perturb one vertex slightly beyond eps but
        # keep enough parallelisms by using a coarse eps backend
        cfg = gon_minus(8, 0)
        coords = [tuple(p) for p in cfg.points]
        x, y = coords[3]
        coords[3] = (x + 4e-7, y)  # off the circle, within the coarse slope merge
        loose = Configuration.from_coords(coords, float_backend(1e-4))
        v = verify_theorem(loose)
        assert isinstance(v, (Certificate, Refutation))
        if isinstance(v, Refutation):
            assert v.stage in (Stage.COCONIC, Stage.SLOPE_COUNT, Stage.CHAIN_GAP)

    def test_perturbed_instances_refuted(self):
        for seed in range(20):
            cfg = perturb(gon_minus(8, seed % 8), 1e-3, seed)
            v = verify_theorem(cfg)
            assert isinstance(v, Refutation)
            assert v.stage in (Stage.SLOPE_COUNT, Stage.COCONIC, Stage.CHAIN_GAP)


class TestReconstruction:
    def test_octagon_gap_arithmetic(self):
        cfg = gon_minus(8, 0)
        order = convex_position_order(cfg)
        hull = cfg.reordered(order)
        conic = conic_through_5(hull.points[:5], cfg.backend)
        v = verify_theorem(cfg)
        B = reconstruct_missing_vertex(hull, conic, v.gap_position)
        assert math.hypot(B.x - 1.0, B.y - 0.0) <= 1e-8

    def test_nine_gon_any_deletion(self):
        for k in range(9):
            cfg = gon_minus(9, k)
            v = verify_theorem(cfg)
            assert isinstance(v, Certificate)
            vx, vy = v.missing_vertex.as_floats()
            ex = math.cos(2 * math.pi * k / 9)
            ey = math.sin(2 * math.pi * k / 9)
            assert math.hypot(vx - ex, vy - ey) <= 1e-8

    def test_base_independence(self):
        cfg = gon_minus(10, 2)
        order = convex_position_order(cfg)
        hull = cfg.reordered(order)
        conic = conic_through_5(hull.points[:5], cfg.backend)
        v = verify_theorem(cfg)
        g = v.gap_position
        n = len(cfg)
        expected = reconstruct_missing_vertex(hull, conic, g)
        # same expression evaluated in groups with three other bases
        for base_pos in (0, (g + 1) % n, (g + 3) % n):
            group = ConicGroup(conic, hull.points[base_pos])
            alt = group_add(group,
                            group_add(group, hull.points[g % n],
                                      hull.points[(g + 2) % n]),
                            group_neg(group, hull.points[(g + 1) % n]))
            assert points_equal(alt, expected, cfg.backend)

    def test_parabola_run_is_inconsistent(self):
        # convex-position parabola points with a parameter gap: the local
        # parallelism at the gap cannot hold because the parabola group has
        # no torsion
        cfg = parabola_config([0, 1, 2, 3, 4, 5, 7])
        conic = conic_through_5(cfg.points[:5], EXACT)
        with pytest.raises(InconsistentGap):
            reconstruct_missing_vertex(cfg, conic, 5)
        with pytest.raises(InconsistentGap):
            reconstruct_missing_vertex(cfg, conic, 6)

    def test_vertex_on_an_existing_point(self):
        # gap 0 of the 12-gon less vertex 5 (hull order) rebuilds a vertex
        # that is already there
        cfg = gon_minus(12, 5)
        pts = [cfg.points[i] for i in convex_position_order(cfg)]
        conic = conic_through_5(pts[:5], cfg.backend)
        with pytest.raises(InconsistentGap, match="coincides"):
            reconstruct_missing_vertex(pts, conic, 0)

    @pytest.mark.parametrize("failures, n", [([1, 5], 10), ([3], 10)])
    def test_no_single_gap_signature(self, failures, n):
        assert _locate_gap(failures, n) is None


def near_instance(m, k, seed, delta, perturb_seed):
    """The m-gon less vertex k under a seeded affine map, perturbed by delta."""
    image = apply_affine(gon_minus(m, k), random_affine_map(seed, 5))
    return perturb(image, delta, perturb_seed)


# One seeded near-instance per refutation that only perturbation reaches.
# Each sits near a tolerance; all give these verdicts on CPython 3.10-3.13.
NEAR_INSTANCES = {
    "step": ((30, 7, 709727, 5.6234132519034904e-12, 481929),  # delta 10**-11.25
             Stage.RECONSTRUCTION, "hull point 10 does not equal 6 times the generator", 10),
    "gap_parallel_1": ((18, 13, 592383, 1.0471285480508986e-11, 8892),  # 10**-10.98
                       Stage.RECONSTRUCTION,
                       "InconsistentGap: reconstructed vertex fails B A_{g+1} || A_g A_{g+2}",
                       None),
    "gap_parallel_2": ((24, 16, 998199, 2.238721138568338e-12, 286171),  # 10**-11.65
                       Stage.RECONSTRUCTION,
                       "InconsistentGap: reconstructed vertex fails B A_g || A_{g-1} A_{g+1}",
                       None),
    "completed_chain": ((21, 9, 849935, 7.413102413009162e-13, 846776),  # 10**-12.13
                        Stage.RECONSTRUCTION,
                        "completed polygon fails the chain at cyclic index 19", 19),
    "no_single_gap": ((11, 3, 349824, 2.2387211385683377e-10, 603775),  # 10**-9.65
                      Stage.CHAIN_GAP, "chain failures at [1, 3, 4] do not match a single gap",
                      (1, 3, 4)),
}


class TestNearInstanceRefutations:
    @pytest.mark.parametrize("name", sorted(NEAR_INSTANCES))
    def test_stage_reason_witness(self, name):
        args, stage, reason, witness = NEAR_INSTANCES[name]
        v = verify_theorem(near_instance(*args))
        assert isinstance(v, Refutation)
        assert (v.stage, v.reason, v.witness) == (stage, reason, witness)

    def test_cli_writes_the_witness_as_an_array(self, tmp_path, capsys):
        args, stage, reason, witness = NEAR_INSTANCES["no_single_gap"]
        path = tmp_path / "near.txt"
        path.write_text(serialize_points(near_instance(*args)))
        assert cli.main(["verify", str(path), "--json"]) == cli.EXIT_REFUTED
        out = capsys.readouterr().out
        assert '"witness": [\n        1,\n        3,\n        4\n      ]' in out
        assert json.loads(out)["payload"]["verdict"] == {
            "kind": "refutation", "stage": stage.value, "reason": reason, "witness": [1, 3, 4]}
        assert cli.main(["verify", str(path)]) == cli.EXIT_REFUTED
        assert "payload.verdict.witness: [1, 3, 4]\n" in capsys.readouterr().out


class TestCaseClassification:
    def test_regular_decagon_case_1_1(self):
        case = classify_proof_case(regular_polygon(10))
        assert case.tag == CaseTag.CASE_1_1

    def test_all_regular_mgons_case_1_1(self):
        for m in range(7, 17):
            assert classify_proof_case(regular_polygon(m)).tag == CaseTag.CASE_1_1

    def test_nine_gon_minus_vertex_case_2_2(self):
        case = classify_proof_case(gon_minus(9, 4))
        assert case.tag == CaseTag.CASE_2_2

    def test_deletion_instances_case_2_2(self):
        for m in range(8, 17):
            case = classify_proof_case(gon_minus(m, m // 2))
            assert case.tag == CaseTag.CASE_2_2

    def test_relabeling_invariance(self):
        cfg = gon_minus(9, 4)
        reversed_cfg = Configuration(tuple(reversed(cfg.points)), cfg.backend)
        a = classify_proof_case(cfg)
        b = classify_proof_case(reversed_cfg)
        assert a.tag == b.tag == CaseTag.CASE_2_2
        # canonical hull ordering makes the reindexing identical
        assert (a.rotation, a.reflected) == (b.rotation, b.reflected)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            classify_proof_case(parabola_config([0, 1, 2, 3, 4, 5]))

    def test_small_scale_keeps_chain_and_case(self):
        # scaling by 2^-20 is exact on floats and moves no verdict
        cfg = gon_minus(12, 1)
        small = Configuration.from_coords(
            [(math.ldexp(p.x, -20), math.ldexp(p.y, -20)) for p in cfg.points], cfg.backend)
        assert korchmaros_chain(small.points, small.backend) == \
            korchmaros_chain(cfg.points, cfg.backend) == (False, 0)
        case = classify_proof_case(cfg)
        assert (case.tag, case.rotation) == (CaseTag.CASE_2_2, 6)
        assert classify_proof_case(small) == case


def _case2_labels(cfg, case):
    hull = [cfg.points[i] for i in case.hull_order]
    n = len(hull)
    if case.reflected:
        lab = [(case.rotation - t) % n for t in range(n)]
    else:
        lab = [(case.rotation + t) % n for t in range(n)]
    return [hull[i] for i in lab]


class TestCase22Claim:
    """Structural facts about certified instances under the proof labeling."""

    def test_chord_shift_parallelism(self):
        # item 2 of the inductive claim, 1-based: for i in 5..n and
        # k in 3..i-2, A_{i-1} A_k || A_i A_{k-1}
        for m in (8, 9, 12):
            cfg = gon_minus(m, 1)
            case = classify_proof_case(cfg)
            assert case.tag == CaseTag.CASE_2_2
            L = _case2_labels(cfg, case)
            b = cfg.backend
            n = len(L)
            for i in range(5, n + 1):
                for k in range(3, i - 1):
                    assert segments_parallel(L[i - 2], L[k - 1], L[i - 1], L[k - 2], b)

    def test_forbidden_slope_structure(self):
        # item 1: the two forbidden slopes at A_{i-1} are the neighbor chord
        # A_{i-2} A_i and the cross chord A_2 A_{i-2}
        from slopespectra import direction, directions_parallel, forbidden_slopes_at

        for m in (8, 10):
            cfg = gon_minus(m, 1)
            case = classify_proof_case(cfg)
            L = _case2_labels(cfg, case)
            b = cfg.backend
            n = len(L)
            index_of = {id(cfg.points[i]): i for i in range(n)}
            for i in range(5, n + 1):
                at = index_of[id(L[i - 2])]
                forbidden = forbidden_slopes_at(cfg, at)
                assert len(forbidden) == 2
                expect = [direction(L[i - 3], L[i - 1], b), direction(L[1], L[i - 3], b)]
                for want in expect:
                    assert any(directions_parallel(want, got, b) for got in forbidden)


class TestCase21:
    """The 9-gon minus {0, 3} is Case 2.1, checked against the case
    conditions restated here in plain float arithmetic."""

    @staticmethod
    def cross(p, q, r, s):
        """(q - p) x (s - r) and the product of the two lengths."""
        ux, uy, vx, vy = q.x - p.x, q.y - p.y, s.x - r.x, s.y - r.y
        return ux * vy - uy * vx, math.hypot(ux, uy) * math.hypot(vx, vy)

    def parallel(self, p, q, r, s):
        c, scale = self.cross(p, q, r, s)
        return abs(c) <= 1e-9 * scale

    def admissible(self, L):
        """A_1 A_2 is not parallel to A_0 A_3, and A_3 is strictly closer
        than A_0 to the line A_1 A_2 (both on one side of it)."""
        a0, a1, a2, a3 = L[:4]
        d0, _ = self.cross(a1, a2, a1, a0)
        d3, _ = self.cross(a1, a2, a1, a3)
        return not self.parallel(a1, a2, a0, a3) and d0 * d3 > 0 and abs(d3) < abs(d0)

    def test_nine_gon_minus_two_vertices(self):
        cfg = delete_vertices(regular_polygon(9), [0, 3])
        case = classify_proof_case(cfg)
        assert (case.tag, case.rotation, case.reflected) == (CaseTag.CASE_2_1, 4, True)
        L = _case2_labels(cfg, case)
        n = len(L)
        # Case 2: some window breaks the chain A_{j+1} A_{j+2} || A_j A_{j+3}
        assert any(not self.parallel(L[(j + 1) % n], L[(j + 2) % n], L[j], L[(j + 3) % n])
                   for j in range(n))
        assert self.admissible(L)
        # Case 2.1: A_{n-2} A_1 || A_{n-1} A_0
        assert self.parallel(L[n - 2], L[1], L[n - 1], L[0])
        # (4, reflected) is the first admissible labelling in search order
        hull = [cfg.points[i] for i in case.hull_order]
        for rotation in range(case.rotation + 1):
            for reflected in (False, True):
                if (rotation, reflected) == (case.rotation, case.reflected):
                    break
                step = -1 if reflected else 1
                assert not self.admissible([hull[(rotation + step * t) % n] for t in range(n)])
