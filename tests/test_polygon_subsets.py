"""Exact expected verdicts for subsets of the regular m-gon.

Label the vertices v_0 .. v_{m-1}.  Then v_i v_j is parallel to v_k v_l iff
i + j = k + l (mod m), so the slope count of {v_k : k in S} is |S + S|, the
restricted sumset: the residues a + b mod m over a != b in S.  Points on a
circle are in general and convex position, so for |S| = n >= 7 the theorem
fixes the verdict: a certificate iff S is a coset of the subgroup of order
n + 1 minus one element, otherwise a SlopeCount refutation whose witness is
|S + S|.  The oracle is integer arithmetic on residues and shares no code
with the package.
"""

import math
import random
from itertools import combinations, permutations

import pytest

from slopespectra import (
    EXACT,
    Certificate,
    Configuration,
    Refutation,
    Stage,
    is_affinely_regular,
    is_general_position,
    regular_polygon,
    slope_spectrum,
    verify_theorem,
)
from slopespectra.errors import SlopeSpectraError


def restricted_sumset(S, m):
    return {(a + b) % m for a, b in combinations(S, 2)}


def missing_coset_element(S, m):
    """x when S + {x} is a coset of the subgroup of order |S| + 1, else None."""
    if m % (len(S) + 1):
        return None
    step = m // (len(S) + 1)
    coset = set(range(S[0] % step, m, step))
    missing = coset - set(S)
    return missing.pop() if len(missing) == 1 and set(S) <= coset else None


def expected_verdict(S, m):
    x = missing_coset_element(S, m)
    if x is not None:
        return "certificate", x
    return "refutation", Stage.SLOPE_COUNT, len(restricted_sumset(S, m))


def subsets(count, seed):
    """Seeded subsets S of Z/m, m = 8..120 and |S| = 7..29; every fourth is a
    coset minus one element where m has a divisor n + 1 in 8..30."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        m = rng.randint(8, 120)
        orders = [k for k in range(8, 31) if m % k == 0]
        if t % 4 == 0 and orders:
            k = rng.choice(orders)
            coset = list(range(rng.randrange(m // k), m, m // k))
            coset.remove(rng.choice(coset))
            out.append((m, sorted(coset)))
        else:
            out.append((m, sorted(rng.sample(range(m), rng.randint(7, min(29, m))))))
    return out


def is_prime(m):
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def observed_verdict(config, m):
    """The verdict in the oracle's terms; a certificate's missing vertex
    must be v_x within 1e-7."""
    verdict = verify_theorem(config)
    if isinstance(verdict, Refutation):
        return "refutation", verdict.stage, verdict.witness
    assert isinstance(verdict, Certificate)
    x = round(math.atan2(verdict.missing_vertex.y, verdict.missing_vertex.x) * m / math.tau) % m
    v = regular_polygon(m)[x]
    assert math.dist(verdict.missing_vertex.as_floats(), v.as_floats()) < 1e-7
    return "certificate", x


def test_oracle_on_known_sets():
    assert expected_verdict(list(range(1, 12)), 12) == ("certificate", 0)
    assert expected_verdict([0, 2, 4, 6, 8, 10, 12], 16) == ("certificate", 14)
    # a coset of order 8 minus one, with an outsider in place of a member
    assert expected_verdict([0, 2, 4, 6, 8, 10, 13], 16)[0] == "refutation"
    assert restricted_sumset(range(8), 8) == set(range(8))


@pytest.mark.parametrize("seed", [0, 1])
def test_untransformed_subsets(seed):
    kinds = []
    for m, S in subsets(200, seed):
        config = regular_polygon(m).reordered(S)
        sums = len(restricted_sumset(S, m))
        assert slope_spectrum(config).count == sums, (m, S)
        if is_prime(m):  # Erdos-Heilbronn (Dias da Silva and Hamidoune)
            assert sums >= min(m, 2 * len(S) - 3), (m, S)
        expected, verdict = expected_verdict(S, m), observed_verdict(config, m)
        assert verdict == expected, (m, S)
        kinds.append(expected[0])
    assert 0 < kinds.count("certificate") < len(kinds)


class TestBelowSeven:
    """How far the statement holds for n = 5 and 6, where the theorem does not apply."""

    def test_residue_sets(self):
        # |S + S| = n + 1 iff S is a coset of the subgroup of order n + 1 minus one element
        checked, kinds = 0, set()
        for n in (5, 6):
            for m in range(6, 19):
                for rest in combinations(range(1, m), n - 1):
                    S = [0, *rest]
                    coset = missing_coset_element(S, m) is not None
                    assert (len(restricted_sumset(S, m)) == n + 1) == coset, (m, S)
                    checked += 1
                    kinds.add(coset)
        assert checked == 27131 and kinds == {True, False}

    def test_four_by_four_grid(self):
        grid = [(x, y) for x in range(4) for y in range(4)]

        def general_with(S, count):
            config = Configuration.from_coords(S, EXACT)
            return slope_spectrum(config).count == count and is_general_position(config)[0]

        def completes(S):
            """Whether A + B - C, for three of the points, makes S an affinely regular hexagon."""
            for (ax, ay), (bx, by), (cx, cy) in permutations(S, 3):
                try:
                    config = Configuration.from_coords([*S, (ax + bx - cx, ay + by - cy)], EXACT)
                    if is_affinely_regular(config).granted:
                        return True
                except SlopeSpectraError:  # a repeated point, or not in general or convex position
                    pass
            return False

        fives = [S for S in combinations(grid, 5) if general_with(S, 6)]
        assert len(fives) == 72
        assert all(map(completes, fives))
        # nor do six points in general position have 7 slopes: the statement would make
        # them a rational affine image of the 7-gon minus a vertex, which Niven rules out
        assert sum(general_with(S, 7) for S in combinations(grid, 6)) == 0
