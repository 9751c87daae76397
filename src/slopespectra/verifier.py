"""End-to-end verdicts: certificates for (n+1)-slope configurations, or the
first failing pipeline stage; plus the structural case classifier.

A certificate witnesses that the input is, up to an affine map, n of the
vertices of a regular (n+1)-gon: all points lie on one non-degenerate conic,
the cyclic chord chain breaks only around a single gap, and the vertex
reconstructed at the gap completes a full cyclic chain.  Group data is
attached so the certificate can be re-checked independently: with the point
after the gap as identity O and its successor as generator x, point t after
the gap equals t*x, and x has order exactly n+1.

A single missing vertex breaks the cyclic four-point chain window at
positions g-2 and g (the window at g-1 straddles the gap symmetrically and
passes), so gap location looks for exactly that two-failure signature.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from ._frozen import Frozen
from .conics import Conic, ConicGroup
from .errors import (
    InconsistentGap,
    NotConvexPosition,
    SlopeSpectraError,
    TooFewPoints,
)
from .geometry import (
    Configuration,
    Point,
    convex_position_order,
    is_general_position,
    points_equal,
    segments_parallel,
    turn,
)
from .regularity import _cyclic_chain_failures, common_conic, convex_polygon, korchmaros_chain
from .slopes import slope_spectrum


class Stage(Enum):
    SIZE = "Size"
    GENERAL_POSITION = "GeneralPosition"
    CONVEX_POSITION = "ConvexPosition"
    SLOPE_COUNT = "SlopeCount"
    COCONIC = "Coconic"
    CHAIN_GAP = "ChainGap"
    RECONSTRUCTION = "Reconstruction"


class Certificate(Frozen):
    """Positive verdict with re-checkable witnesses."""

    conic: Conic
    base_point: Point          # identity O: the point right after the gap
    generator: Point           # x: O's successor in hull order
    residues: tuple[int, ...]  # residues[i] = t with A_i = t*x, by input index
    missing_vertex: Point
    gap_position: int          # hull position after which the vertex is missing
    hull_order: tuple[int, ...]
    full_chain_ok: bool


class Refutation(Frozen):
    """Negative verdict: the first failing pipeline stage plus a witness."""

    stage: Stage
    reason: str
    witness: object = None


TheoremVerdict = Certificate | Refutation


def _locate_gap(failures: list[int], n: int) -> Optional[int]:
    """The gap position g when failures match the {g-2, g} signature."""
    if len(failures) != 2:
        return None
    a, b = failures
    cands = [g for g in (a, b) if (g - 2) % n in (a, b) and (g - 2) % n != g]
    if len(cands) != 1:
        return None
    return cands[0]


def reconstruct_missing_vertex(pts: Sequence[Point], conic: Conic, gap: int) -> Point:
    """The vertex completing the polygon at the gap after hull position `gap`.

    pts are the points in hull order, on the conic (whose backend is used).
    Computed as the base-independent group expression A_g + A_{g+2} - A_{g+1}
    and validated against its two defining parallelisms:
    B A_{g+1} || A_g A_{g+2} and B A_g || A_{g-1} A_{g+1}.
    """
    n = len(pts)
    b = conic.backend
    g = gap % n
    group = ConicGroup(conic, pts[g])  # base A_g makes the expression a single add
    vertex = group.add(pts[(g + 2) % n], group.neg(pts[(g + 1) % n]))
    if any(points_equal(vertex, p, b) for p in pts):
        raise InconsistentGap("reconstructed vertex coincides with an existing point")
    if not segments_parallel(vertex, pts[(g + 1) % n], pts[g], pts[(g + 2) % n], b):
        raise InconsistentGap("reconstructed vertex fails B A_{g+1} || A_g A_{g+2}")
    if not segments_parallel(vertex, pts[g], pts[(g - 1) % n], pts[(g + 1) % n], b):
        raise InconsistentGap("reconstructed vertex fails B A_g || A_{g-1} A_{g+1}")
    return vertex


def verify_theorem(config: Configuration) -> TheoremVerdict:
    """Certify or refute that the configuration is an (n+1)-slope instance.

    Pipeline: size, general position, convex position, slope count n+1, one
    conic through everything, a unique chain gap, then reconstruction of the
    missing vertex, a full cyclic chain check, and one group step per hull
    point.  General position gives each point n - 1 distinct slope classes,
    so n+1 classes leave exactly two forbidden slopes at every point.
    Total: every failure mode is a Refutation, never a raise.

    Witnesses use more than one numbering.  GeneralPosition's triple and
    the ConvexPosition and Coconic witnesses are input indices.  ChainGap
    lists the failing cyclic windows j (window j is hull positions j .. j+3).
    The per-step Reconstruction witness is a hull position, and the
    completed-chain index counts in the (n+1)-gon: hull order with the
    reconstructed vertex inserted after position `gap_position`.
    """
    n = len(config)
    if n < 7:
        return Refutation(Stage.SIZE, f"need at least 7 points, got {n}", n)

    gp, witness = is_general_position(config)
    if not gp:
        return Refutation(Stage.GENERAL_POSITION,
                          f"collinear triple at indices {witness}", witness)

    try:
        order = convex_position_order(config)
    except NotConvexPosition as exc:
        return Refutation(Stage.CONVEX_POSITION,
                          f"point {exc.index} lies strictly inside the hull", exc.index)

    spectrum = slope_spectrum(config)
    if spectrum.count != n + 1:
        return Refutation(Stage.SLOPE_COUNT,
                          f"{spectrum.count} slopes, expected n+1 = {n + 1}",
                          spectrum.count)

    pts = [config.points[i] for i in order]
    b = config.backend
    conic, reason, witness = common_conic(pts, order, b)
    if reason is not None:
        return Refutation(Stage.COCONIC, reason, witness)

    failures = _cyclic_chain_failures(pts, b)
    if not failures:
        return Refutation(Stage.CHAIN_GAP,
                          "no chain break: the configuration itself is an affinely "
                          "regular polygon (n slopes, not n+1)", ())
    gap = _locate_gap(failures, n)
    if gap is None:
        return Refutation(Stage.CHAIN_GAP,
                          f"chain failures at {failures} do not match a single gap",
                          tuple(failures))

    try:
        vertex = reconstruct_missing_vertex(pts, conic, gap)
        completed = pts[:gap + 1] + [vertex] + pts[gap + 1:]
        chain_ok, fail_j = korchmaros_chain(completed, b, cyclic=True)
        if not chain_ok:
            return Refutation(Stage.RECONSTRUCTION,
                              f"completed polygon fails the chain at cyclic index {fail_j}",
                              fail_j)

        base = pts[(gap + 1) % n]
        gen = pts[(gap + 2) % n]
        group = ConicGroup(conic, base)
        residues = [0] * n
        # step check on the input points, A_{t} = A_{t-1} + x, so no
        # rounding accumulates; distinct points make t*x != O for t < n.
        # common_conic has tested every input point on this conic, so these
        # sums of two input points skip add's membership tests
        for t in range(1, n):
            pos = (gap + 1 + t) % n
            if not points_equal(group._chord_sum(pts[pos - 1], gen), pts[pos], b):
                return Refutation(Stage.RECONSTRUCTION,
                                  f"hull point {pos} does not equal {t} times the generator",
                                  pos)
            residues[order[pos]] = t
        # (n+1)*x = O; then n*x != O too, or (n+1)*x would be x, not O
        nx = group._chord_sum(pts[gap], gen)
        if not points_equal(group.add(nx, gen), base, b):
            return Refutation(Stage.RECONSTRUCTION, "generator does not have order n+1")
    except SlopeSpectraError as exc:
        # degenerate group arithmetic on near-instance float input
        return Refutation(Stage.RECONSTRUCTION, f"{type(exc).__name__}: {exc}")

    return Certificate(
        conic=conic,
        base_point=base,
        generator=gen,
        residues=tuple(residues),
        missing_vertex=vertex,
        gap_position=gap,
        hull_order=order,
        full_chain_ok=chain_ok,
    )


class CaseTag(Enum):
    CASE_1_1 = "Case1_1"
    CASE_1_2 = "Case1_2"
    CASE_1_3 = "Case1_3"
    CASE_1_4 = "Case1_4"
    CASE_2_1 = "Case2_1"
    CASE_2_2 = "Case2_2"


class ProofCase(Frozen):
    """Structural case tag plus the deterministic reindexing that exhibits it.

    rotation/reflected describe the relabeling of the canonical hull order:
    label t denotes hull position (rotation + t) mod n, read backwards when
    reflected.  witness is the label index exhibiting the case condition.
    """

    tag: CaseTag
    rotation: int
    reflected: bool
    witness: Optional[int]
    hull_order: tuple[int, ...]


def classify_proof_case(config: Configuration) -> ProofCase:
    """Tag the configuration with the structural case of the chain analysis.

    Case 1 applies when every cyclic window satisfies
    A_{i+1}A_{i+2} || A_i A_{i+3}, refined by how each A_i A_{i+5} chord
    relates to the three inner chords of its window.  Otherwise the labels
    are deterministically rotated/reflected so that A_1 A_2 is not parallel
    to A_0 A_3 and A_3 is closer than A_0 to the line A_1 A_2, and the case
    splits on whether A_{n-2} A_1 is parallel to A_{n-1} A_0.
    """
    n = len(config)
    if n < 7:
        raise TooFewPoints(f"need at least 7 points, got {n}")
    order, pts = convex_polygon(config)
    b = config.backend

    def par(i1, j1, i2, j2) -> bool:
        return segments_parallel(pts[i1 % n], pts[j1 % n], pts[i2 % n], pts[j2 % n], b)

    if not _cyclic_chain_failures(pts, b):
        skew = [i for i in range(n) if not par(i, i + 5, i + 1, i + 4)]
        if not skew:
            return ProofCase(CaseTag.CASE_1_1, 0, False, None, order)
        for i in range(n):
            if par(i, i + 5, i + 2, i + 4):
                return ProofCase(CaseTag.CASE_1_2, 0, False, i, order)
        for i in range(n):
            if par(i, i + 5, i + 1, i + 3):
                return ProofCase(CaseTag.CASE_1_3, 0, False, i, order)
        return ProofCase(CaseTag.CASE_1_4, 0, False, skew[0], order)

    for rotation in range(n):
        for reflected in (False, True):
            step = -1 if reflected else 1
            # A_t is hull position rotation + step*t; A_{n-2}, A_{n-1} are t = -2, -1
            a0, a1, a2, a3, a_2, a_1 = (pts[(rotation + step * t) % n]
                                        for t in (0, 1, 2, 3, -2, -1))
            # A_0, A_3 lie on one side of line A_1 A_2 (u): A_3 is strictly closer
            # iff A_3 - A_0 turns against A_0 - A_1; 0 when A_0 A_3 || A_1 A_2
            ux, uy = a2.x - a1.x, a2.y - a1.y
            if turn(ux, uy, a3.x - a0.x, a3.y - a0.y, b) * \
                    turn(ux, uy, a0.x - a1.x, a0.y - a1.y, b) >= 0:
                continue
            if segments_parallel(a_2, a1, a_1, a0, b):
                return ProofCase(CaseTag.CASE_2_1, rotation, reflected, None, order)
            return ProofCase(CaseTag.CASE_2_2, rotation, reflected, None, order)
    raise SlopeSpectraError("no admissible reindexing found for case 2")
