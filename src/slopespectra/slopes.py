"""Slope spectra, forbidden slopes, and the convex-chord dichotomy.

The slope spectrum of a configuration is the partition of all point pairs
into parallelism classes.  It is the configuration's `direction_classes`,
one O(n^2) pass on either backend (hashed integer directions when exact,
merged sorted pair angles when float), computed once per configuration and
shared with the general-position test and the criticality class.

Forbidden slopes are read from each class's vertex set, so the whole table
takes time proportional to its size plus the number of pairs.  The chord
dichotomy reads the one class of its chord from the same table.
"""

from __future__ import annotations

from enum import Enum

from ._frozen import Frozen, set_field
from .errors import AllCollinear, IndexOrder, IndexOutOfRange, LemmaViolation, TooFewPoints
from .geometry import Configuration, Direction, is_general_position


class SlopeClass(Frozen):
    """One parallelism class: a canonical direction and its point pairs."""

    direction: Direction
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, direction, pairs):  # built per class
        set_field(self, "direction", direction)
        set_field(self, "pairs", pairs)


class SlopeSpectrum(Frozen):
    """All parallelism classes of a configuration, deterministically ordered."""

    classes: tuple[SlopeClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def slope_spectrum(config: Configuration) -> SlopeSpectrum:
    """Partition all n(n-1)/2 pair directions into parallelism classes."""
    n = len(config)
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    return SlopeSpectrum(tuple(SlopeClass(d, pairs) for d, pairs in config.direction_classes))


def _vertices(cls: SlopeClass) -> set[int]:
    """The point indices that some segment of the class touches."""
    return {v for pair in cls.pairs for v in pair}


def forbidden_slopes_at(config: Configuration, spectrum: SlopeSpectrum, i: int) -> list[Direction]:
    """The directions of the classes that `forbidden_slope_table` lists at
    point i: those no segment incident to point i realizes."""
    if not 0 <= i < len(config):
        raise IndexOutOfRange(f"point index {i} out of range")
    return [cls.direction for cls in spectrum.classes if i not in _vertices(cls)]


def forbidden_slope_table(config: Configuration, spectrum: SlopeSpectrum) -> tuple[tuple[int, ...], ...]:
    """Per point index, the indices into `spectrum.classes` of the classes
    that no segment at that point realizes: its forbidden slopes."""
    vertex_sets = [_vertices(cls) for cls in spectrum.classes]
    return tuple(tuple(k for k, vs in enumerate(vertex_sets) if i not in vs)
                 for i in range(len(config)))


class Forbidden(Frozen):
    """Dichotomy verdict: the chord's slope is forbidden at the middle point."""


class ParallelWitness(Frozen):
    """Dichotomy verdict: A_i A_k is parallel to A_j A_p with i < p < k."""

    p: int


def lemma1_dichotomy(config: Configuration, i: int, j: int, k: int):
    """For a convex-ordered configuration and i < j < k, decide whether the
    slope of A_i A_k is forbidden at A_j or realized by a unique A_j A_p with
    i < p < k.

    Both are read from the class of A_i A_k in `direction_classes`: the slope
    is forbidden at A_j exactly when `forbidden_slope_table` says so, and the
    witness is A_j's partner in the class.  LemmaViolation is raised when the
    class holds two segments at A_j, or a second one at A_i besides A_i A_k,
    or when the witness lies outside (i, k); exactly one branch holds on
    convex input in general position.
    """
    n = len(config)
    if not (0 <= i < j < k < n):
        raise IndexOrder(f"need 0 <= i < j < k < n, got ({i}, {j}, {k}), n={n}")
    pairs = next(pairs for _, pairs in config.direction_classes if (i, k) in pairs)
    # the pairs are in lexicographic order, so each partner list is sorted
    witnesses = [a + b - j for a, b in pairs if j in (a, b)]
    if not witnesses:
        return Forbidden()
    if len(witnesses) > 1:
        raise LemmaViolation(
            f"slope of A{i}A{k} realized at A{j} by several segments {witnesses}"
        )
    p = witnesses[0]
    if not (i < p < k):
        raise LemmaViolation(
            f"witness p={p} for ({i},{j},{k}) lies outside the open range ({i},{k})"
        )
    others = [a + b - i for a, b in pairs if i in (a, b) and k not in (a, b)]
    if others:
        raise LemmaViolation(f"witness slope A{j}A{p} equals A{i}A{others[0]}")
    return ParallelWitness(p)


class Criticality(Enum):
    CRITICAL = "Critical"
    NEAR_CRITICAL = "NearCritical"
    GENERAL_POSITION_MINIMAL = "GeneralPositionMinimal"
    N_PLUS_ONE = "NPlusOne"
    OTHER = "Other"


class CriticalityReport(Frozen):
    verdict: Criticality
    count: int
    n: int
    general_position: bool


def classify_criticality(config: Configuration) -> CriticalityReport:
    """Compare the spectrum count against n-1, n and n+1.

    Critical: count = n-1.  Count = n splits into GeneralPositionMinimal
    (general position) and NearCritical (some collinear triple).  Counts
    other than n-1, n, n+1 are reported as Other rather than an error.
    """
    n = len(config)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    count = len(config.direction_classes)
    if count == 1:
        raise AllCollinear("all points lie on one line")
    gp, _ = is_general_position(config)
    if count == n - 1:
        verdict = Criticality.CRITICAL
    elif count == n:
        verdict = Criticality.GENERAL_POSITION_MINIMAL if gp else Criticality.NEAR_CRITICAL
    elif count == n + 1:
        verdict = Criticality.N_PLUS_ONE
    else:
        verdict = Criticality.OTHER
    return CriticalityReport(verdict, count, n, gp)
