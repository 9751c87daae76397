"""Slope spectra, forbidden slopes, and the convex-chord dichotomy.

The slope spectrum of a configuration is the partition of all point pairs
into parallelism classes: the configuration's `pair_partition`, one O(n^2)
pass on either backend.  A spectrum's count and the criticality class read
that partition alone; its `classes` are the configuration's
`direction_classes`, that partition named with one `SlopeClass` per class,
built on first read, and every reader here shares those objects.

Forbidden slopes are the classes whose pairs miss a point, indexed as in
`slope_spectrum(config).classes`.  A point's row is a `Without` view, the
`runs()` of classes between the at most n - 1 that its pairs meet, so the
table is O(n^2) objects though it lists O(n^3) entries.  The chord
dichotomy reads the one class of its chord from the class table.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain

from ._frozen import Frozen
from .errors import AllCollinear, IndexOrder, IndexOutOfRange, LemmaViolation, TooFewPoints
from .geometry import Configuration, Direction, SlopeClass, is_general_position


class SlopeSpectrum(Frozen):
    """All parallelism classes of a configuration, deterministically ordered:
    counted from its `pair_partition`, named when `classes` is first read."""

    config: Configuration

    @property
    def classes(self) -> tuple[SlopeClass, ...]:
        return self.config.direction_classes

    @property
    def count(self) -> int:
        return len(self.config.pair_partition)


def slope_spectrum(config: Configuration) -> SlopeSpectrum:
    """The parallelism classes of all pairs, their pass run here: `.classes`
    is `config.direction_classes`, not a copy, named only when read."""
    n = len(config)
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    config.pair_partition  # the pass, cached on the configuration
    return SlopeSpectrum(config)


class Without(Frozen):
    """The items of `base` but those at the distinct ascending `holes`: its
    `runs()`, iterated, measured and `in`-tested like the tuple it stands for."""

    base: tuple | list | range
    holes: tuple[int, ...]

    def runs(self) -> list[tuple[int, int]]:
        """The ascending spans (a, b) of kept items, `base[a:b]`, between holes."""
        starts, ends = (0, *[h + 1 for h in self.holes]), (*self.holes, len(self.base))
        return [(a, b) for a, b in zip(starts, ends) if a < b]

    def __iter__(self):
        return chain.from_iterable(self.base[a:b] for a, b in self.runs())

    def __len__(self) -> int:
        return len(self.base) - len(self.holes)

    def __contains__(self, v) -> bool:
        return any(v in self.base[a:b] for a, b in self.runs())


def forbidden_slope_table(config: Configuration) -> tuple[Without, ...]:
    """Per point index, the indices into `slope_spectrum(config).classes` of
    the classes that no segment at that point realizes: its forbidden slopes."""
    classes = config.direction_classes
    met: list[list[int]] = [[] for _ in range(len(config))]
    for k, cls in enumerate(classes):
        for a, b in cls.pairs:  # class k is realized at points a and b
            met[a].append(k)
            met[b].append(k)
    base = range(len(classes))
    return tuple(Without(base, tuple(dict.fromkeys(ks))) for ks in met)  # one hole per class


def forbidden_slopes_at(config: Configuration, i: int) -> list[Direction]:
    """The directions of the classes that `forbidden_slope_table` lists at
    point i: those no segment incident to point i realizes, in one pass over
    the class table."""
    if not 0 <= i < len(config):
        raise IndexOutOfRange(f"point index {i} out of range")
    return [cls.direction for cls in config.direction_classes
            if all(i not in pair for pair in cls.pairs)]


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
    pairs = next(cls.pairs for cls in config.direction_classes if (i, k) in cls.pairs)
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
    count = len(config.pair_partition)
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
