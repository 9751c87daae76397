"""Scalar backends: exact rationals and tolerance-governed floats.

All geometry in this library is generic over a scalar *backend*.  The exact
backend stores coordinates as ``fractions.Fraction`` (always gcd-reduced with
positive denominator) and compares them exactly; the float backend stores
plain ``float`` values and treats two values as equal when

    |a - b| <= eps_rel * max(1, |a|, |b|),  0 < eps_rel < 1,

that is ``math.isclose`` with eps_rel as both tolerances, so an infinity
equals only itself.  Along ascending values, past the first b not equal to a
no c equals a either: from b to c the gap grows by c - b, the bound by at
most eps_rel (c - b).
Direction decisions use the sine test of `geometry.turn` instead, with the
same eps_rel.  Backends are small immutable objects carried by configurations,
conics and reports, so every predicate states which comparison rule it uses.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from ._frozen import Frozen
from .errors import BackendMismatch

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_EPS_REL = 1e-9


class Backend(Frozen):
    """Comparison rules for one scalar representation.

    kind    -- "rational" (exact) or "float" (tolerance-governed)
    eps_rel -- relative tolerance for float equality, and the angular merge
               tolerance, radians, for float slope classing (unused when exact)
    """

    kind: str
    eps_rel: float = DEFAULT_EPS_REL

    def __post_init__(self):
        if self.kind not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not 0 < self.eps_rel < 1:  # at 1, eq(0, x) holds for most x
            raise ValueError("the tolerance must lie in (0, 1)")

    @property
    def exact(self) -> bool:
        return self.kind == RATIONAL

    def coerce(self, value):
        """Convert a raw coordinate to this backend's scalar type.

        Floats are refused by the exact backend: decimal input is never
        silently rationalized.  The float backend refuses inf, nan and values
        beyond the float range.
        """
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise BackendMismatch(f"not a coordinate: {value!r}")
        if self.exact:
            if isinstance(value, float):
                raise BackendMismatch(f"exact backend cannot take float value {value!r}")
            return Fraction(value)
        if abs(value) <= sys.float_info.max:  # false for inf and nan too
            return float(value)
        raise BackendMismatch("float backend cannot take a coordinate beyond the float range")

    def eq(self, a, b) -> bool:
        """Backend equality of two scalars."""
        if self.exact:
            return a == b
        return math.isclose(a, b, rel_tol=self.eps_rel, abs_tol=self.eps_rel)

    def cmp(self, a, b) -> int:
        """Three-way comparison honouring the equality rule: -1, 0 or +1."""
        if self.eq(a, b):
            return 0
        return 1 if a > b else -1

    def sum_is_zero(self, terms) -> bool:
        """Whether a sum of terms is (tolerance-)zero.

        The float rule compares |sum| against eps_rel * max(1, |term_i|),
        so cancellation of large terms is judged relative to their size; a
        non-finite total is never zero.
        """
        terms = list(terms)
        total = ordered_sum(terms)
        if self.exact:
            return total == 0
        scale = max([1.0] + [abs(t) for t in terms])
        return abs(total) <= self.eps_rel * scale < math.inf  # an inf bound has an inf or nan total


def ordered_sum(terms):
    """The terms added left to right from 0, as `sum` adds floats before
    Python 3.12 compensates them: report bytes do not depend on the version."""
    total = 0
    for t in terms:
        total += t
    return total


EXACT = Backend(RATIONAL)


def float_backend(eps_rel: float = DEFAULT_EPS_REL) -> Backend:
    """A float backend with the given relative tolerance."""
    return Backend(FLOAT, eps_rel)
