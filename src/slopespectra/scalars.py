"""Scalar backends: exact rationals and tolerance-governed floats.

All geometry in this library is generic over a scalar *backend*.  The exact
backend stores coordinates as ``fractions.Fraction`` (always gcd-reduced with
positive denominator) and compares them exactly; the float backend stores
plain ``float`` values and treats two values as equal when

    |a - b| <= eps_rel * max(1, |a|, |b|),  0 < eps_rel < 1.

Direction decisions use the sine test of `geometry.turn` instead, with the
same eps_rel.  Backends are small immutable objects carried by configurations,
conics and reports, so every predicate states which comparison rule it uses.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_EPS_REL = 1e-9


@dataclass(frozen=True)
class Backend:
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
        from .errors import BackendMismatch

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
        return abs(a - b) <= self.eps_rel * max(1.0, abs(a), abs(b))

    def cmp(self, a, b) -> int:
        """Three-way comparison honouring the equality rule: -1, 0 or +1."""
        if self.eq(a, b):
            return 0
        return 1 if a > b else -1

    def sum_is_zero(self, terms) -> bool:
        """Whether a sum of terms is (tolerance-)zero.

        The float rule compares |sum| against eps_rel * max(1, |term_i|),
        so cancellation of large terms is judged relative to their size.
        """
        terms = list(terms)
        total = sum(terms)
        if self.exact:
            return total == 0
        scale = max([1.0] + [abs(t) for t in terms])
        return abs(total) <= self.eps_rel * scale


EXACT = Backend(RATIONAL)


def float_backend(eps_rel: float = DEFAULT_EPS_REL) -> Backend:
    """A float backend with the given relative tolerance."""
    return Backend(FLOAT, eps_rel)
