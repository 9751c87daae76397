"""The point-file format: one "x y" pair per line.

Coordinates are integers, rationals "p/q", or decimals.  '#' starts a
comment and blank lines are ignored.  Decimal coordinates force the float
backend and are never rationalized (0.1 stays a float); integers are valid
under either backend; mixing explicit fractions with decimals in one file
is an error, as is forcing the rational backend onto a file with decimals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .errors import BackendMismatch, ParseError
from .geometry import Configuration
from .scalars import Backend, EXACT, RATIONAL, float_backend

_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^([+-]?\d+)/(\d+)$")
_DEC_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


def _parse_token(token: str, line_no: int):
    """Returns (value, kind) with kind in {'int', 'frac', 'dec'}."""
    if _INT_RE.match(token):
        return int(token), "int"
    m = _FRAC_RE.match(token)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ParseError(line_no, f"zero denominator in {token!r}")
        return Fraction(num, den), "frac"
    if _DEC_RE.match(token):
        return float(token), "dec"
    raise ParseError(line_no, f"cannot parse coordinate {token!r}")


def parse_point_text(text: str, backend: Optional[Backend] = None,
                     eps_rel: Optional[float] = None) -> Configuration:
    """Parse point-file text into a Configuration.

    backend, when given, forces the backend ('rational' refuses decimal
    input).  Otherwise the backend is inferred: any decimal coordinate
    selects the float backend, else the exact backend.
    """
    coords = []
    kinds = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected 'x y', got {len(tokens)} tokens")
        x, kx = _parse_token(tokens[0], line_no)
        y, ky = _parse_token(tokens[1], line_no)
        kinds.update((kx, ky))
        coords.append((x, y))
    if not coords:
        raise ParseError(0, "no points in input")
    if "frac" in kinds and "dec" in kinds:
        raise BackendMismatch("file mixes exact fractions with decimals")
    if backend is None:
        if "dec" in kinds:
            backend = float_backend(eps_rel) if eps_rel is not None else float_backend()
        else:
            backend = EXACT
    elif backend.kind == RATIONAL and "dec" in kinds:
        raise BackendMismatch("decimal coordinates cannot use the rational backend")
    return Configuration.from_coords(coords, backend)


def format_scalar(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def serialize_points(config: Configuration) -> str:
    """Point-file text for a configuration; parses back to an equal one."""
    lines = [f"{format_scalar(p.x)} {format_scalar(p.y)}" for p in config.points]
    return "\n".join(lines) + "\n"
