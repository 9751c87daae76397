"""Structured reports: stable key order, reproducible byte-for-byte.

A report is a plain dict rendered either as indented JSON with sorted keys
or as a flat "key: value" text block.  The report digest is computed over
the canonical JSON with the timing field removed, so re-running the same
command on the same inputs reproduces the digest even though timing varies.

Both JSON forms come from one encoder, `_dumps`, whose output is byte for
byte that of `json.dumps(sort_keys=True)`.  A report may hold one dict or
list many times (`analyze` lists each spectrum class's direction once per
point that forbids it); the encoder writes the text of such a scalar-leaf
container once per depth and reuses it, so an O(n^3)-entry forbidden table
costs one lookup per entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .conics import Conic
from .geometry import Direction, Point
from .pointfile import format_scalar
from .slopes import CriticalityReport, SlopeSpectrum
from .verifier import Certificate, ProofCase, Refutation

TIMING_KEY = "timing_ms"
DIGEST_KEY = "report_digest"


def scalar_json(v):
    """An int or float as itself, a Fraction as its point-file text."""
    return format_scalar(v) if isinstance(v, Fraction) else v


def point_json(p: Point):
    return scalar_json(p.x), scalar_json(p.y)


def direction_json(d: Direction):
    if d.exact:
        return {"dx": scalar_json(d.dx), "dy": scalar_json(d.dy)}
    return {"angle": d.angle}


def conic_json(k: Conic):
    a, b, c, d, e, f = (scalar_json(v) for v in k.coeffs)
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f,
            "degenerate": k.degenerate}


def spectrum_json(spec: SlopeSpectrum):
    return {
        "count": spec.count,
        "classes": [
            {"direction": direction_json(cls.direction),
             "pairs": cls.pairs}
            for cls in spec.classes
        ],
    }


def verdict_json(verdict):
    if isinstance(verdict, Certificate):
        return {
            "kind": "certificate",
            "conic": conic_json(verdict.conic),
            "base_point": point_json(verdict.base_point),
            "generator": point_json(verdict.generator),
            "residues": verdict.residues,
            "missing_vertex": point_json(verdict.missing_vertex),
            "gap_position": verdict.gap_position,
            "hull_order": verdict.hull_order,
            "full_chain_ok": verdict.full_chain_ok,
        }
    assert isinstance(verdict, Refutation)
    return {
        "kind": "refutation",
        "stage": verdict.stage.value,
        "reason": verdict.reason,
        "witness": verdict.witness,
    }


def case_json(case: ProofCase):
    return {
        "case": case.tag.value,
        "rotation": case.rotation,
        "reflected": case.reflected,
        "witness": case.witness,
        "hull_order": case.hull_order,
    }


def analyze_json(spec: SlopeSpectrum, forbidden: tuple[tuple[int, ...], ...],
                 crit: CriticalityReport):
    """The `analyze` payload.  A forbidden entry is its class's direction
    dict itself, so `_dumps` encodes that dict once per depth."""
    spectrum = spectrum_json(spec)
    directions = [cls["direction"] for cls in spectrum["classes"]]
    return {
        "n": crit.n,
        "spectrum": spectrum,
        "forbidden": {str(i): [directions[k] for k in ks] for i, ks in enumerate(forbidden)},
        "criticality": crit.verdict.value,
        "general_position": crit.general_position,
    }


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_report(command: str, backend_kind: str, eps: float,
                 digest: str, payload: dict, timing_ms: float) -> dict:
    report = {
        "command": command,
        "backend": backend_kind,
        "eps": eps,
        "input_sha256": digest,
        "payload": payload,
    }
    canonical = _dumps(report, None)
    report[DIGEST_KEY] = hashlib.sha256(canonical.encode()).hexdigest()
    report[TIMING_KEY] = round(timing_ms, 3)
    return report


def to_json(report: dict) -> str:
    return _dumps(report, 2) + "\n"


_CONTAINERS = (dict, list, tuple)


def _scalar_text(v) -> str:
    """The JSON text of a scalar, spelled as `json` spells it."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _dumps(obj, indent: int | None) -> str:
    """`json.dumps(obj, sort_keys=True, indent=indent)`, byte for byte, or
    with `separators=(",", ":")` when indent is None; tuples are lists.

    The pieces of the text go into one list, joined once at the end.  The
    text of each scalar-leaf container (a dict or list of scalars) is kept
    by (id, depth) for the length of the call, so a container that occurs
    many times is encoded once per depth and then costs one lookup; the
    text of a container holding containers is never built on its own.
    """
    key_sep = ":" if indent is None else ": "
    breaks: list[str] = []        # breaks[d]: the line break before an item at depth d
    leaf_texts: list[dict] = []   # leaf_texts[d]: id -> text of a leaf container at depth d
    out: list[str] = []

    def encode(o, depth: int) -> None:
        if isinstance(o, dict):
            keys = sorted(o)
            values = [o[k] for k in keys]
            heads = [encode_basestring_ascii(k if isinstance(k, str) else _scalar_text(k))
                     + key_sep for k in keys]
            brackets = "{}"
        else:
            values, heads, brackets = o, None, "[]"
        if not values:
            out.append(brackets)
            return
        while len(breaks) <= depth + 1:
            breaks.append("" if indent is None else "\n" + " " * (indent * len(breaks)))
            leaf_texts.append({})
        inner, close = breaks[depth + 1], breaks[depth] + brackets[1]
        if not any(isinstance(v, _CONTAINERS) for v in values):
            items = [_scalar_text(v) for v in values]
            if heads is not None:
                items = [head + text for head, text in zip(heads, items)]
            text = brackets[0] + inner + ("," + inner).join(items) + close
            leaf_texts[depth][id(o)] = text
            out.append(text)
            return
        known = leaf_texts[depth + 1]
        sep = "," + inner
        out.append(brackets[0])
        for k, v in enumerate(values):
            out.append(sep if k else inner)
            if heads is not None:
                out.append(heads[k])
            if isinstance(v, _CONTAINERS):
                text = known.get(id(v))
                if text is None:
                    encode(v, depth + 1)
                else:
                    out.append(text)
            else:
                out.append(_scalar_text(v))
        out.append(close)

    if not isinstance(obj, _CONTAINERS):
        return _scalar_text(obj)
    encode(obj, 0)
    return "".join(out)


def _flatten(prefix: str, value, out: list[str]):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, (list, tuple)):
        out.append(f"{prefix}: {json.dumps(value, sort_keys=True)}")
    else:
        out.append(f"{prefix}: {value}")


def to_text(report: dict) -> str:
    ordered = ["command", "backend", "eps", "input_sha256", "payload",
               DIGEST_KEY, TIMING_KEY]
    lines: list[str] = []
    for key in ordered:
        if key in report:
            _flatten(key, report[key], lines)
    return "\n".join(lines) + "\n"
