"""Structured reports: stable key order, reproducible byte-for-byte.

A report is a plain dict rendered either as indented JSON with sorted keys
or as a flat "key: value" text block.  The report digest is computed over
the canonical JSON with the timing field removed, so re-running the same
command on the same inputs reproduces the digest even though timing varies.

Both JSON forms are byte for byte what `json.dumps(sort_keys=True)` writes,
and json's C encoder writes most of them.  A row of the `analyze` forbidden
table is a `Without` view over one list of class direction dicts; each
encoder writes their texts once and `itertools.compress` puts a row's texts
in by reference, so the O(n^3)-entry table runs Python per row and hole.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import compress, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

from .conics import Conic
from .geometry import Direction, Point
from .pointfile import format_scalar
from .slopes import CriticalityReport, SlopeSpectrum, Without
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


def analyze_json(spec: SlopeSpectrum, forbidden: tuple[Without, ...],
                 crit: CriticalityReport):
    """The `analyze` payload.  Each forbidden row is a `Without` over the
    one list of class direction dicts, so each JSON encoder writes a dict's
    text once."""
    spectrum = spectrum_json(spec)
    directions = [cls["direction"] for cls in spectrum["classes"]]
    return {
        "n": crit.n,
        "spectrum": spectrum,
        "forbidden": {str(i): Without(directions, row.holes)
                      for i, row in enumerate(forbidden)},
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
    out = _indented(report, 2)
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple)


def _refuse(v):
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _c_encoder(item_sep: str, key_sep: str):
    """json's C encoder as `json.dumps(sort_keys=True)` builds it, minus the cycle check."""
    return c_make_encoder(None, _refuse, encode_basestring_ascii, None,
                          key_sep, item_sep, True, False, True)


_C_ENCODE = _c_encoder(",", ":")


def _key_text(k) -> str:
    """A dict key as json writes it: a scalar's text, quoted."""
    if isinstance(k, _CONTAINERS):
        _refuse(k)
    return encode_basestring_ascii(k if isinstance(k, str) else "".join(_C_ENCODE(k, 0)))


def _is_leaf(v) -> bool:
    """Whether v is a scalar-leaf container: a dict or list of scalars."""
    items = v.values() if isinstance(v, dict) else v if isinstance(v, (list, tuple)) else None
    return items is not None and not any(map(isinstance, items, repeat((*_CONTAINERS, Without))))


def _put_row(row: Without, inters: dict, key, text, seps: tuple, out: list[str]) -> None:
    """Append the pieces of the list `row`; `seps` is (head, separator, tail).
    `inters[key]` keeps its base's item texts, by `text`, each before a separator."""
    head, sep, tail = seps
    inter = inters.get(key)
    if inter is None:
        inter = inters[key] = [sep] * (2 * len(row.base))
        inter[::2] = map(text, row.base)
    out.append(head)
    out.extend(compress(inter, row.mask(2)))
    out[-1] = tail if len(row) else "[]"


def _compact(item_sep: str = ",", key_sep: str = ":"):
    """`encode(obj, out)`: append to `out` the pieces of `json.dumps(obj,
    sort_keys=True, separators=(item_sep, key_sep))`; tuples are lists.
    Dicts are walked in Python and json's C encoder writes every other value
    whole.  A `Without` dict value (`row_ok`) is a row of its base's item
    texts, kept per base for the life of `encode`."""
    c_encode = _c_encoder(item_sep, key_sep)
    seps, inters = ("[", item_sep, "]"), {}

    def encode(o, out: list[str], row_ok: bool = False) -> None:
        if row_ok and isinstance(o, Without):
            _put_row(o, inters, id(o.base), lambda v: "".join(c_encode(v, 0)), seps, out)
        elif not isinstance(o, dict) or not o:
            out.extend(c_encode(o, 0))
        else:
            sep = "{"
            for k in sorted(o):
                out.append(sep + _key_text(k) + key_sep)
                encode(o[k], out, True)
                sep = item_sep
            out.append("}")

    return encode


def _indented(obj, indent: int) -> list[str]:
    """The pieces of `json.dumps(obj, sort_keys=True, indent=indent)`; tuples
    are lists.  json's C encoder writes each scalar-leaf container with the
    separators of its depth; other lists go item by item, and a `Without` dict
    value is a row of its base's item texts, kept per base and depth."""
    # levels[d]: the line break before an item at depth d and the C encoder
    # for items at depth d
    levels: list[tuple] = []
    inters: dict[tuple[int, int], list[str]] = {}

    def row(r: Without, depth: int, out: list[str], _) -> None:
        inner = levels[depth + 1][0]
        _put_row(r, inters, (id(r.base), depth),
                 lambda v: "".join(encode(v, depth + 1, [], False)),
                 ("[" + inner, "," + inner, levels[depth][0] + "]"), out)

    def encode(o, depth: int, out: list[str], rows: bool = True) -> list[str]:
        # rows: no list holds o, so a dict value may be a `Without` row
        while len(levels) <= depth + 2:
            brk = "\n" + " " * (indent * len(levels))
            levels.append((brk, _c_encoder("," + brk, ": ")))
        (outer, _), (inner, c_encode) = levels[depth], levels[depth + 1]
        if not isinstance(o, _CONTAINERS) or not o:
            out.append("".join(c_encode(o, 0)))  # the same text at any depth
        elif _is_leaf(o):
            text = "".join(c_encode(o, 0))
            out.append(text[0] + inner + text[1:-1] + outer + text[-1])
        elif isinstance(o, dict):
            head = "{" + inner
            for k in sorted(o):
                out.append(head + _key_text(k) + ": ")
                (row if rows and isinstance(o[k], Without) else encode)(o[k], depth + 1, out, rows)
                head = "," + inner
            out.append(outer + "}")
        else:
            head = "[" + inner
            for item in o:
                out.append(head)
                encode(item, depth + 1, out, False)
                head = "," + inner
            out.append(outer + "]")
        return out

    return encode(obj, 0, [])


def _dumps(obj, indent: int | None) -> str:
    """`json.dumps(obj, sort_keys=True, indent=indent)`, byte for byte, or
    with `separators=(",", ":")` when indent is None; tuples are lists, and a
    `Without` dict value under no list is the list of its items (json's
    TypeError elsewhere).  The pieces go into one list, joined once."""
    if indent is not None:
        return "".join(_indented(obj, indent))
    out: list[str] = []
    _compact()(obj, out)
    return "".join(out)


def _flatten(prefix: str, value, out: list[str], encode) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out, encode)
    elif isinstance(value, (list, tuple, Without)):
        out.append(prefix + ": ")
        encode(value, out, True)
        out.append("\n")
    else:
        out.append(f"{prefix}: {value}\n")


def to_text(report: dict) -> str:
    """One `key: value` line per scalar, a list or `Without` row as
    `json.dumps(value, sort_keys=True)`; rows share their base's item texts."""
    ordered = ["command", "backend", "eps", "input_sha256", "payload",
               DIGEST_KEY, TIMING_KEY]
    encode = _compact(", ", ": ")
    out: list[str] = []
    for key in ordered:
        if key in report:
            _flatten(key, report[key], out, encode)
    return "".join(out)
