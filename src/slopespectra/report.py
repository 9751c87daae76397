"""Structured reports: stable key order, reproducible byte-for-byte.

A report is a plain dict rendered either as indented JSON with sorted keys
or as a flat "key: value" text block.  The report digest is computed over
the canonical JSON with the timing field removed, so re-running the same
command on the same inputs reproduces the digest even though timing varies.

Both JSON forms are byte for byte what `json.dumps(sort_keys=True)` writes,
and json's C encoder writes most of them.  `analyze` lists each spectrum
class's direction dict once per point that forbids it; the text of such a
scalar-leaf container is kept by id and a row of them is spliced in by
reference, so the O(n^3)-entry forbidden table runs no Python per entry.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

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
    dict itself, so each JSON encoder writes that dict's text once."""
    spectrum = spectrum_json(spec)
    directions = [cls["direction"] for cls in spectrum["classes"]]
    return {
        "n": crit.n,
        "spectrum": spectrum,
        "forbidden": {str(i): list(map(directions.__getitem__, ks))
                      for i, ks in enumerate(forbidden)},
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
    return items is not None and not any(map(isinstance, items, repeat(_CONTAINERS)))


def _splice(values, sep: str, memo: dict, out: list[str], miss) -> None:
    """Append to `out` the texts of `values`, `sep` between them.  A text
    found in `memo` (by id) goes in by reference, without a copy; `miss`
    appends the text of every other value."""
    texts = list(map(memo.get, map(id, values)))
    inter = [sep] * (2 * len(texts) - 1)
    inter[::2] = texts
    done, k = 0, -1
    for _ in range(texts.count(None)):
        k = texts.index(None, k + 1)
        out.extend(inter[done:2 * k])
        miss(values[k])
        done = 2 * k + 1
    out.extend(inter[done:])


def _compact(item_sep: str = ",", key_sep: str = ":"):
    """`encode(obj, out)`: append to `out` the pieces of `json.dumps(obj,
    sort_keys=True, separators=(item_sep, key_sep))`; tuples are lists.
    json's C encoder writes each scalar-leaf container, kept by id for the
    life of `encode`, and whole each list that does not start with one; a
    list of leaves (a forbidden-table row) is spliced from the kept texts."""
    c_encode = _c_encoder(item_sep, key_sep)
    memo: dict[int, str] = {}

    def encode(o, out: list[str]) -> None:
        if _is_leaf(o):
            text = memo.get(id(o))
            if text is None:
                text = memo[id(o)] = "".join(c_encode(o, 0))
            out.append(text)
        elif isinstance(o, dict):
            sep = "{"
            for k in sorted(o):
                out.append(sep + _key_text(k) + key_sep)
                encode(o[k], out)
                sep = item_sep
            out.append("}")
        elif isinstance(o, (list, tuple)) and (id(o[0]) in memo or _is_leaf(o[0])):
            out.append("[")
            _splice(o, item_sep, memo, out, lambda v: encode(v, out))
            out.append("]")
        else:
            out.extend(c_encode(o, 0))

    return encode


def _indented(obj, indent: int) -> list[str]:
    """The pieces of `json.dumps(obj, sort_keys=True, indent=indent)`; tuples
    are lists.  json's C encoder writes each scalar-leaf container with the
    separators of its depth; its text is kept by (id, depth) for the length
    of the call, and a list splices the kept texts in by reference."""
    # levels[d]: the line break before an item at depth d, the C encoder for
    # items at depth d, and id -> text of each leaf container at depth d
    levels: list[tuple] = []
    out: list[str] = []

    def encode(o, depth: int) -> None:
        while len(levels) <= depth + 1:
            brk = "\n" + " " * (indent * len(levels))
            levels.append((brk, _c_encoder("," + brk, ": "), {}))
        (outer, _, known), (inner, c_encode, _) = levels[depth], levels[depth + 1]
        if not isinstance(o, _CONTAINERS) or not o:
            out.append("".join(c_encode(o, 0)))  # the same text at any depth
        elif _is_leaf(o):
            text = "".join(c_encode(o, 0))
            text = known[id(o)] = text[0] + inner + text[1:-1] + outer + text[-1]
            out.append(text)
        elif isinstance(o, dict):
            head = "{" + inner
            for k in sorted(o):
                out.append(head + _key_text(k) + ": ")
                encode(o[k], depth + 1)
                head = "," + inner
            out.append(outer + "}")
        else:
            out.append("[" + inner)
            _splice(o, "," + inner, levels[depth + 1][2], out, lambda v: encode(v, depth + 1))
            out.append(outer + "]")

    encode(obj, 0)
    return out


def _dumps(obj, indent: int | None) -> str:
    """`json.dumps(obj, sort_keys=True, indent=indent)`, byte for byte, or
    with `separators=(",", ":")` when indent is None; tuples are lists.
    The pieces of the text go into one list, joined once at the end."""
    if indent is not None:
        return "".join(_indented(obj, indent))
    out: list[str] = []
    _compact()(obj, out)
    return "".join(out)


def _flatten(prefix: str, value, out: list[str], encode) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out, encode)
    elif isinstance(value, (list, tuple)):
        out.append(prefix + ": ")
        encode(value, out)
        out.append("\n")
    else:
        out.append(f"{prefix}: {value}\n")


def to_text(report: dict) -> str:
    """One `key: value` line per scalar, a list as `json.dumps(value,
    sort_keys=True)`; the lists share one leaf memo."""
    ordered = ["command", "backend", "eps", "input_sha256", "payload",
               DIGEST_KEY, TIMING_KEY]
    encode = _compact(", ", ": ")
    out: list[str] = []
    for key in ordered:
        if key in report:
            _flatten(key, report[key], out, encode)
    return "".join(out)
