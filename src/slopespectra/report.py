"""Structured reports: stable key order, reproducible byte-for-byte.

A report is a plain dict rendered either as indented JSON with sorted keys
or as a flat "key: value" text block.  Its digest, sha256 of the canonical
(compact) JSON without the timing field, is hashed as it is written
(`_digest`), so the same command on the same inputs reproduces it.

One walker, `_encoder`, writes both JSON forms and the text form's lists,
byte for byte what `json.dumps(sort_keys=True)` writes with their
separators.  json's C encoder writes whole each value that holds no
container; Python runs per dict that holds one and, indented, per column of
like values in a list, not per value.  A row of the `analyze` forbidden
table is a `Without` view over one list of class direction dicts, whose
texts are made once and put in each row by reference, a slice per run.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

from . import verifier  # runs on a command's first verdict or case: analyze never runs it
from .geometry import Direction, Point
from .pointfile import format_scalar
from .slopes import CriticalityReport, SlopeSpectrum, Without

TIMING_KEY = "timing_ms"
DIGEST_KEY = "report_digest"


def scalar_json(v):
    """An int or float as itself, a Fraction as its point-file text."""
    return format_scalar(v) if isinstance(v, Fraction) else v


def point_json(p: Point):
    return scalar_json(p.x), scalar_json(p.y)


def direction_json(d: Direction):
    return {"dx": d.dx, "dy": d.dy} if d.exact else {"angle": d.angle}  # ints, primitive


def conic_json(k):
    """A `conics.Conic`: its six coefficients and whether it is degenerate."""
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
    if isinstance(verdict, verifier.Certificate):
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
    assert isinstance(verdict, verifier.Refutation)
    return {
        "kind": "refutation",
        "stage": verdict.stage.value,
        "reason": verdict.reason,
        "witness": verdict.witness,
    }


def case_json(case: verifier.ProofCase):
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
    """The report; its digest is hashed as `_digest` writes it: no canonical text."""
    report = {
        "command": command,
        "backend": backend_kind,
        "eps": eps,
        "input_sha256": digest,
        "payload": payload,
    }
    report[DIGEST_KEY] = _digest(report)
    report[TIMING_KEY] = round(timing_ms, 3)
    return report


def to_json(report: dict) -> str:
    out = _encoder(2)(report, [])
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple)
_NESTED = (*_CONTAINERS, Without)


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


def _encoder(indent: int | None = None, item_sep: str = ",", key_sep: str = ": "):
    """`encode(obj, out, row_ok=False, depth=0)`: append to `out` the pieces of
    `json.dumps(obj, sort_keys=True, indent=indent, separators=(item_sep,
    key_sep))` for obj at `depth`, and return `out`; tuples are lists.
    json's C encoder writes whole each value that holds no container, and an
    indented non-empty container gets its brackets re-broken for its depth.
    Python walks a dict that holds a container.  Indented, a list that holds
    one is a `column`, and so is the base of a `Without` dict value under no
    list (`row_ok`): a row of its base's item texts, made once per base and depth."""
    # levels[d]: the line breaks before the closing bracket and before each
    # item of a value at depth d, and the C encoder of its items; unindented,
    # every break is ""
    levels: dict[int, tuple] = {}
    rows: dict[tuple[int, int], list[str]] = {}
    indented = indent is not None

    def level(depth: int) -> tuple:
        outer = "\n" + " " * (indent * depth) if indented else ""
        inner = outer + " " * indent if indented else ""
        levels[depth] = outer, inner, _c_encoder(item_sep + inner, key_sep)
        return levels[depth]

    def column(values, depth: int) -> list[str]:
        """The indented text of each of `values` at `depth`; Python runs per
        column, not per value, unless the values are unlike.  Splitting one C
        text at separator and brackets is exact: the separator holds a line
        break, no JSON string text holds one, no scalar's text ends in a bracket."""
        outer, inner, c_encode = levels.get(depth) or level(depth)
        sep, values = item_sep + inner, list(values)
        if not values:
            return []
        dicts = all(map(isinstance, values, repeat(dict)))
        lists = all(map(isinstance, values, repeat((list, tuple))))
        below = chain.from_iterable(map(dict.values, values) if dicts else values)
        if (dicts or lists) and all(values) and not any(map(isinstance, below, repeat(_NESTED))):
            o, c = "{}" if dicts else "[]"  # one C call, split between values
            bodies = "".join(c_encode(values, 0))[2:-2].split(c + sep + o)
            return list(map("".join, zip(repeat(o + inner), bodies, repeat(outer + c))))
        keys = values[0].keys() if dicts else ()
        if keys and all(map(isinstance, keys, repeat(str))) and \
                all(map(keys.__eq__, map(dict.keys, values))):
            parts, head = [], "{" + inner  # one column per key
            for k in sorted(keys):
                parts += repeat(head + _key_text(k) + key_sep), \
                    column(map(itemgetter(k), values), depth + 1)
                head = sep
            return list(map("".join, zip(*parts, repeat(outer + "}"))))
        if lists:  # one column of all their items, regrouped; an empty one is "[]"
            items = iter(column(chain.from_iterable(values), depth + 1))
            bodies = map(sep.join, map(islice, repeat(items), map(len, values)))
            texts = list(map("".join, zip(repeat("[" + inner), bodies, repeat(outer + "]"))))
            return list(map({"[" + inner + outer + "]": "[]"}.get, texts, texts))
        return ["".join(encode(v, [], False, depth)) for v in values]

    def encode(o, out: list[str], row_ok: bool = False, depth: int = 0) -> list[str]:
        outer, inner, c_encode = levels.get(depth) or level(depth)
        if row_ok and isinstance(o, Without):
            texts = rows.get((id(o.base), depth))
            if texts is None:  # the items' texts with a separator between each two
                texts = rows[id(o.base), depth] = [item_sep + inner] * (2 * len(o.base) - 1)
                texts[::2] = column(o.base, depth + 1) if indented else \
                    map("".join, map(c_encode, o.base, repeat(0)))  # C writes a list item whole
            head = "[" + inner
            for a, b in o.runs():
                out.append(head)
                out += texts[2 * a:2 * b - 1]
                head = item_sep + inner
            out.append(outer + "]" if len(o) else "[]")
        elif isinstance(o, dict) and any(map(isinstance, o.values(), repeat(_NESTED))):
            head = "{" + inner
            for k in sorted(o):
                out.append(head + _key_text(k) + key_sep)
                encode(o[k], out, row_ok or not depth, depth + 1)  # rows if no list holds o
                head = item_sep + inner
            out.append(outer + "}")
        elif indented and isinstance(o, (list, tuple)) and any(map(isinstance, o, repeat(_NESTED))):
            out.append("[" + inner + (item_sep + inner).join(column(o, depth + 1)) + outer + "]")
        else:
            text = "".join(c_encode(o, 0))
            if indented and isinstance(o, _CONTAINERS) and o:
                text = text[0] + inner + text[1:-1] + outer + text[-1]
            out.append(text)
        return out

    return encode


def _dumps(obj, indent: int | None) -> str:
    """`json.dumps(obj, sort_keys=True, indent=indent)`, byte for byte, or
    with `separators=(",", ":")` when indent is None; tuples are lists, and a
    `Without` dict value under no list is the list of its items (json's
    TypeError elsewhere).  The pieces go into one list, joined once."""
    return "".join(_encoder(indent, key_sep=":" if indent is None else ": ")(obj, []))


def _digest(report: dict) -> str:
    """sha256 of `_dumps(report, None)` as written: keys and scalars via a buffer hashed
    before each `Without` row, a row as slices of one encoded text of its base's items."""
    sha, buf, bases = hashlib.sha256(), [], {}

    def walk(o) -> None:  # the report is a dict, so a row met here is under no list
        if isinstance(o, Without):
            if id(o.base) not in bases:
                texts = ["".join(_C_ENCODE(v, 0)) for v in o.base]
                bases[id(o.base)] = (memoryview(("," + ",".join(texts)).encode()),
                                     [0, *accumulate(len(t) + 1 for t in texts)])
            text, at = bases[id(o.base)]
            sha.update(("".join(buf) + "[").encode())
            buf[:] = ["]"]
            skip = 1  # the "[" stands for the first kept item's comma
            for a, b in o.runs():
                sha.update(text[at[a] + skip:at[b]])
                skip = 0
        elif isinstance(o, dict) and any(map(isinstance, o.values(), repeat(_NESTED))):
            for i, k in enumerate(sorted(o)):
                buf.append(("," if i else "{") + _key_text(k) + ":")
                walk(o[k])
            buf.append("}")
        else:
            buf.extend(_C_ENCODE(o, 0))

    walk(report)
    sha.update("".join(buf).encode())
    return sha.hexdigest()


def _flatten(prefix: str, value, out: list[str], encode) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out, encode)
    elif isinstance(value, (list, tuple, Without)):
        out.append(prefix + ": ")
        encode(value, out, True)
        out.append("\n")
    else:
        if isinstance(value, str) and "".join(value.splitlines()) != value:
            value = encode_basestring_ascii(value)  # a line break would end the line
        out.append(f"{prefix}: {value}\n")


def to_text(report: dict) -> str:
    """One `key: value` line per scalar, a list or `Without` row as
    `json.dumps(value, sort_keys=True)`; a string holding a line break is
    written as its `json.dumps` text too."""
    ordered = ["command", "backend", "eps", "input_sha256", "payload",
               DIGEST_KEY, TIMING_KEY]
    encode = _encoder(item_sep=", ")
    out: list[str] = []
    for key in ordered:
        if key in report:
            _flatten(key, report[key], out, encode)
    return "".join(out)
