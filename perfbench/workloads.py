"""The three workloads: seeded corpora built with the library's own
generators, and the known answer every request is checked against.

A corpus is a set of point files plus a list of requests, each a
slopespectra command line.  Every request carries a check that classifies
its result as "ok", "failed" (no answer, an error, or the program refusing
a true instance) or "wrong" (an answer the known answer contradicts: a
certificate for a non-instance, a wrong missing vertex, a wrong exact fact).
Known answers come from the construction itself or from `oracle`, which
shares no code with the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Why each size is here: regular m-gons minus one vertex on a geometric
# ladder, weighted toward small m.  About as many requests are faster as
# are slower than the thirty m = 16 ones, so the median falls inside that
# block, and the tail percentile inside the nine m = 91 ones.  The blocks
# are large because each seeded map moves its request's time: the median
# of many of them varies less from seed to seed.  m >= 91 carries most of
# the time (the O(n^3) general-position pass).  m = 181 and 256 are
# refuted today (group-law rounding) and stay in.
FLOAT_LADDER = ((8, 9), (11, 9), (16, 30), (23, 5), (32, 4), (45, 4),
                (64, 4), (91, 9), (128, 2), (181, 1), (256, 1))
# The polygons this large are neither mapped nor seeded (vertex 0 is
# deleted): they take half of a pass, and under a random map or deletion
# the stage and step that refute them (Coconic or Reconstruction, early or
# late in the residue check), and with them their time, would depend on
# the seed.  They are refuted either way today.
UNMAPPED_FROM = 181
# The 11-of-12-gon under uniform scaling and translation: the theorem is
# affine-invariant, and today only scales 1e-2 and 1 certify.
SWEEP_SCALES = (1e-6, 1e-4, 1e-2, 1.0, 1e3, 1e6, 1e9)
SWEEP_SHIFTS = (1e3, 1e6)
NON_INSTANCE_SIZES = (12, 24, 48)
PERTURBATION = 1e-3

# (generator, n): both verify and analyze run on each input.  Exact input
# never certifies (Niven), so these reach geometry, slopes, pointfile and
# report but not the conic layer.  The time of an exact request follows
# the sizes of its seeded Fractions (up to 2x between seeds at n = 20), so
# each generator gives three inputs at n = 20 and 30, where the median and
# the tail fall.
EXACT_COPIES = 3
EXACT_INPUTS = tuple((kind, n) for n in (20, 30)
                     for kind in ("convex", "general", "interior", "noncollinear")
                     for _ in range(EXACT_COPIES)) + \
    (("convex", 45), ("general", 45), ("convex", 60), ("convex", 6), ("general", 5))

# Tail percentile per workload: it leaves at least ten samples beyond it in
# a 20-second run.  On the in-process workloads it falls inside one block
# of like requests (m = 91; analyze at n = 30), not between two blocks, so
# the number of passes a run completes does not move it.  Every CLI command
# takes about as long (start-up and import dominate), so on cli-session it
# is the highest percentile that varied little from run to run; above it
# the machine's hiccups decide.  Fixed, so a faster program is compared at
# the same percentile.
TAIL_PERCENTILE = {"float-certify": 92, "exact-mixed": 80, "cli-session": 75}


@dataclass
class Request:
    label: str
    argv: list[str]
    n: int
    # builds the check; called by Corpus.settle, outside the timed set-up,
    # because the oracle is the benchmark's work, not the program's
    answer: Callable[[], Callable[[int, str, str], tuple[str, str]]]
    check: Callable[[int, str, str], tuple[str, str]] | None = None


@dataclass
class Corpus:
    files: dict[str, str] = field(default_factory=dict)
    requests: list[Request] = field(default_factory=list)
    warmup: list[int] = field(default_factory=list)  # request indices

    def settle(self) -> None:
        for req in self.requests:
            req.check = req.answer()

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for req in self.requests:
            h.update(json.dumps(req.argv).encode() + b"\n")
        return h.hexdigest()


def _item_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7919 + 1) % (1 << 62)


# ---------------------------------------------------------------- checks --

def _reports(stdout: str) -> list[dict]:
    """Every JSON report on stdout (verify prints one per file)."""
    dec, out, pos = json.JSONDecoder(), [], 0
    text = stdout.strip()
    while pos < len(text):
        doc, end = dec.raw_decode(text, pos)
        out.append(doc)
        pos = end
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


def _text_report(stdout: str) -> dict:
    """The flat `key: value` text report as a dict of strings."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _certificate_ok(verdict: dict, missing, tol: float, kept: list[int], m: int) -> tuple[str, str]:
    """A certificate must name the deleted vertex and number the kept
    vertices consecutively after the gap, in either direction."""
    mx, my = (float(v) for v in verdict["missing_vertex"])
    if math.hypot(mx - missing[0], my - missing[1]) > tol:
        return WRONG, f"missing vertex {mx, my} is not {missing}"
    gone = next(v for v in range(m) if v not in set(kept))
    forward = [(v - gone - 1) % m for v in kept]
    backward = [(gone - 1 - v) % m for v in kept]
    if verdict["residues"] not in (forward, backward):
        return WRONG, "residues do not follow the polygon order"
    return OK, ""


def certify_check(missing, tol: float, kept: list[int], m: int):
    """`verify --json` on an affine image of the m-gon minus one vertex."""
    def check(code, out, err):
        if code not in (0, 3):
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        verdict = _reports(out)[0]["payload"]["verdict"]
        if verdict["kind"] != "certificate":
            return FAILED, f"refuted at {verdict['stage']}"
        if code != 0:
            return FAILED, f"certificate with exit {code}"
        return _certificate_ok(verdict, missing, tol, kept, m)
    return check


def refute_check(stage: str):
    """`verify --json` on a float non-instance: refuted at `stage`."""
    def check(code, out, err):
        if code not in (0, 3):
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        verdict = _reports(out)[0]["payload"]["verdict"]
        if verdict["kind"] == "certificate":
            return WRONG, "certificate for a non-instance"
        if code != 3:
            return FAILED, f"refutation with exit {code}"
        if verdict["stage"] != stage:
            return FAILED, f"refuted at {verdict['stage']}, expected {stage}"
        return OK, ""
    return check


def exact_verify_check(expected):
    """`verify --json` on exact input: the oracle's stage and witness."""
    stage, witness = expected

    def check(code, out, err):
        if code != 3:
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        verdict = _reports(out)[0]["payload"]["verdict"]
        got = (verdict.get("stage"), verdict.get("witness"))
        if got != (stage, witness):
            return WRONG, f"verdict {got}, expected {(stage, witness)}"
        return OK, ""
    return check


def _direction_key(d: dict) -> tuple[int, int]:
    return int(Fraction(d["dx"])), int(Fraction(d["dy"]))


def analyze_check(expected: dict):
    """`analyze --json` on exact input against the oracle's analysis."""
    def check(code, out, err):
        if code != 0:
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        payload = _reports(out)[0]["payload"]
        classes = {_direction_key(c["direction"]): sorted(tuple(p) for p in c["pairs"])
                   for c in payload["spectrum"]["classes"]}
        forbidden = [{_direction_key(d) for d in payload["forbidden"][str(i)]}
                     for i in range(expected["n"])]
        if payload["spectrum"]["count"] != len(expected["classes"]) or classes != expected["classes"]:
            return WRONG, "slope classes differ from the oracle"
        if forbidden != expected["forbidden"]:
            return WRONG, "forbidden slopes differ from the oracle"
        if payload["general_position"] != expected["general_position"]:
            return WRONG, "general-position flag differs from the oracle"
        if payload["criticality"] != expected["criticality"]:
            return WRONG, f"criticality {payload['criticality']}, expected {expected['criticality']}"
        return OK, ""
    return check


def text_certify_check(missing, tol: float, kept: list[int], m: int):
    """Plain-text `verify` on an instance."""
    def check(code, out, err):
        if code not in (0, 3):
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        rep = _text_report(out)
        if rep.get("payload.verdict.kind") != "certificate":
            return FAILED, f"refuted at {rep.get('payload.verdict.stage')}"
        verdict = {"missing_vertex": json.loads(rep["payload.verdict.missing_vertex"]),
                   "residues": json.loads(rep["payload.verdict.residues"])}
        return _certificate_ok(verdict, missing, tol, kept, m)
    return check


def text_exact_verify_check(expected):
    stage, witness = expected

    def check(code, out, err):
        if code != 3:
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        rep = _text_report(out)
        got = (rep.get("payload.verdict.stage"), json.loads(rep.get("payload.verdict.witness", "null")))
        if got != (stage, witness):
            return WRONG, f"verdict {got}, expected {(stage, witness)}"
        return OK, ""
    return check


def case_check(expected):
    tag, rotation, reflected = expected

    def check(code, out, err):
        if code != 0:
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        case = _reports(out)[0]["payload"]["proof_case"]
        got = (case["case"], case["rotation"], case["reflected"])
        if got != expected:
            return WRONG, f"case {got}, expected {expected}"
        return OK, ""
    return check


def polygon_file_check(m: int, kept: list[int]):
    """`generate --polygon m --delete ...`: the kept vertices, in order."""
    def check(code, out, err):
        if code != 0:
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        rows = [line.split() for line in out.splitlines() if line.strip()]
        if len(rows) != len(kept):
            return WRONG, f"{len(rows)} points, expected {len(kept)}"
        for (x, y), v in zip(rows, kept):
            ang = 2.0 * math.pi * v / m
            if math.hypot(float(x) - math.cos(ang), float(y) - math.sin(ang)) > 1e-12:
                return WRONG, f"point for vertex {v} is off the polygon"
        return OK, ""
    return check


def random_file_check(n: int, bound: int):
    """`generate --random n`: n distinct bounded rationals, no three collinear."""
    def check(code, out, err):
        if code != 0:
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        coords = [tuple(Fraction(t) for t in line.split()) for line in out.splitlines() if line.strip()]
        if len(coords) != n or len(set(coords)) != n:
            return WRONG, f"expected {n} distinct points"
        if any(abs(v.numerator) > bound or v.denominator > bound for p in coords for v in p):
            return WRONG, "coordinate outside the generator's bound"
        if oracle.first_collinear_triple(oracle.int_grid(coords)) is not None:
            return WRONG, "collinear triple in a general-position file"
        return OK, ""
    return check


def render_check(n: int):
    """`render --highlight conic`: SVG with n vertices and the conic."""
    def check(code, out, err):
        if code != 0:
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        try:
            root = ET.fromstring(out)
        except ET.ParseError as exc:
            return WRONG, f"not XML: {exc}"
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        conic = [e for e in root if e.get("id") == "conic"]
        if len(circles) != n or len(conic) != 1:
            return WRONG, f"{len(circles)} vertices and {len(conic)} conics"
        return OK, ""
    return check


def multi_verify_check(good_file: str, missing, tol: float, kept: list[int], m: int):
    """`verify good bad --json`: the good file's certificate is reported
    and the run exits 1 for the bad file, without a traceback."""
    def check(code, out, err):
        if "Traceback" in err:
            return FAILED, err.strip().splitlines()[-1][:200]
        try:
            reports = _reports(out)
        except json.JSONDecodeError:
            return FAILED, "unparsable output"
        good = [r for r in reports if r.get("payload", {}).get("file") == good_file]
        if not good:
            return FAILED, "no report for the good file"
        verdict = good[0]["payload"]["verdict"]
        if verdict.get("kind") != "certificate":
            return FAILED, "good file not certified"
        if code != 1:
            return FAILED, f"exit {code}, expected 1"
        return _certificate_ok(verdict, missing, tol, kept, m)
    return check


# ------------------------------------------------------------- builders --

def _later(make_check, compute, *args):
    """A deferred check: run the oracle `compute(*args)`, then build it."""
    return lambda: make_check(compute(*args))


def _now(check):
    return lambda: check


def _apply(T, x: float, y: float) -> tuple[float, float]:
    (a, b), (c, d) = T.linear
    tx, ty = T.translation
    return (float(a) * x + float(b) * y + float(tx), float(c) * x + float(d) * y + float(ty))


class _Polygon:
    """The regular m-gon minus `deleted` under the affine map T, and the
    answers its construction settles."""

    def __init__(self, ss, m: int, deleted, T):
        self.m, self.deleted, self.T = m, sorted(deleted), T
        self.kept = [v for v in range(m) if v not in set(deleted)]
        config = ss.delete_vertices(ss.regular_polygon(m), self.deleted)
        self.config = ss.apply_affine(config, T)
        self.text = ss.serialize_points(self.config)

    def certify(self, make=None):
        """The check that this instance certifies with its deleted vertex."""
        ang = 2.0 * math.pi * self.deleted[0] / self.m
        missing = _apply(self.T, math.cos(ang), math.sin(ang))
        pts = [p.as_floats() for p in self.config.points]
        spread = max(max(p[k] for p in pts) - min(p[k] for p in pts) for k in (0, 1))
        return (make or certify_check)(missing, 1e-6 * spread, self.kept, self.m)


def build_float_certify(ss, seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()

    def add(label, config, text, answer):
        name = f"f{len(corpus.files):03d}.txt"
        corpus.files[name] = text
        corpus.requests.append(Request(label, ["verify", name, "--json"], len(config), answer))

    for m, count in FLOAT_LADDER:
        for _ in range(count):
            if m >= UNMAPPED_FROM:
                poly = _Polygon(ss, m, [0], ss.AffineMap.identity())
            else:
                T = ss.random_affine_map(_item_seed(seed, len(corpus.files)), bound=5)
                poly = _Polygon(ss, m, [rng.randrange(m)], T)
            add(f"certify m={m}", poly.config, poly.text, poly.certify)
    gap = rng.randrange(12)
    sweep = [(f"scale={s:g}", ((s, 0.0), (0.0, s)), (0.0, 0.0)) for s in SWEEP_SCALES]
    sweep += [(f"shift={t:g}", ((1.0, 0.0), (0.0, 1.0)), (t, t)) for t in SWEEP_SHIFTS]
    for label, linear, shift in sweep:
        poly = _Polygon(ss, 12, [gap], ss.AffineMap(linear, shift))
        add(f"certify 11-of-12 {label}", poly.config, poly.text, poly.certify)
    for m in NON_INSTANCE_SIZES:
        T = ss.random_affine_map(_item_seed(seed, len(corpus.files)), bound=5)
        poly = _Polygon(ss, m, rng.sample(range(m), 2), T)
        add(f"refute m={m} minus two", poly.config, poly.text,
            _later(refute_check, oracle.polygon_expected_stage, m, poly.deleted))
        pseed = _item_seed(seed, len(corpus.files))
        base = ss.delete_vertices(ss.regular_polygon(m), [rng.randrange(m)])
        config = ss.apply_affine(ss.perturb(base, PERTURBATION, pseed),
                                 ss.random_affine_map(pseed, bound=5))
        add(f"refute m={m} perturbed", config, ss.serialize_points(config),
            _later(refute_check, _float_stage, [p.as_floats() for p in config.points]))
    corpus.warmup = [i for i, r in enumerate(corpus.requests) if r.n <= 11][:3]
    return corpus


def _float_stage(coords) -> str:
    """The oracle's stage on the exact values of float coordinates; a
    perturbed polygon that passes the slope count would fail on the conic."""
    found = oracle.expected_refutation(oracle.int_grid(coords))
    return found[0] if found else "Coconic"


def _exact_config(ss, kind: str, n: int, seed: int):
    if kind == "convex":
        return ss.random_convex_position(n, seed)
    if kind == "general":
        return ss.random_general_position(n, seed)
    if kind == "interior":
        return ss.random_with_interior_point(n, seed)
    return ss.random_noncollinear(n, seed)


def _grid(config):
    return oracle.int_grid((p.x, p.y) for p in config.points)


def _refutation(config):
    return oracle.expected_refutation(_grid(config))


def _analysis(config):
    return oracle.analysis(_grid(config))


def _proof_case(config):
    return oracle.proof_case(_grid(config))


def build_exact_mixed(ss, seed: int) -> Corpus:
    corpus = Corpus()
    for i, (kind, n) in enumerate(EXACT_INPUTS):
        config = _exact_config(ss, kind, n, _item_seed(seed, i))
        name = f"e{i:03d}.txt"
        corpus.files[name] = ss.serialize_points(config)
        corpus.requests.append(Request(
            f"verify {kind} n={n}", ["verify", name, "--json"], n,
            _later(exact_verify_check, _refutation, config)))
        corpus.requests.append(Request(
            f"analyze {kind} n={n}", ["analyze", name, "--json"], n,
            _later(analyze_check, _analysis, config)))
    corpus.warmup = [i for i, r in enumerate(corpus.requests) if r.n < 7]
    return corpus


def build_cli_session(ss, seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()
    req = corpus.requests.append

    def polygon(name, m):
        T = ss.random_affine_map(_item_seed(seed, len(corpus.files)), bound=5)
        poly = _Polygon(ss, m, [rng.randrange(m)], T)
        corpus.files[name] = poly.text
        return poly

    def exact(name, kind, n):
        config = _exact_config(ss, kind, n, _item_seed(seed, len(corpus.files)))
        corpus.files[name] = ss.serialize_points(config)
        return config

    p12 = polygon("p12.txt", 12)
    p24 = polygon("p24.txt", 24)
    p16 = polygon("p16.txt", 16)
    c16 = exact("c16.txt", "convex", 16)
    g16 = exact("g16.txt", "general", 16)
    g20 = exact("g20.txt", "general", 20)
    corpus.files["bad.txt"] = "0 0\n1 0\n0 0\n2 3\n"  # points 0 and 2 coincide
    gone = rng.randrange(24)
    rseed = _item_seed(seed, 99)

    req(Request("verify text float", ["verify", "p12.txt"], 11,
                lambda: p12.certify(text_certify_check)))
    req(Request("verify json float", ["verify", "p24.txt", "--json"], 23, p24.certify))
    req(Request("verify json exact", ["verify", "c16.txt", "--json"], 16,
                _later(exact_verify_check, _refutation, c16)))
    req(Request("verify text exact", ["verify", "g16.txt"], 16,
                _later(text_exact_verify_check, _refutation, g16)))
    req(Request("analyze exact", ["analyze", "g20.txt", "--json"], 20,
                _later(analyze_check, _analysis, g20)))
    req(Request("case exact", ["case", "c16.txt", "--json"], 16,
                _later(case_check, _proof_case, c16)))
    req(Request("generate polygon", ["generate", "--polygon", "24", "--delete", str(gone)], 23,
                _now(polygon_file_check(24, [v for v in range(24) if v != gone]))))
    req(Request("generate random", ["generate", "--random", "20", "--seed", str(rseed)], 20,
                _now(random_file_check(20, 1000))))
    req(Request("render conic", ["render", "p16.txt", "--highlight", "conic"], 15,
                _now(render_check(15))))
    for label, extra in (("verify good bad", []), ("verify good bad --jobs 2", ["--jobs", "2"])):
        req(Request(label, ["verify", "p12.txt", "bad.txt", "--json"] + extra, 11,
                    lambda: p12.certify(lambda *a: multi_verify_check("p12.txt", *a))))
    corpus.warmup = [0]
    return corpus


BUILDERS = {
    "float-certify": build_float_certify,
    "exact-mixed": build_exact_mixed,
    "cli-session": build_cli_session,
}
IN_PROCESS = {"float-certify", "exact-mixed"}
