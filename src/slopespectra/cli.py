"""Command-line interface.

Subcommands: analyze, verify, generate, render, case.  Exit codes are
stable: 0 for success (verify: certificate), 3 for a refutation or a
report-level precondition refusal, 1 for input or parse errors, 2 for
usage errors (argparse), malformed option text included.  verify with
several files reports every file, an unreadable one as a report with an
"error" verdict, and exits 1 if any file errored, else 3 if any was
refuted, else 0.  SLOPESPECTRA_EPS overrides the default float tolerance
when --eps is not given; either must lie in (0, 1).
"""

from __future__ import annotations

import argparse
import codecs
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import report as rep
from .errors import ParseError, SlopeSpectraError
from .generators import GeneratorSpec
from .geometry import Configuration
from .pointfile import _parse_token, parse_point_text, serialize_points
from .regularity import AffineMap
from .render import parse_highlight, render_svg
from .scalars import DEFAULT_EPS_REL, EXACT, float_backend
from .slopes import classify_criticality, forbidden_slope_table, slope_spectrum
from .verifier import classify_proof_case, verify_theorem

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 3

ENV_EPS = "SLOPESPECTRA_EPS"


def _eps(text: str) -> float:
    """An --eps or SLOPESPECTRA_EPS value: one a float backend accepts."""
    try:
        return float_backend(float(text)).eps_rel
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the tolerance (--eps or {ENV_EPS}) must be a positive finite number below 1, "
            f"got {text!r}") from None


def _indices(text: str) -> tuple[int, ...]:
    """A --delete value: comma-separated vertex indices."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated vertex indices, got {text!r}") from None


def _perturb(text: str) -> float:
    """A --perturb value: a finite radius >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite perturbation radius >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """A --bound or --jobs value: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _affine(text: str) -> tuple:
    """An --affine value: six comma-separated point-file numbers a,b,c,d,e,f."""
    try:
        values = [_parse_token(t.strip(), 0) for t in text.split(",")]
    except ParseError:
        values = []
    if len(values) != 6 or any(k == "dec" and not math.isfinite(v) for v, k in values):
        raise argparse.ArgumentTypeError(
            f"expected six comma-separated finite numbers a,b,c,d,e,f, got {text!r}")
    return tuple(v for v, _ in values)


def _highlight(text: str) -> str:
    """A --highlight value, checked against the grammar `render_svg` reads."""
    try:
        parse_highlight(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _resolve_backend(args):
    if args.backend == "rational":
        return EXACT
    if args.backend == "float":
        return float_backend(args.eps)
    return None  # infer from the file


def _load(path: str, args) -> tuple[Configuration, str]:
    raw = Path(path).read_bytes()
    data = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(data[:exc.start].count(b"\n") + 1, "not UTF-8 text") from exc
    config = parse_point_text(text, _resolve_backend(args), args.eps)
    return config, rep.input_digest(raw)


def _report(command: str, config: Configuration, digest: str, payload: dict, t0: float) -> dict:
    """The report of a command on one loaded file, timed from t0."""
    return rep.build_report(command, config.backend.kind, config.backend.eps_rel,
                            digest, payload, (time.perf_counter() - t0) * 1e3)


def _emit(report: dict, args) -> None:
    out = rep.to_json(report) if args.json else rep.to_text(report)
    sys.stdout.write(out)


def _add_common(sub):
    sub.add_argument("--backend", choices=["rational", "float"],
                     help="force the scalar backend (default: infer from the file)")
    # a string default goes through type=_eps only when --eps is absent
    sub.add_argument("--eps", type=_eps, default=os.environ.get(ENV_EPS) or DEFAULT_EPS_REL,
                     help="relative tolerance for the float backend")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    config, digest = _load(args.file, args)
    spectrum = slope_spectrum(config)
    table = forbidden_slope_table(config, spectrum)
    crit = classify_criticality(config)
    spectrum_doc = rep.spectrum_json(spectrum)
    # the table holds the spectrum's own Direction objects: every entry
    # shares its class's dict, which the report encoder writes once
    class_docs = {id(cls.direction): doc["direction"]
                  for cls, doc in zip(spectrum.classes, spectrum_doc["classes"])}
    payload = {
        "n": len(config),
        "spectrum": spectrum_doc,
        "forbidden": {
            str(i): [class_docs[id(d)] for d in dirs]
            for i, dirs in enumerate(table.per_point)
        },
        "criticality": crit.verdict.value,
        "general_position": crit.general_position,
    }
    _emit(_report("analyze", config, digest, payload, t0), args)
    return EXIT_OK


def _verify_one(path: str, args) -> dict:
    """The verify report of one file; an unreadable file gets an error verdict."""
    t0 = time.perf_counter()
    try:
        config, digest = _load(path, args)
        payload = {"n": len(config), "file": path,
                   "verdict": rep.verdict_json(verify_theorem(config))}
    except (SlopeSpectraError, OSError) as exc:
        payload = {"file": path,
                   "verdict": {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}}
        return rep.build_report("verify", args.backend, args.eps, None, payload,
                                (time.perf_counter() - t0) * 1e3)
    return _report("verify", config, digest, payload, t0)


def cmd_verify(args) -> int:
    verify = partial(_verify_one, args=args)
    if args.jobs > 1 and len(args.files) > 1:
        # the pool starts all its workers at once: no more than there are files
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(args.files))) as pool:
            results = list(pool.map(verify, args.files))
    else:
        results = [verify(path) for path in args.files]
    kinds = set()
    for report in results:
        _emit(report, args)
        kinds.add(report["payload"]["verdict"]["kind"])
    if "error" in kinds:
        return EXIT_ERROR
    return EXIT_REFUTED if "refutation" in kinds else EXIT_OK


def cmd_generate(args) -> int:
    affine = None
    if args.affine:
        a, b, c, d, e, f = args.affine
        affine = AffineMap(((a, b), (c, d)), (e, f))  # NonInvertible when singular
    spec = GeneratorSpec(
        polygon=args.polygon,
        random=args.random,
        delete=args.delete,
        affine=affine,
        perturb_delta=args.perturb,
        seed=args.seed,
        bound=args.bound,
    )
    config = spec.build()
    sys.stdout.write(serialize_points(config))
    return EXIT_OK


def cmd_render(args) -> int:
    config, _ = _load(args.file, args)
    svg = render_svg(config, args.highlight)
    if args.out:
        Path(args.out).write_text(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def cmd_case(args) -> int:
    t0 = time.perf_counter()
    config, digest = _load(args.file, args)
    try:
        case = classify_proof_case(config)
    except SlopeSpectraError as exc:
        payload, code = {"n": len(config), "refusal": f"{type(exc).__name__}: {exc}"}, EXIT_REFUTED
    else:
        payload, code = {"n": len(config), "proof_case": rep.case_json(case)}, EXIT_OK
    _emit(_report("case", config, digest, payload, t0), args)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopespectra",
        description="Slope spectra, conic group law, and (n+1)-slope certificates "
                    "for planar point configurations.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="slope spectrum, forbidden slopes, criticality")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("verify", help="certify or refute the (n+1)-slope property")
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="verify files in parallel processes")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("generate", help="emit a point file from a generator pipeline")
    p.add_argument("--polygon", type=int, help="regular m-gon source")
    p.add_argument("--random", type=int, help="random general-position source of n points")
    p.add_argument("--delete", type=_indices, default=(),
                   help="comma-separated vertex indices to drop")
    p.add_argument("--affine", type=_affine,
                   help="a,b,c,d,e,f for x'=ax+by+e, y'=cx+dy+f")
    p.add_argument("--perturb", type=_perturb, help="uniform perturbation radius")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=_positive_int, default=1000,
                   help="numerator/denominator bound for random rationals")
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("render", help="emit a deterministic SVG figure")
    p.add_argument("file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--highlight", type=_highlight,
                   help="'conic', 'forbidden <i>', 'parallel (dx,dy)' or 'parallel all'")
    _add_common(p)
    p.set_defaults(func=cmd_render)

    p = subs.add_parser("case", help="structural case classification")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_case)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SlopeSpectraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
