"""Command-line interface.

Subcommands: analyze, verify, generate, render, case.  Exit codes are
stable: 0 for success (verify: certificate), 3 for a refutation or a
report-level precondition refusal, 1 for input or parse errors, 2 for
usage errors (argparse), malformed option text included.  verify with
several files reports every file, an unreadable one as a report with an
"error" verdict, and exits 1 if any file errored, else 3 if any was
refuted, else 0.  SLOPESPECTRA_EPS overrides the default float tolerance
when --eps is not given; either must lie in (0, 1).  The argument parser
is built once per process; SLOPESPECTRA_EPS is read on every main call.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

# each command runs only the submodules it calls (see the package docstring)
from . import generators, regularity, render, slopes, verifier
from . import report as rep
from .errors import ParseError, SlopeSpectraError
from .pointfile import _parse_token, parse_point_text, serialize_points
from .scalars import DEFAULT_EPS_REL, EXACT, float_backend

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 3

ENV_EPS = "SLOPESPECTRA_EPS"

# Exact input may hold integers of any length.  Lift Python's limit on
# int/str conversion (4300 digits) for the CLI process.
if hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
    sys.set_int_max_str_digits(0)


def _eps(text: str) -> float:
    """An --eps or SLOPESPECTRA_EPS value: one a float backend accepts."""
    try:
        return float_backend(float(text)).eps_rel
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the tolerance (--eps or {ENV_EPS}) must be a positive finite number below 1, "
            f"got {text!r}") from None


def _expected(what: str, convert, accept=lambda value: True):
    """An option type: `convert` of the text, refused with "expected <what>,
    got <text>" when it raises ValueError or `accept` refuses its value."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_indices = _expected("comma-separated vertex indices",  # --delete
                     lambda text: tuple(int(t) for t in text.split(",")))
_perturb = _expected("a finite perturbation radius >= 0", float,  # --perturb
                     lambda v: 0 <= v < math.inf)
_positive_int = _expected("an integer >= 1", int, lambda v: v >= 1)  # --bound, --jobs


def _affine(text: str) -> tuple:
    """An --affine value: six comma-separated point-file numbers a,b,c,d,e,f.
    A decimal is its decimal value (0.1 is 1/10), or 0 when its float is 0.0,
    so no exponent is expanded into a power of ten beyond the float range."""
    tokens = [t.strip() for t in text.split(",")]
    try:
        values = [_parse_token(t, 0) for t in tokens]
    except ParseError:
        values = []
    if len(values) != 6 or any(k == "dec" and not math.isfinite(v) for v, k in values):
        raise argparse.ArgumentTypeError(
            f"expected six comma-separated finite numbers a,b,c,d,e,f, got {text!r}")
    return tuple(Fraction(t if v else 0) if k == "dec" else v for t, (v, k) in zip(tokens, values))


def _highlight(text: str) -> str:
    """A --highlight value, checked against the grammar `render_svg` reads."""
    try:
        render.parse_highlight(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _resolve_backend(args):
    if args.backend == "rational":
        return EXACT
    if args.backend == "float":
        return float_backend(args.eps)
    return None  # infer from the file


def _load(path: str, args) -> tuple:
    """The Configuration in a point file and the file's bytes."""
    raw = Path(path).read_bytes()
    data = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(data[:exc.start].count(b"\n") + 1, "not UTF-8 text") from exc
    config = parse_point_text(text, _resolve_backend(args), args.eps)
    return config, raw


def _report(command: str, config, raw: bytes, payload: dict, t0: float) -> dict:
    """The report of a command on a loaded Configuration and its file's bytes, timed from t0."""
    return rep.build_report(command, config.backend.kind, config.backend.eps_rel,
                            rep.input_digest(raw), payload, (time.perf_counter() - t0) * 1e3)


def _emit(report: dict, args) -> None:
    out = rep.to_json(report) if args.json else rep.to_text(report)
    sys.stdout.write(out)


def _add_common(sub) -> argparse.ArgumentParser:
    sub.add_argument("--backend", choices=["rational", "float"],
                     help="force the scalar backend (default: infer from the file)")
    # main sets the default on each call
    sub.add_argument("--eps", type=_eps, help="relative tolerance for the float backend")
    return sub


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    config, raw = _load(args.file, args)
    payload = rep.analyze_json(slopes.slope_spectrum(config),
                               slopes.forbidden_slope_table(config),
                               slopes.classify_criticality(config))
    _emit(_report("analyze", config, raw, payload, t0), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Verify the files in order, in this process, whatever --jobs says; an
    unreadable file gets a report with an error verdict."""
    kinds = set()
    for path in args.files:
        t0 = time.perf_counter()
        try:
            config, raw = _load(path, args)
            verdict = rep.verdict_json(verifier.verify_theorem(config))
        except (SlopeSpectraError, OSError) as exc:
            payload = {"file": path,
                       "verdict": {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}}
            report = rep.build_report("verify", args.backend, args.eps, None, payload,
                                      (time.perf_counter() - t0) * 1e3)
        else:
            report = _report("verify", config, raw,
                             {"n": len(config), "file": path, "verdict": verdict}, t0)
        _emit(report, args)
        kinds.add(report["payload"]["verdict"]["kind"])
    if "error" in kinds:
        return EXIT_ERROR
    return EXIT_REFUTED if "refutation" in kinds else EXIT_OK


def cmd_generate(args) -> int:
    affine = None
    if args.affine:
        a, b, c, d, e, f = args.affine
        affine = regularity.AffineMap(((a, b), (c, d)), (e, f))  # NonInvertible when singular
    spec = generators.GeneratorSpec(
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
    svg = render.render_svg(config, args.highlight)
    if args.out:
        Path(args.out).write_text(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def cmd_case(args) -> int:
    t0 = time.perf_counter()
    config, raw = _load(args.file, args)
    try:
        case = verifier.classify_proof_case(config)
    except SlopeSpectraError as exc:
        payload, code = {"n": len(config), "refusal": f"{type(exc).__name__}: {exc}"}, EXIT_REFUTED
    else:
        payload, code = {"n": len(config), "proof_case": rep.case_json(case)}, EXIT_OK
    _emit(_report("case", config, raw, payload, t0), args)
    return code


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    """The parser, built once per process, and its subparsers that take --eps."""
    common = []
    parser = argparse.ArgumentParser(
        prog="slopespectra",
        description="Slope spectra, conic group law, and (n+1)-slope certificates "
                    "for planar point configurations.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="slope spectrum, forbidden slopes, criticality")
    p.add_argument("file")
    common.append(_add_common(p))
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("verify", help="certify or refute the (n+1)-slope property")
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for older command lines; verify runs its files in "
                        "order in one process whatever N is")
    common.append(_add_common(p))
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
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
    common.append(_add_common(p))
    p.set_defaults(func=cmd_render)

    p = subs.add_parser("case", help="structural case classification")
    p.add_argument("file")
    common.append(_add_common(p))
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_case)

    return parser, common


def main(argv=None) -> int:
    parser, common = build_parser()
    for sub in common:
        # a string default goes through type=_eps only when --eps is absent
        sub.set_defaults(eps=os.environ.get(ENV_EPS) or DEFAULT_EPS_REL)
    args = parser.parse_args(argv)
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
