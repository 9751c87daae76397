"""Slope spectra of planar point sets, the parallelism group law on conics,
and certified detection of configurations with one more slope than points.

The library works over two scalar backends: exact rationals (Fraction) and
tolerance-governed floats.  All types are immutable and all operations are
pure, so everything is safe for concurrent use, the first use of a
submodule included.  The value types are plain classes, so
`dataclasses.fields`, `replace` and `asdict` do not apply.

Importing the package runs none of its submodules.  Each (but `cli`) is in
`sys.modules` from the start and runs when one of its attributes is first
read, written or deleted, under one lock: a second thread waits and never
sees a half-run module.  The names below come from their submodules by
PEP 562 on first use, so a command runs, and compiles, only what it calls.
"""

import importlib.util
import sys
from _thread import RLock  # threading's RLock, without importing threading

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Backend", "EXACT", "float_backend"), "scalars"),
    **dict.fromkeys((
        "Configuration", "Direction", "Point", "SlopeClass", "convex_position_order",
        "direction", "direction_from_vector", "directions_parallel", "is_general_position",
        "orientation", "points_equal", "segments_parallel"), "geometry"),
    **dict.fromkeys((
        "Criticality", "CriticalityReport", "Forbidden", "ParallelWitness", "SlopeSpectrum",
        "classify_criticality", "forbidden_slope_table", "forbidden_slopes_at",
        "lemma1_dichotomy", "slope_spectrum"), "slopes"),
    **dict.fromkeys((
        "Applicable", "Conic", "ConicGroup", "NotApplicable", "coconic_6",
        "coconic_determinant", "conic_through_5", "group_add", "group_neg",
        "group_scalar_mul", "is_on_conic", "pascal_parallel_coconic",
        "second_intersection", "tangent_direction"), "conics"),
    **dict.fromkeys((
        "AffineMap", "RegularityCertificate", "is_affinely_regular", "korchmaros_chain",
        "normalize_to_regular", "regular_vertex", "solve_affine_map"), "regularity"),
    **dict.fromkeys((
        "GeneratorSpec", "SplitMix64", "apply_affine", "delete_vertices", "perturb",
        "random_affine_map", "random_convex_position", "random_general_position",
        "random_noncollinear", "random_with_interior_point", "regular_polygon"), "generators"),
    **dict.fromkeys((
        "CaseTag", "Certificate", "ProofCase", "Refutation", "Stage", "TheoremVerdict",
        "classify_proof_case", "reconstruct_missing_vertex", "verify_theorem"), "verifier"),
    **dict.fromkeys(("parse_point_text", "serialize_points"), "pointfile"),
    "render_svg": "render",
}

# every submodule but `cli`: runpy warns when `python -m slopespectra.cli`
# finds its module already in sys.modules
_SUBMODULES = ("_frozen", "conics", "errors", "generators", "geometry", "pointfile",
               "regularity", "render", "report", "scalars", "slopes", "verifier")

__all__ = [*_EXPORTS, *(name for name in _SUBMODULES if not name.startswith("_"))]

_Module = type(sys)
_LOCK = RLock()
_running = set()  # the submodules that the holder of _LOCK is running


class _Unrun(_Module):
    """A registered submodule that has not run: the first read, write or
    deletion of any attribute, `__dict__` included, runs it."""

    def __getattribute__(self, name):
        _run(self)
        return _Module.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        _Module.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        _Module.__delattr__(self, name)


def _run(module) -> None:
    """Run a registered submodule once, then make it a plain module.  Its own
    attribute reads while it runs (the loader's, a cyclic import's) pass; a
    run that raises leaves it unrun, as a failed import leaves no module."""
    with _LOCK:
        name = _Module.__getattribute__(module, "__name__")
        if type(module) is not _Unrun or name in _running:
            return
        _running.add(name)
        try:
            _Module.__getattribute__(module, "__spec__").loader.exec_module(module)
        finally:
            _running.discard(name)
        _Module.__setattr__(module, "__class__", _Module)


def _register(name: str) -> None:
    """Put the submodule, unrun, in sys.modules and on the package; one that
    is already there (the package reloaded) stays as it is."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        module = importlib.util.module_from_spec(importlib.util.find_spec(fullname))
        module.__class__ = _Unrun
        sys.modules[fullname] = module
    globals()[name] = module


for _name in _SUBMODULES:
    _register(_name)
del _name


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
