"""Slope spectra of planar point sets, the parallelism group law on conics,
and certified detection of configurations with one more slope than points.

The library works over two scalar backends: exact rationals (Fraction) and
tolerance-governed floats.  All types are immutable and all operations are
pure, so everything is safe for concurrent use.  The value types are plain
classes, so `dataclasses.fields`, `replace` and `asdict` do not apply.
"""

from .scalars import Backend, EXACT, float_backend
from .geometry import (
    Configuration,
    Direction,
    Point,
    SlopeClass,
    convex_position_order,
    direction,
    direction_from_vector,
    directions_parallel,
    is_general_position,
    orientation,
    points_equal,
    segments_parallel,
)
from .slopes import (
    Criticality,
    CriticalityReport,
    Forbidden,
    ParallelWitness,
    SlopeSpectrum,
    classify_criticality,
    forbidden_slope_table,
    forbidden_slopes_at,
    lemma1_dichotomy,
    slope_spectrum,
)
from .conics import (
    Applicable,
    Conic,
    ConicGroup,
    NotApplicable,
    coconic_6,
    coconic_determinant,
    conic_through_5,
    group_add,
    group_neg,
    group_scalar_mul,
    is_on_conic,
    pascal_parallel_coconic,
    second_intersection,
    tangent_direction,
)
from .regularity import (
    AffineMap,
    RegularityCertificate,
    is_affinely_regular,
    korchmaros_chain,
    normalize_to_regular,
    regular_vertex,
    solve_affine_map,
)
from .generators import (
    GeneratorSpec,
    SplitMix64,
    apply_affine,
    delete_vertices,
    perturb,
    random_affine_map,
    random_convex_position,
    random_general_position,
    random_noncollinear,
    random_with_interior_point,
    regular_polygon,
)
from .verifier import (
    CaseTag,
    Certificate,
    ProofCase,
    Refutation,
    Stage,
    TheoremVerdict,
    classify_proof_case,
    reconstruct_missing_vertex,
    verify_theorem,
)
from .pointfile import parse_point_text, serialize_points
from .render import render_svg
from . import errors

__version__ = "0.1.0"
