"""Certifying that n points with n+1 slopes are a regular (n+1)-gon minus
one vertex, up to an affine map.

The verifier runs a pipeline: size, general position, convex position,
slope count, a common conic, a unique chord-chain gap, and finally the
reconstruction of the missing vertex through the conic group.  A
certificate carries everything needed to re-check it; a refutation names
the first failing stage.

Run:  python3 demos/04_verify_theorem.py
"""

from slopespectra import (
    AffineMap,
    Certificate,
    apply_affine,
    delete_vertices,
    perturb,
    random_affine_map,
    regular_polygon,
    slope_spectrum,
    verify_theorem,
)

# The model instance: a regular octagon with one vertex removed.
instance = delete_vertices(regular_polygon(8), [0])
verdict = verify_theorem(instance)
assert isinstance(verdict, Certificate)
print("7 vertices of a regular octagon, missing (1, 0):")
print(f"  slopes: {slope_spectrum(instance).count} for {len(instance)} points")
print(f"  certificate: gap after hull position {verdict.gap_position}")
print(f"  reconstructed vertex: {verdict.missing_vertex.as_floats()}")
print(f"  residues (index -> multiple of the generator): {verdict.residues}")

# The theorem is affine-invariant, and so are the exact stages: general and
# convex position and conic degeneracy.  The float stages after them compare
# against an absolute tolerance floor, so a float verdict still depends on
# scale: images scaled by 1e-6 to 1e3 certify, while 1e6 and 1e9 are refuted
# at Reconstruction, where the group law meets that floor (ROADMAP item C1c).
image = apply_affine(instance, random_affine_map(5))
v2 = verify_theorem(image)
print(f"\nrandom affine image: {type(v2).__name__}, "
      f"vertex at {v2.missing_vertex.as_floats()}")
for scale in (1e-6, 1e3, 1e6, 1e9):
    r = verify_theorem(apply_affine(instance, AffineMap(((scale, 0.0), (0.0, scale)), (0.0, 0.0))))
    print(f"scaled by {scale:g}: {type(r).__name__}"
          + ("" if isinstance(r, Certificate) else f" at stage {r.stage.value}"))

# Negative controls: each refutation points at its stage.
for label, config in [
    ("full regular octagon", regular_polygon(8)),
    ("perturbed instance (delta = 1e-3)", perturb(instance, 1e-3, seed=7)),
    ("hexagon minus vertex (too small)", delete_vertices(regular_polygon(6), [0])),
]:
    r = verify_theorem(config)
    print(f"\n{label}:")
    print(f"  {type(r).__name__} at stage {r.stage.value}: {r.reason}")
