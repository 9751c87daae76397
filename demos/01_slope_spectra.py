"""Slope spectra and forbidden slopes, from squares to near-minimal sets.

Run:  python3 demos/01_slope_spectra.py
"""

from slopespectra import (
    Configuration,
    EXACT,
    classify_criticality,
    delete_vertices,
    forbidden_slopes_at,
    regular_polygon,
    slope_spectrum,
)

# The unit square: 6 segments but only 4 parallelism classes, because the
# two horizontal sides merge, the two vertical sides merge, and each
# diagonal is its own class.  Each class is a SlopeClass, built once by the
# configuration's incidence pass: a .direction and the .pairs that have it.
square = Configuration.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)], EXACT)
spec = slope_spectrum(square)
print("unit square")
print(f"  slope classes: {spec.count}")
for cls in spec.classes:
    print(f"    direction {(cls.direction.dx, cls.direction.dy)}: pairs {list(cls.pairs)}")

# At each vertex only one class is missing: the far diagonal.  The forbidden
# slopes are read from the configuration's own class table.
for i in range(4):
    missing = forbidden_slopes_at(square, i)
    print(f"  forbidden at vertex {i}: {[(d.dx, d.dy) for d in missing]}")

# Points on the parabola y = x^2: the chord through parameters s and t has
# slope s + t, so parameters 0..3 realize slopes 1..5.
parabola = Configuration.from_coords(
    [(t, t * t) for t in range(4)], EXACT)
pspec = slope_spectrum(parabola)
print("\nparabola t in {0,1,2,3}")
print(f"  slope classes: {pspec.count} ->",
      [(c.direction.dx, c.direction.dy) for c in pspec.classes])

# A regular m-gon is the minimal general-position configuration: m points,
# m slopes.  Deleting one vertex keeps all m classes alive, so the count
# exceeds the point count by one: the hypothesis of the main theorem.
for m in (8, 12):
    full = regular_polygon(m)
    print(f"\nregular {m}-gon: "
          f"{slope_spectrum(full).count} slopes for {m} points "
          f"-> {classify_criticality(full).verdict.value}")
    cut = delete_vertices(full, [0])
    print(f"  minus a vertex: {slope_spectrum(cut).count} slopes for "
          f"{len(cut)} points -> {classify_criticality(cut).verdict.value}")

# A regular hexagon with its own center is the classical *critical* set:
# n points with only n-1 slopes (the center lies on the three long
# diagonals, adding no new class).
import math

hexagon = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
from slopespectra import float_backend

crit = Configuration.from_coords(hexagon + [(0.0, 0.0)], float_backend())
report = classify_criticality(crit)
print(f"\nhexagon + center: {report.count} slopes for {report.n} points "
      f"-> {report.verdict.value} (general position: {report.general_position})")
