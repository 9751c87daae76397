"""Structural case classification of convex general-position configurations.

The chord-chain analysis splits convex configurations by which four-point
windows satisfy A_{i+1}A_{i+2} || A_i A_{i+3}.  When every window does
(Case 1), the long chords A_i A_{i+5} refine the split; when some window
fails (Case 2), the labels are canonically rotated/reflected and the split
hinges on one more parallelism.  Only Case 2.2 admits valid (n+1)-slope
configurations; everything else is structurally impossible for them.

Run:  python3 demos/05_proof_cases.py
"""

from slopespectra import (
    classify_proof_case,
    delete_vertices,
    perturb,
    random_convex_position,
    regular_polygon,
)

print(f"{'configuration':42s} {'case':8s} rotation reflected")


def show(label, config):
    c = classify_proof_case(config)
    print(f"{label:42s} {c.tag.value:8s} {c.rotation:8d} {str(c.reflected):9s}")


show("regular decagon", regular_polygon(10))
show("regular 13-gon", regular_polygon(13))
show("9-gon minus vertex 4", delete_vertices(regular_polygon(9), [4]))
show("12-gon minus vertex 0", delete_vertices(regular_polygon(12), [0]))
show("7 consecutive vertices of a 9-gon", delete_vertices(regular_polygon(9), [7, 8]))
show("9-gon minus vertices 0 and 3", delete_vertices(regular_polygon(9), [0, 3]))
show("slightly perturbed decagon", perturb(regular_polygon(10), 1e-4, seed=3))

for seed in range(3):
    cfg = random_convex_position(8, seed)
    show(f"random convex octagon (seed {seed})", cfg)

print("\nEvery single-deletion instance lands in Case2_2, matching the fact")
print("that it is the only case producing valid configurations; generic")
print("convex sets land there too, but fail the slope-count hypothesis.")
print("Two deletions need not: the 9-gon minus vertices 0 and 3 is Case2_1.")
