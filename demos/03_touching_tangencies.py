"""The axiom of touching: unique tangent circles through a point pair.

Given a circle c, a point p on it and a point q off it, exactly one
circle through p and q meets c only at p. The circles through p and q
form a one-parameter pencil per branch, lam det(Xp, h) Yq + det(Xq, h) Yp
in the frame of their sources X and targets Y, so every member holds p
and q exactly. Only c's own branch can touch c, as the other reverses
its orientation; where a member of that branch meets c is a determinant
linear in lam, so tangency at p fixes one lam, and touch certifies that
one member by its separation from p.
"""

import math

from torus_planes import (
    CircleHomeo,
    MobiusMap,
    TorusPoint,
    classical_plane,
    half_classical_plane,
)

pt = TorusPoint.from_reals
INF = math.inf

plane = classical_plane()
ident = plane.mobius_circle(MobiusMap.identity())

print("== classical examples ==")
d = plane.touch(ident, pt(0, 0), pt(1, 2))
print("tangent to the diagonal at (0,0) through (1,2):")
print(f"  {d.mobius!r}  (the map 2x/(2-x))")
points = plane.circle_intersect(ident, d)
print(f"  meets the diagonal at: {[(p.x.value(), p.y.value()) for p in points]}")
far, sep = plane.tangency_separation(ident, d, pt(0, 0))
print(f"  separation at the touch point: {sep:.2e} (band {plane.tangency_band:g})")

d2 = plane.touch(ident, pt(INF, INF), pt(0, 1))
print("\ntangent at (inf,inf) through (0,1):")
print(f"  {d2.mobius!r}  (the translation x+1)")

print("\n== half-classical plane, twist sgn(x) x^2 ==")
half = half_classical_plane(CircleHomeo.power(2))
carrier = half.join(pt(0, 0), pt(1, -1), pt(INF, INF))
p = carrier.point_at(TorusPoint.from_reals(2, 0).x)
q = pt(1, 5)
tangent = half.touch(carrier, p, q)
far, sep = half.tangency_separation(carrier, tangent, p)
print(f"carrier branch: {carrier.tag}")
print(f"tangent branch: {tangent.tag}")
print(f"separation at the touch point: {sep:.2e} (band {half.tangency_band:g})")
print("the tangent keeps the carrier's orientation: an orientation-reversing")
print("graph always crosses an orientation-preserving one at least twice.")
