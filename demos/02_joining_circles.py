"""Joining three points on classical and half-classical planes.

Circles of a toroidal circle plane are graphs of circle homeomorphisms.
The classical plane takes all of PGL(2, R); a half-classical plane keeps
the orientation-preserving half and twists the reversing half through a
homeomorphism f. Joining picks its branch from the sign of one
determinant, so the decision is discrete, never a tolerance call.
"""

import math

from torus_planes import (
    CircleHomeo,
    MobiusMap,
    ProjPoint,
    TorusPoint,
    classical_plane,
    half_classical_plane,
)

pt = TorusPoint.from_reals
INF = math.inf

print("== classical joins ==")
plane = classical_plane()
for triple in [
    (pt(0, 0), pt(1, 1), pt(INF, INF)),
    (pt(0, 1), pt(1, 0), pt(INF, INF)),
]:
    circle = plane.join(*triple)
    label = ", ".join(f"({p.x.value():g},{p.y.value():g})" for p in triple)
    print(f"join {label}")
    print(f"  branch {circle.tag}, orientation {circle.mobius.orientation:+d}")
    print(f"  residuals: {[f'{plane.membership_residual(circle, p):.1e}' for p in triple]}")

print("\n== half-classical joins, twist f(x) = sgn(x) x^2 ==")
half = half_classical_plane(CircleHomeo.power(2))
for triple in [
    (pt(0, 0), pt(1, 1), pt(INF, INF)),    # orientation preserved: PSL branch
    (pt(0, 0), pt(1, -1), pt(INF, INF)),   # orientation reversed: twisted branch
]:
    circle = half.join(*triple)
    label = ", ".join(f"({p.x.value():g},{p.y.value():g})" for p in triple)
    branches = half.join_branches(*triple)
    valid = [name for name, (m, ok) in branches.items() if ok]
    print(f"join {label}")
    print(f"  branch {circle.tag}; valid branches: {valid}")
    print(f"  graph at x=2: {circle.graph.apply(ProjPoint.from_real(2.0)).value():g}")

print("\nthe twisted circle through (0,0),(1,-1),(inf,inf) is the graph of -sgn(x) x^2:")
circle = half.join(pt(0, 0), pt(1, -1), pt(INF, INF))
for x in (-3.0, -1.0, 0.5, 2.0):
    print(f"  x={x:g}: y={circle.graph.apply(ProjPoint.from_real(x)).value():g}")

print("\n== intersections ==")
ident = plane.mobius_circle(MobiusMap.identity())
for label, other in [
    ("x + 1 (tangent at infinity)", plane.mobius_circle(MobiusMap([[1, 1], [0, 1]]))),
    ("1 / x (two crossings)", plane.mobius_circle(MobiusMap([[0, 1], [1, 0]]))),
    ("2 x   (crossings at 0 and infinity)", plane.mobius_circle(MobiusMap([[2, 0], [0, 1]]))),
]:
    points = plane.circle_intersect(ident, other)
    coords = [f"({p.x.value():g},{p.y.value():g})" for p in points]
    print(f"  identity vs {label}: {coords}")

print("\n== a mixed-branch intersection, twist f(x) = sgn(x) x^2 ==")
# a PSL circle against a twisted one: their graphs meet at the two fixed
# points of an orientation-reversing map, one on each arc between a point
# and its image, so two brackets hold both crossings
psl = half.join(pt(0, 1), pt(1, 2), pt(3, 4))
twisted = half.join(pt(0, 0), pt(1, -1), pt(2, -3))
points = half.circle_intersect(psl, twisted)
coords = [f"({p.x.value():.6g},{p.y.value():.6g})" for p in points]
residual = max(half.membership_residual(c, p) for c in (psl, twisted) for p in points)
print(f"  {psl.tag} vs {twisted.tag}: {coords}")
print(f"  largest membership residual on either circle: {residual:.1e}")
