"""Points of the projective line and Mobius transformations.

Each torus factor is RP^1 in homogeneous coordinates, so infinity is an
ordinary point and never needs a special case. This script walks the
basic toolkit: evaluating maps, solving the three-point problem, the
two-point family, and fixed-point classification. Maps through point
pairs have one frame form: the two-point family's members, and the
three-point solution as the member that the third pair picks.
"""

import math

from torus_planes import (
    MobiusMap,
    ProjPoint,
    TwoPointFamily,
    chordal,
    mobius_fixed_points,
    mobius_from_three,
)

P = ProjPoint.from_real
INF = ProjPoint.infinity()

print("== points ==")
p = P(0.75)
print(f"0.75 is stored as [{p.h0:.6f} : {p.h1:.6f}] with chart {p.chart():.4f}")
print(f"infinity is [{INF.h0:g} : {INF.h1:g}] at chart {INF.chart()}")
print(f"chordal(1e12, inf) = {chordal(P(1e12), INF):.2e}  (the seam is harmless)")

print("\n== applying maps ==")
m = MobiusMap([[2, 1], [1, 1]])
print(f"[[2,1],[1,1]] sends 1 to {m.apply(P(1)).value():g}")
print(f"           and inf to {m.apply(INF).value():g}")
print(f"orientation (sign of det): {m.orientation:+d}")

print("\n== the three-point problem ==")
solved = mobius_from_three(P(0), P(1), INF, P(1), P(2), P(3))
print("the unique map with 0->1, 1->2, inf->3: with det(X, h) = X0 h1 - X1 h0, it is")
print("the frame member h -> lam det(0, h) 2 + det(1, h) 1, which sends 0 -> 1 and")
print("1 -> 2 for every lam != 0; inf -> 3 fixes lam:")
print(f"  matrix {solved.m.round(6).tolist()}")
for x in (0.0, 1.0, math.inf, 5.0):
    print(f"  {x:g} -> {solved.apply(P(x)).value():g}")

print("\n== the two-point family ==")
fam = TwoPointFamily(P(0), P(1), INF, P(2))
print("all members send 0 -> 1 and inf -> 2; one parameter remains.")
print("in the frame Xp = 0, Xq = inf, Yp = 1, Yq = 2, with det(X, h) = X0 h1 - X1 h0,")
print("member lam is h -> lam det(Xp, h) Yq + det(Xq, h) Yp; det(Xp, Xp) and")
print("det(Xq, Xq) are exactly 0, so the anchors land on their targets exactly.")
print("the sign of lam sets the orientation; member(t, +1) takes the lam = +-t with det > 0:")
for t in (0.5, 1.0, 2.0):
    member = fam.member(t, 1)
    print(f"  t={t:g}: 0 -> {member.apply(P(0)).value():g}, inf -> {member.apply(INF).value():g},"
          f" 1 -> {member.apply(P(1)).value():.6g}, det sign {member.orientation:+d}")

print("\n== fixed points ==")
for label, matrix in [
    ("translation x+1 (parabolic)", [[1, 1], [0, 1]]),
    ("scaling 4x (hyperbolic)", [[2, 0], [0, 0.5]]),
    ("quarter turn (elliptic)", [[0, -1], [1, 0]]),
]:
    pts = mobius_fixed_points(MobiusMap(matrix))
    values = [f"{q.value():g}" for q in pts]
    print(f"  {label}: {values if values else 'no real fixed points'}")
