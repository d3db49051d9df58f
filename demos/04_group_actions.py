"""The automorphism families and their fixed configurations.

Five parametrized families act on torus points: the two one-factor
kernels, the diagonal action, and the affine families PhiStd /
PhiTwoFixed. A sixth family (rotation x affine) is known only through
its induced actions on the parallel-class sets: like every family it has
factor maps, `factor_homeos()`, but it has no point action.
"""

import math

from torus_planes import (
    Case3Element,
    CircleHomeo,
    DiagonalPSL,
    KernelMinusPSL,
    KernelPlusPSL,
    MobiusMap,
    PhiStd,
    PhiTwoFixed,
    TorusPoint,
    diagonal_transitivity_witness,
    half_classical_plane,
    induced_factor_action,
)

pt = TorusPoint.from_reals
INF = math.inf

print("== the five point-acting families ==")
mu = MobiusMap([[2, 1], [1, 1]])
samples = [
    KernelPlusPSL(mu),
    KernelMinusPSL(mu),
    DiagonalPSL(mu),
    PhiStd(2, 2, 3, 1),
    PhiTwoFixed(-1, 2, 3, 1),
]
p = pt(4, 3)
for g in samples:
    image = g.act(p)
    print(f"  {g!r} sends (4,3) to ({image.x.value():g}, {image.y.value():g})")

print("\n== composition laws are closed-form in the parameters ==")
g1, g2 = PhiTwoFixed(-1, 1, 2, 0), PhiTwoFixed(-1, 3, 1, 5)
comp = g1.compose(g2)
print(f"  {g1!r} after {g2!r}")
print(f"  = {comp!r}  (checked pointwise against double application)")

print("\n== common fixed points of the affine families ==")
for d in (0.0, -1.0, -2.0):
    g = PhiTwoFixed(d, 2, 3, 1)
    print(f"  PhiTwoFixed(d={d:g}) fixes (inf,inf) and (0,inf) for every parameter choice")
    for fixed in (pt(INF, INF), pt(0, INF)):
        image = g.act(fixed)
        assert image.x.value() == fixed.x.value() and image.y.value() == fixed.y.value()
print("  PhiStd(d) fixes exactly (inf,inf); single elements may fix more,")
print("  which is why the verification intersects over a family sample.")

print("\n== induced actions on the parallel-class sets ==")
for g, side in [
    (KernelPlusPSL(mu), "plus"),
    (PhiStd(3, 2, 0, 0), "plus"),
    (PhiTwoFixed(-1, 1, 2, 1), "minus"),
]:
    _, report = induced_factor_action(g, side)
    fixed = "every class" if report.fixes_every_class else [
        f"{c.coordinate.value():g}" for c in report.fixed_classes
    ]
    print(f"  {g!r} on the {side} side: {report.action_kind}, fixes {fixed}")

print("\n== transitivity off the diagonal ==")
src, dst = pt(0, 1), pt(2, -3)
witness = diagonal_transitivity_witness(src, dst)
image = witness.act(src)
print(f"  a det>0 diagonal element sends (0,1) to ({image.x.value():g}, {image.y.value():g})")

print("\n== kernels against the twisted plane ==")
half = half_classical_plane(CircleHomeo.power(2))
circle = half.join(pt(0, 0), pt(1, -1), pt(INF, INF))
g_good = KernelPlusPSL(MobiusMap([[1, 1], [0, 1]]))
g_bad = KernelMinusPSL(MobiusMap([[1, 1], [0, 1]]))
for g, label in ((g_good, "kernel-plus"), (g_bad, "kernel-minus")):
    triple = [circle.point_at(TorusPoint.from_reals(v, 0).x) for v in (0.3, 1.7, -2.0)]
    image = half.join(*(g.act(s) for s in triple))
    from torus_planes import ProjPoint

    worst = max(
        half.membership_residual(image, g.act(circle.point_at(ProjPoint.from_chart(t / 16))))
        for t in range(16)
    )
    verdict = "an automorphism" if worst < 1e-8 else f"NOT an automorphism (residual {worst:.1e})"
    print(f"  translation on the {label} side is {verdict}")

print("\n== the factor-action-only family ==")
e = Case3Element(math.pi / 3, 2.0, 1.0)
f = Case3Element(math.pi / 6, 1.0, -1.0)
print(f"  {e!r} composed with {f!r}")
print(f"  = {e.compose(f)!r}")
print(f"  point action available: {hasattr(e, 'act')} (none is known)")
for side in ("plus", "minus"):
    _, report = induced_factor_action(e, side)
    print(f"  induced action on the {side} side: {report.action_kind}")
