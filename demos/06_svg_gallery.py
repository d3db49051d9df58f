"""Rendering circles, parallel classes, and orbits to SVG.

The torus is drawn as the unit square in the angle chart (0 at the
origin, infinity at 0.5 on each axis). Graphs wind once around each
factor, so polylines are split at the chart seam instead of drawing
artifacts across it. Output bytes are deterministic for fixed input.
"""

from pathlib import Path

from torus_planes import (
    DiagonalPSL,
    MobiusMap,
    ParallelClass,
    TorusPoint,
    classical_plane,
    render_svg,
)
from torus_planes.planes import MINUS, PLUS
from torus_planes.projline import ProjPoint

pt = TorusPoint.from_reals
plane = classical_plane()

objects = [
    ("circle", plane.mobius_circle(MobiusMap.identity())),
    ("circle", plane.mobius_circle(MobiusMap([[1, 1], [0, 1]]))),
    ("circle", plane.mobius_circle(MobiusMap([[0, 1], [1, 0]]))),
    ("pclass", ParallelClass(PLUS, ProjPoint.from_real(0.0))),
    ("pclass", ParallelClass(MINUS, ProjPoint.from_real(1.0))),
]

# an orbit drifting toward the attracting fixed point of a hyperbolic
# diagonal element
g = DiagonalPSL(MobiusMap([[2.0, 0.0], [0.0, 0.5]]))
orbit = [pt(0.1, 1.0)]
for _ in range(40):
    orbit.append(g.act(orbit[-1]))
objects.append(("orbit", orbit))

svg = render_svg(objects)
out = Path(__file__).resolve().parent / "gallery.svg"
out.write_text(svg, encoding="utf-8")
print(f"wrote {out} ({len(svg.splitlines())} svg elements)")
print("orbit endpoints:", [(round(p.x.value(), 4), round(p.y.value(), 4)) for p in orbit[:3]],
      "->", f"({orbit[-1].x.value():.3g}, {orbit[-1].y.value():.3g})")
print("the orbit accumulates on the diagonal's fixed pair, as the torus picture shows.")
