"""Exact rational polyhedra: strict feasibility, recession, refinement.

Everything is exact (ints, and Fractions where a value is not integral):
emptiness is read off the exact double-description
generators of the cone over the polyhedron, so "no point satisfies these strict
inequalities" is a certified answer, not a tolerance.
"""

from tropcong import polyhedra as ph
from tropcong.polyhedra import (Fan, PolyhedronH, common_refinement, feasible,
                                generators, hrep_from_rays, recession_cone,
                                relative_interior_point, row)

L = PolyhedronH.make(2, (row([1, -1], 1, "="), row([0, 1], 0, "<=")))
print("L = {x = y + 1, y <= 0}")
print("  a relative interior point:", relative_interior_point(L))
rec = recession_cone(L)
print("  recession cone rays:", generators(rec))

print("\nStrict rows are honored exactly:")
empty = PolyhedronH.make(1, (row([1], 0, "<"), row([-1], 0, "<")))
print("  {x < 0, x > 0} feasible?", feasible(empty) is not None)
strict = rec.with_rows((row([1, 0], 0, "<"), row([0, 1], 0, "<")))
print("  rec(L) meets the open negative quadrant at:", feasible(strict))

print("\nDouble description at desk scale:")
c = hrep_from_rays([(-1, 0), (0, -1)], 2)
print("  cone(-e1,-e2) facet rows:", [(tuple(map(int, r.a)), r.rel) for r in c.rows])
print("  and back to rays:", generators(c))

print("\nCommon refinement of the fans of two lines through the origin:")
def line_fan(n):
    hplus = ph.ConeH.make(2, (row([-n[0], -n[1]], 0, "<="),))
    hminus = ph.ConeH.make(2, (row(list(n), 0, "<="),))
    line = ph.ConeH.make(2, (row(list(n), 0, "="),))
    return Fan.make(2, [hplus, hminus, line])

ref = common_refinement([line_fan((1, 0)), line_fan((1, -1))])
by_dim = {}
for cone in ref.cones:
    by_dim.setdefault(ph.cone_dim(cone), 0)
    by_dim[ph.cone_dim(cone)] += 1
print("  cells by dimension:", by_dim, "(4 sectors + 4 rays + origin)")
