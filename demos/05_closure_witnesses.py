"""Closure of a polyhedron in a tropical toric variety, with limit witnesses.

A boundary point w is in the closure of L iff (1) some point of L projects
onto w in the stratum quotient and (3) the recession cone of L meets the
relative interior of tau at height zero; then w_hat + N*v walks to w.
"""

from tropcong import ExtPoint, ToricContext
from tropcong.polyhedra import Fan, PolyhedronH, row
from tropcong.toric_geom import polyhedron_closure_membership, witness_soundness

ctx = ToricContext.affine(2)
fan = Fan.make(2, [ctx.sigma])
L = PolyhedronH.make(2, (row([1, -1], 1, "="), row([0, 1], 0, "<=")))
deep = ExtPoint.make(ctx, 1, ctx.deep_face, (0, 0))

res = polyhedron_closure_membership(L, fan, deep)
print("L = {x = y + 1, y <= 0}, target = the deep point (-inf, -inf):")
print("  w_hat =", res.base, " v =", res.direction)
print("  generator pairings sound:",
      witness_soundness(res.direction, res.base, deep))

line = PolyhedronH.make(2, (row([1, 1], 0, "="),))
res2 = polyhedron_closure_membership(line, fan, deep)
print("\nThe line {x + y = 0} cannot reach the deep point:")
print(" ", res2)

pt = PolyhedronH.make(2, (row([1, 0], 2, "="), row([0, 1], 3, "=")))
tau = ctx.face_from_rays([(-1, 0)])
res3 = polyhedron_closure_membership(pt, fan, ExtPoint.make(ctx, 1, tau, (2, 3)))
print("\nA single point has recession {0}, so it reaches no boundary stratum:")
print(" ", res3)
