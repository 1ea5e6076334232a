"""Tropical polynomials and their evaluation at extended points.

Values live in the semifield (Q u {-inf}, max, +): an exact number, or None
for -inf.  Polynomials live over a toric monoid M = sigma-dual cap Z^n and are
evaluated at points (r, x) of R_{>=0} x N_R(sigma), where boundary strata send
exponents outside tau-perp to -inf.
"""

from tropcong import (ExtPoint, ToricContext, bend_relations, initial_form_point,
                      parse_poly)


def show(value):
    return "-inf" if value is None else value


ctx = ToricContext.affine(2)
f = parse_poly(ctx, "x^2 + t^1*x*y + y^2 + x^2*y^2")
print("f =", f)

w = ExtPoint.dense(ctx, 1, (0, -1))
print("\nAt the dense point (r=1, x=(0,-1)):")
print("  f~(w) =", show(f.evaluate(w)), " (the x^2 and t*x*y terms tie at 0)")
print("  init_w(f) =", initial_form_point(f, w))

deep = ExtPoint.make(ctx, 1, ctx.deep_face, (0, 0))
print("\nAt the deep stratum point (r=1, all coordinates at -inf):")
print("  f~(w) =", show(f.evaluate(deep)), " (every exponent dies, value is bottom)")

ray = ctx.face_from_rays([(-1, 0)])
wb = ExtPoint.make(ctx, 1, ray, (0, -3))
print("\nOn the stratum where x dies, only the y^2 term survives:")
print("  f~(w) =", show(f.evaluate(wb)))

print("\nSemiring arithmetic is idempotent:")
g = parse_poly(ctx, "1 + x")
print("  (1+x)*(1+x) =", g * g)
print("  (x+1) + x   =", parse_poly(ctx, "x + 1") + parse_poly(ctx, "x"))

print("\nBend relations of f (one pair per deleted term):")
for lhs, rhs in bend_relations(f):
    print("  (f, %s)" % rhs)
