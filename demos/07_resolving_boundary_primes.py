"""Resolving a boundary prime to a trivial-ideal-kernel prime below it.

Given E with a finite tropical basis whose support is the closure of its
dense part, every boundary prime containing E admits a prime with trivial
ideal-kernel squeezed between E and it.  The resolver finds that prime by one
exact feasibility system per dense cell (direction v through rel.int(tau),
lifted partial sums V-hat_i, positive coefficients b_i), then verifies the
result exactly.
"""

from tropcong import ToricContext, parse_poly
from tropcong.congruence import (CongruencePresentation, PrimeMatrix,
                                 congruence_in_prime, has_trivial_ideal_kernel)
from tropcong.resolve import (ResolveFailure, cancellativity_harness,
                              resolve_boundary_prime)


def height_coords(theta):
    """The rows of a prime matrix as (height, coords) pairs."""
    return tuple((row[0], row[1:]) for row in theta.rows)


ctx = ToricContext.affine(2)
f = parse_poly(ctx, "x^2 + t^1*x*y + y^2 + x^2*y^2")
E = CongruencePresentation.bend_of(f)
P = PrimeMatrix.from_extended_matrix(ctx, [["1", None, None]])
print("E = Bend(%s), P = the boundary prime (1 | -inf, -inf)" % f)

res = resolve_boundary_prime(E, P, samples=300)
Q = res.matrix
print("  resolved matrix rows:", height_coords(Q))
print("  v =", res.v, " w_hats =", res.w_hats)
print("  E <= Q:", congruence_in_prime(E, Q),
      " trivial kernel:", has_trivial_ideal_kernel(Q),
      " refinement samples:", res.refinement_samples)

ctxB = ToricContext.affine(3, coeff="B")
EB = CongruencePresentation.make(
    ctxB, [(parse_poly(ctxB, "x + x^2*y^2 + z^3"),
            parse_poly(ctxB, "x^2*z + x^2 + y"))], finite_tropical_basis=True)
PB = PrimeMatrix.from_extended_matrix(ctxB, [[None, None, None]])
resB = resolve_boundary_prime(EB, PB, samples=300)
print("\nBoolean example: resolved rows =", height_coords(resB.matrix))

bad = CongruencePresentation.make(
    ToricContext.affine(1),
    [(parse_poly(ToricContext.affine(1), "t^1*x"), parse_poly(ToricContext.affine(1), "x"))],
    finite_tropical_basis=True)
badP = PrimeMatrix.from_extended_matrix(ToricContext.affine(1), [["1", None]])
resbad = resolve_boundary_prime(bad, badP)
print("\nWhen the support is not the closure of its dense part the resolver")
print("refuses:", isinstance(resbad, ResolveFailure) and resbad.reason)

report = cancellativity_harness(E, trials=100, max_degree=3, seed=1)
print("\nCancellativity harness on E (%d random triples):" % report.trials)
print("  products equal %d times, violations: %d"
      % (report.products_equal, len(report.violations)))
print("Zero violations is the expected consequence: S[M]/sqrt(E) is cancellative.")
