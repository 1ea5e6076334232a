"""Matrix-defined primes: Phi-vectors, membership, kernels, initial forms, flags.

A k x (n+1) matrix over the extended rationals sends each monomial to a
lexicographically compared vector; a pair belongs to the prime iff the two
vectors agree.  A -inf column records the stratum of the ideal-kernel.
"""

from tropcong import ToricContext, parse_poly
from tropcong.congruence import (CongruencePresentation, PrimeMatrix,
                                 congruence_in_prime, flag_to_matrix,
                                 has_trivial_ideal_kernel, initial_form_prime,
                                 prime_eval)
from tropcong.polyhedra import make_flag

ctxB = ToricContext.affine(3, coeff="B")
lhs = parse_poly(ctxB, "x + x^2*y^2 + z^3")
rhs = parse_poly(ctxB, "x^2*z + x^2 + y")
E = CongruencePresentation.make(ctxB, [(lhs, rhs)], finite_tropical_basis=True)
print("E = <(%s, %s)> over B[x,y,z]" % (lhs, rhs))

mats = {
    "C1 (alpha=-1)":  [["-1", "-1", "-1/3"]],
    "C2":             [["-1", "0", "0"], ["0", "-1", "-1/3"]],
    "C3 (gamma=-1/2)": [["-1", "-1", "-1/2"]],
    "C4":             [["0", "0", "-1"], ["-1", "-1", "0"]],
    "all-deep P":     [[None, None, None]],
}
for name, rows in mats.items():
    theta = PrimeMatrix.from_extended_matrix(ctxB, rows)
    print("  %-15s contains E: %-5s  trivial ideal-kernel: %s"
          % (name, congruence_in_prime(E, theta), has_trivial_ideal_kernel(theta)))

ctx = ToricContext.affine(2)
f = parse_poly(ctx, "x^2 + t^1*x*y + y^2 + x^2*y^2")
Q = PrimeMatrix.from_extended_matrix(ctx, [["0", "-1", "-1"], ["1", "0", "-1"]])
print("\nOver T[x,y] with Q = ((0|-1,-1),(1|0,-1)):")
print("  Phi(f) =", prime_eval(Q, f))
print("  initial form of f at Q:", initial_form_prime(f, Q))

flag = make_flag(3, [], [[(0, -1, -1)], [(0, -1, -1), (1, 0, -1)]])
theta = flag_to_matrix(ctx, flag)
print("\nThe flag ray(0,-1,-1) <= cone{(0,-1,-1),(1,0,-1)} induces the matrix")
print("  rows:", tuple((row[0], row[1:]) for row in theta.rows),  # (height, coords)
      "(same prime as Q; rows differ by a positive")
print("  lower-triangular change, which leaves the order untouched)")
