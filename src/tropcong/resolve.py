"""Resolution of boundary primes to trivial-ideal-kernel primes, and a
cancellativity harness.

The resolution replaces the generic-epsilon argument of the existence proof by
one exact feasibility system per dense-stratum cell (partial sums of the flag
rows, strictly positive combination coefficients, a direction through the
relative interior of tau), followed by verification of the produced matrix.
The matrix of a feasible cell contains E and refines P by construction, so a
failed verification raises InternalConsistencyError; running out of cells
means that every cell's system is infeasible.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from . import polyhedra
from ._linalg import ONE, ZERO, dot, primitive, qdiv, rank_of, vscale, vsub, zero_vec
from ._record import _Record
from .polyhedra import (EQ, LT, ConeH, EmptyPolyhedronError, FlagOfCones, HRow,
                        PolyhedronH, poly_in_union, relative_interior_point)
from .trop_core import COEFF_B, Face, ToricContext, TropPoly
from .congruence import (CongruencePresentation, PrimeMatrix, congruence_in_prime,
                         flag_to_matrix, has_trivial_ideal_kernel, monomial_le)
from .toric_geom import _preimage_rows, _relint_tau_rows, closure_on_stratum
from .variety import (FiniteBasisRequiredError, InternalConsistencyError,
                      VarietySupport, flag_in_variety, functions_equal_on_variety,
                      shrink_flag, stratum_cone, support_of)

# ---------------------------------------------------------------------------
# resolution

class ResolutionResult(_Record):
    _fields = ("matrix", "cone", "v", "v_hats", "b", "w_hats", "refinement_samples")


class ResolveFailure(_Record):
    """`reason` is not_contained, closure_hypothesis_violated or no_feasible_cone."""

    _fields = ("reason", "detail")


NOT_CONTAINED = "not_contained"
CLOSURE_VIOLATED = "closure_hypothesis_violated"
NO_FEASIBLE_CONE = "no_feasible_cone"


def _flag_from_matrix(context: ToricContext, theta: PrimeMatrix) -> FlagOfCones:
    pts = []
    for p in theta.rows:
        if rank_of(pts + [p]) > len(pts):  # a row in the span of earlier rows breaks no tie
            pts.append(p)
    if not pts:
        if context.coeff != COEFF_B:
            raise ValueError("matrix has no nonzero rows; it defines no flag")
        # over B the height coordinate is inert, so the height ray is equivalent
        pts = [(ONE,) + zero_vec(context.rank)]
    cones = []
    acc = []
    for p in pts:
        acc.append(p)
        cones.append(tuple(acc))
    return polyhedra.make_flag(context.rank + 1, theta.tau.rays, cones)


def verify_closure_hypothesis(V: VarietySupport) -> Optional[str]:
    """The closure hypothesis: every boundary cell lies in the closure of the
    dense part, or a message naming the stratum of one that does not.

    The dense part is a finite union of cells L, so its closure meets the
    stratum of tau in the union of the cones `closure_on_stratum(L, tau)`.
    Each boundary cell is one exact `poly_in_union` against that union, under
    the cover budget (CoverBudgetExceeded past it)."""
    dense = V.stratum(V.context.dense_face).cells
    for sup in V.strata:
        tau = sup.tau
        if tau.dim() == 0 or not sup.cells:
            continue
        closures = [c for c in (closure_on_stratum(L, tau) for L in dense)
                    if c is not None]
        for cell in sup.cells:
            if not poly_in_union(cell, closures):
                return ("boundary cell in stratum with rays %r is not a limit of "
                        "the dense part" % (tau.rays,))
    return None


def resolve_boundary_prime(E: CongruencePresentation,
                           P: Union[PrimeMatrix, FlagOfCones],
                           sample_degree: int = 6,
                           samples: int = 500,
                           seed: int = 0):
    """Produce a trivial-ideal-kernel prime Q with E <= Q <= P (the latter sampled).

    Follows the constructive existence argument: pick a flag for P inside the
    support of E, then solve one feasibility system per dense cell in the
    unknowns (V-hat_i, b_i, v) with partial-sum projection constraints.  Each
    candidate Q lies on the dense stratum, so its ideal-kernel is trivial.
    Containment E <= P is checked first, on every path: a P with trivial
    ideal-kernel that contains E is its own resolution."""
    if not E.finite_tropical_basis:
        raise FiniteBasisRequiredError("resolution needs a declared finite tropical basis")
    ctx = E.context
    if isinstance(P, FlagOfCones):
        theta = flag_to_matrix(ctx, P)
        flag = P
    else:
        theta = P
        flag = _flag_from_matrix(ctx, P)
    if not congruence_in_prime(E, theta):
        return ResolveFailure(NOT_CONTAINED, "E is not contained in P")
    if has_trivial_ideal_kernel(theta):
        return ResolutionResult(theta, stratum_cone(ctx, ctx.dense_face),
                                (), (), (), theta.rows, 0)
    V = support_of(E)
    bad = verify_closure_hypothesis(V)
    if bad is not None:
        return ResolveFailure(CLOSURE_VIOLATED, bad)
    if not flag_in_variety(ctx, flag, V):
        flag = shrink_flag(ctx, flag, E)
        if not flag_in_variety(ctx, flag, V):  # shrink_flag's output lies in V~(E)
            raise InternalConsistencyError("the shrunk flag is not inside the support")
    theta_flag = flag_to_matrix(ctx, flag)
    k = len(theta_flag.rows) - 1
    dense = V.stratum(ctx.dense_face).cells
    for L in dense:
        sol = _resolution_system(ctx, L, theta_flag.tau, theta_flag.rows)
        if sol is None:
            continue
        v, v_hats, bs = sol
        w_hats = [v_hats[0]]
        for i in range(1, k + 1):
            w_hats.append(vscale(qdiv(ONE, bs[i - 1]), vsub(v_hats[i], v_hats[i - 1])))
        # Q's rows lie in the cell L of V~(E) and project onto the flag of P
        Q = PrimeMatrix.make(ctx, ctx.dense_face, [v] + w_hats)
        if not congruence_in_prime(E, Q):
            raise InternalConsistencyError("the constructed prime does not contain E")
        ok, checked = _sampled_refinement(ctx, Q, theta, random.Random(seed), samples,
                                          sample_degree)
        if not ok:
            raise InternalConsistencyError("the constructed prime does not refine P")
        return ResolutionResult(Q, L, v, tuple(v_hats), tuple(bs), tuple(w_hats), checked)
    return ResolveFailure(NO_FEASIBLE_CONE,
                          "no dense cell admits a feasible system (%d tried)" % len(dense))


def _resolution_system(ctx, L: ConeH, tau: Face, w_rows):
    """Feasibility in unknowns (V0..Vk in L, b_1..b_k > 0, v in L cap {0} x rel.int tau).

    pi_tau(V_i) = w_0 + sum_{j<=i} b_j w_j; returns (v, (V_i,), (b_j,)) or None."""
    n = ctx.rank
    k = len(w_rows) - 1
    d = 1 + n
    off_b = (k + 1) * d
    off_v = off_b + k
    nvars = off_v + d  # V-hats, b's, v

    def place(a, offset):
        out = [ZERO] * nvars
        out[offset:offset + len(a)] = a
        return out

    rows = [HRow(tuple(place(r.a, off)), ZERO, r.rel)
            for off in [i * d for i in range(k + 1)] + [off_v] for r in L.rows]
    # v: height zero and rel.int tau
    rows += [HRow(tuple(place(r.a, off_v)), r.b, r.rel)
             for r in _relint_tau_rows(tau, n)]
    # b_j > 0
    rows += [HRow(tuple(place((-ONE,), off_b + j)), ZERO, LT) for j in range(k)]
    # projection constraints: <r.a, V_i> - sum_{j<=i} b_j <r.a, w_j> = <r.a, w_0>
    # for the rows r pinning pi_tau (height exactly, coords modulo span(tau))
    for i in range(k + 1):
        for r in _preimage_rows(tau, w_rows[0], n):
            out = place(r.a, i * d)
            for j in range(1, i + 1):
                out[off_b + j - 1] = -dot(r.a, w_rows[j])
            rows.append(HRow(tuple(out), r.b, EQ))
    try:
        x = relative_interior_point(PolyhedronH.make(nvars, rows))
    except EmptyPolyhedronError:
        return None
    v_hats = [x[i * d:(i + 1) * d] for i in range(k + 1)]
    bs = [x[off_b + j] for j in range(k)]
    v = primitive(x[off_v:off_v + d])
    return v, v_hats, bs


def _sampled_refinement(ctx, Q: PrimeMatrix, P: PrimeMatrix, rng, samples, degree):
    """m1 <=_Q m2 implies m1 <=_P m2 on random monomials (both directions, so
    Q-equivalence implies P-equivalence as well)."""
    checked = 0
    for m1, m2 in _sample_monomial_pairs(ctx, rng, samples, degree):
        checked += 1
        for a, b in ((m1, m2), (m2, m1)):
            if monomial_le(Q, a, b) and not monomial_le(P, a, b):
                return False, checked
    return True, checked


def _sample_monomial_pairs(context: ToricContext, rng, count: int, degree: int):
    out = []
    exponents = _random_exponents(context, rng, degree)
    for _ in range(count):
        pair = []
        for _ in range(2):
            u = next(exponents)
            a = ZERO if context.coeff == COEFF_B else rng.randint(-4, 4)
            pair.append(TropPoly.make(context, {u: a}))
        out.append(tuple(pair))
    return out


def _random_exponents(ctx: ToricContext, rng, d: int):
    """Endless random exponents of the monoid: entries uniform in [0, d] on the
    affine preset and in [-d, d] otherwise, redrawn until the exponent lies in
    sigma^v (0 does, so the redraws end)."""
    lo = 0 if ctx.is_affine_preset() else -d
    inside = lo == 0 or ctx.is_torus()  # the whole box lies in sigma^v
    while True:
        u = tuple(rng.randint(lo, d) for _ in range(ctx.rank))
        if inside or ctx.exponent_in_monoid(u):
            yield u


# ---------------------------------------------------------------------------
# cancellativity harness

class CancellativityReport(_Record):
    _fields = ("trials", "products_equal", "violations")


def cancellativity_harness(E: CongruencePresentation, trials: int = 200,
                           max_degree: int = 3, seed: int = 0) -> CancellativityReport:
    """Random (g, f1, f2): whenever g*f1 = g*f2 as functions on the support and g
    is not identically bottom there, f1 = f2 must follow."""
    if not E.finite_tropical_basis:
        raise FiniteBasisRequiredError("harness needs a declared finite tropical basis")
    V = support_of(E)
    bad = verify_closure_hypothesis(V)
    if bad is not None:
        raise ValueError("closure hypothesis fails: " + bad)
    if not any(s.cells for s in V.strata):  # else no g counts and the loop never ends
        raise ValueError("the support has no cell: no g is non-bottom on it")
    ctx = E.context
    rng = random.Random(seed)
    products_equal = 0
    violations = []
    exponents = _random_exponents(ctx, rng, max_degree)
    done = 0
    while done < trials:
        g, f1, f2 = (_random_poly(ctx, rng, exponents) for _ in range(3))
        if g.is_zero() or not _nonzero_on_support(g, V):
            continue
        done += 1
        if functions_equal_on_variety(g * f1, g * f2, V):
            products_equal += 1
            if not functions_equal_on_variety(f1, f2, V):
                violations.append((str(g), str(f1), str(f2)))
    return CancellativityReport(done, products_equal, tuple(violations))


def _nonzero_on_support(g: TropPoly, V: VarietySupport) -> bool:
    for sup in V.strata:
        if not sup.cells:
            continue
        if not g.restrict(sup.tau).is_zero():
            return True
    return False


def _random_poly(ctx, rng, exponents) -> TropPoly:
    terms = []
    for _ in range(rng.randint(1, 3)):
        u = next(exponents)
        terms.append((u, ZERO if ctx.coeff == COEFF_B else rng.randint(-3, 3)))
    return TropPoly.make(ctx, terms)
