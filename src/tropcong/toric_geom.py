"""Strata of tropical toric varieties, projections, and closures of cones.

A stratum point w is reached from a cone or polyhedron along a ray: the
witness pair (w_hat, v) satisfies lim_{N->oo} w_hat + N*v = w.  One lemma
decides membership in the closure of a cone L in R_{>=0} x N_R: L must meet
the preimage of the target under the stratum projection (claim 1) and
{0} x rel.int(tau) (claim 3).  Claim 3 does not depend on the target, so
`closure_on_stratum` computes cl(L) cap O(tau) as one cone, the projection of
L, and the closure hypothesis of `resolve` is a cover by those cones.
`cone_closure_witnesses` solves the two systems for one target's witnesses,
and `polyhedron_closure_membership` runs the lemma on the closed cone over a
polyhedron, strict rows weakened, at every stratum.  A point of N_R(sigma)
is an `ExtPoint` at height 1; `witness_soundness` checks a witness exactly on
the generators of the cone sigma^v.
"""

from __future__ import annotations

from typing import Optional

from . import polyhedra
from ._linalg import ONE, ZERO, Vec, dot, nullspace_basis, primitive, zero_vec
from ._record import _Record
from .polyhedra import (EQ, LE, LT, ConeH, Fan, HRow, PolyhedronH, cone_over,
                        feasible, hrep_from_rays, is_empty)
from .trop_core import ExtPoint, Face

CLAIM_PREIMAGE = "claim1-preimage"
CLAIM_DIRECTION = "claim3-direction"


class ClosureWitness(_Record):
    """`base` is w_hat and `direction` is v."""

    _fields = ("base", "direction")


class NotInClosure(_Record):
    _fields = ("failed_claims",)


def _preimage_rows(tau: Face, target_full: Vec, dim: int):
    """Rows pinning (id x pi_tau)(r, x) = target in R_{>=0} x N_R/tau.

    target_full = (r0, canonical coords); variables are (r, x) in R^{1+dim}.
    """
    rows = [HRow((ONE,) + zero_vec(dim), target_full[0], EQ)]
    for c in nullspace_basis(tau.rays, dim):
        rows.append(HRow((ZERO,) + tuple(c), dot(c, target_full[1:]), EQ))
    return rows


def _relint_tau_rows(tau: Face, dim: int):
    """Rows for {0} x rel.int(tau) in R^{1+dim}.

    The preimage rows of the origin put (r, x) at height 0 in span(tau),
    and the strict facet rows of tau cut out its relative interior.  For
    the zero cone they pin the origin."""
    return _preimage_rows(tau, zero_vec(1 + dim), dim) + [
        HRow((ZERO,) + tuple(r.a), ZERO, LT) for r in tau.cone().rows if r.rel != EQ]


def closure_on_stratum(L: ConeH, tau: Face) -> Optional[ConeH]:
    """cl(L) cap O(tau) for a cone L in R^{1+n}, in the (1+n) canonical
    coordinates of the stratum of tau, or None when it is empty.

    By the lemma a target lies in cl(L) iff L meets its preimage (claim 1)
    and {0} x rel.int(tau) (claim 3).  Claim 3 does not depend on the target,
    so when it holds the closure is the image of L under
    (r, x) -> (r, x mod span(tau)): the cone over the images of L's
    generators.  When it fails no target is reached."""
    n = tau.ambient
    if is_empty(L.with_rows(_relint_tau_rows(tau, n))):
        return None
    return hrep_from_rays([(g[0],) + tau.canonical(g[1:])
                           for g in polyhedra.generators(L)], 1 + n)


def cone_closure_witnesses(L: ConeH, w: ExtPoint):
    """Witnesses for a target w in cl(L) inside R_{>=0} x N_R(sigma).

    L lives in R^{1+n}, n the rank of w's context, and w sits in the stratum
    of w.tau.  Succeeds iff L meets the projection preimage of w (claim 1)
    and {0} x rel.int(tau) (claim 3); the limit property then holds
    automatically.  Returns (v, w_hat) or NotInClosure.
    """
    n = w.context.rank
    if L.dim != n + 1:
        raise polyhedra.DimensionMismatchError("cone must live in R^(1+n)")
    w_hat = feasible(L.with_rows(_preimage_rows(w.tau, w.full_vector(), n)))
    v = feasible(L.with_rows(_relint_tau_rows(w.tau, n)))
    failed = (((CLAIM_PREIMAGE,) if w_hat is None else ())
              + ((CLAIM_DIRECTION,) if v is None else ()))
    if failed:
        return NotInClosure(failed)
    return primitive(v), w_hat


def polyhedron_closure_membership(L: PolyhedronH, fan: Fan, w: ExtPoint):
    """Decide w in cl_{N_R(Sigma)}(L), for every stratum, the dense one included.

    w is a point of N_R(sigma), an ExtPoint at height 1, and off the dense
    stratum w.tau is a face of a cone of the fan (else ValueError).
    Returns a ClosureWitness (w_hat in cl(L) over w, v in rec(cl L) cap
    rel.int(tau), zero on the dense stratum) or NotInClosure naming the
    failed claims.  An empty L reaches nothing: claim 1 fails, and claim 3
    too off the dense stratum, where rec(empty) = {0} misses rel.int(tau).
    A nonempty L has the closure of its weakened description, so strict
    rows are accepted and the lemma runs on the closed cone over it.
    """
    if w.r != 1:
        raise ValueError("a point of N_R(sigma) has height 1")
    tau = w.tau
    boundary = tau.dim() != 0
    if boundary and not _tau_in_fan(tau, fan):
        raise ValueError("tau is not a face of any fan member")
    if is_empty(L):
        return NotInClosure((CLAIM_PREIMAGE, CLAIM_DIRECTION) if boundary
                            else (CLAIM_PREIMAGE,))
    res = cone_closure_witnesses(cone_over(L.weakened()), w)
    if isinstance(res, NotInClosure):
        return res
    v, w_hat = res
    return ClosureWitness(w_hat[1:], v[1:])


def _tau_in_fan(tau: Face, fan: Fan) -> bool:
    """tau is a face of a listed cone: the faces of the fan are implied, and
    a face of a face is a face."""
    tc = tau.cone()
    return any(polyhedra.is_face(tc, member) for member in fan.cones)


# ---------------------------------------------------------------------------
# witness verification (exact pairing checks on the generators of sigma^v)

def witness_soundness(v: Vec, w_hat: Vec, w: ExtPoint) -> bool:
    """Whether lim_{N->oo} w_hat + N*v = w in N_R(sigma) = Hom(sigma^v cap M, T).
    w is a height-1 point of the stratum of tau with coordinates x:
    w(u) = <u, x> on tau-perp, -inf off it.  Exact, no sampling.

    The check runs on the generators u of the cone sigma^v (extreme rays and
    +-lineality): <u, v> <= 0; <u, v> < 0 iff u is off tau-perp, where
    w(u) = -inf; and <u, v> = 0 implies <u, w_hat> = w(u).  That decides
    every u in sigma^v cap M.  The first condition puts v in sigma, so
    F_v = v-perp cap sigma^v is a face of sigma^v, and so is
    F_tau = tau-perp cap sigma^v.  A face of a cone is generated by the
    generators it contains, and by the second condition F_v and F_tau
    contain the same ones, so F_v = F_tau.  Off it <u, w_hat + N*v> falls
    to -inf = w(u); on it <u, w_hat> and w(u) = <u, x> are linear in u and
    agree on its generators, hence everywhere on it.
    """
    ctx = w.context
    dual = ConeH.make(ctx.rank, tuple(HRow(r, ZERO, LE) for r in ctx.sigma_rays))
    for u in polyhedra.generators(dual):
        pv = dot(v, u)
        if pv > 0:
            return False
        pw = w.pair((0,) + u)
        if (pv < 0) != (pw is None):
            return False
        if pv == 0 and dot(w_hat, u) != pw:
            return False
    return True
