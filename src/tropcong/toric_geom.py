"""Strata of tropical toric varieties, projections, and closure witnesses.

A boundary point is reached from a cone or polyhedron along a ray: the witness
pair (w_hat, v) satisfies lim_{N->oo} w_hat + N*v = w.  Membership in the
closure reduces to two exact feasibility questions (the preimage of the target
under the stratum projection, and a height-zero direction through the relative
interior of tau).
"""

from __future__ import annotations

from typing import Sequence

from . import polyhedra
from ._linalg import (ONE, ZERO, Vec, dot, frac, nullspace_basis, primitive,
                      vec, zero_vec)
from ._record import _Record
from .polyhedra import (EQ, LT, ConeH, EmptyPolyhedronError, Fan, HRow,
                        PolyhedronH, cone_over, recession_cone,
                        relative_interior_point)
from .trop_core import ExtPoint, Face, ToricContext

CLAIM_PREIMAGE = "claim1-preimage"
CLAIM_DIRECTION = "claim3-direction"


class StratumPoint(_Record):
    """Class of a point of N_R(sigma): face tau plus canonical coords mod span(tau)."""

    _fields = ("context", "tau", "coords")

    def __init__(self, context: ToricContext, tau: Face, coords: Vec):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def make(context: ToricContext, tau: Face, coords) -> "StratumPoint":
        return StratumPoint(context, tau, tau.canonical(coords))

    def pair(self, u: Sequence):
        if not self.tau.perp_contains(u):
            return None
        return dot(self.coords, u)


class ClosureWitness(_Record):
    _fields = ("base", "direction")

    def __init__(self, base: Vec, direction: Vec):
        object.__setattr__(self, "base", base)  # w_hat
        object.__setattr__(self, "direction", direction)  # v


class NotInClosure(_Record):
    _fields = ("failed_claims",)

    def __init__(self, failed_claims: tuple):
        object.__setattr__(self, "failed_claims", failed_claims)


def project_to_stratum(context: ToricContext, x: Sequence, tau: Face) -> StratumPoint:
    """Quotient map pi_tau: N_R -> N_R / span(tau), canonical representative."""
    if tau not in context.faces:
        raise ValueError("tau is not a face of sigma")
    return StratumPoint.make(context, tau, x)


def _preimage_rows(tau: Face, target_full: Vec, dim: int):
    """Rows pinning (id x pi_tau)(r, x) = target in R_{>=0} x N_R/tau.

    target_full = (r0, canonical coords); variables are (r, x) in R^{1+dim}.
    """
    rows = [HRow((ONE,) + zero_vec(dim), target_full[0], EQ)]
    for c in nullspace_basis(tau.rays, dim):
        rows.append(HRow((ZERO,) + tuple(c), dot(c, target_full[1:]), EQ))
    return rows


def _relint_tau_rows(tau: Face, dim: int, height_prefix: bool):
    """Rows for {0} x rel.int(tau) (or rel.int(tau) alone if no height coordinate).

    For the zero cone the nullspace of no rays is spanned by every unit
    vector, so the rows pin the origin."""
    pre = 1 if height_prefix else 0
    rows = []
    if height_prefix:
        rows.append(HRow((ONE,) + zero_vec(dim), ZERO, EQ))

    def lift(a):
        return (zero_vec(pre) + tuple(a)) if pre else tuple(a)

    for c in nullspace_basis(tau.rays, dim):
        rows.append(HRow(lift(c), ZERO, EQ))
    for r in tau.cone().rows:
        if r.rel == EQ:
            continue
        rows.append(HRow(lift(r.a), ZERO, LT))
    return rows


def cone_closure_witnesses(context: ToricContext, L: ConeH, tau: Face,
                           targets: Sequence[ExtPoint]):
    """Witnesses for targets in cl(L) inside R_{>=0} x N_R(sigma).

    L lives in R^{1+n}; every target must sit in the stratum of tau.  Succeeds
    iff L meets every projection preimage and {0} x rel.int(tau); the limit
    property then holds automatically.
    """
    n = context.rank
    if L.dim != n + 1:
        raise polyhedra.DimensionMismatchError("cone must live in R^(1+n)")
    for w in targets:
        if w.tau != tau:
            raise ValueError("all targets must lie in the stratum of tau")
    failed = []
    hats = []
    for w in targets:
        sysm = L.with_rows(tuple(_preimage_rows(tau, w.full_vector(), n)))
        try:
            hats.append(relative_interior_point(sysm))
        except EmptyPolyhedronError:
            failed.append(CLAIM_PREIMAGE)
            hats.append(None)
    vsys = L.with_rows(tuple(_relint_tau_rows(tau, n, height_prefix=True)))
    v = None
    try:
        v = primitive(relative_interior_point(vsys))
    except EmptyPolyhedronError:
        failed.append(CLAIM_DIRECTION)
    if failed:
        return NotInClosure(tuple(sorted(set(failed))))
    return v, tuple(hats)


def polyhedron_closure_membership(context: ToricContext, L: PolyhedronH,
                                  fan: Fan, w: StratumPoint):
    """Decide w in cl_{N_R(Sigma)}(L).

    For a boundary stratum point this returns a ClosureWitness (w_hat in L,
    v in rec(L) cap rel.int(tau)) or NotInClosure naming the failed claims,
    via the closed cone over L.  A dense-stratum point only needs ordinary
    closed-polyhedron membership; the direction degenerates to zero.
    """
    n = context.rank
    tau = w.tau
    if tau.dim() == 0:
        if L.weakened().contains(w.coords):
            return ClosureWitness(w.coords, zero_vec(n))
        return NotInClosure((CLAIM_PREIMAGE,))
    if not _tau_in_fan(tau, fan):
        raise ValueError("tau is not a face of any fan member")
    C = cone_over(L)
    failed = []
    # claim 1: a point of L (+ its recession) over the target class
    target = (ONE,) + w.coords
    sysm = C.with_rows(tuple(_preimage_rows(tau, target, n)))
    w_hat = None
    try:
        w_hat = relative_interior_point(sysm)[1:]
    except EmptyPolyhedronError:
        failed.append(CLAIM_PREIMAGE)
    # claim 3: rec(L) cap rel.int(tau)
    rec = recession_cone(L)
    vsys = rec.with_rows(tuple(_relint_tau_rows(tau, n, height_prefix=False)))
    v = None
    try:
        v = primitive(relative_interior_point(vsys))
    except EmptyPolyhedronError:
        failed.append(CLAIM_DIRECTION)
    if failed:
        return NotInClosure(tuple(sorted(set(failed))))
    return ClosureWitness(vec(w_hat), v)


def _tau_in_fan(tau: Face, fan: Fan) -> bool:
    tc = tau.cone() if tau.rays else polyhedra.origin_cone(fan.dim)
    return any(polyhedra.is_face(tc, member) for member in fan.cones)


# ---------------------------------------------------------------------------
# witness verification (exact pairing checks on monoid generators)

def witness_soundness(context: ToricContext, tau: Face, v: Vec, w_hat: Vec,
                      w: StratumPoint) -> bool:
    """For every monoid generator u: <u,v> < 0 iff <u,w> = -inf, and
    <u,v> = 0 implies <u,w_hat> = <u,w>.  Exact, no sampling."""
    for u in context.monoid_generators:
        pv = dot(v, u)
        pw = w.pair(u)
        if (pv < 0) != (pw is None):
            return False
        if pv == 0 and dot(w_hat, u) != pw:
            return False
    return True


def limit_approach_check(context: ToricContext, tau: Face, v: Vec, w_hat: Vec,
                         w: StratumPoint, scales=(10, 100, 1000)) -> bool:
    """Pairings at w_hat + N*v: finite coordinates constant, dead ones strictly falling."""
    for u in context.monoid_generators:
        vals = [dot(w_hat, u) + frac(N) * dot(v, u) for N in scales]
        pw = w.pair(u)
        if pw is not None:
            if any(x != pw for x in vals):
                return False
        else:
            if not all(a > b for a, b in zip(vals, vals[1:])):
                return False
    return True
