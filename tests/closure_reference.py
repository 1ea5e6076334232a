"""Reference closure membership: a dense-stratum shortcut plus a recession cone.

This was the library's `toric_geom.polyhedron_closure_membership` before the
lemma got one path for every stratum.  It is kept verbatim as an independent
oracle for tests/test_toric_geom.py:

* a dense-stratum point is decided by plain membership in the weakened L,
  with a zero direction;
* at a boundary stratum, claim 1 cuts the closed cone over L by the
  preimage rows at height 1, and claim 3 cuts the recession cone of L (in
  R^n, no height coordinate) by the rows of rel.int(tau).

`_relint_tau_rows` is the library's former `height_prefix=False` branch.
Both systems are solved by the LP oracle
`relint_face_reference.relative_interior_point`, not by the library's point
code, so its witnesses are other points than the library's and the
cross-check compares what any two witnesses share.  It accepts only closed L
at boundary strata (`cone_over` raises on strict rows), and it answers
correctly only for nonempty L on the dense stratum, so the cross-check sweeps
nonempty closed polyhedra.  Test use only.
"""

from __future__ import annotations

from tropcong._linalg import ONE, ZERO, nullspace_basis, primitive, vec, zero_vec
from tropcong.polyhedra import (EQ, LT, EmptyPolyhedronError, Fan, HRow, PolyhedronH,
                                cone_over, recession_cone)
from tropcong.toric_geom import (CLAIM_DIRECTION, CLAIM_PREIMAGE, ClosureWitness,
                                 NotInClosure, _preimage_rows,
                                 _tau_in_fan)
from tropcong.trop_core import ExtPoint, Face, ToricContext

from relint_face_reference import relative_interior_point


def _relint_tau_rows(tau: Face, dim: int):
    """Rows for rel.int(tau) in R^dim, without a height coordinate."""
    rows = [HRow(tuple(c), ZERO, EQ) for c in nullspace_basis(tau.rays, dim)]
    for r in tau.cone().rows:
        if r.rel != EQ:
            rows.append(HRow(tuple(r.a), ZERO, LT))
    return rows


def direction_system(L: PolyhedronH, tau: Face, dim: int) -> PolyhedronH:
    """rec(L) cap rel.int(tau) in R^dim: the claim-3 system."""
    return recession_cone(L).with_rows(tuple(_relint_tau_rows(tau, dim)))


def polyhedron_closure_membership(context: ToricContext, L: PolyhedronH,
                                  fan: Fan, w: ExtPoint):
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
    vsys = direction_system(L, tau, n)
    v = None
    try:
        v = primitive(relative_interior_point(vsys))
    except EmptyPolyhedronError:
        failed.append(CLAIM_DIRECTION)
    if failed:
        return NotInClosure(tuple(sorted(set(failed))))
    return ClosureWitness(vec(w_hat), v)
