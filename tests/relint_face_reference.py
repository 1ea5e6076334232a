"""Reference relative-interior point and face test: exact LPs throughout.

These were the library's `polyhedra.relative_interior_point` and
`polyhedra.is_face` before both read implicit equalities and faces off the
double-description kernel.  They are kept verbatim as independent oracles for
tests/test_relint_face.py:

* `relative_interior_point` finds implicit equalities by a loop of LPs: a
  strict-feasibility LP, then a weak-emptiness LP and one `max_linear` LP per
  row, repeated until every remaining row can be strict at once.  Then one
  LP pins the common slack, and `_l1_polish` chooses the point by an L1
  simplex.  The library now returns the dehomogenized sum of the closure
  generators' rays, another point, so the tests compare what any
  relative-interior point shares: emptiness, the error message, and the set
  of rows tight at the point (the implicit equalities).
* `is_face` looks for a functional that vanishes on the generators of f and
  is at most -1 on every generator of c outside f, by a zero-objective LP
  (formerly `_lp.lp_feasible_point`, inlined here).

The LP `feasible`, `is_empty` and `max_linear` come from `lp_reference`.
Test use only.
"""

from __future__ import annotations

from tropcong import _lp
from tropcong._linalg import ONE, ZERO, Vec, canon, vscale, zero_vec
from tropcong.polyhedra import (EQ, LE, LT, ConeH, EmptyPolyhedronError, HRow,
                                PolyhedronH, cone_generators, cone_key, generators)

from lp_reference import feasible, is_empty, max_linear


def relative_interior_point(p: PolyhedronH) -> Vec:
    """A point satisfying every non-implicit inequality strictly.

    Strict rows must be satisfiable; raises EmptyPolyhedronError otherwise.
    Iteratively detects implicit equalities, then maximizes the common slack
    (capped at 1) and polishes with an L1 objective for reproducibility.
    """
    ineq = [r for r in p.rows if r.rel != EQ]
    eqs = [r for r in p.rows if r.rel == EQ]
    while True:
        test = PolyhedronH.make(p.dim, tuple(HRow(r.a, r.b, LT) for r in ineq) + tuple(eqs))
        w = feasible(test)
        if w is not None:
            break
        # find rows that cannot be strict; they are implicit equalities
        weak = PolyhedronH.make(p.dim, tuple(HRow(r.a, r.b, LE) for r in ineq) + tuple(eqs))
        if is_empty(weak):
            raise EmptyPolyhedronError("empty polyhedron has no relative interior point")
        moved = False
        still = []
        for r in ineq:
            status, value, _ = max_linear(weak, vscale(-1, r.a))
            if status == _lp.OPTIMAL and value == -r.b:
                if r.rel == LT:
                    raise EmptyPolyhedronError("a strict row is an implicit equality")
                eqs.append(HRow(r.a, r.b, EQ))
                moved = True
            else:
                still.append(r)
        ineq = still
        if not moved:
            # cannot happen for a consistent weak system (convex averaging)
            raise EmptyPolyhedronError("no common slack and no implicit equalities")
    # pin the slack at its (capped) maximum, then polish
    d = p.dim
    if ineq:
        A = [tuple(r.a) + (ONE,) for r in ineq]
        B = [r.b for r in ineq]
        A.append(zero_vec(d) + (ONE,))
        B.append(ONE)
        A.append(zero_vec(d) + (-ONE,))
        B.append(ZERO)
        AE = [tuple(r.a) + (ZERO,) for r in eqs]
        BE = [r.b for r in eqs]
        status, x, eps = _lp.solve_lp(zero_vec(d) + (ONE,), A, B, AE, BE)
        assert status == _lp.OPTIMAL
        pinned = PolyhedronH.make(d, tuple(HRow(r.a, r.b - eps, LE) for r in ineq) + tuple(eqs))
    else:
        pinned = PolyhedronH.make(d, tuple(eqs))
    return _l1_polish(pinned)


def _l1_polish(p: PolyhedronH) -> Vec:
    """Deterministic small point of a (weakly described) nonempty polyhedron.

    Minimizes sum |x_i| via x = u - v, u,v >= 0; exact simplex keeps it canonical.
    """
    d = p.dim
    # variables (u, v) each length d, minimize sum(u+v) == maximize -(sum)
    A, B, AE, BE = [], [], [], []
    for r in p.rows:
        lhs, rhs = (AE, BE) if r.rel == EQ else (A, B)
        lhs.append(tuple(r.a) + tuple(-x for x in r.a))
        rhs.append(r.b)
    for i in range(2 * d):
        rr = [ZERO] * (2 * d)
        rr[i] = -ONE
        A.append(tuple(rr))
        B.append(ZERO)
    c = (-ONE,) * (2 * d)
    status, x, _ = _lp.solve_lp(c, A, B, AE, BE)
    if status != _lp.OPTIMAL:
        raise RuntimeError("L1 polish of a nonempty polyhedron ended %s" % (status,))
    return tuple(canon(x[i] - x[d + i]) for i in range(d))


def is_face(f: ConeH, c: ConeH) -> bool:
    """f is a face of c: f <= c and some valid functional vanishes exactly on f."""
    gf = generators(f)
    gc = generators(c)
    if not all(c.contains(g) for g in gf):
        return False
    if cone_key(f) == cone_key(c):
        return True
    lin_f, _ = cone_generators(f)
    span_f = list(lin_f) + list(gf)
    outside = [g for g in gc if not f.contains(g)]
    if not outside:
        return cone_key(f) == cone_key(c)
    d = c.dim
    a_eq = [g for g in gf]
    b_eq = [ZERO] * len(a_eq)
    a_ub = [g for g in outside]
    b_ub = [-ONE] * len(outside)
    status, _, _ = _lp.solve_lp([ZERO] * d, a_ub, b_ub, a_eq, b_eq)
    return status == _lp.OPTIMAL
