"""Reference support builders: every candidate cell a full `make`, absorb once at the end.

These were the library's `variety.pair_variety`, `hypersurface`,
`variety_of_basis` and `intersect_supports`, `polyhedra.pairwise_intersections`
and `polyhedra.intersect` (which re-canonicalised both operands' rows through
`make`) before supports were built from merged canonical rows, per-term
domination cells and a drop of running cells inside an earlier cell.  They are
kept verbatim as an oracle for tests/test_support_build.py: the library must
return the same cells, with the same rows, in the same order.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from tropcong import polyhedra
from tropcong._linalg import ONE, ZERO, Vec, vec, vsub, zero_vec
from tropcong.polyhedra import EQ, LE, ConeH, DimensionMismatchError, HRow, PolyhedronH
from tropcong.trop_core import ContextMismatchError, Face, TropPoly, bend_relations
from tropcong.variety import StratumSupport, VarietySupport


def stratum_cone(context, tau: Face) -> ConeH:
    n = context.rank
    rows = [HRow((-ONE,) + zero_vec(n), ZERO, LE)]
    for p in tau.pivots:
        e = [ZERO] * (n + 1)
        e[1 + p] = ONE
        rows.append(HRow(tuple(e), ZERO, EQ))
    return ConeH.make(n + 1, tuple(rows))


def term_vec(u, a) -> Vec:
    return (a,) + vec(u)


def _difference_rows(m: Vec, others, rel=LE):
    return tuple(HRow(vsub(o, m), ZERO, rel) for o in others if o != m)


def intersect(p: PolyhedronH, q: PolyhedronH) -> PolyhedronH:
    if p.dim != q.dim:
        raise DimensionMismatchError("ambient dimensions differ")
    cls = ConeH if p.is_homogeneous() and q.is_homogeneous() else PolyhedronH
    return cls.make(p.dim, p.rows + q.rows)


def pairwise_intersections(cells: Sequence[ConeH], others: Sequence[ConeH]) -> list:
    out = []
    seen = set()
    for c in cells:
        for d in others:
            cell = intersect(c, d)
            key = polyhedra.cone_key(cell)
            if key not in seen:
                seen.add(key)
                out.append(cell)
    return out


def pair_variety(pair, tau: Face) -> list:
    f, g = pair
    ctx = f.context
    if g.context != ctx:
        raise ContextMismatchError("pair members from different contexts")
    base = stratum_cone(ctx, tau)
    fr = f.restrict(tau)
    gr = g.restrict(tau)
    if fr.is_zero() and gr.is_zero():
        return [base]
    if fr.is_zero() or gr.is_zero():
        return []
    fvs = [term_vec(u, a) for u, a in fr.terms]
    gvs = [term_vec(u, a) for u, a in gr.terms]
    cells = []
    for mv in fvs:
        for uv in gvs:
            rows = _difference_rows(mv, fvs) + _difference_rows(uv, gvs)
            rows += (HRow(vsub(mv, uv), ZERO, EQ),)
            cells.append(ConeH.make(base.dim, base.rows + rows))
    return _dedupe_absorb(cells)


def _cone_inside(c: ConeH, d: ConeH) -> bool:
    return all(d.contains(g) for g in polyhedra.generators(c))


def _dedupe_absorb(cells: Sequence[ConeH]) -> list:
    uniq = []
    seen = set()
    for c in cells:
        key = polyhedra.cone_key(c)
        if key not in seen:
            seen.add(key)
            uniq.append(c)
    keep = []
    for i, c in enumerate(uniq):
        absorbed = any(j != i and _cone_inside(c, d)
                       and not (_cone_inside(d, c) and j > i)
                       for j, d in enumerate(uniq))
        if not absorbed:
            keep.append(c)
    return keep


def variety_of_basis(E, strata: Optional[Sequence[Face]] = None) -> VarietySupport:
    ctx = E.context
    faces = tuple(strata) if strata is not None else ctx.faces
    out = []
    for tau in faces:
        cells = [stratum_cone(ctx, tau)]
        for pair in E.pairs:
            cells = pairwise_intersections(cells, pair_variety(pair, tau))
            if not cells:
                break
        out.append(StratumSupport(tau, tuple(_dedupe_absorb(cells))))
    return VarietySupport(ctx, E.pairs, tuple(out))


def hypersurface(f: TropPoly, strata: Optional[Sequence[Face]] = None) -> VarietySupport:
    ctx = f.context
    faces = tuple(strata) if strata is not None else ctx.faces
    pairs = tuple(bend_relations(f))
    out = []
    for tau in faces:
        base = stratum_cone(ctx, tau)
        fr = f.restrict(tau)
        tvs = [term_vec(u, a) for u, a in fr.terms]
        if len(tvs) == 0:
            cells = [base]
        elif len(tvs) == 1:
            cells = []
        else:
            cells = []
            for i, j in itertools.combinations(range(len(tvs)), 2):
                rows = _difference_rows(tvs[i], tvs) + (HRow(vsub(tvs[i], tvs[j]), ZERO, EQ),)
                cells.append(ConeH.make(base.dim, base.rows + rows))
            cells = _dedupe_absorb(cells)
        out.append(StratumSupport(tau, tuple(cells)))
    return VarietySupport(ctx, pairs, tuple(out))


def intersect_supports(supports: Sequence[VarietySupport]) -> VarietySupport:
    ctx = supports[0].context
    if any(sup.context != ctx for sup in supports[1:]):
        raise ContextMismatchError("supports from different contexts")
    pairs = tuple(p for s in supports for p in s.pairs)
    common = [tau for tau in ctx.faces
              if all(any(s.tau == tau for s in sup.strata) for sup in supports)]
    out = []
    for tau in common:
        cells = list(supports[0].stratum(tau).cells)
        for s in supports[1:]:
            cells = pairwise_intersections(cells, s.stratum(tau).cells)
            if not cells:
                break
        out.append(StratumSupport(tau, tuple(_dedupe_absorb(cells))))
    return VarietySupport(ctx, pairs, tuple(out))
