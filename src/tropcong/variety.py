"""Extended congruence varieties as unions of rational cones per stratum.

Cells live in R^{1+n} coordinates (height first), constrained to the canonical
representative subspace of their stratum, so every cell is a Gamma-admissible
H-cone.  Pointwise evaluation of the basis pairs stays authoritative; the cell
data is an index and any disagreement raises InternalConsistencyError.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import polyhedra
from ._linalg import (ONE, ZERO, Vec, dot, frac, is_zero_vec, neg_primitive_pair,
                      primitive, rank_of, vec, vsub, zero_vec)
from ._record import _Record
from .polyhedra import (EQ, LE, ConeH, FlagOfCones, HRow, feasible,
                        pairwise_intersections, validate_flag)
from .trop_core import (ContextMismatchError, ExtPoint, Face, ToricContext,
                        TropPoly, bend_relations, pair_term)
from .congruence import CongruencePresentation, PrimeMatrix, _live_phis, flag_to_matrix


class InternalConsistencyError(RuntimeError):
    pass


class FiniteBasisRequiredError(ValueError):
    pass


class DenominatorVanishesError(ValueError):
    pass


# ---------------------------------------------------------------------------
# stratum scaffolding

def stratum_cone(context: ToricContext, tau: Face) -> ConeH:
    """R_{>=0} x N_R/tau in (1+n)-coordinates: height >= 0, pivot coords pinned."""
    n = context.rank
    rows = [HRow((-ONE,) + zero_vec(n), ZERO, LE)]
    for p in tau.pivots:
        e = [ZERO] * (n + 1)
        e[1 + p] = ONE
        rows.append(HRow(tuple(e), ZERO, EQ))
    return ConeH.make(n + 1, tuple(rows))


def term_vec(u, a) -> Vec:
    return (a,) + vec(u)


def _difference_rows(m: Vec, others: Iterable[Vec], rel=LE):
    """Rows <other - m, w> <= 0, i.e. m dominates the others."""
    return tuple(HRow(vsub(o, m), ZERO, rel) for o in others if o != m)


# ---------------------------------------------------------------------------
# per-pair agreement cells

def pair_variety(pair, tau: Face) -> list:
    """Cells covering {w in R_{>=0} x N_R/tau : f(w) = g(w)} for one pair."""
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
            cells.append(base.with_rows(rows))
    return _dedupe_absorb(cells)


def _cone_inside(c: ConeH, d: ConeH) -> bool:
    """Exact containment of cones via generators of c against rows of d."""
    return all(d.contains(g) for g in polyhedra.generators(c))


def _dedupe_absorb(cells: Sequence[ConeH]) -> list:
    """Drop duplicates and cells contained in another cell."""
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


# ---------------------------------------------------------------------------
# variety supports

class StratumSupport(_Record):
    _fields = ("tau", "cells")

    def __init__(self, tau: Face, cells: tuple):
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "cells", cells)


class VarietySupport(_Record):
    _fields = ("context", "pairs", "strata")

    def __init__(self, context: ToricContext, pairs: tuple, strata: tuple):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "strata", strata)  # one StratumSupport per face of sigma
        object.__setattr__(self, "_arrangements", {})  # tau -> arrangement(tau)

    def stratum(self, tau: Face) -> StratumSupport:
        for s in self.strata:
            if s.tau == tau:
                return s
        raise ValueError("stratum not represented in this support")

    def all_cells(self):
        return [(s.tau, c) for s in self.strata for c in s.cells]

    def arrangement(self, tau: Face) -> list:
        """_arrangement of the pairs at tau, computed once per stratum."""
        if tau not in self._arrangements:
            self._arrangements[tau] = _arrangement(self.pairs, tau)
        return self._arrangements[tau]


@lru_cache(maxsize=32)
def support_of(E: CongruencePresentation) -> VarietySupport:
    """variety_of_basis, kept for the 32 most recently used presentations
    (presentations are immutable)."""
    return variety_of_basis(E)


def variety_of_basis(E: CongruencePresentation,
                     strata: Optional[Sequence[Face]] = None) -> VarietySupport:
    """Selected Gamma-admissible cells per stratum for the basis pairs of E."""
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
    """Support of the bend congruence of f: max attained twice, or all terms dead."""
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
                cells.append(base.with_rows(rows))
            cells = _dedupe_absorb(cells)
        out.append(StratumSupport(tau, tuple(cells)))
    return VarietySupport(ctx, pairs, tuple(out))


def intersect_supports(supports: Sequence[VarietySupport]) -> VarietySupport:
    """Support of the union of the pair sets: per-stratum pairwise intersections.

    Only strata represented in every input are intersected."""
    ctx = supports[0].context
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


# ---------------------------------------------------------------------------
# membership

def _point_from_vector(ctx: ToricContext, tau: Face, w: Vec) -> ExtPoint:
    return ExtPoint.make(ctx, w[0], tau, w[1:])


def point_in_variety(V: VarietySupport, w: ExtPoint) -> bool:
    """Pointwise evaluation of all pairs (authoritative), cross-checked on cells."""
    pointwise = all(f.evaluate(w) == g.evaluate(w) for f, g in V.pairs)
    try:
        sup = V.stratum(w.tau)
    except ValueError:
        return pointwise  # stratum filtered out of this support; nothing to check
    full = w.full_vector()
    indexed = any(c.contains(full) for c in sup.cells)
    if indexed != pointwise:
        raise InternalConsistencyError(
            "cell index disagrees with pointwise evaluation at %r" % (full,))
    return pointwise


# ---------------------------------------------------------------------------
# piecewise-linear equality on cells
#
# The refinement of a single cone against the linearity arrangement keeps
# generator lists and performs double-description steps, so after the one
# (cached) generator computation per cell everything is LP-free.

def _arrangement(pairs, tau: Face) -> list:
    """Sorted normals of the hyperplanes where two terms of one pair tie at tau.

    On each cell of this arrangement every side of every pair is linear, and the
    two sides of a pair compare the same way throughout."""
    forms = set()
    for f, g in pairs:
        tvs = [term_vec(u, a) for p in (f, g) for u, a in p.restrict(tau).terms]
        for v1, v2 in itertools.combinations(tvs, 2):
            d = neg_primitive_pair(vsub(v1, v2))
            if not is_zero_vec(d):
                forms.add(d)
    return sorted(forms)


def split_generators_by_forms(gens: Sequence[Vec], forms: Sequence[Vec]) -> list:
    """Refine cone(gens) by hyperplanes; returns generator lists of the pieces.

    One double-description step per cutting hyperplane; redundant generators may
    appear but sign tests and relative-interior sampling stay exact."""
    pieces = [tuple(gens)]
    for h in forms:
        nxt = []
        for G in pieces:
            vals = [dot(h, g) for g in G]
            pos = [(g, v) for g, v in zip(G, vals) if v > 0]
            neg = [(g, v) for g, v in zip(G, vals) if v < 0]
            if not (pos and neg):
                nxt.append(G)
                continue
            zero = [g for g, v in zip(G, vals) if v == 0]
            mids = polyhedra.crossings(pos, neg)
            nxt.append(tuple(dict.fromkeys([g for g, _ in pos] + zero + mids)))
            nxt.append(tuple(dict.fromkeys([g for g, _ in neg] + zero + mids)))
        pieces = nxt
    return pieces


def _relint_sample(gens) -> Vec:
    total = gens[0]
    for g in gens[1:]:
        total = tuple(a + b for a, b in zip(total, g))
    return total


def _cell_sample_points(cell: ConeH) -> list:
    gens = polyhedra.generators(cell)
    if not gens:
        return [zero_vec(cell.dim)]
    pts = [_relint_sample(gens)]
    pts.extend(gens)
    for g1, g2 in itertools.combinations(gens, 2):
        pts.append(tuple(a + b for a, b in zip(g1, g2)))
    return pts


def _quick_counterexample(f: TropPoly, g: TropPoly, tau: Face, cell: ConeH) -> bool:
    """Cheap sound disproof of equality: evaluation at sample points of the cell."""
    ctx = f.context
    for w in _cell_sample_points(cell):
        p = _point_from_vector(ctx, tau, w)
        if f.evaluate(p) != g.evaluate(p):
            return True
    return False


def _functions_equal_on_cell(f: TropPoly, g: TropPoly, tau: Face, cell: ConeH) -> bool:
    """f = g on the cell, exactly.

    No two live terms of f and g swap order inside a closed piece of the tie
    arrangement, so on it each side is one linear form (the term maximal
    throughout the piece) or bottom throughout.  Two such sides agree on the
    piece iff they agree at its generators; a piece with no generators is the
    origin, which the sample check has already decided."""
    if _quick_counterexample(f, g, tau, cell):
        return False
    ctx = f.context
    for piece in split_generators_by_forms(polyhedra.generators(cell),
                                           _arrangement([(f, g)], tau)):
        for gen in piece:
            p = _point_from_vector(ctx, tau, gen)
            if f.evaluate(p) != g.evaluate(p):
                return False
    return True


def functions_equal_on_variety(f: TropPoly, g: TropPoly, V: VarietySupport) -> bool:
    """Equality of the induced piecewise-linear functions on every cell of V."""
    for tau, cell in V.all_cells():
        if not _functions_equal_on_cell(f, g, tau, cell):
            return False
    return True


def radical_member(E: CongruencePresentation, pair) -> bool:
    """(f, g) in sqrt(E) via agreement on the support; needs the finite-basis flag."""
    if not E.finite_tropical_basis:
        raise FiniteBasisRequiredError(
            "radical membership needs a declared finite tropical basis")
    f, g = pair
    return functions_equal_on_variety(f, g, support_of(E))


def fractions_equal_on_variety(num_den1, num_den2, V: VarietySupport) -> bool:
    """f1/g1 = f2/g2 on V via cross multiplication; denominators must not vanish."""
    f1, g1 = num_den1
    f2, g2 = num_den2
    for den in (g1, g2):
        for tau, cell in V.all_cells():
            if den.restrict(tau).is_zero():
                raise DenominatorVanishesError(
                    "denominator is identically bottom on a cell's stratum")
    return functions_equal_on_variety(f1 * g2, f2 * g1, V)


# ---------------------------------------------------------------------------
# flags against varieties

def flag_in_variety(context: ToricContext, flag: FlagOfCones, V: VarietySupport) -> bool:
    """Every flag cone refined against the arrangement; pieces tested pointwise."""
    bad = validate_flag(flag)
    if bad:
        raise ValueError("invalid flag: " + "; ".join(bad))
    tau = context.face_from_rays(flag.tau_rays)
    try:
        V.stratum(tau)
    except ValueError:
        raise ValueError("flag stratum not represented in the support")
    forms = V.arrangement(tau)
    for rays in flag.cones_rays:
        # every piece spans what its cone spans: a generator a split leaves out
        # of a piece is a combination of one it keeps and their crossing
        for piece in split_generators_by_forms(rays, forms):
            w = _point_from_vector(context, tau, _relint_sample(piece))
            if not point_in_variety(V, w):
                return False
    return True


# ---------------------------------------------------------------------------
# shrinking a flag into the variety

def shrink_flag(context: ToricContext, flag: FlagOfCones, E: CongruencePresentation,
                sample_pairs: int = 50, seed: int = 0) -> FlagOfCones:
    """Cut each flag cone by the leading-term domination cone D of E's pairs.

    Requires E contained in the flag's prime; the output lies inside V~(E) and
    defines the same prime by construction.  One pass over the terms of each
    side alive on the flag's stratum gives its Phi-maximum (the two of a pair
    must be equal, else E is not in the prime) and its leading term, the first
    live term attaining it.  D is where every leading term dominates its side
    and the two of a pair agree.

    C_0 is one ray r_0, a positive multiple of theta's first row mod span
    tau, so a live term's value at r_0 is a positive multiple of its first
    Phi entry: every leading term dominates its side there and the two of a
    pair agree.  The cut of C_0 is C_0 itself, checked on those entries.

    A valid flag is simplicial, so C_i is cut in its own ray coordinates:
    w = sum_j l_j r_j over its i + 1 rays turns C_i cap D into the cone
    {l >= 0, (<a, r_j>)_j . l rel 0 for each row (a, rel) of D} in R^{i+1}.
    The rays are independent, so l -> w maps extreme rays to extreme rays:
    the cut is generated by their primitive images, and its dimension, the
    rank of the l-rays, must be i + 1.  The cut of C_{i-1} is a face of the
    cut of C_i, so while every cut is simplicial the cuts are the new flag.
    From the first cut with more extreme rays than its dimension on, C'_i is
    C'_{i-1} plus the primitive sum of the cut's extreme rays, a relative
    interior point of the cut, so C'_i stays simplicial and inside D.

    Either way C'_i lies in C_i and has a relative-interior point in span(C_i)
    off span(C_{i-1}), on C_i's side: the new row i is
    a_i w_i + sum_{j<i} c_ij w_j with a_i > 0, and tau is unchanged.  Such a
    lower-triangular change of rows with positive diagonal preserves the
    lexicographic Phi order.  `sample_pairs` and `seed` are ignored.
    """
    theta = flag_to_matrix(context, flag)
    leads = []  # per pair alive on the stratum, per side: (live terms, Phis, leading index)
    for f, g in E.pairs:
        (top_f, side_f), (top_g, side_g) = _lead(theta, f), _lead(theta, g)
        if top_f != top_g:
            raise ValueError("E is not contained in the prime of the flag")
        if top_f is not None:  # else both sides are dead on the stratum
            leads.append((side_f, side_g))
    for sides in leads:
        firsts = [vals[m][0] for _, vals, m in sides]
        if firsts[0] != firsts[1] or any(v[0] > vals[m][0] for _, vals, m in sides for v in vals):
            raise InternalConsistencyError("the first flag cone should need no cut")
    new_cones = [(primitive(flag.cones_rays[0][0]),)]
    simplicial = True
    for i, rays in enumerate(flag.cones_rays[1:], 1):
        _, lams = polyhedra.cone_generators(ConeH.make(len(rays), _cut_rows(leads, rays)))
        if rank_of(lams) != i + 1:
            raise InternalConsistencyError(
                "dimension dropped while shrinking; the cut should be a neighborhood")
        cut = tuple(sorted(primitive([sum(l * r[c] for l, r in zip(lam, rays))
                                      for c in range(flag.ambient_dim)]) for lam in lams))
        simplicial = simplicial and len(cut) == i + 1
        new_cones.append(cut if simplicial else
                         new_cones[-1] + (primitive(_relint_sample(cut)),))
    out = polyhedra.make_flag(flag.ambient_dim, flag.tau_rays, new_cones)
    bad = validate_flag(out)
    if bad:
        raise InternalConsistencyError("shrunk flag invalid: " + "; ".join(bad))
    return out


def _lead(theta: PrimeMatrix, p: TropPoly) -> tuple:
    """(Phi(p), (live terms, their Phi-vectors, index of the leading one))
    from one pass over the terms of p alive on theta's stratum; Phi(p) is
    None when none is."""
    if theta.context != p.context:
        raise ContextMismatchError("matrix and polynomial contexts differ")
    live, vals = _live_phis(theta, p)
    if not live:
        return None, None
    top = max(vals)
    return top, (live, vals, vals.index(top))


def _cut_rows(leads, rays) -> list:
    """Rows of the cut in the coordinates l of w = sum_j l_j r_j: l >= 0, each
    leading term dominates its side and the two of a pair agree.  A term's
    row entry j is its value at r_j."""
    pts = [(r[0], r[1:]) for r in rays]
    rows = []
    for sides in leads:
        tops = []
        for live, _, m in sides:
            vals = [tuple(pair_term(h, x, a, u) for h, x in pts) for u, a in live]
            rows.extend(HRow(vsub(v, vals[m]), ZERO, LE) for j, v in enumerate(vals) if j != m)
            tops.append(vals[m])
        rows.append(HRow(vsub(*tops), ZERO, EQ))
    k = len(rays)
    rows += [HRow(tuple(-ONE if j == q else ZERO for j in range(k)), ZERO, LE)
             for q in range(k)]
    return rows


# ---------------------------------------------------------------------------
# slices for classical and Boolean varieties

def slice_at_height(V: VarietySupport, tau: Face, r) -> list:
    """Cells of the tau stratum sliced at height r, as polyhedra in x-space."""
    r = frac(r)
    sup = V.stratum(tau)
    out = []
    for c in sup.cells:
        rows = []
        for rw in c.rows:
            a_r, a_x = rw.a[0], rw.a[1:]
            rows.append(HRow(vec(a_x), rw.b - a_r * r, rw.rel))
        p = polyhedra.PolyhedronH.make(V.context.rank, tuple(rows))
        if feasible(p) is not None:
            out.append(p)
    return out
