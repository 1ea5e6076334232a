"""Extended congruence varieties as unions of rational cones per stratum.

Cells live in R^{1+n} coordinates (height first), constrained to the canonical
representative subspace of their stratum, so every cell is a Gamma-admissible
H-cone.  Points, flags and function equality all ask whether the two sides of
each pair of a pair table agree at (1+n)-vectors of that subspace, valuing
each distinct live term once: points and flags by one dot with its vector in
the point table cached per support and stratum, function equality by
`_sides_agree`.  A flag cone or a cell is split along the tie arrangement, on
each closed piece of which every side is one linear form, so each piece is
decided at one point, the sum of its rays (`polyhedra._ray_sum`).  Pointwise
answers stay authoritative; the cell data is an index and any disagreement
raises InternalConsistencyError.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import polyhedra
from ._linalg import (ONE, ZERO, Vec, dot, frac, neg_primitive_pair, primitive,
                      rank_of, vec, vsub, zero_vec)
from ._record import _Record
from .polyhedra import (EQ, LE, ConeH, FlagOfCones, HRow, InternalConsistencyError,
                        _ray_sum, feasible, intersect, satisfied_at, validate_flag)
from .trop_core import (ContextMismatchError, ExtPoint, Face, ToricContext,
                        TropPoly, bend_relations)
from .congruence import (CongruencePresentation, _pair_table, _phi_table, _side_max,
                         _sides_equal, flag_to_matrix)


class FiniteBasisRequiredError(ValueError):
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


def _difference_rows(m: Vec, others: Iterable[Vec]):
    """Rows <other - m, w> <= 0, i.e. m dominates the others."""
    return tuple(HRow(vsub(o, m), ZERO, LE) for o in others if o != m)


# ---------------------------------------------------------------------------
# per-pair agreement cells

def pair_variety(pair, tau: Face) -> list:
    """Cells covering {w in R_{>=0} x N_R/tau : f(w) = g(w)} for one pair.

    The candidate for terms (m, u) is where m leads f, u leads g and the two
    tie: the stratum cone cut by m's domination rows, by u's and by the tie
    row.  Each term's domination cell (`_lead_cells`) is built once."""
    f, g = pair
    ctx = f.context
    if g.context != ctx:
        raise ContextMismatchError("pair members from different contexts")
    base = stratum_cone(ctx, tau)
    fvs, gvs = (p.restrict(tau).term_vectors() for p in pair)
    if not (fvs and gvs):
        return [] if fvs or gvs else [base]
    g_leads = _lead_cells(base, gvs)
    return _dedupe_absorb([intersect(intersect(fc, gc), _tie(base.dim, mv, uv))
                           for mv, fc in zip(fvs, _lead_cells(base, fvs))
                           for uv, gc in zip(gvs, g_leads)])


def _lead_cells(base: ConeH, tvs: Sequence[Vec]) -> list:
    """For each term vector of tvs, the part of base where that term dominates."""
    return [intersect(base, ConeH.make(base.dim, _difference_rows(v, tvs))) for v in tvs]


def _tie(dim: int, v1: Vec, v2: Vec) -> ConeH:
    """The hyperplane where the terms of term vectors v1 and v2 take equal values."""
    return ConeH.make(dim, (HRow(vsub(v1, v2), ZERO, EQ),))


def _kept_with_generators(cells: Sequence[ConeH]) -> list:
    """(k, generators of cells[k]) for each cell not inside an earlier cell
    kept, in order.

    Of cells equal as sets only the first is kept, as a dedupe by cone_key
    keeps it.  A cell holding every row of a kept cell lies inside it, so it
    is dropped before its generators are computed."""
    kept, row_sets = [], []
    for k, c in enumerate(cells):
        rows = frozenset(c.rows)
        if any(s <= rows for s in row_sets):
            continue
        g = polyhedra.generators(c)
        if not any(satisfied_at(cells[j], g) for j, _ in kept):
            kept.append((k, g))
            row_sets.append(rows)
    return kept


def _dedupe_absorb(cells: Iterable[ConeH]) -> list:
    """The maximal cells, in order, each set as its first cell.

    Pass 1 (`_kept_with_generators`) keeps the first cell of every maximal
    set and no second cell of any set.  Pass 2 keeps the pass-1 cells inside
    no later one, as a non-maximal one lies in a maximal set's later first cell."""
    cells = list(cells)
    kept = _kept_with_generators(cells)
    return [cells[k] for i, (k, g) in enumerate(kept)
            if not any(satisfied_at(cells[j], g) for j, _ in kept[i + 1:])]


# ---------------------------------------------------------------------------
# variety supports

class StratumSupport(_Record):
    _fields = ("tau", "cells")


class VarietySupport(_Record):
    """`strata` holds one StratumSupport per face of sigma."""

    _fields = ("context", "pairs", "strata")

    def stratum(self, tau: Face) -> StratumSupport:
        for s in self.strata:
            if s.tau == tau:
                return s
        raise ValueError("stratum not represented in this support")

    def all_cells(self):
        return [(s.tau, c) for s in self.strata for c in s.cells]


@lru_cache(maxsize=32)
def support_of(E: CongruencePresentation) -> VarietySupport:
    """variety_of_basis, kept for the 32 most recently used presentations
    (presentations are immutable)."""
    return variety_of_basis(E)


def _intersect_all(first: Sequence[ConeH], rest: Iterable[Sequence[ConeH]]) -> tuple:
    """`_dedupe_absorb` of the intersections of a cell of first with one
    cell of each list of rest, taken in the lexicographic order of their
    paths through the lists.

    After each list the running cells go through `_dedupe_absorb`'s pass 1.
    A dropped cell's descendants lie inside the earlier cell's descendants
    along the same later paths, which come first, so the final pass 1 would
    drop them anyway."""
    cells = list(first)
    for others in rest:
        meets = [intersect(c, d) for c in cells for d in others]
        cells = [meets[k] for k, _ in _kept_with_generators(meets)]
        if not cells:
            break
    return tuple(_dedupe_absorb(cells))


def _support(ctx: ToricContext, pairs: tuple, strata: Optional[Sequence[Face]],
             cells_of) -> VarietySupport:
    """The cells cells_of(tau) on each face tau of strata (default: every face
    of sigma), in order."""
    faces = ctx.faces if strata is None else strata
    return VarietySupport(ctx, pairs, tuple(StratumSupport(tau, tuple(cells_of(tau)))
                                            for tau in faces))


def variety_of_basis(E: CongruencePresentation,
                     strata: Optional[Sequence[Face]] = None) -> VarietySupport:
    """Selected Gamma-admissible cells per stratum for the basis pairs of E."""
    ctx = E.context
    return _support(ctx, E.pairs, strata, lambda tau: _intersect_all(
        [stratum_cone(ctx, tau)], (pair_variety(pair, tau) for pair in E.pairs)))


def hypersurface(f: TropPoly, strata: Optional[Sequence[Face]] = None) -> VarietySupport:
    """Support of the bend congruence of f: max attained twice, or all terms dead."""
    ctx = f.context

    def cells_of(tau):
        base = stratum_cone(ctx, tau)
        tvs = f.restrict(tau).term_vectors()
        if not tvs:
            return (base,)
        leads = _lead_cells(base, tvs)
        return _dedupe_absorb(intersect(leads[i], _tie(base.dim, tvs[i], tvs[j]))
                              for i, j in itertools.combinations(range(len(tvs)), 2))
    return _support(ctx, tuple(bend_relations(f)), strata, cells_of)


def intersect_supports(supports: Sequence[VarietySupport]) -> VarietySupport:
    """Support of the union of the pair sets: per-stratum pairwise intersections.

    Only strata represented in every input are intersected."""
    if not supports:
        raise ValueError("need at least one support")
    ctx = supports[0].context
    if any(sup.context != ctx for sup in supports[1:]):
        raise ContextMismatchError("supports from different contexts")
    pairs = tuple(p for s in supports for p in s.pairs)
    common = [tau for tau in ctx.faces
              if all(any(s.tau == tau for s in sup.strata) for sup in supports)]
    return _support(ctx, pairs, common, lambda tau: _intersect_all(
        supports[0].stratum(tau).cells, (s.stratum(tau).cells for s in supports[1:])))


# ---------------------------------------------------------------------------
# membership

def _sides_agree(tvs, sides, w: Vec) -> bool:
    """The two sides of every pair of a pair table (tvs, sides) agree at w,
    a (1+n)-vector (height first) on the table's stratum.  Each term is valued
    once at w, by one dot; a side with no live term is bottom."""
    return _sides_equal([dot(m, w) for m in tvs], sides)


def point_in_variety(V: VarietySupport, w: ExtPoint) -> bool:
    """Pointwise evaluation of all pairs (authoritative), cross-checked on cells.

    Each distinct term alive on w's stratum is valued once at w, and each
    side of a pair is the max of its terms' values: the side's value at w, or
    None (bottom) when no term of the side is alive there."""
    if w.context != V.context:
        raise ContextMismatchError("polynomial and point contexts differ")
    return _in_variety(V, w.tau, w.full_vector())


@lru_cache(maxsize=polyhedra.CACHE_SIZE)
def _point_table(V: VarietySupport, tau: Face) -> tuple:
    """(term vectors, sides, cells): the pair table of V's pairs on tau and
    V's cells on tau, or None when V leaves the stratum out."""
    cells = next((s.cells for s in V.strata if s.tau == tau), None)
    return _pair_table(V.pairs, tau) + (cells,)


def _in_variety(V: VarietySupport, tau: Face, full: Vec) -> bool:
    """point_in_variety at the (1+n)-vector full, canonical on tau's stratum.
    Each term of the point table `_point_table(V, tau)` is valued by one dot
    with full, and the cells are cross-checked by `satisfied_at`."""
    tvs, sides, cells = _point_table(V, tau)
    pointwise = _sides_agree(tvs, sides, full)
    if cells is None:
        return pointwise  # stratum filtered out of this support; nothing to check
    if any(satisfied_at(c, (full,)) for c in cells) != pointwise:
        raise InternalConsistencyError(
            "cell index disagrees with pointwise evaluation at %r" % (full,))
    return pointwise


# ---------------------------------------------------------------------------
# piecewise-linear equality on cells
#
# A cell or flag cone is refined against the linearity arrangement by the
# double-description step of `cone_generators` on generators and incidence
# masks, so after one (cached) generator computation everything is LP-free.

@lru_cache(maxsize=polyhedra.CACHE_SIZE)
def _arrangement(pairs: tuple, tau: Face) -> tuple:
    """Sorted normals of the hyperplanes where two terms of one pair tie at tau.

    On each cell of this arrangement every side of every pair is linear, and the
    two sides of a pair compare the same way throughout.  It depends only on
    the stratum, so it is cached, not rebuilt for every cell or flag.  The
    ties are read off the pair table: one form per two distinct indices within
    a pair's sides, which are two distinct term vectors."""
    tvs, sides = _pair_table(pairs, tau)
    ties = {t for fs, gs in sides for t in itertools.combinations(sorted({*fs, *gs}), 2)}
    return tuple(sorted({neg_primitive_pair(vsub(tvs[i], tvs[j])) for i, j in ties}))


def split_generators_by_forms(state, bit: int, forms: Sequence[Vec]) -> list:
    """Refine a cone by hyperplanes; returns the pieces as (lin, rays, tight).

    state is (lin, rays, tight) as in `polyhedra._halves`, its rows at the bits
    below `bit`; the forms take the next bits.  A form that crosses a piece
    splits it by `_halves`, else its bit is recorded at the rays where it
    vanishes, so the masks stay exact and each piece holds its extreme rays."""
    pieces = [state]
    for a in forms:
        nxt = []
        for piece in pieces:
            lin, rays, tight = piece
            vals = [dot(a, g) for g in rays]
            if lin and any(dot(a, v) != 0 for v in lin) or vals and max(vals) > 0 > min(vals):
                nxt.extend(polyhedra._halves(lin, rays, tight, a, bit))
            elif 0 in vals:
                nxt.append((lin, rays, [t | bit if v == 0 else t for t, v in zip(tight, vals)]))
            else:
                nxt.append(piece)
        pieces = nxt
        bit <<= 1
    return pieces


def _cell_pieces(cell: ConeH, forms: Sequence[Vec]) -> list:
    """The split of a cell, started from its cached generators and ray masks."""
    lin, rays = polyhedra.cone_generators(cell)
    rows = [r.a for r in cell.rows if r.rel != EQ]
    tight = [sum(1 << k for k, a in enumerate(rows) if dot(a, g) == 0) for g in rays]
    return split_generators_by_forms((lin, rays, tight), 1 << len(rows), forms)


def _functions_equal_on_cell(f: TropPoly, g: TropPoly, tau: Face, cell: ConeH) -> bool:
    """f = g on the cell, exactly: _sides_agree on the pair table of (f, g),
    at one point per closed piece of the tie arrangement.

    On a piece, f is one term m and g one term u (the terms maximal
    throughout it), or a side is bottom throughout.  The tie form m - u is in
    the arrangement, so its sign is constant on the closed piece, and it
    vanishes on the whole piece iff it vanishes at a relative-interior point:
    the sum of the piece's rays, or the origin for a piece with no ray.  The
    cell's own generators come first, so most unequal pairs return before
    the split is built; a pair whose sides differ in liveness differs at every
    generator, and at the origin when the cell has none."""
    table = _pair_table(((f, g),), tau)
    if not all(_sides_agree(*table, w) for w in polyhedra.generators(cell)):
        return False
    return all(_sides_agree(*table, _ray_sum(rays) if rays else zero_vec(cell.dim))
               for _, rays, _ in _cell_pieces(cell, _arrangement(((f, g),), tau)))


def functions_equal_on_variety(f: TropPoly, g: TropPoly, V: VarietySupport) -> bool:
    """Equality of the induced piecewise-linear functions on every cell of V."""
    if f.context != V.context or g.context != V.context:
        raise ContextMismatchError("polynomial and support contexts differ")
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


# ---------------------------------------------------------------------------
# flags against varieties

def flag_in_variety(context: ToricContext, flag: FlagOfCones, V: VarietySupport) -> bool:
    """The top flag cone C_k refined against the arrangement; its pieces are
    tested pointwise at the sum of their generators, canonical as a valid
    flag's rays are.  A valid flag is nested, every C_i a face of C_k, so C_k
    inside V puts the whole flag inside V.  A one-ray C_k is its own only
    piece: its ray is tested with no split."""
    if context != V.context:
        raise ContextMismatchError("flag and support contexts differ")
    bad = validate_flag(flag)
    if bad:
        raise ValueError("invalid flag: " + "; ".join(bad))
    tau = context.face_from_rays(flag.tau_rays)
    if _point_table(V, tau)[2] is None:
        raise ValueError("flag stratum not represented in the support")
    rays = flag.cones_rays[-1]
    if len(rays) == 1:
        return _in_variety(V, tau, rays[0])
    # a valid flag cone is simplicial: ray j lies on every facet but the j-th,
    # which gives the split exact masks with no H-representation
    k = len(rays)
    start = ([], rays, [((1 << k) - 1) ^ (1 << j) for j in range(k)])
    return all(_in_variety(V, tau, _ray_sum(piece)) for _, piece, _ in
               split_generators_by_forms(start, 1 << k, _arrangement(V.pairs, tau)))


# ---------------------------------------------------------------------------
# shrinking a flag into the variety

def shrink_flag(context: ToricContext, flag: FlagOfCones, E: CongruencePresentation,
                sample_pairs: int = 50, seed: int = 0) -> FlagOfCones:
    """Cut each flag cone by the leading-term domination cone D of E's pairs.

    Requires E contained in the flag's prime; the output lies inside V~(E) and
    defines the same prime by construction.  E's pair table on the flag's
    stratum values each distinct live term once: its Phi-vector gives each
    side's Phi-maximum (the two of a pair must be equal, else E is not in the
    prime) and its leading term, the first of the side's live terms
    attaining it.  D is where every leading term dominates its side and the
    two of a pair agree.  The two leading terms of a pair have equal
    Phi-vectors, so they agree on the span of theta's rows, which holds
    every flag cone: only the domination rows cut.

    C_0 is one ray r_0, a positive multiple of theta's first row mod span
    tau, so a live term's value at r_0 is a positive multiple of its first
    Phi entry: every leading term dominates its side there.  The cut of C_0
    is C_0 itself, checked on those entries.

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
    tvs, phis, sides = _phi_table(E, flag_to_matrix(context, flag))
    leads = []  # per pair alive on the stratum, per side: (term indices, leading index)
    for side_f, side_g in sides:
        top = _side_max(phis, side_f)
        if top != _side_max(phis, side_g):
            raise ValueError("E is not contained in the prime of the flag")
        if top is not None:  # else both sides are dead on the stratum
            leads.append(tuple((side, next(j for j in side if phis[j] == top))
                               for side in (side_f, side_g)))
    for pair in leads:
        if any(phis[j][0] > phis[m][0] for side, m in pair for j in side):
            raise InternalConsistencyError("the first flag cone should need no cut")
    new_cones = [(primitive(flag.cones_rays[0][0]),)]
    simplicial = True
    for i, rays in enumerate(flag.cones_rays[1:], 1):
        cut_rows = _cut_rows(tvs, leads, rays)
        _, lams = polyhedra.cone_generators(ConeH.make(len(rays), cut_rows))
        if rank_of(lams) != i + 1:
            raise InternalConsistencyError(
                "dimension dropped while shrinking; the cut should be a neighborhood")
        cut = tuple(sorted(primitive([sum(l * r[c] for l, r in zip(lam, rays))
                                      for c in range(flag.ambient_dim)]) for lam in lams))
        simplicial = simplicial and len(cut) == i + 1
        new_cones.append(cut if simplicial else
                         new_cones[-1] + (primitive(_ray_sum(cut)),))
    out = polyhedra.make_flag(flag.ambient_dim, flag.tau_rays, new_cones)
    bad = validate_flag(out)
    if bad:
        raise InternalConsistencyError("shrunk flag invalid: " + "; ".join(bad))
    return out


def _cut_rows(tvs, leads, rays) -> list:
    """Rows of the cut in the coordinates l of w = sum_j l_j r_j: l >= 0 and
    each leading term dominates its side.  A term's row entry j is its value
    at r_j, one dot with its term vector; each term is valued once."""
    vals = [tuple(dot(m, r) for r in rays) for m in tvs]
    rows = []
    for pair in leads:
        for side, m in pair:
            rows.extend(HRow(vsub(vals[j], vals[m]), ZERO, LE) for j in side if j != m)
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
