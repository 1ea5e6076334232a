"""Exact rational polyhedra, cones, fans and flags.

H-representations carry strict rows.  Ray enumeration of closed cones
(`cone_generators`, and through it H-representations, faces and fans) is an
exact double-description kernel that runs no LP: equality rows give the
starting subspace, and each inequality is one step, `_halves`, which trades a
lineality vector for a ray or keeps the rays on each side plus the crossings
of adjacent positive/negative pairs, adjacency read by incidence off bitmasks
of the rows tight at each ray; `variety` splits cells and flag cones by tie
hyperplanes with the same step.  The same kernel, run on the closed cone over
a polyhedron, answers every yes/no question: emptiness with strict rows
honored exactly (`feasible`), implicit equalities, and the suprema of linear
forms that decide containment in `poly_in_union`; `is_face` reads the
smallest face containing a cone off the incidence of its generators with the
rows.  No LP runs: `feasible` returns None for an empty polyhedron and
otherwise its one point, the dehomogenized sum of the rays.

A cone's relative-interior point is the sum of its extreme rays (Fukuda &
Prodon 1996), written once, in `_ray_sum`: `feasible` dehomogenizes it,
`congruence.flag_to_matrix` takes it as a flag's rows, and `variety` decides
each piece of a tie arrangement at it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ._linalg import (ONE, ZERO, Vec, dot, frac, is_zero_vec, neg_primitive_pair,
                      nullspace_basis, primitive, qdiv, rank_of, reduce_mod_rref,
                      rref, vec, vscale, vsub, zero_vec)
from ._record import _Record

LE, LT, EQ = "<=", "<", "="
_RELS = (LE, LT, EQ)
_row_order = attrgetter("rel", "a", "b")  # the order of `make`'s rows

# Entries kept by each cache: `cone_generators` and `_flag_violations` here,
# `trop_core._faces`, `congruence._pair_table` and `flag_to_matrix`,
# `variety._arrangement` and `_point_table`.  Well above the few hundred entries
# any of them reaches in a CLI run or a 500-flag run.
CACHE_SIZE = 4096

# Nodes one region difference (`poly_in_union`, and so each containment that
# `covers_equal` checks) may visit before it gives up with CoverBudgetExceeded.
# The largest difference measured takes 22 nodes (Tier-1 tests; the `supports`
# benchmark takes 1, and `cli_fixtures` 1 in each of its `resolve` and
# `cancel-check` jobs, from `verify_closure_hypothesis`), and each node runs
# one generator enumeration.
COVER_NODES = 10_000


class EmptyPolyhedronError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class CoverBudgetExceeded(RuntimeError):
    """A region difference needed more than COVER_NODES nodes."""


class InternalConsistencyError(RuntimeError):
    """A result the library computed fails its own cross-check: a bug."""


class HRow(_Record):
    _fields = ("a", "b", "rel")

    def __init__(self, a: Vec, b: Fraction, rel: str):
        super().__init__(a, b, rel)
        if rel not in _RELS:
            raise ValueError("bad relation %r" % (rel,))

    def scaled_canonical(self) -> "HRow":
        """Primitive integer scaling of (a, b); equalities get a sign convention."""
        joint = primitive(tuple(self.a) + (self.b,))
        if self.rel == EQ:
            for x in joint:
                if x != 0:
                    if x < 0:
                        joint = vscale(-1, joint)
                    break
        return HRow(joint[:-1], joint[-1], self.rel)


def row(a, b, rel) -> HRow:
    return HRow(vec(a), frac(b), rel)


class PolyhedronH(_Record):
    """{x in Q^dim : <a_i, x> rel_i b_i}.

    Built by `make` (or by `intersect` from two built by `make`), so its rows
    are canonical: each scaled by `HRow.scaled_canonical`, none a trivially
    true zero row, no two equal, sorted by (rel, a, b)."""

    _fields = ("dim", "rows")

    def __init__(self, dim: int, rows: tuple):
        super().__init__(dim, rows)
        for r in rows:
            if len(r.a) != dim:
                raise DimensionMismatchError("row length %d != dim %d" % (len(r.a), dim))

    @staticmethod
    def make(dim: int, rows: Iterable[HRow]) -> "PolyhedronH":
        canon = []
        seen = set()
        for r in rows:
            r = r.scaled_canonical()
            if is_zero_vec(r.a):
                trivially_true = ((r.rel == LE and r.b >= 0)
                                  or (r.rel == LT and r.b > 0)
                                  or (r.rel == EQ and r.b == 0))
                if trivially_true:
                    continue  # drop 0 <= b-style rows; false ones stay
            if r not in seen:  # hashing r keeps its hash for later cache lookups
                seen.add(r)
                canon.append(r)
        canon.sort(key=_row_order)
        return PolyhedronH(dim, tuple(canon))

    def is_homogeneous(self) -> bool:
        return all(r.b == 0 for r in self.rows)

    def has_strict(self) -> bool:
        return any(r.rel == LT for r in self.rows)

    def contains(self, x: Sequence) -> bool:
        return satisfied_at(self, (vec(x),))

    def with_rows(self, extra: Iterable[HRow]) -> "PolyhedronH":
        return PolyhedronH.make(self.dim, self.rows + tuple(extra))

    def weakened(self) -> "PolyhedronH":
        """Strict rows relaxed to non-strict (topological closure of the H-description)."""
        return PolyhedronH.make(self.dim, tuple(
            HRow(r.a, r.b, LE if r.rel == LT else r.rel) for r in self.rows))


class ConeH(PolyhedronH):
    """A PolyhedronH with all right-hand sides zero."""

    def __init__(self, dim: int, rows: tuple):
        super().__init__(dim, rows)
        if not self.is_homogeneous():
            raise ValueError("cone rows must be homogeneous")

    @staticmethod
    def make(dim: int, rows: Iterable[HRow]) -> "ConeH":
        p = PolyhedronH.make(dim, rows)
        return ConeH(p.dim, p.rows)


def origin_cone(dim: int) -> ConeH:
    return ConeH.make(dim, tuple(row([ONE if j == i else ZERO for j in range(dim)], 0, EQ)
                                 for i in range(dim)))


def satisfied_at(p: PolyhedronH, points) -> bool:
    """Every row of p, with its right-hand side, holds at every given point."""
    rows = p.rows
    for x in points:
        for r in rows:
            v = dot(r.a, x)
            if v > r.b or (v != r.b if r.rel == EQ else v == r.b and r.rel == LT):
                return False
    return True


def intersect(p: PolyhedronH, q: PolyhedronH) -> PolyhedronH:
    """p cap q, equal to make(dim, p.rows + q.rows).

    Both operands' rows are canonical, so the result's rows are the sorted
    union of the two row sets: no row is scaled again."""
    if p.dim != q.dim:
        raise DimensionMismatchError("ambient dimensions differ")
    rows = tuple(sorted(set(p.rows).union(q.rows), key=_row_order))
    if p.is_homogeneous() and q.is_homogeneous():
        return ConeH(p.dim, rows)
    return PolyhedronH(p.dim, rows)


# ---------------------------------------------------------------------------
# feasibility

def _closure_generators(p: PolyhedronH):
    """cone_generators of the closed cone over p's weak relaxation Q.

    The one place emptiness is decided: p is empty iff no generator has
    positive height (Q is empty) or some strict row's homogenized normal
    (-b, a) vanishes on every generator (the row is an implicit equality of Q,
    so no point of Q satisfies it strictly); raises EmptyPolyhedronError then.
    """
    lin, rays = cone_generators(cone_over(p.weakened()))
    if not any(g[0] > 0 for g in rays):
        raise EmptyPolyhedronError("empty polyhedron has no relative interior point")
    for r in p.rows:
        if r.rel == LT and all(dot((-r.b,) + tuple(r.a), g) == 0 for g in lin + rays):
            raise EmptyPolyhedronError("a strict row is an implicit equality")
    return lin, rays


def feasible(p: PolyhedronH) -> Optional[Vec]:
    """A point of p satisfying every row that is not an implicit equality
    strictly, strict rows included, or None when p is empty.

    The point is the dehomogenized sum of the closure generators' rays
    (Fukuda & Prodon 1996), which lies in the relative interior of the cone
    over p's closure: one double description, canonical because the
    generators are, and unchanged by inserting a coordinate pinned to 0."""
    try:
        _, rays = _closure_generators(p)
    except EmptyPolyhedronError:
        return None
    s = _ray_sum(rays)
    return tuple(qdiv(x, s[0]) for x in s[1:])


def _ray_sum(rays) -> Vec:
    """The sum of a cone's extreme rays, a point of its relative interior
    (Fukuda & Prodon 1996); rays must be nonempty."""
    return tuple(map(sum, zip(*rays)))


def _sup(gens, a: Sequence) -> Optional[Fraction]:
    """sup a.x over a nonempty polyhedron given by its closure generators;
    None if unbounded (a moves along a lineality vector or up a height-0 ray)."""
    lin, rays = gens
    if any(dot(a, l[1:]) != 0 for l in lin) or any(
            g[0] == 0 and dot(a, g[1:]) > 0 for g in rays):
        return None
    return max(qdiv(dot(a, g[1:]), g[0]) for g in rays if g[0] > 0)


# ---------------------------------------------------------------------------
# recession cone

def recession_cone(p: PolyhedronH) -> ConeH:
    """Homogenized rows with strictness dropped; rec(empty) = {0}.

    A closed homogeneous p contains the origin, so only other inputs are
    tested for emptiness."""
    closed_cone = p.is_homogeneous() and not p.has_strict()
    if not closed_cone and feasible(p) is None:
        return origin_cone(p.dim)
    return ConeH.make(p.dim, tuple(
        HRow(r.a, ZERO, LE if r.rel != EQ else EQ) for r in p.rows))


def cone_over(p: PolyhedronH) -> ConeH:
    """Closed cone over {1} x p in Q^(1+dim): a.x <= b becomes a.x - b*r <= 0, r >= 0."""
    if p.has_strict():
        raise ValueError("cone_over expects a closed description")
    rows = []
    for r in p.rows:
        rows.append(HRow((-r.b,) + tuple(r.a), ZERO, r.rel))
    rows.append(HRow((-ONE,) + zero_vec(p.dim), ZERO, LE))
    return ConeH.make(p.dim + 1, tuple(rows))


# ---------------------------------------------------------------------------
# V-representation (desk scale)

def _halves(lin, rays, tight, a, bit):
    """Both sides, a.x <= 0 and a.x >= 0, of span(lin) + cone(rays) cut by a.x = 0.

    One double-description step (Fukuda & Prodon 1996); each side is returned
    as (lin, rays, tight).  tight[i] masks the recorded rows that vanish on
    rays[i]; every recorded row vanishes on lin.  The k-th recorded row is bit
    1 << k, so a is `bit` and bit - 1 masks every row before it.  If a is
    nonzero on a lineality vector l0, l0 is traded for the ray -+l0, tight on
    every row so far, and the other generators are projected onto a.x = 0
    along l0.  Otherwise each side keeps its rays, and a positive ray p and a
    negative ray q add their crossing to both iff they are adjacent: no third
    ray's mask contains tight[p] & tight[q].  So when rays are the extreme
    rays modulo lin, each side's rays are its extreme rays."""
    i0 = next((i for i, v in enumerate(lin) if dot(a, v) != 0), None) if lin else None
    if i0 is not None:
        l0 = lin[i0]
        v0 = dot(a, l0)
        lin = [vsub(v, vscale(qdiv(dot(a, v), v0), l0)) for i, v in enumerate(lin) if i != i0]
        rays = [primitive(vsub(g, vscale(qdiv(dot(a, g), v0), l0))) for g in rays]
        tight = [t | bit for t in tight] + [bit - 1]
        down = primitive(l0 if v0 < 0 else vscale(-1, l0))
        return (lin, rays + [down], tight), (lin, rays + [tuple(-x for x in down)], tight)
    vals = [dot(a, g) for g in rays]
    le, ge = (lin, [], []), (lin, [], [])
    for g, t, v in zip(rays, tight, vals):
        for side in (le, ge) if v == 0 else (le if v < 0 else ge,):
            side[1].append(g)
            side[2].append(t if v else t | bit)
    pos = [i for i, v in enumerate(vals) if v > 0]
    for p, q in itertools.product(pos, [i for i, v in enumerate(vals) if v < 0] if pos else ()):
        common = tight[p] & tight[q]
        if all(t & common != common for k, t in enumerate(tight) if k != p and k != q):
            w = primitive([vals[p] * y - vals[q] * x for x, y in zip(rays[p], rays[q])])
            for side in (le, ge):
                side[1].append(w)
                side[2].append(common | bit)
    return le, ge


@lru_cache(maxsize=CACHE_SIZE)
def cone_generators(c: ConeH):
    """(lineality_basis, extreme_rays) generating c = span(lineality) + cone(rays).

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): start from
    the subspace cut out by the equality rows and keep the a.x <= 0 side of
    `_halves` for each inequality a.x <= 0 in turn.  A crossing is kept exactly
    when its two rays are adjacent, read off the incidence masks of the rows
    processed so far, so no step keeps a non-extreme ray.  Lineality is the
    canonical nullspace of all rows, rays are primitive representatives reduced
    modulo it (against one elimination of the lineality basis), both sorted.
    Every ray `_halves` keeps is primitive, so with no lineality the rays are
    final as they stand.
    """
    if c.has_strict():
        raise ValueError("generator enumeration needs a closed cone")
    d = c.dim
    state = (nullspace_basis([r.a for r in c.rows if r.rel == EQ], d), [], [])
    bit = 1
    for r in c.rows:
        if r.rel != EQ:
            state = _halves(*state, r.a, bit)[0]
            bit <<= 1
    lin = nullspace_basis([r.a for r in c.rows], d)
    lin_canon = tuple(sorted(neg_primitive_pair(v) for v in lin))
    if not lin:
        return lin_canon, tuple(sorted(set(state[1])))
    red, pivots = rref(lin)
    return lin_canon, tuple(sorted({primitive(reduce_mod_rref(g, red, pivots))
                                    for g in state[1]}))


def generators(c: ConeH) -> tuple:
    """Generating vectors: extreme rays plus +-(lineality basis), canonically sorted."""
    lin, rays = cone_generators(c)
    gens = set(rays)
    for v in lin:
        gens.add(primitive(v))
        gens.add(primitive(vscale(-1, v)))
    return tuple(sorted(gens))


def cone_dim(c: ConeH) -> int:
    lin, rays = cone_generators(c)
    return rank_of(list(lin) + list(rays))


def cone_key(c: ConeH):
    """Canonical identity of a cone as a set of points."""
    return (c.dim, generators(c))


def hrep_from_rays(gens: Sequence[Sequence], dim: int) -> ConeH:
    """H-representation of cone(gens) (lineality allowed via opposite pairs)."""
    gens = [vec(g) for g in gens]
    gens = [g for g in gens if not is_zero_vec(g)]
    if not gens:
        return origin_cone(dim)
    # dual cone {a : <a, g> <= 0} has the g's as its inequality normals
    dual = ConeH.make(dim, tuple(HRow(g, ZERO, LE) for g in gens))
    lin, rays = cone_generators(dual)
    rows = [HRow(r, ZERO, LE) for r in rays]
    rows += [HRow(v, ZERO, EQ) for v in lin]
    return ConeH.make(dim, tuple(rows))


def _nonempty_subset(p: PolyhedronH, gens, q: PolyhedronH) -> bool:
    """Exact containment p (with strict rows honored) inside q, for a
    nonempty p with closure generators gens.

    Every row of q bounds sup a.x over p, which is sup a.x over its closure;
    a strict row whose bound is that sup also needs it not attained on p."""
    for r in q.rows:
        hi = _sup(gens, r.a)
        if hi is None or hi > r.b:
            return False
        if r.rel == LT and hi == r.b and feasible(p.with_rows((HRow(r.a, r.b, EQ),))) is not None:
            return False
        if r.rel == EQ:
            lo = _sup(gens, vscale(-1, r.a))
            if lo is None or lo > -r.b:
                return False
    return True


def is_face(f: ConeH, c: ConeH) -> bool:
    """f is a face of c: f <= c and f is the smallest face of c containing it.

    That face is spanned by the generators of c tight on every row of c that
    vanishes on all generators of f (Fukuda & Prodon 1996), so f is a face iff
    those generators of c are exactly its own.  Lineality vectors are tight on
    every row; no H-representation is built and no second enumeration runs."""
    gf = generators(f)
    if not satisfied_at(c, gf):
        return False
    tight = [r.a for r in c.rows if all(dot(r.a, g) == 0 for g in gf)]
    return gf == tuple(g for g in generators(c) if all(dot(a, g) == 0 for a in tight))


# ---------------------------------------------------------------------------
# fans

class Fan(_Record):
    """The cones given, one per cone_key, sorted by dimension; their faces
    are implied, not listed."""

    _fields = ("dim", "cones")

    @staticmethod
    def make(dim: int, cones: Iterable[ConeH]) -> "Fan":
        out = {}
        for c in cones:
            out.setdefault(cone_key(c), c)
        ordered = tuple(sorted(out.values(), key=lambda f: (cone_dim(f), cone_key(f))))
        return Fan(dim, ordered)


def common_refinement(fans: Sequence[Fan]) -> Fan:
    if not fans:
        raise ValueError("need at least one fan")
    dim = fans[0].dim
    for f in fans:
        if f.dim != dim:
            raise DimensionMismatchError("fans in different ambient spaces")
    out = fans[0]
    for f in fans[1:]:
        out = Fan.make(dim, [intersect(c, d) for c in out.cones for d in f.cones])
    return out


# ---------------------------------------------------------------------------
# region difference over unions

def poly_in_union(p: PolyhedronH, parts: Sequence[PolyhedronH]) -> bool:
    """Exact test p subseteq union(parts); all inputs may carry strict rows.

    Raises CoverBudgetExceeded when the region difference, this call and its
    recursion, would visit more than COVER_NODES nodes."""
    return _difference_node(p, parts, [COVER_NODES])


def _difference_node(p: PolyhedronH, parts: Sequence[PolyhedronH], left: list) -> bool:
    """One node of the region difference; `left` is the one-item list of nodes
    left to the whole difference, shared by its recursion."""
    if left[0] == 0:
        raise CoverBudgetExceeded("region difference exceeds %d nodes" % COVER_NODES)
    left[0] -= 1
    try:
        gens = _closure_generators(p)
    except EmptyPolyhedronError:
        return True
    if any(_nonempty_subset(p, gens, q) for q in parts):
        return True
    if not parts:
        return False
    q = parts[0]
    rest = list(parts[1:])
    # p \ q = union over rows of q of the strict violation pieces
    pieces = []
    prefix: list[HRow] = []
    for r in q.rows:
        if r.rel == EQ:
            viol = [HRow(r.a, r.b, LT), HRow(vscale(-1, r.a), -r.b, LT)]
            keep = HRow(r.a, r.b, EQ)
        elif r.rel == LE:
            viol = [HRow(vscale(-1, r.a), -r.b, LT)]
            keep = r
        else:
            viol = [HRow(vscale(-1, r.a), -r.b, LE)]
            keep = r
        for v in viol:
            pieces.append(p.with_rows(tuple(prefix) + (v,)))
        prefix.append(keep)
    return all(_difference_node(piece, rest, left) for piece in pieces)


def covers_equal(a: Sequence[PolyhedronH], b: Sequence[PolyhedronH]) -> bool:
    """union(a) == union(b): one budgeted `poly_in_union` per piece."""
    return (all(poly_in_union(p, b) for p in a)
            and all(poly_in_union(q, a) for q in b))


# ---------------------------------------------------------------------------
# flags of cones

class FlagOfCones(_Record):
    """Nested cones C_0 <= ... <= C_k in R_{>=0} x (N_R / tau), dim C_i = i+1.

    Rays are (1+n)-vectors (height first); tau_rays are n-vectors spanning tau.
    `ambient_dim` is 1 + n; `cones_rays` is a tuple of tuples of rays, one per cone.
    """

    _fields = ("ambient_dim", "tau_rays", "cones_rays")

    def cone(self, i: int) -> ConeH:
        return hrep_from_rays(self.cones_rays[i], self.ambient_dim)


def make_flag(ambient_dim, tau_rays, cones_rays) -> FlagOfCones:
    return FlagOfCones(ambient_dim,
                       tuple(sorted(primitive(r) for r in tau_rays)),
                       tuple(tuple(sorted(primitive(r) for r in rays))
                             for rays in cones_rays))


def validate_flag(flag: FlagOfCones) -> list[str]:
    """Flag invariants; each violation reported distinctly.

    The violations are cached per flag (a flag is immutable) and a fresh list
    is returned on every call."""
    return list(_flag_violations(flag))


@lru_cache(maxsize=CACHE_SIZE)
def _flag_violations(flag: FlagOfCones) -> tuple:
    """The violations of validate_flag, read off the rays.

    A cone spans what its rays span, so its dimension is their rank.  The
    faces of a simplicial cone are the cones over subsets of its rays, so when
    cones i-1 and i are both simplicial, cone i-1 is a face of cone i iff its
    primitive rays are rays of cone i.  Only the nesting of a non-simplicial
    cone builds H-representations and runs is_face.  A nonzero ray of the
    wrong length raises DimensionMismatchError, as building its cone would.
    A flag with no cone is a violation: it defines no prime matrix."""
    out = [] if flag.cones_rays else ["cones: the flag has no cone"]
    span_tau, pivots = rref(flag.tau_rays) if flag.tau_rays else ([], [])
    prev = prev_simplicial = None
    for i, rays in enumerate(flag.cones_rays):
        for rr in rays:
            if len(rr) != flag.ambient_dim and not is_zero_vec(rr):
                raise DimensionMismatchError(
                    "row length %d != dim %d" % (len(rr), flag.ambient_dim))
        d = rank_of(rays)
        if d != i + 1:
            out.append("dimension: cone %d has dim %d, expected %d" % (i, d, i + 1))
        simplicial = len(rays) == d
        if not simplicial:
            out.append("simplicial: cone %d has %d rays for dim %d" % (i, len(rays), d))
        for rr in rays:
            if rr[0] < 0:
                out.append("stratum: cone %d ray has negative height" % i)
            space = rr[1:]
            if span_tau and reduce_mod_rref(space, span_tau, pivots) != vec(space):
                out.append("stratum: cone %d ray not a canonical representative mod tau" % i)
        if prev is not None:
            if prev_simplicial and simplicial:
                nested = set(map(primitive, prev)) <= set(map(primitive, rays))
            else:
                nested = is_face(flag.cone(i - 1), flag.cone(i))
            if not nested:
                out.append("nesting: cone %d is not a face of cone %d" % (i - 1, i))
        prev, prev_simplicial = rays, simplicial
    return tuple(out)
