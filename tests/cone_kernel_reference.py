"""Reference cone kernel: exact LPs for implicit equalities, then subset enumeration.

This was the library's `polyhedra.cone_generators` before the double-description
kernel replaced it.  It is kept verbatim as an independent oracle for
tests/test_cone_kernel.py: one exact LP per inequality row finds the linear hull
of the cone, and extreme rays come from every (t-1)-subset of the rows restricted
to the pointed part.  Exponential in the number of rows; test use only.

`faces_of` was the library's face enumeration before faces were read off ray
incidence; it is kept verbatim as the oracle for the faces of general cones.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from tropcong import _lp
from tropcong._linalg import (ONE, ZERO, Vec, dot, is_zero_vec, neg_primitive_pair,
                              nullspace_basis, primitive, rank_of, vscale, zero_vec)
from tropcong.polyhedra import (CACHE_SIZE, EQ, ConeH, HRow, PolyhedronH, cone_dim,
                                cone_key)

from helpers import reduce_mod_span, vadd
from lp_reference import max_linear


def _implicit_equality_normals(c: PolyhedronH) -> list[Vec]:
    # a.x <= b is implicit iff min a.x == b, i.e. max (-a).x == -b
    normals = [r.a for r in c.rows if r.rel == EQ]
    for r in c.rows:
        if r.rel == EQ:
            continue
        status, value, _ = max_linear(c, vscale(-1, r.a))
        if status == _lp.OPTIMAL and value == -r.b:
            normals.append(r.a)
    return normals


def cone_generators(c: ConeH):
    """(lineality_basis, extreme_rays) generating c = span(lineality) + cone(rays)."""
    if c.has_strict():
        raise ValueError("generator enumeration needs a closed cone")
    d = c.dim
    all_normals = [r.a for r in c.rows]
    lin = nullspace_basis(all_normals, d)
    span_normals = _implicit_equality_normals(c)
    span = nullspace_basis(span_normals, d)
    s = len(span)
    if s == len(lin):
        return tuple(neg_primitive_pair(v) for v in lin), ()
    # complement W of the lineality inside the span: reduce span basis mod lin
    comp = []
    for v in span:
        red = reduce_mod_span(v, lin + comp)
        if not is_zero_vec(red):
            comp.append(red)
    t = len(comp)  # dim of the pointed part
    ineq = []
    for r in c.rows:
        if r.rel == EQ:
            continue
        restricted = tuple(dot(r.a, w) for w in comp)
        if not is_zero_vec(restricted):
            ineq.append(restricted)
    rays_t = set()
    if t == 1:
        candidates = [(ONE,), (-ONE,)]
    else:
        candidates = []
        for subset in itertools.combinations(range(len(ineq)), t - 1):
            sub = [ineq[i] for i in subset]
            if rank_of(sub) != t - 1:
                continue
            ns = nullspace_basis(sub, t)
            if len(ns) != 1:
                continue
            candidates.append(ns[0])
            candidates.append(vscale(-1, ns[0]))
    for cand in candidates:
        if is_zero_vec(cand):
            continue
        vals = [dot(a, cand) for a in ineq]
        if any(v > 0 for v in vals):
            continue
        tight = [ineq[i] for i, v in enumerate(vals) if v == 0]
        if t > 1 and rank_of(tight) != t - 1:
            continue
        rays_t.add(primitive(cand))
    rays = set()
    for rt in rays_t:
        x = zero_vec(d)
        for coef, w in zip(rt, comp):
            x = vadd(x, vscale(coef, w))
        # canonical representative modulo lineality for stable identity
        rays.add(primitive(reduce_mod_span(x, lin)))
    lin_canon = tuple(sorted(neg_primitive_pair(v) for v in lin))
    return lin_canon, tuple(sorted(rays))


@lru_cache(maxsize=CACHE_SIZE)
def faces_of(c: ConeH) -> tuple:
    """All faces of c (including c and its minimal face)."""
    seen = {}
    work = [c]
    seen[cone_key(c)] = c
    while work:
        cur = work.pop()
        for r in cur.rows:
            if r.rel == EQ:
                continue
            face = ConeH.make(cur.dim, cur.rows + (HRow(r.a, ZERO, EQ),))
            key = cone_key(face)
            if key not in seen:
                seen[key] = face
                work.append(face)
    return tuple(sorted(seen.values(), key=lambda f: (cone_dim(f), cone_key(f))))
