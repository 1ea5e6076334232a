"""Flag containment decided by the top cone, against the every-cone oracle.

A valid flag is nested, every cone a face of the last one, so
`flag_in_variety` splits and tests only the top cone, and a one-ray top cone
is its own only piece: its ray is tested with no split.  Points and flags are
valued through one point table per support and stratum
(`variety._point_table`), built at the first query.  `flag_reference` holds
the former loop, which split every cone and tested every piece; on seeded
valid flags of length 1, 2 and 3, and on their `shrink_flag` outputs, over
every fixture presentation and a few random bends, on every stratum, the
two must agree.  The cell index stays a cross-check: a support that lacks a
cell of the true support raises InternalConsistencyError at a point of it.
"""

import random
from collections import Counter

import pytest

from tropcong import polyhedra
from tropcong import variety as vy
from tropcong.congruence import CongruencePresentation, congruence_in_prime, flag_to_matrix
from tropcong.polyhedra import make_flag, validate_flag
from tropcong.trop_core import ExtPoint, ToricContext
from tropcong.variety import (InternalConsistencyError, flag_in_variety, point_in_variety,
                              shrink_flag, variety_of_basis)

import flag_reference as ref
from helpers import random_poly
from test_pair_table import PRESENTATIONS, _cell_point, _independent, _ray


def _random_bends():
    rng = random.Random(33)
    out = []
    for rank, k in ((2, 3), (2, 4), (3, 3), (3, 4)):
        E = CongruencePresentation.bend_of(random_poly(ToricContext.affine(rank), rng, k))
        out.append(("bend %d" % len(out), E, variety_of_basis(E)))
    return out


RANDOM_BENDS = _random_bends()


def _flags(rng, ctx, V, tau):
    """Valid flags of length 1, 2 and 3 (as the stratum allows) on tau's
    stratum, drawn from random rays and from points of each cell of V."""
    draws = [lambda: _ray(rng, ctx, tau)]
    draws += [lambda c=c: _cell_point(rng, c) for c in V.stratum(tau).cells]
    for draw in draws:
        for k in range(1, min(3, 1 + ctx.rank - tau.dim()) + 1):
            rays = _independent(rng, draw, k)
            if len(rays) == k:
                flag = make_flag(1 + ctx.rank, tau.rays, [rays[:i + 1] for i in range(k)])
                if not validate_flag(flag):
                    yield flag


def test_top_cone_matches_every_cone_oracle():
    rng = random.Random(34)
    seen = Counter()
    for name, E, V in PRESENTATIONS + RANDOM_BENDS:
        ctx = E.context
        for tau in ctx.faces:
            stratum = "dense" if tau == ctx.dense_face else "boundary"
            for flag in _flags(rng, ctx, V, tau):
                queries = [("drawn", flag)]
                if congruence_in_prime(E, flag_to_matrix(ctx, flag)):
                    queries.append(("shrunk", shrink_flag(ctx, flag, E)))
                for kind, fl in queries:
                    got = flag_in_variety(ctx, fl, V)
                    assert got == ref.flag_in_variety(ctx, fl, V), (name, fl)
                    seen[got] += 1
                    seen[kind, got] += 1
                    seen[stratum, got] += 1
                    seen[len(fl.cones_rays), got] += 1
                    seen["affine(3) length 3"] += ctx.rank == 3 and len(fl.cones_rays) == 3
    assert seen[True] >= 10 and seen[False] >= 10, seen
    for part in [("shrunk", True), ("dense", True), ("dense", False),
                 ("boundary", True), ("boundary", False),
                 (1, True), (1, False), (2, True), (2, False), (3, True), (3, False)]:
        assert seen[part] >= 1, (part, seen)
    assert seen["affine(3) length 3"] >= 5, seen
    assert seen["shrunk", False] == 0, seen  # a shrunk flag lies in the support


def test_only_the_top_cone_is_split(monkeypatch):
    split = []
    inner = vy.split_generators_by_forms

    def counting(state, bit, forms):
        split.append(len(state[1]))
        return inner(state, bit, forms)

    monkeypatch.setattr(vy, "split_generators_by_forms", counting)
    name, E, V = RANDOM_BENDS[2]  # affine(3)
    ctx = E.context
    flags = list(_flags(random.Random(35), ctx, V, ctx.dense_face))
    for k in (1, 2, 3):
        flag = next(f for f in flags if len(f.cones_rays) == k)
        split.clear()
        assert flag_in_variety(ctx, flag, V) == ref.flag_in_variety(ctx, flag, V)
        assert split == ([] if k == 1 else [k])


def _missing_cell_support(E, tau):
    """E's support with one cell of tau's stratum left out, and a point of
    that cell in no cell kept."""
    V = variety_of_basis(E)
    cells = V.stratum(tau).cells
    for k, cell in enumerate(cells):
        w = vy._relint_sample(polyhedra.generators(cell))
        kept = cells[:k] + cells[k + 1:]
        if not any(polyhedra.satisfied_at(c, (w,)) for c in kept):
            strata = tuple(vy.StratumSupport(s.tau, kept if s.tau == tau else s.cells)
                           for s in V.strata)
            return V, vy.VarietySupport(V.context, V.pairs, strata), w
    raise AssertionError("every cell point lies in another cell")


def test_a_missing_cell_is_an_internal_consistency_error(quartic_E):
    ctx = quartic_E.context
    tau = ctx.dense_face
    V, broken, w = _missing_cell_support(quartic_E, tau)
    point = ExtPoint.make(ctx, w[0], tau, w[1:])
    flag = make_flag(1 + ctx.rank, tau.rays, [[w]])
    assert point_in_variety(V, point) and flag_in_variety(ctx, flag, V)
    with pytest.raises(InternalConsistencyError, match="cell index disagrees"):
        point_in_variety(broken, point)
    with pytest.raises(InternalConsistencyError, match="cell index disagrees"):
        flag_in_variety(ctx, flag, broken)


def test_point_table_built_once_per_support_and_stratum():
    rng = random.Random(36)
    vy._point_table.cache_clear()  # the cache is process-wide
    queried = set()
    for name, E, V in PRESENTATIONS:
        ctx = E.context
        for tau in ctx.faces:
            for _ in range(3):
                point_in_variety(V, ExtPoint.make(ctx, rng.randint(0, 2), tau,
                                                  [rng.randint(-3, 3) for _ in range(ctx.rank)]))
            for flag in _flags(rng, ctx, V, tau):
                flag_in_variety(ctx, flag, V)
            queried.add((V, tau))
    info = vy._point_table.cache_info()
    assert info.misses == len(queried) and info.hits > info.misses, info


def test_refused_flags_raise_on_every_call(ctx2, quartic_E):
    V = variety_of_basis(quartic_E)
    dense_only = variety_of_basis(quartic_E, strata=[ctx2.dense_face])
    invalid = make_flag(3, [], [[(1, 0, 0)], [(1, 0, 0)]])
    deep = make_flag(3, [(-1, 0), (0, -1)], [[(1, 0, 0)]])
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid flag"):
            flag_in_variety(ctx2, invalid, V)
        with pytest.raises(ValueError, match="flag stratum not represented in the support"):
            flag_in_variety(ctx2, deep, dense_only)
    # the stratum's table is kept, marked as left out; the flag is not
    assert vy._point_table(dense_only, ctx2.deep_face)[2] is None
    assert flag_in_variety(ctx2, deep, V)
