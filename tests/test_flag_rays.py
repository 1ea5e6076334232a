"""Flag validation read off the rays, against its double-description oracle.

`flag_reference` holds the library's former `_flag_violations`, which built
an H-representation of every flag cone, took its dimension from a second
generator enumeration and decided every nesting with `is_face`.  The library
now takes each dimension as the rank of the rays and decides the nesting of
two simplicial cones by ray-set inclusion; it must report the same
violations, in the same order, on valid flags and on flags broken in every
way validation detects, on the dense stratum and on deeper strata.

`shrink_reference` holds the library's former `variety.shrink_flag`, which
rebuilt every flag cone as an H-representation in R^{1+n} and cut it there.
The library now cuts each cone in its own ray coordinates; on the valid
flags of the sweep it must return the same flag or raise the same error,
and where the reference's cut is not simplicial (it then reports an invalid
shrunk flag) it must return a valid flag with the same prime inside the
support.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from tropcong import congruence, polyhedra
from tropcong import variety as vy
from tropcong._linalg import rank_of, vscale
from tropcong.congruence import CongruencePresentation, flag_to_matrix, initial_form_prime
from tropcong.polyhedra import (DimensionMismatchError, FlagOfCones, _flag_violations,
                                make_flag, validate_flag)
from tropcong.trop_core import ToricContext, TropPoly, parse_poly
from tropcong.variety import (InternalConsistencyError, flag_in_variety, shrink_flag,
                              variety_of_basis)

import flag_reference as ref
from helpers import vadd
import shrink_reference
from test_variety import ray_sums, same_prime_rows

CONTEXTS = (
    ToricContext.affine(2),
    ToricContext.affine(3),
    # the square pyramid: four rays over a square, not simplicial
    ToricContext(3, [(1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)]),
)

KINDS = ("valid", "non-simplicial", "zero ray", "not nested", "negative height",
         "not canonical", "other representatives", "random")


def _ray(rng, ctx, tau):
    """A ray of R_{>=0} x N_R/tau: height >= 0, coords canonical mod tau."""
    return (rng.randint(0, 2),) + tau.canonical([rng.randint(-2, 2) for _ in range(ctx.rank)])


def _independent(rng, ctx, tau, k):
    rays = []
    while len(rays) < k:
        r = _ray(rng, ctx, tau)
        if rank_of(rays + [r]) == len(rays) + 1:
            rays.append(r)
    return rays


def _flag(rng, ctx, tau, kind):
    """A flag of the given kind; kinds that do not apply leave it valid."""
    k = rng.randint(1, 1 + ctx.rank - tau.dim())
    g = _independent(rng, ctx, tau, k)
    cones = [g[:i + 1] for i in range(k)]
    i = rng.randrange(k)
    if kind == "non-simplicial":
        # a ray inside the cone, or past a facet of it from cone 2 on
        extra = vadd(g[0], g[i]) if i < 2 or rng.random() < 0.5 else \
            vadd(vadd(g[0], g[1]), vscale(-1, g[i]))
        cones[i] = cones[i] + [extra]
    elif kind == "zero ray":
        cones[i] = cones[i] + [(0,) * (1 + ctx.rank)]
    elif kind == "not nested" and i >= 1:
        # same span, but g[i-1] is traded for g[i-1] + g[i]: not a face
        cones[i] = [r for r in cones[i] if r != g[i - 1]] + [vadd(g[i - 1], g[i])]
    elif kind == "negative height":
        j = rng.randrange(k)
        g[j] = (-1 - g[j][0],) + g[j][1:]
        cones = [g[:i + 1] for i in range(k)]
    elif kind == "not canonical" and tau.rays:
        j = rng.randrange(k)
        g[j] = (g[j][0],) + vadd(g[j][1:], rng.choice(tau.rays))
        cones = [g[:i + 1] for i in range(k)]
    elif kind == "random":
        pool = [_ray(rng, ctx, tau) for _ in range(k + 1)] + [(0,) * (1 + ctx.rank)]
        cones = [rng.sample(pool, rng.randint(1, len(pool))) for _ in range(k)]
    flag = make_flag(1 + ctx.rank, tau.rays, cones)
    if kind == "other representatives":
        # positive multiples of the primitive rays, in no particular order
        flag = FlagOfCones(flag.ambient_dim, flag.tau_rays, tuple(
            tuple(vscale(rng.randint(1, 3), r) for r in reversed(rays))
            for rays in flag.cones_rays))
    return flag


def _category(violation):
    kind, text = violation.split(": ", 1)
    if kind == "stratum":
        kind += " height" if "height" in text else " canonical"
    return kind


def test_flag_violations_match_reference_on_every_stratum():
    rng = random.Random(14)
    seen = Counter()
    for ctx in CONTEXTS:
        for tau in ctx.faces:
            stratum = "dense" if not tau.rays else "deep"
            for _ in range(96 if stratum == "dense" else 24):
                kind = rng.choice(KINDS)
                flag = _flag(rng, ctx, tau, kind)
                got = _flag_violations(flag)
                assert got == tuple(ref.flag_violations(flag)), (ctx, tau, kind, flag)
                for part in set(map(_category, got)) or {"valid"}:
                    seen[stratum, part] += 1
    for stratum in ("dense", "deep"):
        for part in ("valid", "dimension", "simplicial", "stratum height", "nesting"):
            assert seen[stratum, part] >= 10, (stratum, part, seen)
    assert seen["deep", "stratum canonical"] >= 10, seen


@pytest.mark.parametrize("cones", [
    [[(1, 0, 0, 5)]],                 # a ray one coordinate too long
    [[(1, 0)]],                       # one too short
    [[(1, 0, 0)], [(1, 0, 0), (0, 1)]],
])
def test_rays_of_the_wrong_length_raise_as_in_the_reference(cones):
    # building the cone from such a ray raises, so the reference raises too
    flag = make_flag(3, [], cones)
    with pytest.raises(DimensionMismatchError):
        ref.flag_violations(flag)
    with pytest.raises(DimensionMismatchError):
        validate_flag(flag)


def test_a_zero_ray_of_the_wrong_length_is_dropped_as_in_the_reference():
    flag = make_flag(3, [], [[(1, 0, 0), (0, 0)]])
    assert validate_flag(flag) == ref.flag_violations(flag) == [
        "simplicial: cone 0 has 2 rays for dim 1"]


# ---------------------------------------------------------------------------
# shrinking flags in ray coordinates

def _poly(rng, ctx, dead_on=None):
    """A nonzero polynomial; every term dead on dead_on's stratum if given."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            u = tuple(rng.randint(-2, 3) for _ in range(ctx.rank))
            if ctx.exponent_in_monoid(u) and (dead_on is None or not dead_on.perp_contains(u)):
                terms[u] = rng.choice((0, 1, 2, -1, Fraction(1, 2), Fraction(-2, 3)))
    return TropPoly.make(ctx, terms)


def _presentation(rng, ctx, tau, theta):
    """Pairs (f, in_theta(f)), which the prime of theta contains, now and then
    mixed with a pair it need not contain: two random sides, or on a deeper
    stratum a dead side against a live one."""
    pairs = []
    for _ in range(rng.randint(1, 3)):
        f = _poly(rng, ctx)
        pairs.append((f, initial_form_prime(f, theta)))
    odd = rng.random()
    if odd < 0.15 or (odd < 0.25 and tau.rays):
        extra = (_poly(rng, ctx), _poly(rng, ctx, tau if odd >= 0.15 else None))
        pairs.insert(rng.randrange(len(pairs) + 1), extra)
    return CongruencePresentation.make(ctx, pairs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, InternalConsistencyError) as exc:
        return exc


def test_shrink_flag_matches_reference_on_every_stratum():
    rng = random.Random(15)
    seen = Counter()
    for ctx in CONTEXTS:
        for tau in ctx.faces:
            stratum = "dense" if not tau.rays else "deep"
            for _ in range(60 if stratum == "dense" else 15):
                flag = _flag(rng, ctx, tau, rng.choice(("valid", "other representatives")))
                E = _presentation(rng, ctx, tau, flag_to_matrix(ctx, flag))
                want = _outcome(shrink_reference.shrink_flag, ctx, flag, E)
                got = _outcome(shrink_flag, ctx, flag, E)
                case = (ctx, tau, flag, E)
                if isinstance(want, InternalConsistencyError) and "simplicial" in str(want):
                    assert not validate_flag(got), case
                    assert same_prime_rows(ray_sums(flag), ray_sums(got)), case
                    assert flag_in_variety(ctx, got, variety_of_basis(E)), case
                    seen[stratum, "not simplicial"] += 1
                elif isinstance(want, Exception):
                    assert (type(got), str(got)) == (type(want), str(want)), case
                    seen[stratum, type(want).__name__] += 1
                else:
                    assert got == want, case
                    seen[stratum, "shrunk" if got != flag else "kept"] += 1
    for stratum in ("dense", "deep"):
        for part in ("kept", "shrunk", "ValueError"):
            assert seen[stratum, part] >= 10, (stratum, part, seen)
    assert seen["dense", "not simplicial"] >= 10, seen


def test_shrink_flag_takes_the_first_cone_as_it_is():
    # C_0 is the ray of theta's first row, where every leading term dominates
    # and the two sides of a pair agree: its cut is itself, with no cone built
    ctx = ToricContext.affine(2)
    tau = ctx.face_from_rays([(-1, 0)])
    flag = FlagOfCones(3, tau.rays, (((2, 0, -4),),))  # a non-primitive ray
    theta = flag_to_matrix(ctx, flag)
    fs = [parse_poly(ctx, s) for s in ("t^1 + x*y + t^-1*y^2 + x", "t^2*y + x^3 + 1")]
    # x and x^2 are dead on the stratum of tau
    E = CongruencePresentation.make(
        ctx, [(f, initial_form_prime(f, theta)) for f in fs]
        + [(parse_poly(ctx, "x"), parse_poly(ctx, "x^2"))])
    before = polyhedra.cone_generators.cache_info()
    out = shrink_flag(ctx, flag, E)
    after = polyhedra.cone_generators.cache_info()
    assert after.hits + after.misses == before.hits + before.misses
    assert out.cones_rays == (((1, 0, -2),),)
    assert out == shrink_reference.shrink_flag(ctx, flag, E)


# a valid flag whose third cut has 4 extreme rays for dimension 3
def _non_simplicial_case():
    ctx = ToricContext.affine(2)
    E = CongruencePresentation.make(
        ctx, [(parse_poly(ctx, "t^-2 + t^-1*y + t^1*y^2"), parse_poly(ctx, "t^-2"))])
    flag = make_flag(3, [], [[(0, -1, -1)], [(1, 0, 1), (0, -1, -1)],
                             [(1, 0, 1), (1, -2, -2), (0, -1, -1)]])
    return ctx, E, flag


def test_shrink_flag_of_a_non_simplicial_cut_stays_a_flag():
    ctx, E, flag = _non_simplicial_case()
    assert validate_flag(flag) == []
    with pytest.raises(InternalConsistencyError, match="cone 2 has 4 rays for dim 3"):
        shrink_reference.shrink_flag(ctx, flag, E)
    out = shrink_flag(ctx, flag, E)
    # cones 0 and 1 are the simplicial cuts; cone 2 adds the primitive sum
    # of the four extreme rays of its cut to cone 1
    assert out.cones_rays == (((0, -1, -1),),
                              ((0, -1, -1), (2, -5, -3)),
                              ((0, -1, -1), (2, -5, -3), (3, -6, -5)))
    assert validate_flag(out) == []
    assert same_prime_rows(ray_sums(flag), ray_sums(out))
    assert flag_in_variety(ctx, out, variety_of_basis(E))


def test_shrink_flag_builds_no_full_hrep_and_no_containment_check(monkeypatch):
    ctx, E, flag = _non_simplicial_case()
    torus = ToricContext.torus(1)
    E1 = CongruencePresentation.make(
        torus, [(parse_poly(torus, "t^1 + x"), parse_poly(torus, "t^1"))])
    flag1 = make_flag(2, [], [[(1, 0)], [(1, 0), (0, 1)]])
    # on the deep stratum x^2 dies and 1 lives: E is not in the prime, which
    # the one pass over the live terms reports as such
    ctx2 = ToricContext.affine(2)
    dead_live = CongruencePresentation.make(
        ctx2, [(parse_poly(ctx2, "x^2"), parse_poly(ctx2, "1"))])
    deep = make_flag(3, [(-1, 0), (0, -1)], [[(1, 0, 0)]])

    def boom(*args):
        raise AssertionError("shrink_flag rebuilt a flag cone or re-ran containment")

    monkeypatch.setattr(polyhedra, "hrep_from_rays", boom)
    monkeypatch.setattr(congruence, "congruence_in_prime", boom)
    monkeypatch.setattr(vy, "congruence_in_prime", boom, raising=False)
    assert validate_flag(shrink_flag(ctx, flag, E)) == []
    assert shrink_flag(torus, flag1, E1).cones_rays == (((1, 0),), ((1, 0), (1, 1)))
    with pytest.raises(ValueError, match="E is not contained in the prime of the flag"):
        shrink_flag(ctx2, deep, dead_live)
