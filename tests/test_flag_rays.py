"""Flag validation read off the rays, against its double-description oracle.

`flag_reference` holds the library's former `_flag_violations`, which built
an H-representation of every flag cone, took its dimension from a second
generator enumeration and decided every nesting with `is_face`.  The library
now takes each dimension as the rank of the rays and decides the nesting of
two simplicial cones by ray-set inclusion; it must report the same
violations, in the same order, on valid flags and on flags broken in every
way validation detects, on the dense stratum and on deeper strata.
"""

import random
from collections import Counter

import pytest

from tropcong._linalg import rank_of, vadd, vscale
from tropcong.polyhedra import (DimensionMismatchError, FlagOfCones, _flag_violations,
                                make_flag, validate_flag)
from tropcong.trop_core import ToricContext

import flag_reference as ref

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
                assert got == ref.flag_violations(flag), (ctx, tau, kind, flag)
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
