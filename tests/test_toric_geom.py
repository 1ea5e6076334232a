import itertools
import random
from fractions import Fraction as F

import pytest

import closure_reference as ref
from cone_kernel_reference import faces_of
from helpers import random_poly

from tropcong.congruence import CongruencePresentation
from tropcong import jsonio
from tropcong.polyhedra import (Fan, PolyhedronH, cone_over, generators, hrep_from_rays,
                                poly_in_union, row)
from tropcong.toric_geom import (CLAIM_DIRECTION, CLAIM_PREIMAGE, ClosureWitness,
                                 NotInClosure, closure_on_stratum,
                                 cone_closure_witnesses, polyhedron_closure_membership,
                                 witness_soundness)
from tropcong.trop_core import ExtPoint, ToricContext
from tropcong.variety import support_of


def sigma_fan(ctx):
    return Fan.make(ctx.rank, [ctx.sigma])


# ---------------------------------------------------------------------------
# projections

def test_project_dense_identity(ctx2):
    p = ExtPoint.make(ctx2, 1, ctx2.dense_face, (3, -2))
    assert p.coords == (F(3), F(-2))


def test_project_deep_unique(ctx2):
    a = ExtPoint.make(ctx2, 1, ctx2.deep_face, (5, 7))
    b = ExtPoint.make(ctx2, 1, ctx2.deep_face, (-1, 0))
    assert a == b and a.coords == (F(0), F(0))


def test_project_ray_quotient(ctx2):
    tau = ctx2.face_from_rays([(-1, 0)])
    p = ExtPoint.make(ctx2, 1, tau, (5, -1))
    assert p.coords == (F(0), F(-1))
    assert p.r == 1
    assert p.pair((0, 0, 1)) == F(-1)
    assert p.pair((0, 1, 0)) is None  # u outside tau-perp


# ---------------------------------------------------------------------------
# cone closure witnesses

def test_cone_closure_height_one_cell(ctx2):
    # closed cone over {x = y+1, y <= 0}; target the deep point at height 1
    L = cone_over(PolyhedronH.make(2, (row([1, -1], 1, "="), row([0, 1], 0, "<="))))
    target = ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0))
    res = cone_closure_witnesses(L, target)
    assert not isinstance(res, NotInClosure)
    v, w_hat = res
    assert v == (F(0), F(-1), F(-1))
    assert w_hat == (F(1), F(0), F(-1))


def test_cone_closure_direction_missing(ctx2):
    # L = R_{>=0} x {0}^2 has no height-0 ray into rel.int(tau); the target
    # class (second coordinate 0) does lie over L, so only claim 3 fails
    L = hrep_from_rays([(1, 0, 0)], 3)
    tau = ctx2.face_from_rays([(-1, 0)])
    target = ExtPoint.make(ctx2, 1, tau, (7, 0))
    res = cone_closure_witnesses(L, target)
    assert isinstance(res, NotInClosure)
    assert res.failed_claims == (CLAIM_DIRECTION,)


def test_cone_closure_dense_degenerate(ctx2):
    L = hrep_from_rays([(1, 1, 0), (1, 0, 1), (0, -1, -1)], 3)
    w = ExtPoint.dense(ctx2, 1, (1, 0))
    res = cone_closure_witnesses(L, w)
    assert not isinstance(res, NotInClosure)
    v, w_hat = res
    assert v == (F(0), F(0), F(0))  # rel.int of the zero face is the origin
    assert w_hat == w.full_vector()


def _reached(L, w) -> bool:
    return not isinstance(cone_closure_witnesses(L, w), NotInClosure)


def test_closure_on_stratum_against_witnesses_on_random_bends():
    # application (4) on two paths: the projected cone covers a boundary cell
    # C iff the per-target lemma reaches every generator of C (the cone is
    # convex), and a point of a cell inside the union of the closures is
    # reached by some dense cell with a sound witness
    rng = random.Random(11)
    seen = {"reached": 0, "missed": 0, "union only": 0, "points": 0}
    for i in range(20):
        ctx = ToricContext.affine(2 + i % 2)
        V = support_of(CongruencePresentation.bend_of(random_poly(ctx, rng, rng.randint(3, 5))))
        dense = V.stratum(ctx.dense_face).cells
        for sup in V.strata:
            tau = sup.tau
            if tau.dim() == 0:
                continue
            closures = [closure_on_stratum(L, tau) for L in dense]
            union = [cl for cl in closures if cl is not None]
            for C in sup.cells:
                gens = generators(C)
                covered = [cl is not None and poly_in_union(C, [cl]) for cl in closures]
                for L, cov in zip(dense, covered):
                    assert cov == all(_reached(L, ExtPoint.make(ctx, g[0], tau, g[1:]))
                                      for g in gens), (V, tau, C, L)
                    seen["reached" if cov else "missed"] += 1
                if not poly_in_union(C, union):
                    continue
                seen["union only"] += not any(covered)
                up = [g for g in gens if g[0] > 0]
                if not up:
                    continue
                total = [sum(g[j] for g in up) for j in range(1 + ctx.rank)]
                w = ExtPoint.make(ctx, 1, tau, [F(x, total[0]) for x in total[1:]])
                witnesses = [res for res in (cone_closure_witnesses(L, w) for L in dense)
                             if not isinstance(res, NotInClosure)]
                assert witnesses, (V, tau, C)
                for v, w_hat in witnesses:
                    assert witness_soundness(v[1:], w_hat[1:], w)
                seen["points"] += 1
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# polyhedron closure membership

def test_polyhedron_closure_reference_cell(ctx2):
    L = PolyhedronH.make(2, (row([1, -1], 1, "="), row([0, 1], 0, "<=")))
    w = ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0))
    res = polyhedron_closure_membership(L, sigma_fan(ctx2), w)
    assert isinstance(res, ClosureWitness)
    assert res.base == (F(0), F(-1))
    assert res.direction == (F(-1), F(-1))
    assert witness_soundness(res.direction, res.base, w)


def test_polyhedron_closure_line_misses_deep(ctx2):
    L = PolyhedronH.make(2, (row([1, 1], 0, "="),))
    w = ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0))
    res = polyhedron_closure_membership(L, sigma_fan(ctx2), w)
    assert isinstance(res, NotInClosure)
    assert res.failed_claims == (CLAIM_DIRECTION,)


def test_polyhedron_closure_needs_height_one(ctx2):
    L = PolyhedronH.make(2, (row([1, -1], 1, "="), row([0, 1], 0, "<=")))
    for r in (0, 2):
        with pytest.raises(ValueError, match="height 1"):
            polyhedron_closure_membership(L, sigma_fan(ctx2),
                                          ExtPoint.make(ctx2, r, ctx2.deep_face, (0, 0)))


def test_polyhedron_closure_needs_tau_in_the_fan(ctx2):
    # a fan of one ray: the other ray and the deep face of sigma are faces of
    # no member
    L = PolyhedronH.make(2, (row([1, -1], 1, "="), row([0, 1], 0, "<=")))
    fan = Fan.make(2, [hrep_from_rays([(-1, 0)], 2)])
    for rays in ([(0, -1)], [(-1, 0), (0, -1)]):
        w = ExtPoint.make(ctx2, 1, ctx2.face_from_rays(rays), (0, 0))
        with pytest.raises(ValueError, match="not a face of any fan member"):
            polyhedron_closure_membership(L, fan, w)
    w = ExtPoint.make(ctx2, 1, ctx2.face_from_rays([(-1, 0)]), (0, -1))
    assert polyhedron_closure_membership(L, fan, w) == NotInClosure((CLAIM_DIRECTION,))


def test_polyhedron_closure_single_point(ctx2):
    L = PolyhedronH.make(2, (row([1, 0], 2, "="), row([0, 1], 3, "=")))
    for rays in ([(-1, 0)], [(0, -1)], [(-1, 0), (0, -1)]):
        tau = ctx2.face_from_rays(rays)
        w = ExtPoint.make(ctx2, 1, tau, (2, 3))
        res = polyhedron_closure_membership(L, sigma_fan(ctx2), w)
        assert isinstance(res, NotInClosure)
        assert CLAIM_DIRECTION in res.failed_claims


def test_polyhedron_closure_wrong_class(ctx2):
    L = PolyhedronH.make(2, (row([1, 0], 1, "="), row([0, 1], 0, "<=")))
    tau = ctx2.face_from_rays([(0, -1)])
    res = polyhedron_closure_membership(L, sigma_fan(ctx2),
                                        ExtPoint.make(ctx2, 1, tau, (5, 0)))
    assert isinstance(res, NotInClosure)
    assert res.failed_claims == (CLAIM_PREIMAGE,)


def test_polyhedron_closure_dense_point_is_plain_membership(ctx2):
    L = PolyhedronH.make(2, (row([0, 1], 0, "<"),))
    inside = polyhedron_closure_membership(L, sigma_fan(ctx2),
                                           ExtPoint.make(ctx2, 1, ctx2.dense_face, (3, 0)))
    assert isinstance(inside, ClosureWitness)
    assert inside.base == (F(3), F(0)) and inside.direction == (F(0), F(0))
    outside = polyhedron_closure_membership(L, sigma_fan(ctx2),
                                            ExtPoint.make(ctx2, 1, ctx2.dense_face, (0, 1)))
    assert isinstance(outside, NotInClosure)


def test_limit_check_exact_coordinates(ctx2):
    # exact pairings: v falls on the dead generator, w_hat matches w on the alive one
    tau = ctx2.face_from_rays([(-1, 0)])
    w = ExtPoint.make(ctx2, 1, tau, (0, -1))
    v = (F(-1), F(0))
    w_hat = (F(7), F(-1))
    assert witness_soundness(v, w_hat, w)
    # a direction that keeps the dead coordinate finite must fail soundness
    assert not witness_soundness((F(0), F(0)), w_hat, w)


def _brute_witness(v, w_hat, w, box=3):
    """lim_N <u, w_hat + N*v> = w(u) for every u in M with |u_i| <= box:
    +inf (<u, v> > 0) matches nothing, -inf (<u, v> < 0) matches bottom."""
    ctx = w.context
    for u in itertools.product(range(-box, box + 1), repeat=ctx.rank):
        if not ctx.exponent_in_monoid(u):
            continue
        pv = sum(a * b for a, b in zip(v, u))
        pw = w.pair((0,) + u)
        if pv > 0 or (pv < 0) != (pw is None):
            return False
        if pv == 0 and sum(a * b for a, b in zip(w_hat, u)) != pw:
            return False
    return True


def test_witness_soundness_matches_brute_force_pairing():
    # v = (1, -1) walks the x coordinate to +inf, outside sigma
    ctx = ToricContext.affine(2)
    w = ExtPoint.make(ctx, 1, ctx.face_from_rays([(0, -1)]), (3, 0))
    assert not witness_soundness((1, -1), (3, 5), w)
    assert witness_soundness((0, -1), (3, 5), w)

    rng = random.Random(20261019)
    seen = {True: 0, False: 0, "outside sigma": 0}
    for ctx in (ToricContext.affine(2), ToricContext(2, [(-1, 0), (-1, -2)]),
                _square_pyramid(), ToricContext.torus(2)):
        n = ctx.rank
        for _ in range(150):
            tau = rng.choice(ctx.faces)
            if rng.random() < 0.5:  # a point of rel.int(tau), often a true direction
                v = tuple(sum(rng.randint(1, 3) * r[i] for r in tau.rays) for i in range(n))
            else:
                v = tuple(rng.randint(-2, 2) for _ in range(n))
            w_hat = tuple(rng.randint(-2, 2) for _ in range(n))
            x = w_hat if rng.random() < 0.5 else [rng.randint(-2, 2) for _ in range(n)]
            w = ExtPoint.make(ctx, 1, tau, x)
            want = _brute_witness(v, w_hat, w)
            assert witness_soundness(v, w_hat, w) == want, (ctx, v, w_hat, w)
            seen[want] += 1
            if not ctx.sigma.contains(v):
                seen["outside sigma"] += 1
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# one lemma for every stratum, cross-checked against the former two-path code

def test_closure_empty_strict_polyhedron_reaches_nothing(ctx2):
    # {x < 0, x > 0} is empty: no stratum point is in its closure
    L = PolyhedronH.make(2, (row([1, 0], 0, "<"), row([-1, 0], 0, "<")))
    res = polyhedron_closure_membership(L, sigma_fan(ctx2),
                                        ExtPoint.make(ctx2, 1, ctx2.dense_face, (0, 5)))
    assert res == NotInClosure((CLAIM_PREIMAGE,))
    for tau in ctx2.faces[1:]:
        res = polyhedron_closure_membership(L, sigma_fan(ctx2),
                                            ExtPoint.make(ctx2, 1, tau, (0, 5)))
        assert res == NotInClosure((CLAIM_PREIMAGE, CLAIM_DIRECTION))


def test_closure_strict_polyhedron_boundary_witness(ctx2):
    # {x = y + 1, y < 0} has the closure of the reference cell, so the same witness
    strict = PolyhedronH.make(2, (row([1, -1], 1, "="), row([0, 1], 0, "<")))
    w = ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0))
    res = polyhedron_closure_membership(strict, sigma_fan(ctx2), w)
    assert res == polyhedron_closure_membership(strict.weakened(), sigma_fan(ctx2), w)
    assert res == ClosureWitness((F(0), F(-1)), (F(-1), F(-1)))
    assert witness_soundness(res.direction, res.base, w)
    # rec = {x = y <= 0} misses the ray (0, -1), and so does the class x = 5
    tau = ctx2.face_from_rays([(0, -1)])
    res = polyhedron_closure_membership(strict, sigma_fan(ctx2),
                                        ExtPoint.make(ctx2, 1, tau, (5, 0)))
    assert res == NotInClosure((CLAIM_PREIMAGE, CLAIM_DIRECTION))


def _square_pyramid():
    # a strongly convex cone over a square: four rays, not simplicial
    return ToricContext(3, [(1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)])


def _nonempty_closed(rng, d):
    """A random polyhedron through an integer anchor point: rows a.x <= a.p + s
    or a.x = a.p, so it is nonempty and closed."""
    p = [rng.randint(-2, 2) for _ in range(d)]
    rows = []
    for _ in range(rng.randint(1, d + 1)):
        a = [rng.randint(-1, 1) for _ in range(d)]
        if not any(a):
            continue
        b = sum(x * y for x, y in zip(a, p))
        if rng.random() < 0.2:
            rows.append(row(a, b, "="))
        else:
            rows.append(row(a, b + rng.randint(0, 2), "<="))
    return PolyhedronH.make(d, rows), p


def _against_reference(ctx, L, w):
    """The verdict of both paths, after checking that they agree: equal failed
    claims, or a witness on each side.  The reference solves its systems by
    LPs, so its points differ from the library's: each witness must be sound,
    with its base w_hat in L and over w."""
    fan = sigma_fan(ctx)
    got = polyhedron_closure_membership(L, fan, w)
    want = ref.polyhedron_closure_membership(ctx, L, fan, w)
    assert type(got) is type(want), (L, w, got, want)
    if not isinstance(got, ClosureWitness):
        assert got.failed_claims == want.failed_claims, (L, w)
        return got.failed_claims if len(got.failed_claims) == 1 else "both"
    for witness in (got, want):
        assert witness_soundness(witness.direction, witness.base, w), (L, w, witness)
        assert L.contains(witness.base) and w.tau.canonical(witness.base) == w.coords
    return "witness"


def test_closure_matches_reference_on_every_stratum():
    rng = random.Random(20261018)
    seen = {"witness": 0, (CLAIM_PREIMAGE,): 0, (CLAIM_DIRECTION,): 0, "both": 0}
    for ctx, count in ((ToricContext.affine(2), 16), (ToricContext.affine(3), 5),
                       (_square_pyramid(), 6)):
        for _ in range(count):
            L, anchor = _nonempty_closed(rng, ctx.rank)
            for tau in ctx.faces:
                # the anchor's own class (claim 1 holds) and a random one
                for x in (anchor, [rng.randint(-3, 3) for _ in range(ctx.rank)]):
                    seen[_against_reference(ctx, L, ExtPoint.make(ctx, 1, tau, x))] += 1
    # every verdict is reached
    assert all(seen.values()), seen


def test_closure_direction_tie_against_reference():
    # (1, 0, -2) and (0, -1, -2) both have L1 norm 3 in rec(L) cap rel.int(sigma):
    # the reference's L1 polish and the library's sum of rays may pick other
    # directions, and each must be sound
    ctx = _square_pyramid()
    L = PolyhedronH.make(3, (row([-1, 0, 1], 1, "<="), row([-1, 1, 0], -2, "<="),
                             row([-1, 1, 0], -1, "<="), row([-1, 1, 1], -3, "<=")))
    assert _against_reference(ctx, L, ExtPoint.make(ctx, 1, ctx.deep_face, (0, 0, 0))) == "witness"


# ---------------------------------------------------------------------------
# a fan is the cones it is given: listing their faces changes no verdict

def _verdict(L, fan, w):
    try:
        return polyhedron_closure_membership(L, fan, w)
    except ValueError as exc:
        return str(exc)


def _maximal_fans(ctx):
    """Fans by their maximal cones: sigma alone, the rays of sigma (no face
    of dimension 2 or more is in that fan), and every orthant of R^n."""
    n = ctx.rank
    orthants = [hrep_from_rays([[s * (i == j) for j in range(n)] for i, s in enumerate(signs)], n)
                for signs in itertools.product((1, -1), repeat=n)]
    return [[ctx.sigma], [hrep_from_rays([r], n) for r in ctx.sigma_rays], orthants]


def test_closure_on_maximal_cones_matches_the_face_closed_fan(fixtures_dir):
    rng = random.Random(20261020)
    base = fixtures_dir / "closure"
    fixture_Ls = [jsonio.dec_polyhedron(jsonio.load_document((base / name).read_text()))
                  for name in ("cell_L.json", "neg_claim1_L.json", "neg_claim3_L.json")]
    seen = set()
    for ctx in (ToricContext.affine(2), ToricContext.affine(3)):
        Ls = (fixture_Ls if ctx.rank == 2 else []) + [
            _nonempty_closed(rng, ctx.rank)[0] for _ in range(4)]
        for cones in _maximal_fans(ctx):
            fan = Fan.make(ctx.rank, cones)
            closed = Fan.make(ctx.rank, [f for c in cones for f in faces_of(c)])
            assert len(closed.cones) > len(fan.cones)
            for tau in ctx.faces:
                w = ExtPoint.make(ctx, 1, tau, [rng.randint(-3, 3) for _ in range(ctx.rank)])
                for L in Ls:
                    got = _verdict(L, fan, w)
                    assert got == _verdict(L, closed, w), (cones, L, w)
                    seen.add(type(got).__name__)
    assert seen == {"ClosureWitness", "NotInClosure", "str"}, seen
