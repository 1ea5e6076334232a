"""Pair tables against the per-pair paths they replace.

`point_in_variety`, `congruence_in_prime` and `shrink_flag` read a
presentation's pairs through one table per stratum: the distinct terms alive
there, valued once per query, and each side as indices into them.  They must
answer as the per-pair oracles do, on every stratum of every fixture
presentation and of presentations built to hit the edge cases:

* `point_in_variety` as pointwise evaluation of every pair with
  `eval_reference.evaluate`;
* `congruence_in_prime` as `eval_reference.prime_eval` of both sides of
  every pair;
* `shrink_flag` as `shrink_reference.shrink_flag`, which decides containment
  pair by pair with `prime_contains_pair`.

The sweep asserts that it meets pairs with both sides dead, pairs with one
side dead, a zero side, terms repeated across sides and both answers of
each query.

Function equality on a support reads the pair table of (f, g) at (1+n)-vectors
through `variety._sides_agree`, with no `ExtPoint`.  On every stratum of
every fixture support it must answer as `eval_reference.functions_equal_on_cell`
does, and `_sides_agree` at every sample point and piece generator as
`TropPoly.evaluate` of both sides at the `ExtPoint` there.
"""

import json
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropcong import jsonio, polyhedra, trop_core
from tropcong import variety as vy
from tropcong._linalg import rank_of, vscale
from tropcong.congruence import (CongruencePresentation, PrimeMatrix, _pair_table,
                                 congruence_in_prime, flag_to_matrix)
from tropcong.polyhedra import make_flag, validate_flag
from tropcong.trop_core import (COEFF_B, ContextMismatchError, ExtPoint, ToricContext,
                                TropPoly, parse_poly)
from tropcong.variety import (InternalConsistencyError, flag_in_variety,
                              functions_equal_on_variety, hypersurface,
                              intersect_supports, point_in_variety, radical_member,
                              shrink_flag, variety_of_basis)

import eval_reference as ref
import shrink_reference
from test_flag_rays import _outcome
from test_variety import ray_sums, same_prime_rows

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PYRAMID = ToricContext(3, [(1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)])


def _doc(*parts):
    return json.loads(FIXTURES.joinpath(*parts).read_text())


def _fixture_presentation(*parts):
    doc = _doc(*parts)
    ctx = jsonio.context_of_document(doc)
    E = jsonio.dec_congruence(doc, ctx)
    return E, variety_of_basis(E)


def _bend_presentation(name):
    doc = _doc("three_quadrics", name)
    f = jsonio.dec_poly(doc, jsonio.context_of_document(doc))
    return CongruencePresentation.bend_of(f), hypersurface(f)


def _edge_presentation(ctx, texts):
    """Pairs written out: 0 is the zero polynomial, so a pair may have a side
    dead everywhere, and x or y die on the strata of the rays that see them."""
    E = CongruencePresentation.make(ctx, [tuple(parse_poly(ctx, t) for t in p) for p in texts])
    return E, variety_of_basis(E)


def _presentations():
    ctx2 = ToricContext.affine(2)
    return [
        ("quartic_bend", *_fixture_presentation("quartic_bend", "E.json")),
        ("radical_roundtrip", *_fixture_presentation("radical_roundtrip", "E.json")),
        ("boolean_cubic", *_fixture_presentation("boolean_cubic", "E.json")),
        *((name, *_bend_presentation(name + ".json"))
          for name in ("g_xy", "g_xz", "g_yz", "f_1", "f_2")),
        ("dead sides", *_edge_presentation(ctx2, [
            ("x + y", "y"),           # one side dead where x and y both die
            ("x", "x^2"),             # both sides dead where x dies
            ("1 + x", "1 + y"),       # terms shared with the sides of other pairs
        ])),
        ("zero side", *_edge_presentation(ctx2, [("x", "0"), ("1 + x", "1")])),
        ("tropical coefficients", *_edge_presentation(ctx2, [
            ("t^1 + x + t^-1*y", "t^1 + t^-1*y"),
            ("t^1 + x", "t^1"),
        ])),
        ("pyramid", *_edge_presentation(PYRAMID, [
            ("z + x*z", "z + t^1"),   # x*z = (1,0,1) dies on the ray (1,0,-1)
            ("t^-1 + x*z + y*z", "x*z + y*z"),
        ])),
    ]


PRESENTATIONS = _presentations()


def _ray(rng, ctx, tau):
    return (rng.randint(0, 2),) + tau.canonical(
        [rng.choice((-3, -2, -1, 0, 1, 2, Fraction(1, 2))) for _ in range(ctx.rank)])


def _cell_point(rng, cell):
    gens = polyhedra.generators(cell)
    return tuple(sum(c * g[j] for c, g in zip([rng.randint(0, 2) for _ in gens], gens))
                 for j in range(cell.dim))


def _independent(rng, draw, k):
    rays = []
    for _ in range(40):
        if len(rays) == k:
            break
        r = draw()
        if rank_of(rays + [r]) == len(rays) + 1:
            rays.append(r)
    return rays


def _flags(rng, ctx, V, tau):
    """Valid flags on tau's stratum: inside a cell of V, so E is in their
    prime, and with random rays, so it mostly is not."""
    draws = [lambda: _ray(rng, ctx, tau)]
    draws += [lambda c=c: _cell_point(rng, c) for c in V.stratum(tau).cells]
    out = []
    for draw in draws:
        for _ in range(4):
            rays = _independent(rng, draw, rng.randint(1, 1 + ctx.rank - tau.dim()))
            if rays:
                flag = make_flag(1 + ctx.rank, tau.rays, [rays[:i + 1] for i in range(len(rays))])
                if not validate_flag(flag):
                    out.append(flag)
    return out


def _matrices(rng, ctx, tau, flags):
    out = [flag_to_matrix(ctx, flag) for flag in flags]
    for _ in range(4):
        rows = [[rng.randint(0, 2)] + [rng.randint(-2, 2) for _ in range(ctx.rank)]
                for _ in range(rng.randint(1, 2))]
        out.append(PrimeMatrix.make(ctx, tau, rows))
    return out


def _same_shrink(ctx, flag, E):
    """shrink_flag against the reference; returns the kind of outcome."""
    want = _outcome(shrink_reference.shrink_flag, ctx, flag, E)
    got = _outcome(shrink_flag, ctx, flag, E)
    case = (flag, E)
    if isinstance(want, InternalConsistencyError) and "simplicial" in str(want):
        # the reference's cut has more extreme rays than its dimension
        assert not validate_flag(got), case
        assert same_prime_rows(ray_sums(flag), ray_sums(got)), case
        assert flag_in_variety(ctx, got, variety_of_basis(E)), case
        return "not simplicial"
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), case
        return type(want).__name__
    assert got == want, case
    return "shrunk"


def test_queries_match_the_per_pair_oracles():
    rng = random.Random(19)
    seen = Counter()
    for name, E, V in PRESENTATIONS:
        ctx = E.context
        for tau in ctx.faces:
            case = (name, tau)
            points = [ExtPoint.make(ctx, rng.choice((0, 1, 2, Fraction(1, 2))), tau,
                                    [rng.randint(-3, 3) for _ in range(ctx.rank)])
                      for _ in range(6)]
            for cell in V.stratum(tau).cells:
                points += [ExtPoint.make(ctx, w[0], tau, w[1:])
                           for w in (_cell_point(rng, cell) for _ in range(3))]
            for w in points:
                want = all(ref.evaluate(f, w) == ref.evaluate(g, w) for f, g in E.pairs)
                assert point_in_variety(V, w) == want, (case, w)
                seen["point", want] += 1
            flags = _flags(rng, ctx, V, tau)
            for theta in _matrices(rng, ctx, tau, flags):
                want = all(ref.prime_eval(theta, f) == ref.prime_eval(theta, g)
                           for f, g in E.pairs)
                assert congruence_in_prime(E, theta) == want, (case, theta)
                seen["matrix", want] += 1
            for flag in flags:
                seen["shrink", _same_shrink(ctx, flag, E)] += 1
            tvs, sides = _pair_table(E.pairs, tau)
            assert _pair_table(V.pairs, tau) == (tvs, sides)
            seen["both dead"] += any(not fs and not gs for fs, gs in sides)
            seen["one dead"] += any(bool(fs) != bool(gs) for fs, gs in sides)
            seen["shared"] += len(tvs) < sum(len(s) for pair in sides for s in pair)
        # E and V share one table per face
        assert all(_pair_table(E.pairs, tau) is _pair_table(V.pairs, tau)
                   for tau in ctx.faces), name
        seen["zero side"] += any(p.is_zero() for pair in E.pairs for p in pair)
    for part in (("point", True), ("point", False), ("matrix", True), ("matrix", False),
                 ("shrink", "shrunk"), ("shrink", "ValueError"),
                 "both dead", "one dead", "shared"):
        assert seen[part] >= 5, (part, seen)
    assert seen["zero side"], seen


def test_pair_table_of_a_bend_presentation():
    E = PRESENTATIONS[0][1]  # quartic_bend: 4 pairs, 28 term slots, 4 distinct terms
    tvs, sides = _pair_table(E.pairs, E.context.dense_face)
    assert len(E.pairs) == 4 and sum(len(s) for pair in sides for s in pair) == 28
    assert tvs == E.pairs[0][0].term_vectors()
    assert sides[0] == ((0, 1, 2, 3), (1, 2, 3))
    assert _pair_table(E.pairs, E.context.dense_face) is _pair_table(E.pairs, E.context.dense_face)
    ctx = E.context
    x, zero = parse_poly(ctx, "x"), TropPoly.zero(ctx)
    F = CongruencePresentation.make(ctx, [(x, zero), (zero, x), (x, x)])
    assert _pair_table(F.pairs, ctx.dense_face) == (
        ((0, 1, 0),), (((0,), ()), ((), (0,)), ((0,), (0,))))
    assert _pair_table(F.pairs, ctx.deep_face) == ((), (((), ()),) * 3)


# ---------------------------------------------------------------------------
# function equality on a support: the agreement kernel against ExtPoints

SUPPORTS = PRESENTATIONS[:8]  # every fixture support, the bend ones as hypersurfaces


def _random_poly(rng, ctx):
    terms = {}
    while len(terms) < rng.randint(1, 3):
        u = tuple(rng.randint(0, 2) for _ in range(ctx.rank))
        if ctx.exponent_in_monoid(u):
            terms[u] = 0 if ctx.coeff == COEFF_B else rng.randint(-2, 2)
    return TropPoly.make(ctx, terms)


def _monomial(rng, ctx):
    return TropPoly(ctx, _random_poly(rng, ctx).terms[:1])


def _function_pairs(rng, E):
    """E's pairs, which agree on its support, pairs built from them that
    still agree (times a monomial, plus a monomial), and random pairs."""
    ctx = E.context
    pairs = list(E.pairs)
    for _ in range(2):
        f, g = rng.choice(E.pairs)
        m, h = _monomial(rng, ctx), _monomial(rng, ctx)
        pairs += [(m * f, m * g), (f + h, g + h)]
    pairs += [(_random_poly(rng, ctx), _random_poly(rng, ctx)) for _ in range(3)]
    return pairs


def test_function_equality_matches_the_extpoint_oracle():
    rng = random.Random(20)
    seen = Counter()
    for name, E, V in SUPPORTS:
        ctx = E.context
        for f, g in _function_pairs(rng, E):
            for tau, cell in V.all_cells():
                case = (name, f, g, tau, cell)
                table = _pair_table(((f, g),), tau)
                pieces = vy._cell_pieces(cell, vy._arrangement(((f, g),), tau))
                gens = [w for lin, rays, _ in pieces
                        for w in [*rays, *lin, *(vscale(-1, v) for v in lin)]]
                for w in ref.cell_sample_points(cell) + gens:
                    pt = ExtPoint.make(ctx, w[0], tau, w[1:])
                    want = f.evaluate(pt) == g.evaluate(pt)
                    assert vy._sides_agree(*table, w) == want, (case, w)
                    seen["point", want] += 1
                want = ref.functions_equal_on_cell(f, g, tau, cell)
                assert vy._functions_equal_on_cell(f, g, tau, cell) == want, case
                seen["cell", tau.dim() > 0, want] += 1
            seen["support", functions_equal_on_variety(f, g, V)] += 1
    for part in (("point", True), ("point", False), ("support", True), ("support", False),
                 ("cell", False, True), ("cell", False, False),
                 ("cell", True, True), ("cell", True, False)):
        assert seen[part] >= 5, (part, seen)


def test_support_queries_build_no_extpoint(monkeypatch):
    rng = random.Random(7)
    cases = []
    for name, E, V in SUPPORTS:
        ctx = E.context
        flags = [flag for tau in ctx.faces if V.stratum(tau).cells
                 for flag in _flags(rng, ctx, V, tau)]
        cases.append((E, V, flags, _function_pairs(rng, E)))

    def answers():
        out = []
        for E, V, flags, pairs in cases:
            out += [flag_in_variety(E.context, flag, V) for flag in flags]
            out += [functions_equal_on_variety(f, g, V) for f, g in pairs]
            out += [radical_member(E, pair) for pair in pairs]
        return out

    want = answers()
    assert want.count(True) >= 5 and want.count(False) >= 5

    def refuse(*args, **kwargs):
        raise AssertionError("a support query built an ExtPoint")

    monkeypatch.setattr(trop_core.ExtPoint, "make", staticmethod(refuse))
    monkeypatch.setattr(trop_core.ExtPoint, "__init__", refuse)
    assert answers() == want


# ---------------------------------------------------------------------------
# exceptions

def test_queries_in_another_context_raise():
    ctx = ToricContext.affine(2)
    f, g = parse_poly(ctx, "1 + x + y"), parse_poly(ctx, "1 + x")
    E = CongruencePresentation.make(ctx, [(f, g)], finite_tropical_basis=True)
    V = variety_of_basis(E)
    flag = make_flag(3, [], [[(0, -1, -1)]])
    for tau in ctx.faces:  # fill every cache first
        _pair_table(E.pairs, tau)
        _pair_table(V.pairs, tau)
    assert congruence_in_prime(E, flag_to_matrix(ctx, flag))
    assert flag_in_variety(ctx, flag, V)
    # the Boolean context has the same faces, which compare equal
    for other in (ToricContext.affine(2, coeff="B"), ToricContext.torus(2)):
        for tau in other.faces:
            assert tau in ctx.faces
            with pytest.raises(ContextMismatchError):
                point_in_variety(V, ExtPoint.make(other, 0, tau, (0, 0)))
            with pytest.raises(ContextMismatchError):
                congruence_in_prime(E, PrimeMatrix.make(other, tau, [(0, -1, -1)]))
        with pytest.raises(ContextMismatchError):
            shrink_flag(other, flag, E)
        with pytest.raises(ContextMismatchError):
            flag_in_variety(other, flag, V)
        fo, go = parse_poly(other, "1 + x + y"), parse_poly(other, "1 + x")
        with pytest.raises(ContextMismatchError):
            intersect_supports([hypersurface(f), hypersurface(fo)])
        for pair in ((fo, go), (f, go), (fo, g)):
            with pytest.raises(ContextMismatchError):
                functions_equal_on_variety(*pair, V)
            with pytest.raises(ContextMismatchError):
                radical_member(E, pair)


@pytest.mark.parametrize("lhs, rhs, tau_rays", [
    ("x", "y", []),                  # both sides live, different tops
    ("x", "1", [(-1, 0)]),           # the left side dead, the right live
    ("1 + y", "x^2", [(-1, 0)]),     # the left side live, the right dead
])
def test_shrink_flag_rejects_a_pair_with_different_tops(lhs, rhs, tau_rays):
    ctx = ToricContext.affine(2)
    tau = ctx.face_from_rays(tau_rays)
    E = CongruencePresentation.make(ctx, [(parse_poly(ctx, "1"), parse_poly(ctx, "1")),
                                          (parse_poly(ctx, lhs), parse_poly(ctx, rhs))])
    flag = make_flag(3, tau.rays, [[(1,) + tau.canonical((0, -1))]])
    assert not congruence_in_prime(E, flag_to_matrix(ctx, flag))
    for fn in (shrink_flag, shrink_reference.shrink_flag):
        with pytest.raises(ValueError, match="^E is not contained in the prime of the flag$"):
            fn(ctx, flag, E)
