from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tropcong.trop_core import (BOTTOM, TROP_ONE, ContextMismatchError, ExtPoint,
                                ToricContext, TropPoly, TropScalar,
                                ZeroPolynomialError, bend_relations, eval_poly,
                                parse_poly, tsc)

rationals = st.fractions(max_denominator=12)
scalars = st.one_of(st.just(BOTTOM), rationals.map(lambda q: TropScalar(q)))


@given(scalars, scalars)
def test_add_is_max_and_commutative(a, b):
    assert a + b == b + a
    if not a.is_bottom() and not b.is_bottom():
        assert (a + b).log == max(a.log, b.log)


@given(scalars)
def test_add_idempotent_and_bottom_identity(a):
    assert a + a == a
    assert a + BOTTOM == a
    assert a * BOTTOM == BOTTOM


@given(scalars, scalars)
def test_zero_sum_free(a, b):
    if (a + b) == BOTTOM:
        assert a == BOTTOM and b == BOTTOM


@given(scalars, scalars, scalars)
def test_order_monotone(a, b, c):
    if a <= b:
        assert a + c <= b + c
        assert a * c <= b * c


def test_scalar_pow():
    assert tsc(F(3, 2)) ** 2 == tsc(3)
    assert BOTTOM ** 0 == TROP_ONE
    assert BOTTOM ** 3 == BOTTOM


# ---------------------------------------------------------------------------
# contexts and polynomials

def test_affine_preset_monoid(ctx2):
    assert ctx2.exponent_in_monoid((2, 0))
    assert not ctx2.exponent_in_monoid((-1, 0))
    assert ctx2.monoid_generators == ((F(1), F(0)), (F(0), F(1)))
    assert len(ctx2.faces) == 4  # {0}, two rays, sigma
    assert ctx2.face_from_rays(()) == ctx2.dense_face


def test_torus_preset_monoid():
    t = ToricContext.torus(2)
    assert t.exponent_in_monoid((-3, 5))
    assert len(t.faces) == 1
    assert t.face_from_rays(()) == t.dense_face


def test_custom_sigma_hilbert_basis():
    # sigma = cone((-1,0), (-1,-2)); dual cone is spanned by (0,1) and (2,-1)
    # and needs the interior lattice point (1,0) as a generator
    ctx = ToricContext(2, [(-1, 0), (-1, -2)])
    gens = set(tuple(int(x) for x in g) for g in ctx.monoid_generators)
    assert {(0, 1), (2, -1), (1, 0)} <= gens
    for g in gens:
        assert ctx.exponent_in_monoid(g)


def test_boolean_mode_rejects_coefficients():
    ctx = ToricContext.affine(1, coeff="B")
    with pytest.raises(ValueError):
        TropPoly.make(ctx, {(1,): F(1)})
    assert not parse_poly(ctx, "1 + x").is_zero()
    assert ctx.face_from_rays(()) == ctx.dense_face


def test_exponent_outside_monoid_rejected(ctx2):
    with pytest.raises(ValueError):
        TropPoly.make(ctx2, {(-1, 0): F(0)})


def test_parse_and_str_round_trip(ctx2):
    f = parse_poly(ctx2, "x^2 + t^1*x*y + y^2 + x^2*y^2")
    assert parse_poly(ctx2, str(f)) == f
    assert parse_poly(ctx2, "0").is_zero()
    assert parse_poly(ctx2, "1") == TropPoly.one(ctx2)


# ---------------------------------------------------------------------------
# evaluation (oracle: direct max-plus arithmetic on each term)

def test_eval_example_dense(ctx2, quartic):
    w = ExtPoint.dense(ctx2, 1, (0, -1))
    # terms: x^2 -> 2*0; t*x*y -> 1+0-1; y^2 -> -2; x^2y^2 -> -2
    oracle = max(2 * 0, 1 + 0 - 1, 2 * (-1), 2 * 0 + 2 * (-1))
    got = eval_poly(quartic, w)
    assert got == tsc(oracle) == tsc(0)


def test_eval_zero_poly(ctx2):
    w = ExtPoint.dense(ctx2, 1, (0, -1))
    assert eval_poly(TropPoly.zero(ctx2), w) == BOTTOM


def test_eval_deep_stratum_kills_everything(ctx2, quartic):
    w = ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0))
    assert eval_poly(quartic, w) == BOTTOM


def test_eval_context_mismatch(ctx2, ctx1):
    f = parse_poly(ctx1, "x")
    w = ExtPoint.dense(ctx2, 1, (0, 0))
    with pytest.raises(ContextMismatchError):
        eval_poly(f, w)


# ---------------------------------------------------------------------------
# semiring operations

def test_mul_idempotent_collapse(ctx1):
    f = parse_poly(ctx1, "1 + x")
    assert f * f == parse_poly(ctx1, "1 + x + x^2")
    assert parse_poly(ctx1, "x + 1") + parse_poly(ctx1, "x") == parse_poly(ctx1, "x + 1")


def test_mul_convolution_oracle(ctx2):
    f = parse_poly(ctx2, "t^1 + x")
    g = parse_poly(ctx2, "t^1 + y")
    # brute-force convolution with max on collisions
    expect = {}
    for uf, af in f.terms:
        for ug, ag in g.terms:
            u = tuple(a + b for a, b in zip(uf, ug))
            c = af + ag
            expect[u] = max(expect.get(u, c), c)
    assert dict(( (u, a) for u, a in (f * g).terms )) == expect
    assert f * g == parse_poly(ctx2, "t^2 + t^1*x + t^1*y + x*y")


def test_pow(ctx1):
    f = parse_poly(ctx1, "1 + x")
    assert f ** 0 == TropPoly.one(ctx1)
    assert f ** 3 == parse_poly(ctx1, "1 + x + x^2 + x^3")


@pytest.mark.parametrize("seed", range(6))
def test_eval_is_a_homomorphism(ctx2, seed):
    import random
    rng = random.Random(seed)
    def rand_poly():
        return TropPoly.make(ctx2, {
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))})
    f, g = rand_poly(), rand_poly()
    for _ in range(5):
        tau = rng.choice(ctx2.faces)
        w = ExtPoint.make(ctx2, F(rng.randint(0, 3)), tau,
                          (rng.randint(-4, 4), rng.randint(-4, 4)))
        assert eval_poly(f + g, w) == eval_poly(f, w) + eval_poly(g, w)
        assert eval_poly(f * g, w) == eval_poly(f, w) * eval_poly(g, w)


# ---------------------------------------------------------------------------
# bend relations

def test_bend_three_terms(ctx2):
    f = parse_poly(ctx2, "t^1 + x + y")
    pairs = bend_relations(f)
    deleted = {str(g) for _, g in pairs}
    assert deleted == {str(parse_poly(ctx2, "x + y")),
                       str(parse_poly(ctx2, "t^1 + y")),
                       str(parse_poly(ctx2, "t^1 + x"))}
    assert all(lhs == f for lhs, _ in pairs)


def test_bend_monomial(ctx2):
    f = parse_poly(ctx2, "x")
    pairs = bend_relations(f)
    assert len(pairs) == 1 and pairs[0][1].is_zero()


def test_bend_four_terms(quartic):
    pairs = bend_relations(quartic)
    assert len(pairs) == 4
    for _, g in pairs:
        assert len(g.terms) == 3


def test_bend_zero_rejected(ctx2):
    with pytest.raises(ZeroPolynomialError):
        bend_relations(TropPoly.zero(ctx2))


@pytest.mark.parametrize("seed", range(4))
def test_eval_monotone_in_partial_order(ctx2, seed):
    # f <= g (meaning f + g == g) forces f~(w) <= g~(w) everywhere
    import random
    rng = random.Random(seed)
    def rand_poly():
        return TropPoly.make(ctx2, {
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))})
    f = rand_poly()
    g = f + rand_poly()          # f <= g by construction
    assert f + g == g
    for _ in range(20):
        tau = rng.choice(ctx2.faces)
        w = ExtPoint.make(ctx2, F(rng.randint(0, 3)), tau,
                          (rng.randint(-4, 4), rng.randint(-4, 4)))
        assert eval_poly(f, w) <= eval_poly(g, w)


def test_ext_point_rejects_negative_height(ctx2):
    with pytest.raises(ValueError):
        ExtPoint.dense(ctx2, -1, (0, 0))
