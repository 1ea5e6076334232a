from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tropcong.congruence import PrimeMatrix, prime_eval
from tropcong.polyhedra import DimensionMismatchError
from tropcong.trop_core import (ContextMismatchError, ExtPoint, ToricContext,
                                TropPoly, ZeroPolynomialError, bend_relations,
                                parse_poly)

from eval_reference import phi_monomial


# values of T: an exact number, or None for bottom (-inf)

def trop_add(a, b):
    """a + b in T: the max, bottom being the identity."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def trop_mul(a, b):
    """a * b in T: the ordinary sum, bottom absorbing."""
    return None if a is None or b is None else a + b


def trop_le(a, b):
    """a <= b in T, i.e. a + b == b."""
    return trop_add(a, b) == b


def is_exact(v):
    """v is bottom, or an exact number in canonical form."""
    return v is None or type(v) is int or (type(v) is F and v.denominator > 1)


# ---------------------------------------------------------------------------
# the semifield T, carried by constant polynomials: t^a is worth a at height 1

CTX1 = ToricContext.affine(1)
AT_ONE = ExtPoint.dense(CTX1, 1, (0,))
rationals = st.fractions(max_denominator=12)
values = st.one_of(st.none(), rationals)


def const(a):
    """The constant polynomial t^a; the zero polynomial for bottom."""
    return TropPoly.make(CTX1, {(0,): a})


def value(f):
    v = f.evaluate(AT_ONE)
    assert is_exact(v)
    return v


@given(values, values)
def test_add_is_max_and_commutative(a, b):
    assert const(a) + const(b) == const(b) + const(a)
    assert value(const(a) + const(b)) == trop_add(a, b)
    assert value(const(a) * const(b)) == trop_mul(a, b)


@given(values)
def test_add_idempotent_and_bottom_identity(a):
    zero = TropPoly.zero(CTX1)
    assert const(a) + const(a) == const(a)
    assert const(a) + zero == const(a)
    assert const(a) * zero == zero
    assert value(zero) is None


@given(values, values)
def test_zero_sum_free(a, b):
    if value(const(a) + const(b)) is None:
        assert a is None and b is None


@given(values, values, values)
def test_order_monotone(a, b, c):
    if trop_le(a, b):
        assert const(a) + const(b) == const(b)
        assert trop_le(value(const(a) + const(c)), value(const(b) + const(c)))
        assert trop_le(value(const(a) * const(c)), value(const(b) * const(c)))


def test_scalar_pow():
    assert const(F(3, 2)) ** 2 == const(3)
    assert value(const(F(3, 2)) ** 2) == 3
    assert const(None) ** 0 == TropPoly.one(CTX1) == const(0)
    assert const(None) ** 3 == const(None)
    assert value(const(None) ** 3) is None


# ---------------------------------------------------------------------------
# contexts and polynomials

def test_affine_preset_monoid(ctx2):
    assert ctx2.exponent_in_monoid((2, 0))
    assert not ctx2.exponent_in_monoid((-1, 0))
    assert len(ctx2.faces) == 4  # {0}, two rays, sigma
    assert ctx2.face_from_rays(()) == ctx2.dense_face


def test_torus_preset_monoid():
    t = ToricContext.torus(2)
    assert t.exponent_in_monoid((-3, 5))
    assert len(t.faces) == 1
    assert t.face_from_rays(()) == t.dense_face


def test_context_is_identified_by_its_cone():
    # zero, repeated, scaled and non-extreme rays span the same cone
    assert ToricContext(2, [(0, 0)]) == ToricContext.torus(2)
    for rays in ([(-1, 0), (0, -1), (-1, -1)], [(0, -3), (-2, 0), (-1, 0), (0, 0)]):
        ctx = ToricContext(2, rays)
        assert ctx == ToricContext.affine(2) and hash(ctx) == hash(ToricContext.affine(2))
        assert ctx.sigma_rays == ((-1, 0), (0, -1)) and ctx.is_affine_preset()
    assert ToricContext(2, [(-1, 0)]) != ToricContext.affine(2)
    assert ToricContext.affine(2, "B") != ToricContext.affine(2)


def test_boolean_mode_rejects_coefficients():
    ctx = ToricContext.affine(1, coeff="B")
    with pytest.raises(ValueError):
        TropPoly.make(ctx, {(1,): F(1)})
    with pytest.raises(ValueError, match="Boolean"):  # a repeat does not hide it
        parse_poly(ctx, "t^-1*x + x")
    assert not parse_poly(ctx, "1 + x").is_zero()
    assert ctx.face_from_rays(()) == ctx.dense_face


def test_make_keeps_the_max_coefficient_of_a_repeated_exponent(ctx2):
    # pairs, unlike a dict, can repeat an exponent ((1, 0) and (F(1), 0) are
    # one); the largest coefficient wins and a bottom one is dropped
    f = TropPoly.make(ctx2, [((1, 0), F(2)), ((0, 1), 0), ((F(1), 0), F(5)),
                             ((1, 0), F(-1)), ((0, 1), None)])
    assert f == parse_poly(ctx2, "t^5*x + y")
    assert f == parse_poly(ctx2, "t^2*x + y + t^5*x + t^-1*x")


def test_exponent_outside_monoid_rejected(ctx2):
    with pytest.raises(ValueError):
        TropPoly.make(ctx2, {(-1, 0): F(0)})


def test_wrong_length_vectors_rejected(ctx2):
    with pytest.raises(DimensionMismatchError, match="rank 2"):
        TropPoly.make(ToricContext.torus(2), {(1, 2, 3): 0})
    with pytest.raises(DimensionMismatchError, match="length 3 in rank 2"):
        ExtPoint.dense(ctx2, 1, (1, 1, 1))
    with pytest.raises(DimensionMismatchError):
        ExtPoint.make(ctx2, 1, ctx2.deep_face, (1,))


def test_non_integral_exponent_rejected(ctx2):
    # an exponent was once cut down to an int: (1/2, 1) read as y, (1.7, 1) as x*y
    with pytest.raises(ValueError, match="outside the monoid"):
        TropPoly.make(ctx2, {(F(1, 2), 1): 0})
    with pytest.raises(TypeError, match="floats"):
        TropPoly.make(ctx2, {(1.7, 1): 0})
    f = parse_poly(ctx2, "y + x*y")
    assert f.delete_term((F(1, 2), 1)) == f
    with pytest.raises(TypeError, match="floats"):
        f.delete_term((1.7, 1))
    g = TropPoly.make(ctx2, {(F(2), 1): 0})
    assert g == parse_poly(ctx2, "x^2*y") and type(g.terms[0][0][0]) is int
    assert f.delete_term((F(1), 1)) == parse_poly(ctx2, "y")


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
    got = quartic.evaluate(w)
    assert got == oracle == 0 and type(got) is int


def test_eval_zero_poly(ctx2):
    w = ExtPoint.dense(ctx2, 1, (0, -1))
    assert TropPoly.zero(ctx2).evaluate(w) is None


def test_eval_deep_stratum_kills_everything(ctx2, quartic):
    w = ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0))
    assert quartic.evaluate(w) is None


@given(st.sampled_from(range(4)), st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=4),
    rationals.map(abs), st.tuples(rationals, rationals))
def test_values_are_exact_numbers_or_none(face, terms, r, x):
    # 2/3 * 3/2 is an integral Fraction: evaluate, pair, phi_monomial and
    # prime_eval return it as an int
    ctx = ToricContext.affine(2)
    f = TropPoly.make(ctx, terms)
    w = ExtPoint.make(ctx, r, ctx.faces[face], x)
    pairs = [w.pair(m) for m in f.term_vectors()]
    assert all(is_exact(p) for p in pairs)
    best = None
    for p in pairs:
        best = trop_add(best, p)
    got = f.evaluate(w)
    assert is_exact(got) and got == best
    # Phi-vectors: the matrix rows are (r; x) and (|x_2|; x_2, x_1)
    theta = PrimeMatrix.make(ctx, ctx.faces[face], [(r,) + x, (abs(x[1]),) + x[::-1]])
    phis = [phi_monomial(theta, a, u) for u, a in f.terms] + [prime_eval(theta, f)]
    assert all(is_exact(e) for phi in phis for e in phi)


def test_eval_context_mismatch(ctx2, ctx1):
    f = parse_poly(ctx1, "x")
    w = ExtPoint.dense(ctx2, 1, (0, 0))
    with pytest.raises(ContextMismatchError):
        f.evaluate(w)


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
        assert (f + g).evaluate(w) == trop_add(f.evaluate(w), g.evaluate(w))
        assert (f * g).evaluate(w) == trop_mul(f.evaluate(w), g.evaluate(w))


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
        assert trop_le(f.evaluate(w), g.evaluate(w))


def test_ext_point_rejects_negative_height(ctx2):
    with pytest.raises(ValueError):
        ExtPoint.dense(ctx2, -1, (0, 0))


def test_ext_point_rejects_a_face_of_another_cone(ctx2):
    # a torus has no boundary stratum, so no point of it lies on affine(2)'s
    # deep face, and evaluation there cannot send every term to bottom
    torus = ToricContext.torus(2)
    with pytest.raises(ValueError, match="not a face of sigma"):
        ExtPoint.make(torus, 1, ctx2.deep_face, (1, 2))
    w = ExtPoint.make(torus, 1, torus.dense_face, (1, 2))
    assert parse_poly(torus, "x + x^-1*y").evaluate(w) == 1
    # a face of a cone equal to the context's is the context's face
    boolean = ToricContext.affine(2, coeff="B")
    assert ExtPoint.make(boolean, 1, ctx2.deep_face, (1, 2)).tau == boolean.deep_face
