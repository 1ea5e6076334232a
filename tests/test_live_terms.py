"""Evaluators over live terms, against their per-term oracles.

`eval_reference` holds the library's former `TropPoly.evaluate`
(`ExtPoint.pair` per term, folded with the max-plus sum), `prime_eval` and
`initial_form_prime` (`lex_max` over the Phi-vector of every term, dead ones
included) and `initial_form_point`.  The library now takes each maximum over
the terms alive on the stratum, as plain numbers or tuples of them; it must
return the oracle's values in canonical form (an `int` when integral, even
where the oracle's arithmetic gives an integral `Fraction`), with equal
types, on every stratum, for the zero polynomial and for polynomials whose
terms are all dead.
"""

import random
from fractions import Fraction

import pytest

from tropcong._linalg import canon
from tropcong.congruence import (InvalidMatrixError, PrimeMatrix, initial_form_point,
                                 initial_form_prime, prime_eval)
from tropcong.trop_core import ExtPoint, ToricContext, TropPoly, ZeroPolynomialError

import eval_reference as ref

CONTEXTS = (
    ToricContext.affine(2),
    ToricContext.affine(3),
    # the square pyramid: four rays over a square, not simplicial
    ToricContext(3, [(1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)]),
)

# products such as 2/3 * 3/2 are integral Fractions, so ties between equal
# maxima of different types occur
NUMBERS = (0, 1, 2, -1, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(-1, 3))


def _typed(x):
    """x with the type of every number in it, so that == also compares types."""
    if isinstance(x, TropPoly):
        return ("poly", x.context, _typed(x.terms))
    if isinstance(x, tuple):
        return tuple(_typed(e) for e in x)
    return (type(x).__name__, x)


def _canonical(fn, *args):
    """fn(*args), a number or a tuple of them, each in canonical form."""
    x = fn(*args)
    if isinstance(x, tuple):
        return tuple(e if e is None else canon(e) for e in x)
    return x if x is None else canon(x)


def _outcome(fn, *args):
    try:
        return _typed(fn(*args))
    except ZeroPolynomialError as exc:
        return ("zero", str(exc))


def _exponent(rng, ctx, dead_on=None):
    """A random exponent of the monoid; outside dead_on's tau-perp if given."""
    while True:
        u = tuple(rng.randint(-2, 3) for _ in range(ctx.rank))
        if ctx.exponent_in_monoid(u) and (dead_on is None or not dead_on.perp_contains(u)):
            return u


def _poly(rng, ctx, dead_on=None):
    terms = {_exponent(rng, ctx, dead_on): rng.choice(NUMBERS)
             for _ in range(rng.randint(0, 5))}
    return TropPoly.make(ctx, terms)


def _matrix(rng, ctx, tau):
    while True:
        rows = [(rng.choice(NUMBERS), [rng.choice(NUMBERS) for _ in range(ctx.rank)])
                for _ in range(rng.randint(1, 3))]
        try:
            return PrimeMatrix.make(ctx, tau, rows)
        except InvalidMatrixError:  # first column lexicographically negative
            continue


def _agree(f, w, theta):
    assert _outcome(f.evaluate, w) == _outcome(_canonical, ref.evaluate, f, w), (f, w)
    assert _outcome(prime_eval, theta, f) == \
        _outcome(_canonical, ref.prime_eval, theta, f), (f, theta)
    assert _outcome(initial_form_point, f, w) == _outcome(ref.initial_form_point, f, w), (f, w)
    assert _outcome(initial_form_prime, f, theta) == \
        _outcome(ref.initial_form_prime, f, theta), (f, theta)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=("affine2", "affine3", "pyramid"))
def test_evaluators_match_reference_on_every_stratum(ctx):
    rng = random.Random(ctx.rank * 100 + len(ctx.sigma_rays))
    # each polynomial meets every stratum, so the restriction kept per face
    # is read back on later strata and later points
    polys = [_poly(rng, ctx) for _ in range(12)] + [TropPoly.zero(ctx)]
    for tau in ctx.faces:
        everything_dead = [_poly(rng, ctx, dead_on=tau) for _ in range(3)] if tau.rays else []
        for f in polys + everything_dead:
            for _ in range(3):
                w = ExtPoint.make(ctx, abs(rng.choice(NUMBERS)), tau,
                                  [rng.choice(NUMBERS) for _ in range(ctx.rank)])
                _agree(f, w, _matrix(rng, ctx, tau))
        for f in everything_dead:
            if not f.is_zero():
                assert f.restrict(tau).is_zero()


def test_equal_maxima_of_different_types_keep_the_reference_choice():
    # at theta = w = (2; 1, 0) the terms 1 and t^(1/2)*x both reach 2: as the
    # int 2 and as 2*(1/2) + 1, an integral Fraction before canonicalisation
    ctx = CONTEXTS[0]
    f = TropPoly.make(ctx, {(0, 0): 1, (1, 0): Fraction(1, 2)})
    theta = PrimeMatrix.make(ctx, ctx.dense_face, [(2, (1, 0))])
    w = ExtPoint.dense(ctx, 2, (1, 0))
    _agree(f, w, theta)
    assert type(prime_eval(theta, f)[0]) is int
    assert type(f.evaluate(w)) is int
