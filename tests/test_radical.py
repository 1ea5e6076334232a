"""Radical certificates against the former search and verifier.

On a prime matrix the search and the verifier make one Phi check of the pair
(the argument is in `verify_radical_certificate`'s docstring); the former
code tried every candidate and expanded its target.  On a presentation the
search builds its rewrites once, extracts a derivation without replaying it,
and the verifier refuses an exponent too large for the derived pair before
expanding anything.  `radical_reference` keeps the former code; every answer
and every encoded certificate must be the same.
"""

import random
from fractions import Fraction as F

import pytest

import radical_reference as ref
from tropcong.congruence import (CongruencePresentation, Derivation, NotFound,
                                 PrimeMatrix, RadicalCertificate, SearchBounds, Sym,
                                 run_derivation, search_radical_certificate,
                                 verify_radical_certificate)
from tropcong.jsonio import enc_certificate
from tropcong.resolve import _random_exponents
from tropcong.trop_core import ToricContext, TropPoly, parse_poly

CONTEXTS = {
    "affine": ToricContext.affine(2),
    "affine-B": ToricContext.affine(2, coeff="B"),
    "torus": ToricContext.torus(2),
    "cone": ToricContext(2, [(1, -1), (-1, -2)]),
    "pyramid": ToricContext(3, [(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)]),
}


def _random_poly(rng, ctx, exps, most=3):
    """0 to most terms, exponents from exps and coefficients in [-2, 2]; over B
    every coefficient is 0."""
    terms = {}
    for _ in range(rng.randint(0, most)):
        terms[next(exps)] = F(0) if ctx.coeff == "B" else F(rng.randint(-2, 2))
    return TropPoly.make(ctx, terms)


def _random_prime(rng, ctx):
    """A matrix of one or two rows of small entries on a random face; small
    entries make ties, so pairs often lie in the prime."""
    tau = rng.choice(ctx.faces)
    rows = [tuple(rng.randint(0, 2) if j == 0 else rng.randint(-2, 2)
                  for j in range(1 + ctx.rank)) for _ in range(rng.randint(1, 2))]
    return PrimeMatrix.make(ctx, tau, rows)


def _random_pair(rng, ctx, exps):
    f = _random_poly(rng, ctx, exps)
    # f plus at most one term lies in more primes than a fresh polynomial
    g = _random_poly(rng, ctx, exps) if rng.random() < 0.5 else f + _random_poly(
        rng, ctx, exps, most=1)
    return f, g


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_prime_search_and_verify_match_the_candidate_loop(name):
    ctx = CONTEXTS[name]
    rng = random.Random(7)
    exps = _random_exponents(ctx, rng, 2)
    bounds = SearchBounds(max_exponent=2)
    found = notfound = verified = 0
    for _ in range(60):
        theta = _random_prime(rng, ctx)
        pair = _random_pair(rng, ctx, exps)
        res = search_radical_certificate(theta, pair, bounds)
        assert res == ref.search_radical_certificate(theta, pair, bounds)
        if isinstance(res, NotFound):
            notfound += 1
        else:
            found += 1
            assert res == RadicalCertificate(0, TropPoly.zero(ctx), None)
        for _ in range(3):
            cert = RadicalCertificate(rng.randint(0, 3), _random_poly(rng, ctx, exps, 2), None)
            ok = verify_radical_certificate(theta, pair, cert)
            assert ok == ref.verify_radical_certificate(theta, pair, cert)
            verified += ok
    assert found and notfound and verified


def test_prime_search_where_both_sides_are_bottom():
    # on the deep stratum of the affine plane every non-constant term is dead:
    # (x, y) is in the prime, and so is ((x+y)^i + h)(x, y) for every i and h
    ctx = CONTEXTS["affine"]
    theta = PrimeMatrix.make(ctx, ctx.deep_face, [(1, 0, 0)])
    pair = (parse_poly(ctx, "x"), parse_poly(ctx, "y"))
    bounds = SearchBounds(max_exponent=3)
    res = search_radical_certificate(theta, pair, bounds)
    assert res == ref.search_radical_certificate(theta, pair, bounds)
    assert res == RadicalCertificate(0, TropPoly.zero(ctx), None)
    for i in range(4):
        for h in ("x", "t^2", "x*y"):
            cert = RadicalCertificate(i, parse_poly(ctx, h), None)
            assert verify_radical_certificate(theta, pair, cert)
            assert ref.verify_radical_certificate(theta, pair, cert)


def _presentations():
    """(E, pair, bounds): the radical_roundtrip fixture and random presentations
    on T[x] and T[x^+-1] (test_congruence.py pins the encoded certificates of
    two multi-hop searches)."""
    ctx = ToricContext.affine(1)
    yield (CongruencePresentation.make(ctx, [(parse_poly(ctx, "x^2"), parse_poly(ctx, "1"))]),
           (parse_poly(ctx, "x"), parse_poly(ctx, "1")), SearchBounds())
    rng = random.Random(12)
    bounds = SearchBounds(max_exponent=2, max_degree=4, max_nodes=40)
    for ctx in (ToricContext.affine(1), ToricContext.torus(1)):
        exps = _random_exponents(ctx, rng, 2)
        for _ in range(8):
            gens = [(_random_poly(rng, ctx, exps, 2), _random_poly(rng, ctx, exps, 2))
                    for _ in range(rng.randint(1, 2))]
            yield (CongruencePresentation.make(ctx, gens),
                   (_random_poly(rng, ctx, exps, 2), _random_poly(rng, ctx, exps, 2)), bounds)


@pytest.fixture(scope="module")
def searches():
    """(E, pair, the search's result, the former search's result)."""
    return [(E, pair, search_radical_certificate(E, pair, bounds),
             ref.search_radical_certificate(E, pair, bounds))
            for E, pair, bounds in _presentations()]


def test_presentation_search_matches_the_former_search(searches):
    found = hops = 0
    for _, _, res, want in searches:
        if isinstance(want, NotFound):
            assert res == want
        else:
            assert enc_certificate(res) == enc_certificate(want)
            found += 1
            hops += any(type(s).__name__ == "Trans" for s in res.derivation.steps)
    assert found >= 8 and hops >= 2


def test_presentation_verify_matches_the_unguarded_replay(searches):
    """Every found derivation, and it turned by one more Sym, under exponents
    0..7 and a few cofactors: the guard refuses only what the replay would
    have refused, and a derived pair counts in either order."""
    guarded = accepted = 0
    for E, (f, g), res, _ in searches:
        if isinstance(res, NotFound):
            continue
        ctx = f.context
        steps = res.derivation.steps
        turned = Derivation(steps + (Sym(len(steps) - 1),))
        assert verify_radical_certificate(E, (f, g), RadicalCertificate(
            res.exponent, res.cofactor, turned))
        last_terms = max(len(p.terms) for p in run_derivation(E, res.derivation))
        for i in range(8):
            for h in (res.cofactor, TropPoly.zero(ctx), parse_poly(ctx, "t^1")):
                for d in (res.derivation, turned):
                    cert = RadicalCertificate(i, h, d)
                    ok = verify_radical_certificate(E, (f, g), cert)
                    assert ok == ref.verify_radical_certificate(E, (f, g), cert)
                    accepted += ok
                    guarded += len((f + g).terms) >= 2 and i >= last_terms
    assert accepted and guarded


def test_verify_a_large_exponent_answers_at_once():
    # at the former code, 10^6 factors of x + 1 before a false answer
    ctx = ToricContext.affine(1)
    x, one = parse_poly(ctx, "x"), parse_poly(ctx, "1")
    E = CongruencePresentation.make(ctx, [(parse_poly(ctx, "x^2"), one)])
    res = search_radical_certificate(E, (x, one))
    cert = RadicalCertificate(10 ** 6, res.cofactor, res.derivation)
    assert not verify_radical_certificate(E, (x, one), cert)
    assert verify_radical_certificate(E, (x, one), res)
    # a monomial f + g takes the power, by squaring: x^(10^6) times both sides
    assert not verify_radical_certificate(E, (x, x), cert)


def test_power_by_squaring_is_repeated_product():
    ctx = ToricContext.torus(2)
    f = parse_poly(ctx, "t^-1*x + y^-1 + t^2")
    acc = TropPoly.one(ctx)
    for k in range(12):
        assert f ** k == acc
        acc = acc * f
    with pytest.raises(ValueError):
        f ** -1
