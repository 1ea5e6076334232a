"""Reference evaluators: every term paired or compared entry by entry.

These were the library's `TropPoly.evaluate`, `congruence.prime_eval`,
`initial_form_point` and `initial_form_prime` before they took their maxima
over the terms alive on the stratum with Python's own comparisons.  They are
kept as independent oracles for tests/test_live_terms.py, with the same
algorithms over plain values (an exact number, or None for bottom):

* `evaluate` folds `ExtPoint.pair` of every term (None, bottom, for a term
  outside tau-perp) with the max-plus sum;
* `prime_eval` and `initial_form_prime` take `lex_max` of the Phi-vector of
  every term, the all-bottom vector for a dead one, compared by `lex_le`
  (the library's former `congruence.lex_max`, inlined here).

Test use only.
"""

from __future__ import annotations

from tropcong.congruence import lex_le, phi_monomial
from tropcong.trop_core import TropPoly, ZeroPolynomialError


def evaluate(f, w):
    best = None
    for u, a in f.terms:
        v = w.pair(a, u)
        if best is None or (v is not None and best < v):
            best = v
    return best


def lex_max(vals):
    best = None
    for v in vals:
        if best is None or lex_le(best, v):
            best = v
    return best


def prime_eval(theta, f):
    if f.is_zero():
        return (None,) * theta.rank()
    return lex_max(phi_monomial(theta, a, u) for u, a in f.terms)


def initial_form_point(f, w):
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial")
    vals = [w.pair(a, u) for u, a in f.terms]
    finite = [v for v in vals if v is not None]
    if not finite:
        return f
    top = max(finite)
    keep = [(u, a) for (u, a), v in zip(f.terms, vals) if v == top]
    return TropPoly(f.context, tuple(keep))


def initial_form_prime(f, theta):
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial")
    vals = [phi_monomial(theta, a, u) for u, a in f.terms]
    top = lex_max(vals)
    keep = [(u, a) for (u, a), v in zip(f.terms, vals) if v == top]
    return TropPoly(f.context, tuple(keep))
