"""Reference evaluators: every term boxed or compared entry by entry.

These were the library's `TropPoly.evaluate`, `congruence.prime_eval`,
`initial_form_point` and `initial_form_prime` before they took their maxima
over the terms alive on the stratum with Python's own comparisons.  They are
kept verbatim as independent oracles for tests/test_live_terms.py:

* `evaluate` folds `ExtPoint.pair`, a `TropScalar` per term (bottom for a
  term outside tau-perp), with the max-plus `+`;
* `prime_eval` and `initial_form_prime` take `lex_max` of the Phi-vector of
  every term, the all-bottom vector for a dead one, compared by `lex_le`
  (the library's former `congruence.lex_max`, inlined here).

Test use only.
"""

from __future__ import annotations

from tropcong.congruence import lex_le, phi_monomial
from tropcong.trop_core import BOTTOM, TropPoly, ZeroPolynomialError


def evaluate(f, w):
    best = BOTTOM
    for u, a in f.terms:
        best = best + w.pair(a, u)
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
    finite = [v.log for v in vals if not v.is_bottom()]
    if not finite:
        return f
    top = max(finite)
    keep = [(u, a) for (u, a), v in zip(f.terms, vals) if v.log == top]
    return TropPoly(f.context, tuple(keep))


def initial_form_prime(f, theta):
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial")
    vals = [phi_monomial(theta, a, u) for u, a in f.terms]
    top = lex_max(vals)
    keep = [(u, a) for (u, a), v in zip(f.terms, vals) if v == top]
    return TropPoly(f.context, tuple(keep))
