"""Reference evaluators: every term paired or compared entry by entry.

These were the library's `TropPoly.evaluate`, `congruence.prime_eval`,
`initial_form_point` and `initial_form_prime` before they took their maxima
over the terms alive on the stratum with Python's own comparisons.  They are
kept as independent oracles for tests/test_live_terms.py, with the same
algorithms over plain values (an exact number, or None for bottom):

* `evaluate` folds `ExtPoint.pair` of every term's (1+n) term vector (None,
  bottom, for a term outside tau-perp) with the max-plus sum;
* `prime_eval` and `initial_form_prime` take `lex_max` of the Phi-vector of
  every term, the all-bottom vector for a dead one, compared by `lex_le`
  (the library's former `congruence.lex_max`, inlined here); the
  Phi-vector is `phi_monomial`, the library's former `congruence.phi_monomial`,
  which pairs each row as height r and coordinates x: r*a + <x, u>.

`functions_equal_on_cell` is the library's former
`variety._functions_equal_on_cell`: it builds an `ExtPoint` at each sample
point of the cell (`cell_sample_points`: the generators, their pairwise sums
and the sum of all) and at each generator of each piece of the tie
arrangement of (f, g), and compares `TropPoly.evaluate` of both sides there.
Its pieces come from `split_generators_by_forms`, the library's former split:
one double-description step per crossing hyperplane on plain generator
lists, keeping every positive/negative crossing with no adjacency test, so a
piece may hold redundant generators (they grow multiplicatively with the
number of forms).  It is the oracle of tests/test_pair_table.py and
tests/test_arrangement_split.py for the agreement kernel on pair tables, for
the split on incidence masks that replaced them, and for the library's one
point per piece: this oracle still evaluates every generator of every piece.

Test use only.
"""

from __future__ import annotations

import itertools

from tropcong import polyhedra
from tropcong._linalg import canon, dot, is_zero_vec, primitive, zero_vec
from tropcong.congruence import lex_le
from tropcong.trop_core import ExtPoint, TropPoly, ZeroPolynomialError
from tropcong.variety import _arrangement


def phi_monomial(theta, a, u):
    """The Phi-vector of the term (a, u): all bottom off theta's stratum."""
    if not theta.tau.perp_contains(u):
        return (None,) * theta.rank()
    return tuple(canon(row[0] * a + dot(row[1:], u)) for row in theta.rows)


def evaluate(f, w):
    best = None
    for u, a in f.terms:
        v = w.pair((a,) + u)
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
    vals = [w.pair((a,) + u) for u, a in f.terms]
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


def _crossings(pos, neg):
    out = set()
    for gp, vp in pos:
        for gn, vn in neg:
            w = tuple(vp * b - vn * a for a, b in zip(gp, gn))
            if not is_zero_vec(w):
                out.add(primitive(w))
    return sorted(out)


def split_generators_by_forms(gens, forms):
    pieces = [tuple(gens)]
    for h in forms:
        nxt = []
        for G in pieces:
            vals = [dot(h, g) for g in G]
            pos = [(g, v) for g, v in zip(G, vals) if v > 0]
            neg = [(g, v) for g, v in zip(G, vals) if v < 0]
            if not (pos and neg):
                nxt.append(G)
                continue
            zero = [g for g, v in zip(G, vals) if v == 0]
            mids = _crossings(pos, neg)
            nxt.append(tuple(dict.fromkeys([g for g, _ in pos] + zero + mids)))
            nxt.append(tuple(dict.fromkeys([g for g, _ in neg] + zero + mids)))
        pieces = nxt
    return pieces


def cell_sample_points(cell):
    gens = polyhedra.generators(cell)
    if not gens:
        return [zero_vec(cell.dim)]
    pts = [tuple(map(sum, zip(*gens)))]
    pts.extend(gens)
    for g1, g2 in itertools.combinations(gens, 2):
        pts.append(tuple(a + b for a, b in zip(g1, g2)))
    return pts


def functions_equal_on_cell(f, g, tau, cell):
    def differ(w):
        p = ExtPoint.make(f.context, w[0], tau, w[1:])
        return f.evaluate(p) != g.evaluate(p)

    if any(differ(w) for w in cell_sample_points(cell)):
        return False
    for piece in split_generators_by_forms(polyhedra.generators(cell),
                                           _arrangement(((f, g),), tau)):
        if any(differ(gen) for gen in piece):
            return False
    return True
