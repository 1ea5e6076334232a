"""Initial-form stability and iterated-initial-form regions: the paper's
lemma on iterated initial forms, made exact.

`init_stability(f, v, w)` gives the threshold N0 past which the initial form
of f at w + N v is init_w(init_v(f)); `iterated_init_region` gives the
polyhedron of (N_1..N_k) where the iterated initial forms at xi_0, .., xi_k
are the initial form at xi_0 + N_1 xi_1 + ... + N_k xi_k.  Both share one
step, `_deleted_terms`: init_v(f) and each term it deletes, with its margin.
The resolution of boundary primes solves one exact feasibility system per
cell instead, so no library code calls these; the acceptance suite and the
sweep against tests/init_region_reference.py test them.

Test use only.
"""

from __future__ import annotations

from typing import Sequence

from tropcong._linalg import ZERO, Vec, qdiv
from tropcong._record import _Record
from tropcong.congruence import initial_form_point
from tropcong.polyhedra import LE, HRow, PolyhedronH
from tropcong.trop_core import ExtPoint, TropPoly, ZeroPolynomialError


class StabilityData(_Record):
    """`deleted` is Xi: the term vectors (a_u, u) absent from init_v(f);
    `margins`, aligned with it, are V_m = f~(v) - <m, v> > 0."""

    _fields = ("deleted", "margins")


def _deleted_terms(f: TropPoly, v: ExtPoint):
    """init_v(f), and (m, margin) for each term vector m = (a_u, u) of f alive
    at v but outside init_v(f), with margin f~(v) - <m, v> > 0."""
    init_v = initial_form_point(f, v)
    kept = set(init_v.term_vectors())
    fv = f.evaluate(v)
    deleted = []
    for m in f.term_vectors():
        if m in kept:
            continue
        pv = v.pair(m)
        if pv is None:
            continue  # dies on the stratum; harmless at w + N v as well
        deleted.append((m, fv - pv))
    return init_v, deleted


def _gap(hw, w: ExtPoint, m: Vec):
    """hw - <m, w> for hw = h(w), or None when the term m dies at w."""
    bm = w.pair(m)
    if bm is None:
        return None
    if hw is None:
        raise ValueError("initial form dies at w while a deleted term survives")
    return hw - bm


def init_stability(f: TropPoly, v: ExtPoint, w: ExtPoint):
    """Threshold N0 with init_{w + N v}(f) = init_w(init_v(f)) for all N > N0.

    v and w must lie in the same stratum; returns (N0, StabilityData).
    """
    if v.tau != w.tau:
        raise ValueError("v and w must lie in the same stratum")
    if f.is_zero():
        raise ZeroPolynomialError("stability of the zero polynomial")
    init_v, deleted = _deleted_terms(f, v)
    base = init_v.evaluate(w)
    n0 = ZERO
    for m, margin in deleted:
        gap = _gap(base, w, m)
        if gap is not None:
            n0 = max(n0, qdiv(-gap, margin))
    return n0, StabilityData(tuple(m for m, _ in deleted),
                             tuple(margin for _, margin in deleted))


def iterated_init_region(polys: Sequence[TropPoly], xis: Sequence[ExtPoint]) -> PolyhedronH:
    """Polyhedron Q in (N_1..N_k)-space whose interior makes the iterated initial
    forms at xi_0, .., xi_k equal the single-point initial form at
    xi_0 + N_1 xi_1 + ... + N_k xi_k, for every given polynomial.

    As in the existence proof, each polynomial h_k = f gives the chain
    h_{d-1} = init_{xi_d}(h_d), and each term deleted at xi_d gives the row
    N_d * margin >= -(h_0(xi_0) - <m, xi_0>) - sum_{0<j<d} N_j (h_j(xi_j) - <m, xi_j>),
    unless m dies at some xi_j with j < d."""
    k = len(xis) - 1
    if k < 0:
        raise ValueError("need at least xi_0")
    rows = []
    for f in polys:
        chain, steps = [f], []
        for xi in reversed(xis[1:]):
            h, deleted = _deleted_terms(chain[0], xi)
            chain.insert(0, h)
            steps.insert(0, deleted)
        values = [h.evaluate(xi) for h, xi in zip(chain, xis[:-1])]
        for d, deleted in enumerate(steps, 1):
            for m, margin in deleted:
                gaps = []
                for hw, xi in zip(values[:d], xis):
                    gap = _gap(hw, xi, m)
                    if gap is None:
                        break
                    gaps.append(gap)
                else:
                    coeffs = tuple(-g for g in gaps[1:]) + (-margin,) + (ZERO,) * (k - d)
                    rows.append(HRow(coeffs, gaps[0], LE))
    return PolyhedronH.make(k, tuple(rows))
