"""Exact two-phase simplex over the rationals, kept as a test oracle.

No library module imports it: every polyhedral question and every
relative-interior point is read off the double-description kernel of
`polyhedra`.  The tests' LP reference paths (`tests/*_reference.py`) solve
with it.  Small dense tableaus, Bland's rule for the entering and leaving
variable, so every pivot sequence terminates and results are deterministic.
Free variables are split into positive parts; problem sizes here are desk
scale.
"""

from __future__ import annotations

from typing import Sequence

from ._linalg import ZERO, ONE, frac, qdiv, vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(rows, basis, r, c):
    pr = rows[r]
    pv = pr[c]
    rows[r] = [qdiv(x, pv) for x in pr]
    pr = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [x - f * y for x, y in zip(row, pr)]
    basis[r] = c


def _run_simplex(rows, basis, obj) -> str:
    """Maximize; obj is the reduced-cost row (coeffs + value). Mutates in place."""
    while True:
        enter = None
        for j in range(len(obj) - 1):
            if obj[j] > 0:
                enter = j  # Bland: first improving column
                break
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = qdiv(row[-1], row[enter])
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(rows, basis, leave, enter)
        f = obj[enter]
        if f != 0:
            pr = rows[leave]
            for j in range(len(obj)):
                obj[j] -= f * pr[j]


def solve_lp(c: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence,
             a_eq: Sequence[Sequence], b_eq: Sequence):
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x free.

    Returns (status, x, value); x and value are None unless status == OPTIMAL.
    """
    n = len(c)
    c = vec(c)
    cons = [(vec(a), frac(b), "<=") for a, b in zip(a_ub, b_ub)]
    cons += [(vec(a), frac(b), "=") for a, b in zip(a_eq, b_eq)]
    m = len(cons)
    n2 = 2 * n  # x = x+ - x-
    nslack = sum(1 for _, _, rel in cons if rel == "<=")
    width = n2 + nslack + m  # + one artificial per row
    rows = []
    basis = []
    si = 0
    for i, (a, b, rel) in enumerate(cons):
        row = [ZERO] * (width + 1)
        for j in range(n):
            row[j] = a[j]
            row[n + j] = -a[j]
        if rel == "<=":
            row[n2 + si] = ONE
            si += 1
        row[-1] = b
        if b < 0:
            row = [-x for x in row]
        row[n2 + nslack + i] = ONE  # artificial
        rows.append(row)
        basis.append(n2 + nslack + i)

    # Phase 1: maximize -(sum of artificials).
    obj = [ZERO] * (width + 1)
    for j in range(n2 + nslack, width):
        obj[j] = -ONE
    for i, bi in enumerate(basis):
        f = obj[bi]
        if f != 0:
            obj = [x - f * y for x, y in zip(obj, rows[i])]
    status = _run_simplex(rows, basis, obj)
    if status != OPTIMAL:  # phase 1 is always bounded
        raise RuntimeError("phase 1 of the simplex ended %s" % (status,))
    if obj[-1] != 0:  # optimum of -(sum art) stored negated in rhs slot
        return INFEASIBLE, None, None

    # Drive remaining artificials out of the basis.
    art_lo = n2 + nslack
    for i in range(len(rows)):
        if basis[i] >= art_lo:
            piv = None
            for j in range(art_lo):
                if rows[i][j] != 0:
                    piv = j
                    break
            if piv is not None:
                _pivot(rows, basis, i, piv)
    keep = [i for i in range(len(rows)) if basis[i] < art_lo]
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]
    # Blank artificial columns so they can never re-enter.
    for row in rows:
        for j in range(art_lo, width):
            row[j] = ZERO

    # Phase 2.
    full_c = list(c) + [-x for x in c] + [ZERO] * (nslack + m)
    obj = list(full_c) + [ZERO]
    for j in range(art_lo, width):
        obj[j] = ZERO
    for i, bi in enumerate(basis):
        f = obj[bi]
        if f != 0:
            obj = [x - f * y for x, y in zip(obj, rows[i])]
    status = _run_simplex(rows, basis, obj)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    xfull = [ZERO] * width
    for i, bi in enumerate(basis):
        xfull[bi] = rows[i][-1]
    x = tuple(xfull[j] - xfull[n + j] for j in range(n))
    value = ZERO
    for j in range(n):
        value += c[j] * x[j]
    return OPTIMAL, x, value

