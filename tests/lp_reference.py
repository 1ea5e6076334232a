"""Reference feasibility and linear maximization: exact LPs.

These were the library's `polyhedra.feasible`, `polyhedra.max_linear`,
`polyhedra.is_empty`, `polyhedra.is_subset` and `polyhedra.poly_in_union`
before every yes/no question was read off the double-description kernel.  They
are kept verbatim as independent oracles for tests/test_feasibility.py and for
the cone and relative-interior references:

* `feasible` maximizes a common slack eps (capped at 1) that every strict row
  must leave; the system is nonempty iff the LP is feasible and, when there
  are strict rows, the optimal eps is positive.
* `max_linear` maximizes c.x over the weak relaxation.
* `is_subset` bounds each row of q by one `max_linear` LP (two for `=` rows)
  and settles a `<` row whose maximum equals its bound by a `feasible` LP on
  the tie; `poly_in_union` runs it at every node of the region difference.

Test use only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tropcong import _lp
from tropcong._linalg import ONE, ZERO, Vec, vscale, zero_vec
from tropcong.polyhedra import EQ, LE, LT, HRow, PolyhedronH


def _split_rows(p: PolyhedronH):
    a_ub, b_ub, a_eq, b_eq, stricts = [], [], [], [], []
    for r in p.rows:
        if r.rel == EQ:
            a_eq.append(r.a)
            b_eq.append(r.b)
        else:
            a_ub.append(r.a)
            b_ub.append(r.b)
            stricts.append(r.rel == LT)
    return a_ub, b_ub, a_eq, b_eq, stricts


def max_linear(p: PolyhedronH, c: Sequence):
    """Maximize c.x over the weak relaxation of p: (status, value, argmax)."""
    a_ub, b_ub, a_eq, b_eq, _ = _split_rows(p)
    status, x, value = _lp.solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    return status, value, x


def feasible(p: PolyhedronH) -> Optional[Vec]:
    """Exact witness honoring strict rows strictly, or None (certified empty)."""
    a_ub, b_ub, a_eq, b_eq, stricts = _split_rows(p)
    d = p.dim
    # variables (x, eps); maximize eps, strict rows get "+eps", eps <= 1 bounds it
    A, B = [], []
    for a, b, s in zip(a_ub, b_ub, stricts):
        A.append(tuple(a) + ((ONE,) if s else (ZERO,)))
        B.append(b)
    A.append(zero_vec(d) + (ONE,))
    B.append(ONE)
    A.append(zero_vec(d) + (-ONE,))
    B.append(ZERO)
    AE = [tuple(a) + (ZERO,) for a in a_eq]
    c = zero_vec(d) + (ONE,)
    status, x, value = _lp.solve_lp(c, A, B, AE, b_eq)
    if status != _lp.OPTIMAL:
        return None
    if any(stricts) and value <= 0:
        return None
    return x[:d]


def is_empty(p: PolyhedronH) -> bool:
    return feasible(p) is None


def is_subset(p: PolyhedronH, q: PolyhedronH) -> bool:
    """Exact containment p (with strict rows honored) inside q."""
    return feasible(p) is None or _nonempty_subset(p, q)


def _nonempty_subset(p: PolyhedronH, q: PolyhedronH) -> bool:
    """is_subset for a p already known to be nonempty."""
    for r in q.rows:
        status, value, _ = max_linear(p, r.a)
        if r.rel in (LE, LT):
            if status == _lp.UNBOUNDED:
                return False
            if value > r.b or (r.rel == LT and value == r.b and _attains(p, r)):
                return False
        else:
            for a in (r.a, vscale(-1, r.a)):
                status, value, _ = max_linear(p, a)
                bb = r.b if a is r.a else -r.b
                if status == _lp.UNBOUNDED or value > bb:
                    return False
    return True


def _attains(p: PolyhedronH, r: HRow) -> bool:
    return feasible(p.with_rows((HRow(r.a, r.b, EQ),))) is not None


def poly_in_union(p: PolyhedronH, parts: Sequence[PolyhedronH]) -> bool:
    """Exact test p subseteq union(parts); all inputs may carry strict rows."""
    if feasible(p) is None:
        return True
    for q in parts:
        if _nonempty_subset(p, q):
            return True
    if not parts:
        return False
    q = parts[0]
    rest = list(parts[1:])
    # p \ q = union over rows of q of the strict violation pieces
    pieces = []
    prefix: list[HRow] = []
    for r in q.rows:
        if r.rel == EQ:
            viol = [HRow(r.a, r.b, LT), HRow(vscale(-1, r.a), -r.b, LT)]
            keep = HRow(r.a, r.b, EQ)
        elif r.rel == LE:
            viol = [HRow(vscale(-1, r.a), -r.b, LT)]
            keep = r
        else:
            viol = [HRow(vscale(-1, r.a), -r.b, LE)]
            keep = r
        for v in viol:
            pieces.append(p.with_rows(tuple(prefix) + (v,)))
        prefix.append(keep)
    return all(poly_in_union(piece, rest) for piece in pieces)
