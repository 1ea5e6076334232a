"""Reference exact kernels: `dot`, `primitive` and `rref` in Fraction arithmetic.

These were the library's `_linalg.dot`, `_linalg.primitive` and `_linalg.rref`
before the kernels moved to integer arithmetic inside (one common denominator
for `dot`, denominator-cleared fraction-free elimination for `rref`).  They are
kept verbatim as independent oracles for tests/test_linalg.py, over their own
`ZERO` and `vec` in `Fraction`s (the library's give ints where integral): every
step is a `Fraction` operation, so each intermediate value is already reduced.

Test use only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from tropcong._linalg import Vec, is_zero_vec
from tropcong._linalg import vec as _vec

ZERO = Fraction(0)


def vec(xs) -> Vec:
    """The library's `vec` before ints: floats rejected, every entry a Fraction."""
    return tuple(Fraction(x) for x in _vec(xs))


def dot(u: Sequence, v: Sequence) -> Fraction:
    assert len(u) == len(v), (len(u), len(v))
    s = ZERO
    for a, b in zip(u, v):
        s += a * b
    return s


def primitive(v: Sequence) -> Vec:
    """Smallest integer vector on the same ray (orientation preserved)."""
    v = vec(v)
    if is_zero_vec(v):
        return v
    den = 1
    for a in v:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [int(a * den) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(Fraction(a // g) for a in ints)


def rref(rows: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    mat = [list(vec(r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots
