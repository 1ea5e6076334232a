"""Exact rational linear algebra helpers over ints and fractions.Fraction.

The number contract of the library: an exact number is an `int` when it is
integral, and otherwise a `Fraction` whose denominator is above 1 (`canon`).
Every function here returns that form, takes ints or Fractions in any form,
and mutates nothing in place.  The kernels `primitive` and `rref` compute on
Python ints (rows cleared of denominators and eliminated fraction-free,
Bareiss 1968) and build a Fraction only for a value that is not integral;
`dot` is a plain sum of int products on int vectors, and the canonical sum
of exact products on the rare vector that holds a Fraction.  Inputs enter
through `frac`/`vec` (records' `make`, the JSON decoders), so integer data
stays int and plain `+`, `-` and `*` on it elsewhere stay int too.  Where
such arithmetic mixes in Fractions it may give an integral `Fraction`; that
is sound, because `Fraction(2) == 2`, `hash(Fraction(2)) == hash(2)` and
`str(Fraction(2)) == "2"`, so records, cache keys and output do not see the
form.  The one hazard is `/` between two ints, which gives a float: every
division goes through `qdiv`, and `frac`, `dot` and `qdiv` reject floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple  # tuple of canonical exact numbers

ZERO = 0
ONE = 1


def canon(x):
    """The canonical form of an int or Fraction x: an int when integral."""
    return x.numerator if x.denominator == 1 else x


def _ratio(num: int, den: int):
    """num / den for ints, canonical: a Fraction only when den does not divide num."""
    return Fraction(num, den) if num % den else num // den


def qdiv(a, b):
    """Exact a / b of ints or Fractions, canonical; a float raises TypeError."""
    try:
        return _ratio(a.numerator * b.denominator, a.denominator * b.numerator)
    except AttributeError:  # an operand without numerator: floats raise in frac
        frac(a)
        frac(b)
        raise TypeError("qdiv needs int or Fraction operands") from None


def frac(x):
    """x (an int, Fraction, "p/q" string or other rational) in canonical form."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations: %r" % (x,))
    return canon(x if isinstance(x, (int, Fraction)) else Fraction(x))


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def zero_vec(d: int) -> Vec:
    return (ZERO,) * d


_int_mul = int.__mul__


def dot(u: Sequence, v: Sequence):
    """Exact u . v of int or Fraction entries: on int (or bool) vectors a sum
    of int products; otherwise the canonical sum of the exact products."""
    if len(u) != len(v):
        raise RuntimeError("dot of vectors of lengths %d and %d" % (len(u), len(v)))
    try:
        # int.__mul__ multiplies ints only: another entry raises TypeError, or
        # gives NotImplemented, which the sum rejects.  It never repeats a
        # string or converts a huge int to float, as operator.mul would.
        return sum(map(_int_mul, u, v))
    except TypeError:
        pass
    if not all(isinstance(a, (int, Fraction)) for a in (*u, *v)):
        vec(u)  # floats raise here
        vec(v)
        raise TypeError("dot needs int or Fraction entries")
    return canon(sum(a * b for a, b in zip(u, v)))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(canon(a - b) for a, b in zip(u, v))


def vscale(c, u: Vec) -> Vec:
    c = frac(c)
    return tuple(canon(c * a) for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def _int_row(v: Sequence) -> list:
    """v scaled by the lcm of its denominators: a list of ints on v's ray."""
    try:
        den = lcm(*[a.denominator for a in v])
    except AttributeError:  # a float raises here, a str is parsed
        return _int_row(vec(v))
    if den == 1:
        return [a.numerator for a in v]
    return [a.numerator * (den // a.denominator) for a in v]


def primitive(v: Sequence) -> Vec:
    """Smallest integer vector on the same ray (orientation preserved)."""
    ints = _int_row(v)
    g = gcd(*ints)
    if g == 0:
        return zero_vec(len(ints))
    return tuple(a // g for a in ints)


def neg_primitive_pair(v: Sequence) -> Vec:
    """Canonical representative of the line through v: primitive with first nonzero > 0."""
    p = primitive(v)
    for a in p:
        if a != 0:
            return p if a > 0 else vscale(-1, p)
    return p


def rref(rows: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Eliminates fraction-free on integer rows, pv*row_i - f*row_r with each row
    kept divided by the gcd of its entries, and divides by the pivots once at
    the end.  The reduced form is unique, so it is the one Fraction
    elimination gives."""
    mat = [_int_row(r) for r in rows]
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
        prow = mat[r]
        pv = prow[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                row = [pv * x - f * y for x, y in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = []
    for row, c in zip(mat, pivots):
        pv = row[c]
        out.append(tuple(row) if pv == 1 else tuple(_ratio(x, pv) for x in row))
    return out, pivots


def rank_of(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def nullspace_basis(rows: Sequence[Sequence], dim: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for all rows} in Q^dim."""
    red, pivots = rref(rows)
    basis = []
    free = [c for c in range(dim) if c not in pivots]
    for fc in free:
        v = [ZERO] * dim
        v[fc] = ONE
        for rrow, pc in zip(red, pivots):
            v[pc] = -rrow[fc]
        basis.append(tuple(v))
    return basis


def reduce_mod_rref(x: Sequence, red: Sequence[Vec], pivots: Sequence[int]) -> Vec:
    """Canonical representative of x modulo span(rows), pivot coords zeroed,
    given (red, pivots) = rref(rows), so that one elimination serves many
    vectors."""
    x = vec(x)
    for rrow, pc in zip(red, pivots):
        if x[pc] != 0:
            x = vsub(x, vscale(x[pc], rrow))
    return x
