"""Exact kernels `dot`, `primitive` and `rref` against their Fraction oracles.

`linalg_reference` holds the library's former kernels, which ran every step in
`Fraction` arithmetic.  The library now computes on ints inside and builds
Fractions only for its results; on every input below it must return equal
values, and every entry it returns must be a `Fraction`, never an int.
"""

import random
from fractions import Fraction

import pytest

import linalg_reference as ref
from tropcong._linalg import dot, primitive, rref

CASES = 1500


def _entry(rng, dens):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return Fraction(0)
    if kind == 2:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-9, 9), rng.choice(dens))


def _vector(rng, d, dens):
    if rng.randrange(8) == 0:
        return (0,) * d if rng.randrange(2) else (Fraction(0),) * d
    return tuple(_entry(rng, dens) for _ in range(d))


def _rows(rng, d, dens):
    rows = [_vector(rng, d, dens) for _ in range(rng.randint(0, 5))]
    shape = rng.randrange(4)
    if rows and shape == 1:  # a repeated row
        rows.insert(rng.randrange(len(rows) + 1), rows[rng.randrange(len(rows))])
    elif rows and shape == 2:  # a combination of two rows
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
        rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    elif rows and shape == 3:  # a negative multiple first: negative pivots
        s = Fraction(-rng.randint(1, 5), rng.choice(dens))
        rows.insert(0, tuple(s * x for x in rng.choice(rows)))
    return rows


def _fractions(xs):
    return type(xs) is tuple and all(type(x) is Fraction for x in xs)


def _cases():
    rng = random.Random(20260418)
    for k in range(CASES):
        d = k % 7
        # every third case has no unit denominators at all
        dens = (2, 3, 4, 6, 9) if k % 3 == 0 else (1, 1, 1, 2, 3, 5)
        yield rng, d, dens


def test_dot_sweep():
    for rng, d, dens in _cases():
        u, v = _vector(rng, d, dens), _vector(rng, d, dens)
        got = dot(u, v)
        assert got == ref.dot(u, v) and type(got) is Fraction, (u, v)


def test_primitive_sweep():
    for rng, d, dens in _cases():
        v = _vector(rng, d, dens)
        got = primitive(v)
        assert got == ref.primitive(v) and _fractions(got), v


def test_rref_sweep():
    seen = {"empty": 0, "dependent": 0, "negative pivot": 0, "full rank": 0}
    for rng, d, dens in _cases():
        rows = _rows(rng, d, dens)
        red, pivots = rref(rows)
        want = ref.rref(rows)
        assert (red, pivots) == want, rows
        assert type(red) is list and all(_fractions(r) for r in red), rows
        assert type(pivots) is list and all(type(c) is int for c in pivots)
        seen["empty"] += not rows
        seen["dependent"] += 0 < len(red) < len(rows)
        seen["full rank"] += 0 < len(red) == len(rows)
        seen["negative pivot"] += any(
            next((x for x in r if x != 0), 0) < 0 for r in rows[:1])
    assert all(seen.values()), seen


@pytest.mark.parametrize("rows, red, pivots", [
    ([], [], []),
    ([(), ()], [], []),
    ([(0, 0), (Fraction(0), 0)], [], []),
    ([(-2, 4), (-1, 2)], [(1, -2)], [0]),
    ([(0, Fraction(-3, 2), 3), (Fraction(1, 2), 0, 1)],
     [(1, 0, 2), (0, 1, -2)], [0, 1]),
    ([(2, 4, 6), (1, 2, 3), (0, 0, 1)], [(1, 2, 0), (0, 0, 1)], [0, 2]),
])
def test_rref_examples(rows, red, pivots):
    got, got_pivots = rref(rows)
    assert got == [tuple(Fraction(x) for x in r) for r in red] and got_pivots == pivots
    assert all(_fractions(r) for r in got)


@pytest.mark.parametrize("v, want", [
    ((), ()),
    ((0, Fraction(0)), (0, 0)),
    ((Fraction(-4, 6), Fraction(2, 9)), (-3, 1)),
    ((0, -7, 14), (0, -1, 2)),
    ((Fraction(5, 3),), (1,)),
])
def test_primitive_examples(v, want):
    got = primitive(v)
    assert got == want and _fractions(got)


def test_dot_of_ints_and_empty_is_a_fraction():
    for u, v, want in [((), (), 0), ((2, 3), (4, -1), 5),
                       ((Fraction(1, 2), 3), (Fraction(2, 3), Fraction(1, 6)), Fraction(5, 6))]:
        got = dot(u, v)
        assert got == want and type(got) is Fraction


FLOATS = [
    ("dot", lambda: dot((Fraction(1), 2), (0.5, 1))),
    ("dot float against zero", lambda: dot((0, 1), (0.5, 1))),
    ("dot float first", lambda: dot((0.25,), (Fraction(1),))),
    ("primitive", lambda: primitive((1, 0.5))),
    ("rref", lambda: rref([(1, 2), (0.5, 1)])),
]


@pytest.mark.parametrize("name, call", FLOATS, ids=[n for n, _ in FLOATS])
def test_floats_are_rejected(name, call):
    with pytest.raises(TypeError, match="floats are not allowed in exact computations"):
        call()


def test_dot_checks_lengths():
    with pytest.raises(AssertionError):
        dot((1, 2), (1,))
