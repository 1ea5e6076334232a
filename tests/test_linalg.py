"""Exact kernels `dot`, `primitive` and `rref` against their Fraction oracles,
and the number contract they keep.

`linalg_reference` holds the library's former kernels, which ran every step in
`Fraction` arithmetic.  The library now computes on ints inside; on every input
below it must return equal values, and every entry it returns must be
canonical: an `int`, or a `Fraction` whose denominator is above 1 (so a
`Fraction(2, 1)` fails as surely as a float).
"""

import ast
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

import linalg_reference as ref
from tropcong._linalg import canon, dot, frac, primitive, qdiv, rref, vscale, vsub

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropcong"

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


def _canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _canonical_vec(xs):
    return type(xs) is tuple and all(_canonical(x) for x in xs)


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
        assert got == ref.dot(u, v) and _canonical(got), (u, v)


def _int_entry(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice((True, False))
    if kind == 2:
        return rng.choice((-1, 1)) * rng.randint(2**64, 2**70)
    return rng.randint(-6, 6)


def _kind_entry(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.randrange(2)):
        return _int_entry(rng)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def test_dot_int_and_mixed_sweep():
    """Int vectors (with zeros, negatives, bools and ints above 2**64), int
    vectors mixed with Fractions, and all-Fraction vectors: the value and the
    canonical type of the reference's product."""
    rng = random.Random(20261019)
    seen = Counter()
    for k in range(CASES):
        d, kind = k % 6, ("int", "mixed", "fraction")[k % 3]
        u = tuple(_kind_entry(rng, kind) for _ in range(d))
        v = tuple(_kind_entry(rng, kind) for _ in range(d))
        got, want = dot(u, v), canon(ref.dot(u, v))
        assert (type(got), got) == (type(want), want), (u, v)
        seen[kind, type(got).__name__] += 1
        seen["bool"] += any(type(x) is bool for x in u + v)
        seen["big"] += any(abs(x) > 2**64 for x in u + v)
    assert seen["int", "Fraction"] == 0
    for part in (("int", "int"), ("mixed", "int"), ("mixed", "Fraction"),
                 ("fraction", "int"), ("fraction", "Fraction"), "bool", "big"):
        assert seen[part] >= 20, (part, seen)


# what dot raised before its int fast path, which must not change it (floats
# against small ints are in FLOATS below); an int before the odd entry would
# overflow into a float or repeat a str if the fast path used operator.mul
NOT_EXACT = [
    ("huge int then float", (10**400,), (0.5,), TypeError,
     "floats are not allowed in exact computations: 0.5"),
    ("float then huge int", (0.5,), (10**400,), TypeError,
     "floats are not allowed in exact computations: 0.5"),
    ("rational str", (1, "1/2"), (1, 1), TypeError, "dot needs int or Fraction entries"),
    ("rational str after Fraction", (Fraction(1, 2), "1/2"), (1, 1), TypeError,
     "dot needs int or Fraction entries"),
    ("other str", (3, 2), ("x", 1), ValueError, "Invalid literal for Fraction: 'x'"),
    ("str after big int", (10**6,), ("ab",), ValueError, "Invalid literal for Fraction: 'ab'"),
    ("Decimal first", (Decimal("1.5"), 1), (2, 3), TypeError,
     "dot needs int or Fraction entries"),
    ("Decimal second", (2, 3), (Decimal("1.5"), 1), TypeError,
     "dot needs int or Fraction entries"),
    ("None", (1,), (None,), TypeError, "argument should be a string or a Rational instance"),
    ("huge int then complex", (10**400,), (1j,), TypeError,
     "argument should be a string or a Rational instance"),
]


@pytest.mark.parametrize("name, u, v, exc, msg", NOT_EXACT, ids=[c[0] for c in NOT_EXACT])
def test_dot_raises_as_before_on_entries_that_are_not_exact(name, u, v, exc, msg):
    with pytest.raises(exc) as info:
        dot(u, v)
    assert type(info.value) is exc and str(info.value) == msg


def test_qdiv_and_vector_ops_sweep():
    for rng, d, dens in _cases():
        u, v = _vector(rng, d, dens), _vector(rng, d, dens)
        for a, b in zip(u, v):
            if b != 0:
                got = qdiv(a, b)
                assert got == Fraction(a) / b and _canonical(got), (a, b)
        c = _entry(rng, dens)
        for got, want in [(vsub(u, v), [Fraction(a) - b for a, b in zip(u, v)]),
                          (vscale(c, u), [Fraction(c) * a for a in u])]:
            assert list(got) == want and _canonical_vec(got), (u, v, c)


def test_primitive_sweep():
    for rng, d, dens in _cases():
        v = _vector(rng, d, dens)
        got = primitive(v)
        assert got == ref.primitive(v) and _canonical_vec(got), v


def test_rref_sweep():
    seen = {"empty": 0, "dependent": 0, "negative pivot": 0, "full rank": 0}
    for rng, d, dens in _cases():
        rows = _rows(rng, d, dens)
        red, pivots = rref(rows)
        want = ref.rref(rows)
        assert (red, pivots) == want, rows
        assert type(red) is list and all(_canonical_vec(r) for r in red), rows
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
    assert all(_canonical_vec(r) for r in got)


@pytest.mark.parametrize("v, want", [
    ((), ()),
    ((0, Fraction(0)), (0, 0)),
    ((Fraction(-4, 6), Fraction(2, 9)), (-3, 1)),
    ((0, -7, 14), (0, -1, 2)),
    ((Fraction(5, 3),), (1,)),
])
def test_primitive_examples(v, want):
    got = primitive(v)
    assert got == want and _canonical_vec(got)


def test_dot_examples_are_canonical():
    for u, v, want in [((), (), 0), ((2, 3), (4, -1), 5),
                       ((Fraction(1, 2), 3), (Fraction(2, 3), Fraction(1, 6)), Fraction(5, 6)),
                       ((Fraction(1, 2), Fraction(1, 2)), (1, 1), 1)]:
        got = dot(u, v)
        assert got == want and _canonical(got)


@pytest.mark.parametrize("x, want", [
    (3, 3), (True, 1), (Fraction(4, 2), 2), (Fraction(-3, 6), Fraction(-1, 2)),
    ("6/3", 2), ("-5/10", Fraction(-1, 2)), ("0", 0),
])
def test_frac_is_canonical(x, want):
    got = frac(x)
    assert got == want and _canonical(got)


def test_qdiv_by_zero_raises():
    for a, b in [(1, 0), (Fraction(1, 2), Fraction(0))]:
        with pytest.raises(ZeroDivisionError):
            qdiv(a, b)


FLOATS = [
    ("dot", lambda: dot((Fraction(1), 2), (0.5, 1))),
    ("dot float against zero", lambda: dot((0, 1), (0.5, 1))),
    ("dot float first", lambda: dot((0.25,), (Fraction(1),))),
    ("primitive", lambda: primitive((1, 0.5))),
    ("rref", lambda: rref([(1, 2), (0.5, 1)])),
    ("qdiv", lambda: qdiv(1, 0.5)),
    ("qdiv float first", lambda: qdiv(0.5, Fraction(1))),
]


@pytest.mark.parametrize("name, call", FLOATS, ids=[n for n, _ in FLOATS])
def test_floats_are_rejected(name, call):
    with pytest.raises(TypeError, match="floats are not allowed in exact computations"):
        call()


def test_dot_checks_lengths():
    with pytest.raises(RuntimeError, match="lengths 2 and 1"):
        dot((1, 2), (1,))


def test_dot_checks_lengths_under_optimize():
    """The guard is a raise, not an assert, so `python -O` keeps it."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "from tropcong._linalg import dot\nprint(dot((1, 2), (1,)))"
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == "", proc.stdout
    assert "RuntimeError: dot of vectors of lengths 2 and 1" in proc.stderr


def _true_divisions(tree):
    """Line numbers of every `/` (in a BinOp or an AugAssign) outside `qdiv`."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "qdiv":
            allowed.update(id(n) for n in ast.walk(node))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            and id(node) not in allowed]


def test_src_divides_only_through_qdiv():
    """`int / int` is a float, so every division in the library is a `qdiv`."""
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = {f.name: _true_divisions(ast.parse(f.read_text(), str(f))) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_division_scan_sees_both_forms():
    code = "def qdiv(a, b):\n    return a / b\n\ndef f(x):\n    x /= 2\n    return x / 3 // 4\n"
    assert _true_divisions(ast.parse(code)) == [5, 6]
