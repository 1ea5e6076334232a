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
from fractions import Fraction

import pytest

import linalg_reference as ref
from tropcong._linalg import dot, frac, primitive, qdiv, rref, vadd, vscale, vsub

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


def test_qdiv_and_vector_ops_sweep():
    for rng, d, dens in _cases():
        u, v = _vector(rng, d, dens), _vector(rng, d, dens)
        for a, b in zip(u, v):
            if b != 0:
                got = qdiv(a, b)
                assert got == Fraction(a) / b and _canonical(got), (a, b)
        c = _entry(rng, dens)
        for got, want in [(vadd(u, v), [Fraction(a) + b for a, b in zip(u, v)]),
                          (vsub(u, v), [Fraction(a) - b for a, b in zip(u, v)]),
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
