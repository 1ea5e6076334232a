"""Emptiness, containment and cover tests against their LP oracles.

`lp_reference` holds the library's former `feasible` (a slack LP),
`is_subset` (one `max_linear` LP per row, a `feasible` LP per tie) and
`poly_in_union`.  The library now reads every one of these answers off the
double-description generators of the closed cone over the polyhedron; it must
agree on every case below, and no boolean may reach the LP at all.
`is_subset` below is the containment step of `poly_in_union`, on one part.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import lp_reference as ref
from tropcong import _lp, jsonio, polyhedra
from tropcong.polyhedra import (EQ, LE, LT, EmptyPolyhedronError, HRow, PolyhedronH,
                                covers_equal, feasible, poly_in_union)
from tropcong.trop_core import parse_poly
from tropcong.variety import hypersurface, slice_at_height
from tropcong._linalg import dot, frac, vec

_entries = st.integers(-2, 2)


def is_subset(p: PolyhedronH, q: PolyhedronH) -> bool:
    """Exact containment p (with strict rows honored) inside q."""
    try:
        gens = polyhedra._closure_generators(p)
    except EmptyPolyhedronError:
        return True
    return polyhedra._nonempty_subset(p, gens, q)


@st.composite
def _rows(draw, d, x0, max_rows):
    # right-hand sides are offsets from a hidden point, so that not nearly
    # every system is empty; few rows in many dimensions leave lines and
    # half-spaces
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        a = draw(st.lists(_entries, min_size=d, max_size=d))
        b = dot(a, x0) + draw(st.integers(-1, 2))
        rows.append(HRow(vec(a), frac(b), draw(st.sampled_from((LE, LE, LT, EQ)))))
        if draw(st.integers(0, 2)) == 0:
            # an opposite row at offset 0 pins a hyperplane, a negative offset
            # empties the polyhedron, a positive one leaves a slab
            shift = draw(st.sampled_from((0, 0, -1, 1)))
            rows.append(HRow(vec(-x for x in a), frac(-b + shift),
                             draw(st.sampled_from((LE, LE, LT)))))
    return rows


@st.composite
def _cases(draw):
    d = draw(st.integers(1, 4))
    x0 = draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))
    p_rows = draw(_rows(d, x0, 3))
    # q keeps some rows of p with shifted bounds and changed relations, so
    # that containment holds often and strict rows meet their supremum
    q_rows = [HRow(r.a, r.b + draw(st.sampled_from((0, 0, 1, -1))),
                   draw(st.sampled_from((LE, LT, EQ))))
              for r in p_rows if draw(st.booleans())]
    q_rows += draw(_rows(d, x0, 1))
    q = PolyhedronH.make(d, q_rows)
    # the two sides of a hyperplane near the hidden point; both strict leave a gap
    a = vec(draw(st.lists(_entries, min_size=d, max_size=d)))
    c = frac(dot(a, x0) + draw(st.integers(-1, 1)))
    lower = PolyhedronH.make(d, (HRow(a, c, draw(st.sampled_from((LE, LT)))),))
    upper = PolyhedronH.make(d, (HRow(vec(-x for x in a), -c, draw(st.sampled_from((LE, LT)))),))
    parts = draw(st.permutations([q, lower, upper]))[:draw(st.integers(0, 3))]
    return PolyhedronH.make(d, p_rows), q, parts


def _kinds(p, q):
    """Which branches of is_subset(p, q) the rows of q reach."""
    try:
        gens = polyhedra._closure_generators(p)
    except EmptyPolyhedronError:
        return {"empty"}
    out = set()
    for r in q.rows:
        hi = polyhedra._sup(gens, r.a)
        if hi is None:
            out.add("unbounded")
        elif r.rel == LT and hi == r.b:
            out.add("tie")
        elif r.rel == EQ and hi <= r.b:
            out.add("equality")
    return out


def test_random_feasibility_and_containment():
    # tally the branches: the sweep is only meaningful if it reaches every one
    seen = dict.fromkeys(("empty", "unbounded", "tie", "equality", "subset", "not subset",
                          "covered", "not covered"), 0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_cases())
    def sweep(case):
        p, q, parts = case
        for x in (p, q):
            w = feasible(x)
            assert (w is None) == (ref.feasible(x) is None), x
            assert w is None or x.contains(w), (x, w)
        for x, y in ((p, q), (q, p)):
            got = is_subset(x, y)
            assert got == ref.is_subset(x, y), (x, y)
            seen["subset" if got else "not subset"] += 1
            for k in _kinds(x, y):
                seen[k] += 1
        got = poly_in_union(p, parts)
        assert got == ref.poly_in_union(p, parts), (p, parts)
        seen["covered" if got else "not covered"] += 1

    sweep()
    assert all(seen.values()), seen


def test_booleans_run_no_lp(monkeypatch, ctx3, fixtures_dir):
    def no_lp(*args, **kwargs):
        raise AssertionError("a yes/no question reached the LP")

    monkeypatch.setattr(_lp, "solve_lp", no_lp)
    V = hypersurface(parse_poly(ctx3, "1 + x + y + z"), strata=[ctx3.dense_face])
    computed = slice_at_height(V, ctx3.dense_face, 1)  # one feasible call per cell
    doc = json.loads((fixtures_dir / "three_quadrics" / "expected_f1_dense.json").read_text())
    expected = [jsonio.dec_polyhedron(p) for p in doc["pieces"]]
    assert computed and all(feasible(p) is not None for p in computed)
    assert all(is_subset(p, p.weakened()) for p in computed)
    # a piece is not inside the strict version of itself: the tie is attained
    strict = PolyhedronH.make(3, (HRow(r.a, r.b, LT if r.rel == LE else r.rel)
                                  for r in computed[0].rows))
    assert not is_subset(computed[0], strict)
    assert covers_equal(computed, expected)
    assert not covers_equal(computed[1:], expected)
