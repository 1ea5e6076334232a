"""Relative-interior points and face tests against their LP oracles.

`relint_face_reference` holds the library's former `relative_interior_point`
(implicit equalities found by a loop of LPs, the common slack pinned by an
LP, the point chosen by an L1 simplex) and `is_face` (a separating functional
found by an LP).  The library reads both off the double-description kernel,
and its point, the point of `feasible`, is its own: the dehomogenized sum of
the closure generators' rays.  Where `feasible` returns None,
`_closure_generators` must raise the oracle's EmptyPolyhedronError, and every
face question must be decided the same way.  Its point need not be the
oracle's, but it must lie in p and be tight on exactly the rows on which the
oracle's point is tight: the implicit equalities, since both points are
relative-interior points.
"""

import ast
import itertools
import json
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relint_face_reference as ref
from cone_kernel_reference import faces_of
from tropcong import _lp, jsonio, polyhedra, resolve, toric_geom
from tropcong.polyhedra import (EQ, LE, LT, ConeH, EmptyPolyhedronError, HRow,
                                PolyhedronH, cone_key, cone_over, feasible,
                                generators, hrep_from_rays, is_face, recession_cone,
                                row)
from tropcong._linalg import ZERO, dot, frac, primitive, vec
from tropcong.congruence import CongruencePresentation
from tropcong.trop_core import ExtPoint, ToricContext, parse_poly
from tropcong.variety import support_of


def _outcome(p):
    """The library's point of p, or ("empty", reason) with the reason that
    `_closure_generators` raises for it."""
    x = feasible(p)
    if x is not None:
        return x
    with pytest.raises(EmptyPolyhedronError) as exc:
        polyhedra._closure_generators(p)
    return ("empty", str(exc.value))


def _ref_outcome(p):
    try:
        return ref.relative_interior_point(p)
    except EmptyPolyhedronError as exc:
        return ("empty", str(exc))


def _tight(p, x):
    return [r for r in p.rows if dot(r.a, x) == r.b]


def _agree(p):
    """The library and the oracle agree on emptiness (and its message); on a
    nonempty p the library's point lies in p, tight on the oracle's rows."""
    got = _outcome(p)
    want = _ref_outcome(p)
    if isinstance(got[0], str) or isinstance(want[0], str):
        assert got == want, (p, got, want)
    else:
        assert all(type(x) is int or x.denominator > 1 for x in got), got
        assert p.contains(got), (p, got)
        assert _tight(p, got) == _tight(p, want), (p, got, want)
    return got


# ---------------------------------------------------------------------------
# the point of feasible on random polyhedra

_entries = st.integers(-2, 2)


@st.composite
def _polyhedra(draw):
    d = draw(st.integers(1, 4))
    # right-hand sides are offsets from a hidden point, so that not nearly
    # every system with several rows is empty
    x0 = draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.lists(_entries, min_size=d, max_size=d))
        b = dot(a, x0) + draw(st.integers(-1, 2))
        rel = draw(st.sampled_from((LE, LE, LT, EQ)))
        rows.append(HRow(vec(a), frac(b), rel))
        if draw(st.integers(0, 2)) == 0:
            # an opposite row at offset 0 makes both rows implicit equalities,
            # a negative offset empties the polyhedron, a positive one leaves a slab
            shift = draw(st.sampled_from((0, 0, -1, 1)))
            rows.append(HRow(vec(-x for x in a), frac(-b + shift),
                             draw(st.sampled_from((LE, LE, LT)))))
    return PolyhedronH.make(d, rows[:7])


def test_random_polyhedra():
    # tally the outcomes: the sweep is only meaningful if it reaches every branch
    seen = {"point": 0, "implicit": 0, "empty": 0, "strict implicit": 0}

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_polyhedra())
    def sweep(p):
        got = _agree(p)
        if got == ("empty", "a strict row is an implicit equality"):
            seen["strict implicit"] += 1
        elif isinstance(got[0], str):
            seen["empty"] += 1
        else:
            seen["point"] += 1
            # at a relative-interior point the tight inequalities are the implicit ones
            seen["implicit"] += any(r.rel == LE and dot(r.a, got) == r.b for r in p.rows)

    sweep()
    assert all(seen.values()), seen
    assert 0.2 < (seen["empty"] + seen["strict implicit"]) / sum(
        seen[k] for k in ("point", "empty", "strict implicit")) < 0.5, seen


def test_relative_interior_point_runs_no_lp(monkeypatch):
    # the point is the dehomogenized sum of the closure generators' rays
    def P(d, *rows):
        return PolyhedronH.make(d, tuple(HRow(vec(a), frac(b), rel) for a, b, rel in rows))

    systems = [
        P(1, ((-1,), 0, LE), ((1,), 4, LE)),  # the midpoint of [0, 4]
        P(1, ((-1,), 0, LE), ((2,), 1, LE)),
        P(1, ((-1,), -1, LE), ((1,), 3, LT)),  # a strict row
        P(2, ((-1, 0), 0, LE), ((0, -1), 0, LE), ((1, 1), 1, LE), ((1, -1), 0, EQ)),
        P(2, ((1, 0), 1, LE), ((-1, 0), -1, LE), ((0, 1), 2, LE)),  # an implicit equality
        P(2, ((1, 1), 0, EQ)),  # a line: its one ray is reduced modulo the lineality
    ]
    callers = []
    solve = _lp.solve_lp

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(*args)

    monkeypatch.setattr(_lp, "solve_lp", spy)
    points = [feasible(p) for p in systems]
    monkeypatch.undo()
    assert callers == []
    assert points == [(2,), (Fraction(1, 3),), (2,), (Fraction(1, 3),) * 2, (1, 1), (0, 0)]
    for p in systems:
        _agree(p)


# ---------------------------------------------------------------------------
# the point does not depend on how p is embedded

def _embed(p, k):
    """p in R^(dim+1) with a coordinate pinned to 0 inserted at position k."""
    rows = [HRow(r.a[:k] + (ZERO,) + r.a[k:], r.b, r.rel) for r in p.rows]
    rows.append(HRow(vec(1 if i == k else 0 for i in range(p.dim + 1)), ZERO, EQ))
    return PolyhedronH.make(p.dim + 1, rows)


def _embedding_agrees(p, k):
    low = _outcome(p)
    high = _outcome(_embed(p, k))
    if isinstance(low[0], str):
        assert high == low, (p, k, high, low)
    else:
        assert high == low[:k] + (0,) + low[k:], (p, k, high, low)
    return low


def test_random_embeddings():
    seen = {"point": 0, "empty": 0}

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_polyhedra(), st.integers(0, 4))
    def sweep(p, k):
        got = _embedding_agrees(p, min(k, p.dim))
        seen["empty" if isinstance(got[0], str) else "point"] += 1

    sweep()
    assert all(seen.values()), seen


def test_square_pyramid_direction_embedding():
    # rec(L) cap rel.int(sigma) on the square pyramid, asked in R^3 and, as
    # the claim-3 system of the closure lemma, in R^(1+3) with the height
    # pinned to 0: an L1 tie between (0, -1, -2) and (1, 0, -2) once gave
    # two answers
    ctx = ToricContext(3, [(1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)])
    sigma = ctx.deep_face
    L = PolyhedronH.make(3, (row([-1, 0, 1], 1, LE), row([-1, 1, 0], -2, LE),
                             row([-1, 1, 0], -1, LE), row([-1, 1, 1], -3, LE)))
    p = recession_cone(L).with_rows(HRow(r.a, ZERO, LT if r.rel == LE else r.rel)
                                    for r in sigma.cone().rows)
    v = _embedding_agrees(p, 0)
    assert not isinstance(v[0], str) and p.contains(v), v
    witness = toric_geom.cone_closure_witnesses(cone_over(L), ExtPoint.make(ctx, 1, sigma, (0, 0, 0)))
    assert witness[0] == primitive((0,) + v), (witness, v)


def _lp_imports(tree):
    """Line numbers of every import of `_lp`: `from . import _lp`,
    `from ._lp import ...`, `import tropcong._lp` and their absolute forms."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any(n.split(".")[-1] == "_lp" for n in names):
                lines.append(node.lineno)
    return lines


def test_src_imports_no_lp():
    """The simplex is a test oracle: no library module loads it."""
    src = pathlib.Path(polyhedra.__file__).parent
    files = sorted(f for f in src.glob("*.py") if f.name != "_lp.py")
    assert len(files) > 10
    found = {f.name: _lp_imports(ast.parse(f.read_text(), str(f))) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_lp_import_scan_sees_every_form():
    code = ("from . import _lp\nfrom ._lp import solve_lp\nimport tropcong._lp\n"
            "from tropcong import jsonio, _lp as simplex\nfrom tropcong._lp import OPTIMAL\n"
            "def f():\n    from . import _linalg, polyhedra\n    import tropcong._linalg\n")
    assert _lp_imports(ast.parse(code)) == [1, 2, 3, 4, 5]


def test_strict_implicit_and_empty_raise():
    strict = PolyhedronH.make(1, (HRow(vec((1,)), ZERO, LT), HRow(vec((-1,)), ZERO, LE)))
    empty = PolyhedronH.make(1, (HRow(vec((1,)), frac(-1), LE), HRow(vec((-1,)), ZERO, LE)))
    with pytest.raises(EmptyPolyhedronError, match="strict row"):
        polyhedra._closure_generators(strict)
    with pytest.raises(EmptyPolyhedronError, match="empty polyhedron"):
        polyhedra._closure_generators(empty)
    assert feasible(strict) is None and feasible(empty) is None


# ---------------------------------------------------------------------------
# every system the closure and resolution code asks about

def _capture(monkeypatch, module, name):
    seen = []
    inner = getattr(module, name)

    def wrapper(p):
        seen.append(p)
        return inner(p)

    monkeypatch.setattr(module, name, wrapper)
    return seen


def _load(path):
    return json.loads(path.read_text())


def test_resolve_quartic_systems(monkeypatch, fixtures_dir):
    base = fixtures_dir / "quartic_bend"
    edoc, pdoc = _load(base / "E.json"), _load(base / "P.json")
    ctx = jsonio.context_of_document(edoc)
    E = jsonio.dec_congruence(edoc, ctx)
    P = jsonio.dec_matrix(pdoc, ctx)
    systems = _capture(monkeypatch, resolve, "feasible")
    res = resolve.resolve_boundary_prime(E, P, samples=50)
    monkeypatch.undo()
    assert isinstance(res, resolve.ResolutionResult)
    assert systems
    for p in systems:
        _agree(p)


def _closure_hypothesis_systems(monkeypatch, E):
    """The result of `verify_closure_hypothesis` on the support of E, and the
    systems it asks `toric_geom.feasible` about, each checked by the oracle."""
    V = support_of(E)
    systems = _capture(monkeypatch, toric_geom, "feasible")
    verdict = resolve.verify_closure_hypothesis(V)
    monkeypatch.undo()
    for p in systems:
        _agree(p)
    return verdict, systems


def test_closure_hypothesis_systems_quartic(monkeypatch, quartic_E):
    verdict, systems = _closure_hypothesis_systems(monkeypatch, quartic_E)
    assert verdict is None
    assert len(systems) == 5


def test_closure_hypothesis_systems_refused(monkeypatch, ctx1):
    # demo 07's refused E = <(t^1 x, x)> on affine(1)
    E = CongruencePresentation.make(
        ctx1, [(parse_poly(ctx1, "t^1*x"), parse_poly(ctx1, "x"))],
        finite_tropical_basis=True)
    verdict, systems = _closure_hypothesis_systems(monkeypatch, E)
    assert verdict is not None
    assert len(systems) == 1


@pytest.mark.parametrize("polyhedron, point", [
    ("cell_L.json", "deep_point.json"),
    ("neg_claim1_L.json", "neg_claim1_point.json"),
    ("neg_claim3_L.json", "neg_claim3_point.json"),
])
def test_closure_fixture_systems(monkeypatch, fixtures_dir, polyhedron, point):
    base = fixtures_dir / "closure"
    wdoc = _load(base / point)
    ctx = jsonio.context_of_document(wdoc)
    L = jsonio.dec_polyhedron(_load(base / polyhedron))
    fan = jsonio.dec_fan(_load(base / "sigma_fan.json"))
    w = jsonio.dec_stratum_point(wdoc, ctx)
    systems = _capture(monkeypatch, toric_geom, "feasible")
    toric_geom.polyhedron_closure_membership(L, fan, w)
    assert systems
    for p in systems:
        _agree(p)


# ---------------------------------------------------------------------------
# is_face

@st.composite
def _cones(draw):
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(st.lists(_entries, min_size=d, max_size=d),
                                   st.sampled_from((LE, LE, LE, EQ))),
                         min_size=0, max_size=4))
    rays = draw(st.lists(st.lists(_entries, min_size=d, max_size=d), min_size=1, max_size=3))
    return ConeH.make(d, tuple(HRow(vec(a), ZERO, rel) for a, rel in rows)), rays


def _candidates(c, rays):
    # the faces of c, the cones on at most two or on all but one of its
    # generators, and cones on random rays
    gens = generators(c)
    out = list(faces_of(c))
    for k in sorted({*range(min(2, len(gens)) + 1), max(len(gens) - 1, 0)}):
        out.extend(hrep_from_rays(sub, c.dim) for sub in itertools.combinations(gens, k))
    out.extend(hrep_from_rays([r], c.dim) for r in rays)
    out.append(hrep_from_rays(rays, c.dim))
    return out


def _face_agree(c, rays):
    keys = {cone_key(f) for f in faces_of(c)}
    faces = 0
    for f in _candidates(c, rays):
        want = cone_key(f) in keys
        assert is_face(f, c) == want, (f, c)
        assert ref.is_face(f, c) == want, (f, c)
        faces += want
    return faces


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_cones())
def test_random_cone_faces(case):
    _face_agree(*case)


def test_face_of_fixture_fan(fixtures_dir):
    fan = jsonio.dec_fan(_load(fixtures_dir / "closure" / "sigma_fan.json"))
    for c in fan.cones:
        assert _face_agree(c, [(1, 0), (-1, -1), (0, -2)]) >= 1
