"""Support builders against the reference builders, cell for cell.

`support_reference` keeps the builders as they were when every candidate cell
was a full `make` and contained cells were absorbed only at the end.  The
library builds the same supports from merged canonical rows, domination cells
built once per term and running cells dropped when inside an earlier cell; it
must return the same cells, with the same rows, in the same order.  Both the
`jsonio.enc_support` document and the `cone_key` of every cell are compared.
"""

import ast
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support_reference as ref
from tropcong import jsonio
from tropcong import polyhedra as ph
from tropcong import variety as vy
from tropcong._linalg import vscale
from tropcong.congruence import CongruencePresentation
from tropcong.polyhedra import EQ, LE, LT, ConeH, HRow, PolyhedronH
from tropcong.trop_core import ToricContext

from helpers import random_poly, vadd

QUADRICS = ("g_xy", "g_xz", "g_yz")
THREE_QUADRICS = ("f_1", "f_2", "f_3", "f_5") + QUADRICS


def _same(got, want):
    assert jsonio.enc_support(got) == jsonio.enc_support(want)
    assert ([[ph.cone_key(c) for c in s.cells] for s in got.strata]
            == [[ph.cone_key(c) for c in s.cells] for s in want.strata])
    assert [type(c) for _, c in got.all_cells()] == [type(c) for _, c in want.all_cells()]


def _doc(fixtures_dir, *parts):
    return json.loads(fixtures_dir.joinpath(*parts).read_text())


def _three_quadrics(fixtures_dir, name):
    doc = _doc(fixtures_dir, "three_quadrics", name + ".json")
    return jsonio.dec_poly(doc, jsonio.context_of_document(doc, name), name)


# ---------------------------------------------------------------------------
# named presentations

def test_quartic_boolean_and_radical_supports(fixtures_dir, quartic_E, boolean_E):
    doc = _doc(fixtures_dir, "radical_roundtrip", "E.json")
    radical_E = jsonio.dec_congruence(doc, jsonio.context_of_document(doc))
    for E in (quartic_E, boolean_E, radical_E):
        _same(vy.variety_of_basis(E), ref.variety_of_basis(E))
        _same(vy.support_of(E), ref.variety_of_basis(E))


@pytest.mark.parametrize("name", THREE_QUADRICS)
def test_three_quadrics_bends(fixtures_dir, name):
    f = _three_quadrics(fixtures_dir, name)
    E = CongruencePresentation.bend_of(f)
    _same(vy.variety_of_basis(E), ref.variety_of_basis(E))
    _same(vy.hypersurface(f), ref.hypersurface(f))


def test_three_quadrics_intersection(fixtures_dir):
    polys = [_three_quadrics(fixtures_dir, n) for n in QUADRICS]
    dense = [polys[0].context.dense_face]
    supports = [vy.hypersurface(f, strata=dense) for f in polys]
    _same(vy.intersect_supports(supports), ref.intersect_supports(supports))
    whole = [vy.hypersurface(f) for f in polys[:2]]
    _same(vy.intersect_supports(whole), ref.intersect_supports(whole))


# ---------------------------------------------------------------------------
# seeded random presentations

def _random_strata(ctx, rng, seed):
    """Every third seed takes a subset of the faces, in a shuffled order."""
    if seed % 3:
        return None
    return rng.sample(ctx.faces, rng.randint(1, len(ctx.faces)))


@pytest.mark.parametrize("seed", range(12))
def test_random_bend_presentations(seed):
    # 3 to 8 terms, each on affine(2) and affine(3)
    rng = random.Random(2500 + seed)
    ctx = ToricContext.affine(2 + seed % 2)
    f = random_poly(ctx, rng, 3 + seed // 2)
    strata = _random_strata(ctx, rng, seed)
    E = CongruencePresentation.bend_of(f)
    _same(vy.variety_of_basis(E, strata), ref.variety_of_basis(E, strata))
    _same(vy.hypersurface(f, strata), ref.hypersurface(f, strata))
    for tau in strata or ctx.faces:
        for pair in E.pairs:
            assert vy.pair_variety(pair, tau) == ref.pair_variety(pair, tau)


@pytest.mark.parametrize("seed", range(12))
def test_random_presentations(seed):
    # two or three pairs of 1 to 3 terms a side, 3 to 8 terms a presentation
    rng = random.Random(2600 + seed)
    ctx = ToricContext.affine(2 + seed % 2)
    pairs = []
    while not 3 <= sum(len(p.terms) for pair in pairs for p in pair) <= 8:
        pairs = [tuple(random_poly(ctx, rng, rng.randint(1, 3)) for _ in "fg")
                 for _ in range(rng.randint(2, 3))]
    strata = _random_strata(ctx, rng, seed)
    E = CongruencePresentation.make(ctx, pairs)
    _same(vy.variety_of_basis(E, strata), ref.variety_of_basis(E, strata))
    supports = [vy.hypersurface(f, strata) for f, _ in pairs]
    _same(vy.intersect_supports(supports), ref.intersect_supports(supports))


def test_random_poly_has_k_terms_in_every_variable():
    for rank in range(2, 6):
        for k in (1, 4, 8):
            assert len(random_poly(ToricContext.affine(rank), random.Random(k), k).terms) == k
    f = random_poly(ToricContext.affine(4), random.Random(0), 8)
    assert any(u[3] for u, _ in f.terms)


def _random_cells(rng):
    """Cones on 2 or 3 random rays in R^2 or R^3, some subcells, and some
    copies equal as sets with one redundant row, shuffled."""
    dim = rng.choice((2, 3))

    def ray():
        return tuple(rng.randint(-2, 2) for _ in range(dim))
    cells = []
    for _ in range(rng.randint(2, 4)):
        rays = [ray() for _ in range(rng.randint(2, 3))]
        cell = ph.hrep_from_rays(rays, dim)
        cells.append(cell)
        if rng.random() < 0.6:
            cells.append(ph.hrep_from_rays(rays[:1] + [vadd(rays[0], r) for r in rays[1:]], dim))
        if rng.random() < 0.3:
            cells.append(ph.intersect(cell, ConeH.make(dim, (HRow(ray(), 0, LE),))))
    for cell in rng.sample(cells, len(cells) // 2):
        # a sum of the rows, equalities with either sign, holds on the cell
        a = tuple(map(sum, zip(*(r.a if r.rel == LE else vscale(rng.choice((-1, 1)), r.a)
                                 for r in cell.rows))))
        padded = ConeH.make(dim, cell.rows + (HRow(a, 0, LE),)) if a else cell
        if padded.rows != cell.rows:
            cells.append(padded)
    rng.shuffle(cells)
    return cells


def test_dedupe_absorb_matches_the_reference():
    # equal sets built from different rows: the first one's rows are kept
    rays = [ph.hrep_from_rays([(1, -k)], 2) for k in range(1, 5)]
    wedge = ph.hrep_from_rays([(1, 0), (1, -1)], 2)
    padded = ConeH.make(2, wedge.rows + (HRow((-1, 0), 0, LE),))  # a redundant row
    cells = rays + [padded, wedge, rays[0]]
    assert vy._dedupe_absorb(cells) == ref._dedupe_absorb(cells)
    assert vy._dedupe_absorb(cells)[-1] is padded
    # seeded random lists: the same objects as the reference; in at least 50
    # lists a kept cell has more rows than a cell equal to it as a set
    more_rows_kept = 0
    for seed in range(300):
        cells = _random_cells(random.Random(seed))
        got = vy._dedupe_absorb(cells)
        want = ref._dedupe_absorb(cells)
        assert len(got) == len(want) and all(c is d for c, d in zip(got, want))
        more_rows_kept += any(ph.cone_key(d) == ph.cone_key(c) and set(d.rows) < set(c.rows)
                              for c in got for d in cells)
    assert more_rows_kept >= 50


# ---------------------------------------------------------------------------
# canonical rows: what `intersect` relies on

_RAW_ROW = st.builds(lambda a, b, rel: HRow(tuple(a), b, rel),
                     st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2)]),
                              min_size=2, max_size=2),
                     st.sampled_from([0, 0, 0, 1, -1, Fraction(-3, 2)]),
                     st.sampled_from([LE, LT, EQ]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_RAW_ROW, max_size=5), st.lists(_RAW_ROW, max_size=5))
def test_intersect_equals_make_of_both_rows(rows1, rows2):
    # zero rows (false ones stay), strict rows, equalities, unscaled rows
    for cls1 in (PolyhedronH, ConeH):
        for cls2 in (PolyhedronH, ConeH):
            try:
                p, q = cls1.make(2, rows1), cls2.make(2, rows2)
            except ValueError:  # a cone with a nonzero right-hand side
                continue
            got = ph.intersect(p, q)
            assert got.rows == PolyhedronH.make(2, p.rows + q.rows).rows
            assert got == ref.intersect(p, q)


def _direct_builds(tree) -> list:
    """(line, enclosing function) of each call of PolyhedronH or ConeH."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name in ("PolyhedronH", "ConeH"):
                    out.append((child.lineno, fn))
            visit(child, fn)

    visit(tree, None)
    return out


def test_src_builds_polyhedra_only_in_make_and_intersect():
    """Every PolyhedronH is built by `make`, or by `intersect` from two built
    by `make`, so the rows of every one are canonical."""
    src = pathlib.Path(ph.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) > 10
    stray = {f.name: [(line, fn) for line, fn in _direct_builds(ast.parse(f.read_text(), str(f)))
                      if fn not in ("make", "intersect")]
             for f in files}
    assert {name: calls for name, calls in stray.items() if calls} == {}


def test_build_scan_sees_every_form():
    code = ("x = PolyhedronH(1, ())\n"
            "def make(d, rows):\n    return ConeH(d, rows)\n"
            "def f(c):\n    return polyhedra.ConeH(c.dim, c.rows)\n"
            "class K:\n    def g(self):\n        return [ph.PolyhedronH(1, r) for r in ()]\n"
            "def h():\n    return ConeH.make(1, ()), PolyhedronH.make(1, ())\n")
    assert _direct_builds(ast.parse(code)) == [(1, None), (3, "make"), (5, "f"), (8, "g")]
