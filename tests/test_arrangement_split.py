"""The arrangement split against H-cones, and the queries it once stalled.

`variety.split_generators_by_forms` cuts a cone by the tie forms of a pair
through `polyhedra._halves`, the double-description step of
`cone_generators`, keeping a crossing only for adjacent rays.  Every piece it
returns must be the H-cone of the cell's rows plus each form with its sign on
the piece, must hold exactly that cone's extreme rays plus +-lineality (no
redundant generator), and the pieces must cover the cell.  This is checked on
every cell of the fixture supports with the pairs of the function-equality
sweep of tests/test_pair_table.py, and on seeded random simplicial cones,
which start the split from their own rays as `flag_in_variety` does.

The split once kept every crossing, so a 6-term pair equal to itself on the
`three_quadrics` `f_2` hypersurface support grew pieces with about a million
generators and `radical-member` did not finish; that query is pinned here,
and so is the origin rule of `_functions_equal_on_cell`.
"""

import json
import pathlib
import random
import subprocess
import sys

from tropcong import jsonio
from tropcong import variety as vy
from tropcong._linalg import dot, primitive, rank_of, vscale
from tropcong.congruence import CongruencePresentation
from tropcong.polyhedra import (EQ, LE, ConeH, HRow, cone_generators, cone_key,
                                hrep_from_rays)
from tropcong.trop_core import ToricContext, parse_poly
from tropcong.variety import functions_equal_on_variety, hypersurface, radical_member

from helpers import enc_congruence, reduce_mod_span
from test_pair_table import SUPPORTS, _function_pairs

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _signs(forms, lin, rays):
    """Each form's row on the side the cone span(lin) + cone(rays) lies on."""
    rows = []
    for a in forms:
        vals = [dot(a, g) for g in rays] + [dot(a, v) for v in lin]
        assert not (any(v > 0 for v in vals) and any(v < 0 for v in vals)), (a, rays)
        if all(v == 0 for v in vals):
            rows.append(HRow(a, 0, EQ))
        else:
            rows.append(HRow(a if all(v <= 0 for v in vals) else vscale(-1, a), 0, LE))
    return rows


def _check_pieces(cell, forms, pieces):
    signs = []
    for lin, rays, _ in pieces:
        rows = _signs(forms, lin, rays)
        h = ConeH.make(cell.dim, cell.rows + tuple(rows))
        gens = list(rays) + list(lin) + [vscale(-1, v) for v in lin]
        assert cone_key(hrep_from_rays(gens, cell.dim)) == cone_key(h), (cell, forms, rays)
        h_lin, h_rays = cone_generators(h)
        assert len(lin) == len(h_lin) == rank_of(list(lin) + list(h_lin)), (cell, forms, lin)
        extreme = sorted(primitive(reduce_mod_span(g, h_lin)) for g in rays)
        assert tuple(extreme) == h_rays, (cell, forms, rays)
        signs.append(tuple(rows))
    _assert_cover(cell, signs)


def _holds(r, gens):
    lin, rays = gens
    return (all(dot(r.a, v) == 0 for v in lin)
            and all(dot(r.a, g) <= 0 if r.rel == LE else dot(r.a, g) == 0 for g in rays))


def _assert_cover(cell, signs):
    """The pieces, each cell cap its signed forms, cover the cell.

    They are merged back one form at a time from the last: the pieces that
    agree on the forms before it make up the region R of the cell on those
    sides when they hold both sides of it, or when R lies on the one side
    they hold."""
    for k in reversed(range(len(signs[0]) if signs else 0)):
        groups = {}
        for s in signs:
            groups.setdefault(s[:k], set()).add(s[k])
        for prefix, last in groups.items():
            sides = [r for r in last if r.rel == LE]
            if len(sides) == 2:  # a <= 0 and -a <= 0
                continue
            r = (sides or list(last))[0]
            if not _holds(r, cone_generators(cell)):  # else it holds on R too
                assert _holds(r, cone_generators(ConeH.make(cell.dim, cell.rows + prefix))), \
                    (cell, prefix, last)
        signs = list(groups)
    assert signs == [()], (cell, signs)


def test_cell_pieces_are_the_signed_h_cones():
    rng = random.Random(20)
    pieces = 0
    for name, E, V in SUPPORTS:
        for f, g in _function_pairs(rng, E):
            for tau, cell in V.all_cells():
                forms = vy._arrangement(((f, g),), tau)
                split = vy._cell_pieces(cell, forms)
                _check_pieces(cell, forms, split)
                pieces += len(split)
    assert pieces > 1000


def _simplicial_cone(rng, d):
    k = rng.randint(1, d)
    while True:
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        if rank_of(rays) == k:
            return [primitive(r) for r in rays]


def test_simplicial_pieces_are_the_signed_h_cones():
    rng = random.Random(21)
    for d in (2, 3, 4, 5):
        for _ in range(60):
            rays = _simplicial_cone(rng, d)
            forms = [tuple(rng.randint(-2, 2) for _ in range(d))
                     for _ in range(rng.randint(1, 4))]
            k = len(rays)
            start = ([], list(rays), [((1 << k) - 1) ^ (1 << j) for j in range(k)])
            pieces = vy.split_generators_by_forms(start, 1 << k, forms)
            _check_pieces(hrep_from_rays(rays, d), forms, pieces)


# ---------------------------------------------------------------------------
# the (h, h) query on the f_2 hypersurface

P = "t^-2*y + y^2*z^2 + t^-1*x*z + t^-2*x*y^2*z^2"
Q = "t^-2*y^2*z^2 + t^2*x + t^-2*x*y^2*z^2 + t^1*x^2*z"


def _f2():
    doc = json.loads((FIXTURES / "three_quadrics" / "f_2.json").read_text())
    return jsonio.dec_poly(doc, jsonio.context_of_document(doc))


def test_radical_member_of_a_pair_equal_to_itself():
    f2 = _f2()
    ctx = f2.context
    p, q = parse_poly(ctx, P), parse_poly(ctx, Q)
    h = p + q
    assert len(h.terms) == 6
    E = CongruencePresentation.bend_of(f2)
    vy._arrangement.cache_clear()
    assert radical_member(CongruencePresentation.make(ctx, E.pairs, True), (h, h)) is True
    # the tie arrangement of (h, h) is built once per stratum, not once per cell
    strata = sum(1 for s in vy.support_of(E).strata if s.cells)
    assert vy._arrangement.cache_info().misses <= strata
    assert functions_equal_on_variety(p, q, hypersurface(f2)) is False


def test_cli_radical_member_of_a_pair_equal_to_itself(tmp_path):
    f2 = _f2()
    h = parse_poly(f2.context, P) + parse_poly(f2.context, Q)
    cong = tmp_path / "E.json"
    pair = tmp_path / "pair.json"
    cong.write_text(json.dumps(dict(enc_congruence(CongruencePresentation.bend_of(f2)),
                                    format="tropcong/1")))
    pair.write_text(json.dumps({"format": "tropcong/1",
                                "context": jsonio.enc_context(f2.context),
                                "lhs": jsonio.enc_poly(h),
                                "rhs": jsonio.enc_poly(h)}))
    proc = subprocess.run(
        [sys.executable, "-m", "tropcong.cli", "radical-member", "--cong", str(cong),
         "--pair", str(pair), "--finite-basis"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"format": "tropcong/1", "radical_member": True}


def test_origin_cell_is_checked_at_the_zero_vector():
    # the support is the ray (1, -1) on the dense stratum and the bare origin
    # on the deep one, where t^-1 is live (0 at the origin) and x is dead
    ctx = ToricContext.affine(1)
    pairs = [("t^1*x + t^0", "t^0"), ("t^1*x + t^0", "t^1*x + t^-1"), ("x", "t^1*x^2")]
    E = CongruencePresentation.make(
        ctx, [(parse_poly(ctx, a), parse_poly(ctx, b)) for a, b in pairs], True)
    V = vy.support_of(E)
    deep = [cell for tau, cell in V.all_cells() if tau.dim() > 0]
    assert deep and all(cone_generators(cell) == ((), ()) for cell in deep)
    assert radical_member(E, (parse_poly(ctx, "t^-1"), parse_poly(ctx, "x"))) is False
