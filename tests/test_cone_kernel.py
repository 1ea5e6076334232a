"""The double-description cone kernel against the LP/subset-enumeration oracle.

`cone_kernel_reference.cone_generators` is the kernel the library used before:
one exact LP per row for implicit equalities, then subset enumeration.  Both
must return the same (lineality, rays) on every cone below.  The reference
leaves the lineality basis unsorted when the cone is a linear subspace, so it
is compared as a sorted tuple; no caller depends on that order.
`ToricContext.faces`, read off ray incidence, is compared with the faces that
`cone_kernel_reference.faces_of` enumerates one generator run at a time.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import cone_kernel_reference as ref
from tropcong import jsonio
from tropcong.polyhedra import EQ, LE, ConeH, HRow, cone_generators
from tropcong.trop_core import Face, ToricContext, parse_poly
from tropcong.variety import hypersurface, support_of
from tropcong._linalg import ZERO, vec

SQUARE = [(-1, -1, -1), (1, -1, -1), (-1, 1, -1), (1, 1, -1)]


def _reference(c):
    lin, rays = ref.cone_generators(c)
    return tuple(sorted(lin)), rays


def _agree(c):
    assert cone_generators(c) == _reference(c), c


def _dual(ctx):
    return ConeH.make(ctx.rank, tuple(HRow(r, ZERO, LE) for r in ctx.sigma_rays))


def test_quartic_support_cells(quartic_E):
    cells = support_of(quartic_E).all_cells()
    assert cells
    for _, cell in cells:
        _agree(cell)


def test_hypersurface_f1_cells(ctx3):
    V = hypersurface(parse_poly(ctx3, "1 + x + y + z"))
    cells = V.all_cells()
    assert cells
    for _, cell in cells:
        _agree(cell)


def test_sigma_and_dual(fixtures_dir):
    doc = json.loads((fixtures_dir / "closure" / "sigma_fan.json").read_text())
    widest = max(doc["cones"], key=lambda c: len(c["rays"]))["rays"]
    contexts = [ToricContext.affine(2), ToricContext.affine(3), ToricContext.torus(2),
                ToricContext(2, [vec(r) for r in widest]), ToricContext(3, SQUARE)]
    for ctx in contexts:
        _agree(ctx.sigma)
        _agree(_dual(ctx))
    for c in jsonio.dec_fan(doc, "sigma_fan.json").cones:
        _agree(c)


_entries = st.integers(-2, 2)


def _square_cone_rows(d):
    # facets of the cone over a square in the first three coordinates: its rays
    # include non-adjacent pairs, whose crossings a cut must not keep
    out = []
    for i in (0, 1):
        for s in (1, -1):
            a = [0] * d
            a[i], a[2] = s, -1
            out.append(HRow(vec(a), ZERO, LE))
    return out


@st.composite
def _cones(draw):
    d = draw(st.integers(1, 4))
    rows = _square_cone_rows(d) if d >= 3 and draw(st.booleans()) else []
    base = draw(st.lists(st.tuples(st.lists(_entries, min_size=d, max_size=d),
                                   st.sampled_from((LE, LE, LE, EQ))),
                         min_size=0, max_size=6 - len(rows)))
    for a, rel in base:
        rows.append(HRow(vec(a), ZERO, rel))
        extra = draw(st.sampled_from(("none", "none", "repeat", "opposite")))
        if extra == "repeat":  # a scaled copy of an inequality would dedupe away
            rows.append(HRow(vec(2 * x for x in a), ZERO, EQ if rel == LE else LE))
        elif extra == "opposite":
            rows.append(HRow(vec(-x for x in a), ZERO, LE))
    return ConeH.make(d, rows[:6])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_cones())
def test_random_cones(c):
    _agree(c)


def test_origin_and_subspace_cones():
    origin = ConeH.make(2, (HRow(vec((1, 0)), ZERO, EQ), HRow(vec((0, 1)), ZERO, LE),
                            HRow(vec((0, -1)), ZERO, LE)))
    assert cone_generators(origin) == ((), ())
    _agree(origin)
    line = ConeH.make(3, (HRow(vec((0, 1, 1)), ZERO, LE), HRow(vec((0, -1, -1)), ZERO, LE)))
    _agree(line)
    assert len(cone_generators(line)[0]) == 2


def _random_contexts(rng, count):
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        rays = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        try:
            out.append(ToricContext(n, rays))
        except ValueError:  # sigma contains a line
            pass
    return out


def test_context_faces_match_the_enumerated_faces():
    contexts = [ToricContext.affine(n) for n in range(1, 5)]
    contexts += [ToricContext.torus(1), ToricContext.torus(3), ToricContext(3, SQUARE),
                 ToricContext(2, [(1, -1)]), ToricContext(3, [(0, 0, -1)]),
                 ToricContext(3, [(-1, 0, 0), (0, -1, -1)])]
    contexts += _random_contexts(random.Random(20261021), 40)
    assert {ctx.rank for ctx in contexts[10:]} == {2, 3, 4}
    assert any(r.rel == EQ for ctx in contexts[10:] for r in ctx.sigma.rows)
    for ctx in contexts:
        want = sorted((Face.from_rays(ctx.rank, cone_generators(c)[1])
                       for c in ref.faces_of(ctx.sigma)), key=lambda f: (f.dim(), f.rays))
        assert ctx.faces == tuple(want), ctx
