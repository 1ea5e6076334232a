import itertools
from fractions import Fraction as F

import pytest

from cone_kernel_reference import faces_of
from tropcong import polyhedra as ph
from tropcong._linalg import primitive
from tropcong.polyhedra import (ConeH, EmptyPolyhedronError, Fan, PolyhedronH,
                                common_refinement, cone_over, covers_equal,
                                feasible, generators, hrep_from_rays,
                                intersect, is_face,
                                make_flag, poly_in_union,
                                recession_cone, relative_interior_point, row,
                                validate_flag)


def fan_violations(fan: Fan) -> list[str]:
    """Check face closure and that pairwise intersections are faces of both."""
    keys = {ph.cone_key(c) for c in fan.cones}
    out = []
    for c in fan.cones:
        for f in faces_of(c):
            if ph.cone_key(f) not in keys:
                out.append("missing face of a member cone")
    for c1, c2 in itertools.combinations(fan.cones, 2):
        inter = intersect(c1, c2)
        if not (is_face(inter, c1) and is_face(inter, c2)):
            out.append("pairwise intersection is not a common face")
    return out


def P(dim, *rows_):
    return PolyhedronH.make(dim, tuple(row(a, b, rel) for a, b, rel in rows_))


# ---------------------------------------------------------------------------
# feasibility with strict rows

def test_feasible_point_interval():
    w = feasible(P(1, ([1], 0, "<="), ([-1], 0, "<=")))
    assert w == (F(0),)


def test_feasible_contradictory_strict():
    assert feasible(P(1, ([1], 0, "<"), ([-1], 0, "<"))) is None


def test_feasible_rec_relint_witness():
    # rec({x=y+1, y<=0}) intersect rel.int cone(-e1,-e2)
    sys = P(2, ([1, -1], 0, "="), ([0, 1], 0, "<="), ([1, 0], 0, "<"), ([0, 1], 0, "<"))
    w = feasible(sys)
    assert w is not None
    # oracle: substitute back and check proportionality to (-1,-1)
    assert w[0] == w[1] and w[0] < 0


def test_feasible_witness_satisfies_all_rows():
    p = P(2, ([1, 2], 3, "<="), ([-1, 0], 0, "<"), ([0, 1], 1, "="))
    w = feasible(p)
    assert w is not None and p.contains(w)


# ---------------------------------------------------------------------------
# recession cones

def test_recession_halfline():
    rec = recession_cone(P(2, ([1, -1], 1, "="), ([0, 1], 0, "<=")))
    assert generators(rec) == ((F(-1), F(-1)),)


def test_recession_of_empty_is_origin():
    rec = recession_cone(P(1, ([1], 0, "<"), ([-1], 0, "<")))
    assert generators(rec) == ()
    assert rec.contains((0,)) and not rec.contains((1,))


def test_recession_of_cone_is_itself():
    c = hrep_from_rays([(-1, 0), (0, -1)], 2)
    assert ph.cone_key(recession_cone(c)) == ph.cone_key(c)


def test_recession_grid_oracle():
    # rec(P) = {x : for all y in P, x+y in P}, brute-forced on a grid
    p = P(2, ([1, 1], 2, "<="), ([-1, 0], 3, "<="))
    rec = recession_cone(p)
    ys = [y for y in itertools.product(range(-3, 3), repeat=2) if p.contains(y)]
    assert ys
    for x in itertools.product(range(-2, 3), repeat=2):
        in_rec_oracle = all(p.contains((x[0] + y[0], x[1] + y[1])) for y in ys)
        # grid oracle can only refute; rec membership must imply the oracle
        if rec.contains(x):
            assert in_rec_oracle


# ---------------------------------------------------------------------------
# relative interior points

def test_relint_ray():
    assert primitive(relative_interior_point(hrep_from_rays([(1, 0)], 2))) == (F(1), F(0))


def test_relint_origin():
    assert relative_interior_point(ph.origin_cone(2)) == (F(0), F(0))


def test_relint_negative_quadrant():
    c = hrep_from_rays([(-1, 0), (0, -1)], 2)
    assert primitive(relative_interior_point(c)) == (F(-1), F(-1))


def test_relint_strictness():
    c = hrep_from_rays([(1, 0), (1, 1)], 2)
    w = relative_interior_point(c)
    for r in c.rows:
        if r.rel == "<=":
            assert sum(a * x for a, x in zip(r.a, w)) < r.b


def test_relint_empty_raises():
    with pytest.raises(EmptyPolyhedronError):
        relative_interior_point(P(1, ([1], -1, "<="), ([-1], -1, "<=")))


# ---------------------------------------------------------------------------
# representation conversion

@pytest.mark.parametrize("rays", [
    [(-1, 0), (0, -1)],
    [(1, 0), (1, 2)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(1, 1), (-1, -1), (0, 1)],          # contains a line
])
def test_hrep_rays_round_trip(rays):
    dim = len(rays[0])
    c = hrep_from_rays(rays, dim)
    back = hrep_from_rays(generators(c), dim)
    assert ph.cone_key(back) == ph.cone_key(c)
    for r in rays:
        assert c.contains(r)


def test_rays_from_hrep_example():
    c = PolyhedronH.make(2, (row([1, 0], 0, "<="), row([0, 1], 0, "<=")))
    assert generators(ConeH(2, c.rows)) == ((F(-1), F(0)), (F(0), F(-1)))


# ---------------------------------------------------------------------------
# fans and common refinement

def _halfline_fan():
    pos = hrep_from_rays([(1,)], 1)
    neg = hrep_from_rays([(-1,)], 1)
    return Fan.make(1, [pos, neg, ph.origin_cone(1)])


def test_refinement_idempotent():
    fan = _halfline_fan()
    ref = common_refinement([fan, fan])
    assert {ph.cone_key(c) for c in ref.cones} == {ph.cone_key(c) for c in fan.cones}


def _line_fan(normal):
    # fan splitting R^2 by the line normal.x = 0: two halfplanes and the line
    hplus = ConeH.make(2, (row([-normal[0], -normal[1]], 0, "<="),))
    hminus = ConeH.make(2, (row(list(normal), 0, "<="),))
    line = ConeH.make(2, (row(list(normal), 0, "="),))
    return Fan.make(2, [hplus, hminus, line])


def test_two_lines_refinement_enumeration_oracle():
    f1 = _line_fan((1, 0))   # splits by x = 0
    f2 = _line_fan((0, 1))   # splits by y = 0
    ref = common_refinement([f1, f2])
    dims = sorted(ph.cone_dim(c) for c in ref.cones)
    # oracle: 4 sectors + 4 rays + origin
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert not fan_violations(ref)
    # support of the refinement = intersection of the (complete) supports
    import itertools
    for pt in itertools.product((-2, -1, 0, 1, 2), repeat=2):
        assert any(c.contains(pt) for c in ref.cones)


def test_fan_violation_detected():
    quad = hrep_from_rays([(1, 0), (0, 1)], 2)
    bad = Fan(2, (quad,))  # faces missing
    assert fan_violations(bad)


# ---------------------------------------------------------------------------
# region difference and cover equality

def _square_and_halves():
    square = P(2, ([1, 0], 1, "<="), ([-1, 0], 0, "<="), ([0, 1], 1, "<="), ([0, -1], 0, "<="))
    lower = P(2, ([-1, 1], 0, "<="), ([0, -1], 0, "<="), ([1, 0], 1, "<="))   # 0<=y<=x<=1
    upper = P(2, ([1, -1], 0, "<="), ([-1, 0], 0, "<="), ([0, 1], 1, "<="))   # 0<=x<=y<=1
    return square, lower, upper


def test_poly_in_union_split_needed():
    square, lower, upper = _square_and_halves()
    assert poly_in_union(square, [lower, upper])
    assert not poly_in_union(square, [lower])
    assert covers_equal([square], [lower, upper])
    assert not covers_equal([square], [upper])


def test_cover_budget(monkeypatch):
    """Each region difference may visit COVER_NODES nodes; one more raises a
    typed error that is no ValueError (the CLI exits 4 on it, not 3)."""
    square, lower, upper = _square_and_halves()
    assert not issubclass(ph.CoverBudgetExceeded, ValueError)
    monkeypatch.setattr(ph, "COVER_NODES", 4)  # square minus lower is 3 pieces
    assert poly_in_union(square, [lower, upper])
    assert covers_equal([square], [lower, upper])
    monkeypatch.setattr(ph, "COVER_NODES", 3)
    with pytest.raises(ph.CoverBudgetExceeded):
        poly_in_union(square, [lower, upper])
    with pytest.raises(ph.CoverBudgetExceeded):
        covers_equal([square], [lower, upper])
    monkeypatch.setattr(ph, "COVER_NODES", 1)
    assert poly_in_union(lower, [lower])  # a fresh budget after each raise


# ---------------------------------------------------------------------------
# faces, cone over, flags

def test_faces_of_quadrant_count():
    c = hrep_from_rays([(-1, 0), (0, -1)], 2)
    assert len(faces_of(c)) == 4


def test_is_face():
    c = hrep_from_rays([(1, 0), (0, 1)], 2)
    assert is_face(hrep_from_rays([(1, 0)], 2), c)
    assert not is_face(hrep_from_rays([(1, 1)], 2), c)


def test_cone_over_polyhedron():
    l = P(2, ([1, -1], 1, "="), ([0, 1], 0, "<="))
    c = cone_over(l)
    assert c.contains((1, 1, 0)) and c.contains((0, -1, -1))
    assert not c.contains((1, 0, 0))
    assert ph.cone_dim(c) == 2


def test_validate_flag_examples():
    ok = make_flag(3, [], [[(1, 0, -1)]])
    assert validate_flag(ok) == []
    equal_cones = make_flag(3, [], [[(1, 0, -1)], [(1, 0, -1)]])
    assert any(v.startswith("dimension") for v in validate_flag(equal_cones))
    nested = make_flag(3, [], [[(1, 0, -1)], [(1, 0, -1), (0, -1, -1)]])
    assert validate_flag(nested) == []
    assert validate_flag(make_flag(3, [], [])) == ["cones: the flag has no cone"]


def test_validate_flag_on_simplicial_flags_enumerates_no_cone():
    # dimensions are ranks of the rays and nesting is ray-set inclusion, so a
    # valid simplicial flag builds no H-representation and runs no kernel
    flag = make_flag(4, [], [[(2, 1, 0, -1)], [(2, 1, 0, -1), (1, 0, -3, -1)],
                             [(2, 1, 0, -1), (1, 0, -3, -1), (0, 5, -1, -2)]])
    before = ph.cone_generators.cache_info()
    assert validate_flag(flag) == []
    after = ph.cone_generators.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_validate_flag_stratum_violations():
    neg_height = make_flag(3, [], [[(-1, 0, 1)]])
    assert any("height" in v for v in validate_flag(neg_height))
    # coords must be canonical modulo span(tau)
    not_canonical = make_flag(3, [(-1, 0)], [[(1, 2, 3)]])
    assert any("canonical" in v for v in validate_flag(not_canonical))


def test_split_generators_by_forms():
    from tropcong.variety import _cell_pieces, split_generators_by_forms
    # the quadrant, ray j tight on every facet but the j-th, cut by x = y
    quad = ([], [(1, 0), (0, 1)], [0b10, 0b01])
    assert split_generators_by_forms(quad, 0b100, [(1, -1)]) == [
        ([], [(0, 1), (1, 1)], [0b01, 0b100]),
        ([], [(1, 0), (1, 1)], [0b10, 0b100])]
    # the half-plane x >= 0: x does not cross it and is recorded nowhere, y
    # trades the line for the ray (0, -1) tight on both rows so far, and
    # x + y then crosses the lower quadrant
    half = ([(0, 1)], [(1, 0)], [0])
    assert split_generators_by_forms(half, 0b10, [(1, 0), (0, 1), (1, 1)]) == [
        ([], [(0, -1), (1, -1)], [0b011, 0b1000]),
        ([], [(1, 0), (1, -1)], [0b100, 0b1000]),
        ([], [(1, 0), (0, 1)], [0b100, 0b011])]
    # the cone over a square cut by x = 0: the diagonal pairs are not adjacent,
    # so their crossing (0, 0, 1) is kept by neither piece
    square = hrep_from_rays([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)], 3)
    pieces = _cell_pieces(square, [(1, 0, 0)])
    assert [sorted(rays) for _, rays, _ in pieces] == [
        [(-1, -1, 1), (-1, 1, 1), (0, -1, 1), (0, 1, 1)],
        [(0, -1, 1), (0, 1, 1), (1, -1, 1), (1, 1, 1)]]
    assert all(not lin for lin, _, _ in pieces)


@pytest.mark.parametrize("seed", range(8))
def test_feasible_witnesses_recheck_by_substitution(seed):
    # random small systems: a returned witness must satisfy every row, strictly
    # where demanded; emptiness means the slack optimum is not positive
    import random
    from fractions import Fraction as F
    rng = random.Random(seed)
    rows = []
    for _ in range(rng.randint(2, 5)):
        a = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
        b = F(rng.randint(-4, 4))
        rel = rng.choice(["<=", "<", "="])
        rows.append(row(a, b, rel))
    p = PolyhedronH.make(2, tuple(rows))
    w = feasible(p)
    if w is not None:
        assert p.contains(w)


from hypothesis import given, settings, strategies as st

small_rays = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda r: any(r)),
    min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(small_rays)
def test_hrep_rays_fixed_point_random(rays):
    c = hrep_from_rays(rays, 3)
    gens = generators(c)
    again = hrep_from_rays(gens, 3)
    assert ph.cone_key(again) == ph.cone_key(c)
    for r in rays:
        assert c.contains(r)
    for g in gens:
        assert c.contains(g)


@settings(max_examples=30, deadline=None)
@given(small_rays)
def test_relint_point_inside_random(rays):
    c = hrep_from_rays(rays, 3)
    w = relative_interior_point(c)
    assert c.contains(w)
    for r in c.rows:
        if r.rel == "<=":
            v = sum(a * x for a, x in zip(r.a, w))
            assert v < r.b or all(
                sum(a * x for a, x in zip(r.a, g)) == 0 for g in generators(c))
