import importlib
import itertools
import json
import pkgutil
import random
from fractions import Fraction as F

import pytest

import eval_reference as ref
from helpers import solve_eq

import tropcong
from tropcong import congruence, jsonio
from tropcong import polyhedra as ph
from tropcong import variety as vy
from tropcong._linalg import is_zero_vec, neg_primitive_pair, primitive, vec, vsub
from tropcong.congruence import CongruencePresentation, congruence_in_prime, flag_to_matrix
from tropcong.polyhedra import PolyhedronH, make_flag, row
from tropcong.trop_core import ExtPoint, ToricContext, bend_relations, parse_poly
from tropcong.variety import (InternalConsistencyError, FiniteBasisRequiredError,
                              flag_in_variety, functions_equal_on_variety,
                              hypersurface, intersect_supports, pair_variety,
                              point_in_variety, radical_member, shrink_flag,
                              slice_at_height, stratum_cone, variety_of_basis)


# ---------------------------------------------------------------------------
# per-pair agreement cells

@pytest.mark.parametrize("a", [1, 2])
def test_pair_variety_halfspace(a):
    # (t^a + x, t^a) on the torus: cells must cover exactly {xi <= r a}
    ctx = ToricContext.torus(1)
    f = parse_poly(ctx, "t^%d + x" % a)
    g = parse_poly(ctx, "t^%d" % a)
    cells = pair_variety((f, g), ctx.dense_face)
    expect = PolyhedronH.make(2, (row([-1, 0], 0, "<="), row([-a, 1], 0, "<=")))
    assert ph.covers_equal(cells, [expect])


def test_pair_variety_whole_stratum(ctx2, quartic):
    cells = pair_variety((quartic, quartic), ctx2.dense_face)
    assert ph.covers_equal(cells, [stratum_cone(ctx2, ctx2.dense_face)])


def test_pair_variety_bend_cell_contains_reference_cell(ctx2, quartic):
    fminus = quartic.delete_term((2, 2))
    cells = pair_variety((quartic, fminus), ctx2.dense_face)
    reference_cell = ph.cone_over(PolyhedronH.make(2, (row([1, -1], 1, "="),
                                                   row([0, 1], 0, "<="))))
    assert ph.poly_in_union(reference_cell, cells)


def test_pair_variety_one_side_dead(ctx2):
    # on the deep stratum x^2 dies but 1 survives: no agreement points
    f = parse_poly(ctx2, "x^2")
    g = parse_poly(ctx2, "1")
    assert pair_variety((f, g), ctx2.deep_face) == []
    assert pair_variety((f, f), ctx2.deep_face)  # both dead: whole stratum


# ---------------------------------------------------------------------------
# supports, hypersurfaces, slices

def test_hypersurface_quartic_strata(ctx2, quartic):
    V = hypersurface(quartic)
    by_dim = {s.tau.dim(): len(s.cells) for s in V.strata if s.tau.dim() != 1}
    assert by_dim[0] >= 4   # dense cells
    assert by_dim[2] == 1   # the deep ray survives whole
    for s in V.strata:
        if s.tau.dim() == 1:
            assert s.cells == ()  # single surviving term kills the ray strata


@pytest.mark.parametrize("name", ["quartic_bend/f", "three_quadrics/f_1", "three_quadrics/f_2",
                                  "three_quadrics/f_3", "three_quadrics/f_5",
                                  "three_quadrics/g_xy", "three_quadrics/g_xz",
                                  "three_quadrics/g_yz"])
def test_variety_of_basis_equals_hypersurface_for_bend(fixtures_dir, name):
    doc = json.loads((fixtures_dir / (name + ".json")).read_text())
    f = jsonio.dec_poly(doc, jsonio.context_of_document(doc, name), name)
    V1 = variety_of_basis(CongruencePresentation.bend_of(f))
    V2 = hypersurface(f)
    assert [s.tau for s in V1.strata] == [s.tau for s in V2.strata]
    for s1, s2 in zip(V1.strata, V2.strata):
        assert sorted(map(ph.cone_key, s1.cells)) == sorted(map(ph.cone_key, s2.cells))


def test_support_cells_are_cones_enumerated_once(monkeypatch, quartic_E, quartic, boolean_E):
    """Cells are built as ConeH, the class `intersect` builds
    them in: records of two classes never compare equal, so an equal
    PolyhedronH would be a second `cone_generators` entry for one cone."""
    inner = ph.cone_generators
    seen = set()

    def recording(c):
        seen.add((c.dim, c.rows))
        return inner(c)

    monkeypatch.setattr(ph, "cone_generators", recording)
    for build, arg in ((variety_of_basis, quartic_E), (hypersurface, quartic),
                       (variety_of_basis, boolean_E)):
        seen.clear()
        inner.cache_clear()
        V = build(arg)
        assert V.all_cells() and all(type(c) is ph.ConeH for _, c in V.all_cells())
        assert inner.cache_info().misses == len(seen), build


def test_v_fg_union_pointwise(ctx2):
    rng = random.Random(5)
    f = parse_poly(ctx2, "1 + t^1*x + y^2")
    g = parse_poly(ctx2, "x + y")
    Vf, Vg, Vfg = hypersurface(f), hypersurface(g), hypersurface(f * g)
    for _ in range(100):
        tau = rng.choice(ctx2.faces)
        w = ExtPoint.make(ctx2, F(rng.randint(0, 3)), tau,
                          (F(rng.randint(-6, 6), rng.randint(1, 2)),
                           F(rng.randint(-6, 6), rng.randint(1, 2))))
        assert point_in_variety(Vfg, w) == (point_in_variety(Vf, w) or point_in_variety(Vg, w))


def test_v_sum_contains_intersection_pointwise(ctx2):
    rng = random.Random(6)
    f = parse_poly(ctx2, "1 + x")
    g = parse_poly(ctx2, "1 + y")
    a = parse_poly(ctx2, "t^2*x*y")
    b = parse_poly(ctx2, "t^-1")
    Vf, Vg, Vsum = hypersurface(f), hypersurface(g), hypersurface(a * f + b * g)
    for _ in range(100):
        w = ExtPoint.dense(ctx2, F(rng.randint(0, 3)),
                           (rng.randint(-5, 5), rng.randint(-5, 5)))
        if point_in_variety(Vf, w) and point_in_variety(Vg, w):
            assert point_in_variety(Vsum, w)


def test_f1_dense_slice_matches_reference(ctx3, fixtures_dir):
    import json
    from tropcong import jsonio
    f1 = parse_poly(ctx3, "1 + x + y + z")
    V = hypersurface(f1)
    computed = slice_at_height(V, ctx3.dense_face, 1)
    doc = json.loads((fixtures_dir / "three_quadrics" / "expected_f1_dense.json").read_text())
    expected = [jsonio.dec_polyhedron(p, "$") for p in doc["pieces"]]
    assert ph.covers_equal(computed, expected)


# ---------------------------------------------------------------------------
# membership and the hard consistency error

def test_point_membership_examples(ctx2, quartic_E):
    V = variety_of_basis(quartic_E)
    assert point_in_variety(V, ExtPoint.dense(ctx2, 1, (0, -1)))
    assert point_in_variety(V, ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0)))
    assert not point_in_variety(V, ExtPoint.dense(ctx2, 1, (5, 5)))


def test_support_filtered_to_the_dense_stratum(ctx2, quartic_E):
    # off the support's strata a point is decided pointwise alone, and a flag
    # there cannot be tested at all
    V = variety_of_basis(quartic_E)
    dense_only = variety_of_basis(quartic_E, strata=[ctx2.dense_face])
    ray = ctx2.face_from_rays([(-1, 0)])
    for w, want in ((ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0)), True),
                    (ExtPoint.make(ctx2, 1, ray, (0, 2)), False)):
        assert point_in_variety(dense_only, w) == point_in_variety(V, w) == want
    deep_ray = make_flag(3, [(-1, 0), (0, -1)], [[(1, 0, 0)]])
    with pytest.raises(ValueError, match="flag stratum not represented in the support"):
        flag_in_variety(ctx2, deep_ray, dense_only)


def test_index_discrepancy_raises(ctx2, quartic_E):
    V = variety_of_basis(quartic_E)
    broken = vy.VarietySupport(ctx2, V.pairs, tuple(
        vy.StratumSupport(s.tau, () if s.tau.dim() == 0 else s.cells)
        for s in V.strata))
    with pytest.raises(InternalConsistencyError):
        point_in_variety(broken, ExtPoint.dense(ctx2, 1, (0, -1)))


def test_dedupe_absorb_has_no_size_cutoff():
    # 81 rays (1, -k) and the cone on (1, 0), (1, -1), which contains the first
    # ray: absorption must drop that ray however many cells there are
    rays = [ph.hrep_from_rays([(1, -k)], 2) for k in range(1, 82)]
    wedge = ph.hrep_from_rays([(1, 0), (1, -1)], 2)
    kept = vy._dedupe_absorb(rays + [wedge])
    assert [ph.cone_key(c) for c in kept] == [ph.cone_key(c) for c in rays[1:] + [wedge]]


# ---------------------------------------------------------------------------
# flags in varieties

def test_flag_examples(ctx2, quartic_E):
    V = variety_of_basis(quartic_E)
    deep_ray = make_flag(3, [(-1, 0), (0, -1)], [[(1, 0, 0)]])
    assert flag_in_variety(ctx2, deep_ray, V)
    q_flag = make_flag(3, [], [[(0, -1, -1)], [(0, -1, -1), (1, 0, -1)]])
    assert flag_in_variety(ctx2, q_flag, V)
    off = make_flag(3, [], [[(1, 1, 1)]])
    assert not flag_in_variety(ctx2, off, V)


def test_flag_theorem_both_directions_small(ctx2, quartic_E):
    # flag inside the support iff the flag's prime contains E
    V = variety_of_basis(quartic_E)
    rng = random.Random(12)
    agree = 0
    for _ in range(60):
        r0 = (F(rng.randint(0, 2)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        if all(x == 0 for x in r0):
            continue
        flag = make_flag(3, [], [[r0]])
        lhs = flag_in_variety(ctx2, flag, V)
        rhs = congruence_in_prime(quartic_E, flag_to_matrix(ctx2, flag))
        assert lhs == rhs
        agree += 1
    assert agree > 40


# ---------------------------------------------------------------------------
# radical membership and function equality

def brute_force_equal(E, pair, V):
    """Grid + cell-sample oracle: any witness of disagreement inside the support."""
    f, g = pair
    ctx = E.context
    pts = []
    for tau, cell in V.all_cells():
        for w in ref.cell_sample_points(cell):
            pts.append((tau, w))
    for tau in ctx.faces:
        for r in (0, 1, 2):
            for xy in itertools.product((-2, -1, 0, F(1, 2), 1, 2), repeat=ctx.rank):
                pts.append((tau, (F(r),) + tuple(F(v) for v in xy)))
    for tau, wv in pts:
        w = ExtPoint.make(ctx, wv[0], tau, wv[1:])
        if not all(a.evaluate(w) == b.evaluate(w) for a, b in E.pairs):
            continue  # outside the support
        if f.evaluate(w) != g.evaluate(w):
            return False
    return True


def test_radical_member_simple(ctx1):
    x2, one, x = (parse_poly(ctx1, s) for s in ("x^2", "1", "x"))
    E = CongruencePresentation.make(ctx1, [(x2, one)], finite_tropical_basis=True)
    assert radical_member(E, (x, one))
    V = variety_of_basis(E)
    assert brute_force_equal(E, (x, one), V)


def test_radical_member_trivially_contains_generators(quartic_E):
    E = CongruencePresentation.make(quartic_E.context, quartic_E.pairs, True)
    for pair in E.pairs:
        assert radical_member(E, pair)


def test_radical_member_regression_oracle(ctx2, quartic_E):
    E = CongruencePresentation.make(ctx2, quartic_E.pairs, True)
    x2 = parse_poly(ctx2, "x^2")
    txy = parse_poly(ctx2, "t^1*x*y")
    V = variety_of_basis(E)
    oracle = brute_force_equal(E, (x2, txy), V)
    got = radical_member(E, (x2, txy))
    assert got == oracle == False  # differ at (1, (-2, -1)) inside the support


def test_radical_member_needs_flag(ctx1):
    E = CongruencePresentation.make(
        ctx1, [(parse_poly(ctx1, "x^2"), parse_poly(ctx1, "1"))])
    with pytest.raises(FiniteBasisRequiredError):
        radical_member(E, (parse_poly(ctx1, "x"), parse_poly(ctx1, "1")))


def test_functions_equal_examples(ctx1):
    x2, one, x = (parse_poly(ctx1, s) for s in ("x^2", "1", "x"))
    E = CongruencePresentation.make(ctx1, [(x2, one)], finite_tropical_basis=True)
    V = variety_of_basis(E)
    assert functions_equal_on_variety(x, one, V)
    f = parse_poly(ctx1, "1 + x^3")
    assert functions_equal_on_variety(f, f + f, V)


def test_functions_differ_only_between_sample_points(ctx1):
    # on the whole dense stratum, 1 + t^-1*x^2 and the same plus t^-1/4*x
    # differ exactly where r/4 < x < 3r/4: none of the cell's sample points
    # (sums of at most two of (1, 0), (0, 1), (0, -1)) lies there, so only
    # the check at the generators of the tie-arrangement pieces sees it
    one = parse_poly(ctx1, "1")
    V = vy.support_of(CongruencePresentation.make(ctx1, [(one, one)], True))
    f = parse_poly(ctx1, "1 + t^-1*x^2")
    g = parse_poly(ctx1, "1 + t^-1/4*x + t^-1*x^2")
    w = ExtPoint.dense(ctx1, 1, (F(1, 2),))
    assert f.evaluate(w) == 0 and g.evaluate(w) == F(1, 4)
    assert not functions_equal_on_variety(f, g, V)
    assert functions_equal_on_variety(f, f + parse_poly(ctx1, "t^-1/2*x"), V)


def test_fractions_on_torus():
    ctx = ToricContext.torus(1)
    E = CongruencePresentation.make(ctx, (), finite_tropical_basis=True)
    V = variety_of_basis(E)  # the whole space
    x, one, x2 = (parse_poly(ctx, s) for s in ("x", "1", "x^2"))
    # x/1 = x^2/x and x/1 != 1/1, checked by cross multiplication
    assert functions_equal_on_variety(x * x, x2 * one, V)
    assert not functions_equal_on_variety(x * one, one * one, V)


# ---------------------------------------------------------------------------
# shrinking flags

def ray_sums(flag):
    """The primitive ray-sum rows (height first) that flag_to_matrix uses."""
    return [primitive(vec([sum(r[j] for r in rays) for j in range(flag.ambient_dim)]))
            for rays in flag.cones_rays]


def same_prime_rows(rows, new_rows):
    """Exact oracle for an unchanged prime: each new row is sum_{j<=i} c_j w_j
    over the old rows w_0..w_i, with c_i > 0."""
    if len(rows) != len(new_rows):
        return False
    for i, w in enumerate(new_rows):
        c = solve_eq([[v[k] for v in rows[:i + 1]] for k in range(len(w))], w)
        if c is None or c[i] <= 0:
            return False
    return True


def test_shrink_noop_inside(ctx1):
    x2, one = parse_poly(ctx1, "x^2"), parse_poly(ctx1, "1")
    E = CongruencePresentation.make(ctx1, [(x2, one)], finite_tropical_basis=True)
    flag = make_flag(2, [], [[(1, 0)]])
    out = shrink_flag(ctx1, flag, E)
    assert out.cones_rays == flag.cones_rays
    assert same_prime_rows(ray_sums(flag), ray_sums(out))


def test_shrink_deep_ray(ctx2, quartic_E):
    flag = make_flag(3, [(-1, 0), (0, -1)], [[(1, 0, 0)]])
    out = shrink_flag(ctx2, flag, quartic_E)
    assert out.cones_rays == flag.cones_rays
    assert same_prime_rows(ray_sums(flag), ray_sums(out))
    assert flag_in_variety(ctx2, out, variety_of_basis(quartic_E))


def test_shrink_truncated_basis_example():
    # E' = <(t^1 + x, t^1)> on the torus; P given by rows (1|0), (0|1):
    # the top cone shrinks to {xi <= r}
    ctx = ToricContext.torus(1)
    f = parse_poly(ctx, "t^1 + x")
    g = parse_poly(ctx, "t^1")
    E = CongruencePresentation.make(ctx, [(f, g)], finite_tropical_basis=True)
    flag = make_flag(2, [], [[(1, 0)], [(1, 0), (0, 1)]])
    out = shrink_flag(ctx, flag, E)
    assert out.cones_rays[0] == ((F(1), F(0)),)
    assert set(out.cones_rays[1]) == {(F(1), F(0)), (F(1), F(1))}
    assert same_prime_rows(ray_sums(flag), ray_sums(out))
    assert flag_in_variety(ctx, out, variety_of_basis(E))


def test_shrink_compares_no_monomials(monkeypatch, ctx1, ctx2, quartic_E):
    # the prime is kept by construction, so no sampled order check runs
    def boom(*args):
        raise AssertionError("shrink_flag compared monomials")

    monkeypatch.setattr(congruence, "monomial_le", boom)
    monkeypatch.setattr(vy, "monomial_le", boom, raising=False)
    test_shrink_noop_inside(ctx1)
    test_shrink_deep_ray(ctx2, quartic_E)
    test_shrink_truncated_basis_example()


def test_shrink_validates_the_shrunk_flag_once(monkeypatch):
    ctx = ToricContext.torus(1)
    E = CongruencePresentation.make(
        ctx, [(parse_poly(ctx, "t^1 + x"), parse_poly(ctx, "t^1"))], finite_tropical_basis=True)
    flag = make_flag(2, [], [[(1, 0)], [(1, 0), (0, 1)]])
    seen = []
    inner = ph.validate_flag

    def counting(f):
        seen.append(f)
        return inner(f)

    monkeypatch.setattr(congruence, "validate_flag", counting)
    monkeypatch.setattr(vy, "validate_flag", counting)
    flag_to_matrix.cache_clear()  # an equal flag of an earlier test would hit
    out = shrink_flag(ctx, flag, E)
    assert seen == [flag, out] and out != flag
    # a shrunk flag that fails validation is a bug, not a bad input
    make = ph.make_flag
    monkeypatch.setattr(ph, "make_flag", lambda d, tau, cones: make(d, tau, cones[::-1]))
    with pytest.raises(InternalConsistencyError, match="shrunk flag invalid"):
        shrink_flag(ctx, flag, E)


def test_flag_verdict_computed_once():
    ctx = ToricContext.torus(1)
    E = CongruencePresentation.make(
        ctx, [(parse_poly(ctx, "t^1 + x"), parse_poly(ctx, "t^1"))], finite_tropical_basis=True)
    V = variety_of_basis(E)
    ph._flag_violations.cache_clear()  # the cache is process-wide
    flag_to_matrix.cache_clear()
    flag = make_flag(2, [], [[(1, 0)], [(1, 0), (0, 1)]])
    flag_in_variety(ctx, flag, V)
    flag_to_matrix(ctx, flag)
    assert ph._flag_violations.cache_info().misses == 1
    first = ph.validate_flag(flag)
    first.append("edited by the caller")
    assert ph.validate_flag(make_flag(2, [], [[(1, 0)], [(1, 0), (0, 1)]])) == []
    bad = make_flag(2, [], [[(1, 0)], [(1, 0)]])
    with pytest.raises(ValueError, match="invalid flag"):
        flag_in_variety(ctx, bad, V)
    with pytest.raises(ValueError, match="invalid flag"):
        flag_to_matrix(ctx, bad)
    assert ph._flag_violations.cache_info().misses == 2  # once per distinct flag


def test_flag_matrix_built_once_per_context(monkeypatch):
    ctx = ToricContext.torus(1)
    ctxB = ToricContext.torus(1, coeff="B")
    E = CongruencePresentation.make(ctx, [(parse_poly(ctx, "t^1 + x"), parse_poly(ctx, "t^1"))])
    built = []
    inner = congruence.PrimeMatrix.make

    def counting(context, tau, rows):
        built.append(context)
        return inner(context, tau, rows)

    monkeypatch.setattr(congruence.PrimeMatrix, "make", staticmethod(counting))
    flag_to_matrix.cache_clear()  # an equal flag of an earlier test would hit
    flag = make_flag(2, [], [[(1, 0)], [(1, 0), (0, 1)]])
    theta = flag_to_matrix(ctx, flag)
    assert congruence_in_prime(E, theta)
    shrink_flag(ctx, flag, E)  # reads the matrix its caller built
    assert flag_to_matrix(ctx, flag) is theta
    theta_b = flag_to_matrix(ctxB, flag)  # over B the heights are inert
    assert theta_b.rows != theta.rows and flag_to_matrix(ctxB, flag) is theta_b
    assert built == [ctx, ctxB]
    bad = make_flag(2, [], [[(1, 0)], [(1, 0)]])
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid flag"):
            flag_to_matrix(ctx, bad)
    info = flag_to_matrix.cache_info()  # each call a miss, none stored
    assert (info.misses, info.currsize) == (5, 2) and built == [ctx, ctxB]


def test_shrink_requires_containment(ctx2, quartic_E):
    flag = make_flag(3, [], [[(1, 1, 1)]])
    with pytest.raises(ValueError):
        shrink_flag(ctx2, flag, quartic_E)


# ---------------------------------------------------------------------------
# intersect supports

def test_intersect_supports_pointwise(ctx2):
    rng = random.Random(9)
    f = parse_poly(ctx2, "1 + x + y")
    g = parse_poly(ctx2, "1 + t^1*x^2 + y")
    Vf, Vg = hypersurface(f), hypersurface(g)
    V = intersect_supports([Vf, Vg])
    for _ in range(100):
        w = ExtPoint.dense(ctx2, F(rng.randint(0, 2)),
                           (rng.randint(-4, 4), rng.randint(-4, 4)))
        assert point_in_variety(V, w) == (point_in_variety(Vf, w) and point_in_variety(Vg, w))


def test_intersect_supports_needs_a_support():
    with pytest.raises(ValueError, match="at least one support"):
        intersect_supports([])


def test_v_product_cover_equality(ctx2):
    # support-level identity: the cover of V(fg) equals the union of the covers,
    # stratum by stratum, checked by exact mutual refinement
    f = parse_poly(ctx2, "1 + t^1*x")
    g = parse_poly(ctx2, "y + t^2")
    Vf, Vg, Vfg = hypersurface(f), hypersurface(g), hypersurface(f * g)
    for sf, sg, sfg in zip(Vf.strata, Vg.strata, Vfg.strata):
        assert sf.tau == sg.tau == sfg.tau
        assert ph.covers_equal(list(sfg.cells), list(sf.cells) + list(sg.cells))


def test_three_quadrics_basis_gap_is_one_point(ctx3):
    # the three quadrics fail to cut out the variety of the full generator
    # family by exactly the isolated triple-tie point: adding f_1 removes it
    from fractions import Fraction as F
    gens = [parse_poly(ctx3, s) for s in (
        "1 + x^2 + y^2 + z^2 + t^1*x*y",
        "1 + x^2 + y^2 + z^2 + t^1*x*z",
        "1 + x^2 + y^2 + z^2 + t^1*y*z")]
    f1 = parse_poly(ctx3, "1 + x + y + z")
    dense = [ctx3.dense_face]
    three = intersect_supports([hypersurface(g, strata=dense) for g in gens])
    four = intersect_supports([hypersurface(g, strata=dense) for g in gens]
                              + [hypersurface(f1, strata=dense)])
    s3 = slice_at_height(three, ctx3.dense_face, 1)
    s4 = slice_at_height(four, ctx3.dense_face, 1)
    point = PolyhedronH.make(3, tuple(
        row(a, F(-1, 2), "=") for a in ([1, 0, 0], [0, 1, 0], [0, 0, 1])))
    assert ph.covers_equal(s3, s4 + [point])
    assert not ph.poly_in_union(point, s4)


# ---------------------------------------------------------------------------
# the tie-hyperplane arrangement and the caches

def _forms_within(polys, tau):
    """The former `_linearity_forms`: tie normals between two terms of one polynomial."""
    forms = set()
    for p in polys:
        tvs = p.restrict(tau).term_vectors()
        for v1, v2 in itertools.combinations(tvs, 2):
            d = neg_primitive_pair(vsub(v1, v2))
            if not is_zero_vec(d):
                forms.add(d)
    return forms


def _forms_across(pairs, tau):
    """The former `_cross_forms`: tie normals between a term of f and a term of g."""
    forms = set()
    for f, g in pairs:
        for v1 in f.restrict(tau).term_vectors():
            for v2 in g.restrict(tau).term_vectors():
                d = neg_primitive_pair(vsub(v1, v2))
                if not is_zero_vec(d):
                    forms.add(d)
    return forms


def _fixture_pair_sets(fixtures_dir):
    """(context, pairs) of every fixture congruence and pair, and the bend
    relations of every fixture polynomial (the pairs of its hypersurface)."""
    out = []
    for path in sorted(fixtures_dir.rglob("*.json")):
        doc = json.loads(path.read_text())
        if "context" not in doc:
            continue
        ctx = jsonio.context_of_document(doc)
        if "pairs" in doc:
            out.append((ctx, jsonio.dec_congruence(doc, ctx).pairs))
        elif "lhs" in doc:
            out.append((ctx, (jsonio.dec_pair(doc, ctx),)))
        elif "terms" in doc:
            out.append((ctx, tuple(bend_relations(jsonio.dec_poly(doc, ctx)))))
    return out


def test_arrangement_equals_within_and_cross_forms(fixtures_dir):
    combos = 0
    for ctx, pairs in _fixture_pair_sets(fixtures_dir):
        sides = [p for pair in pairs for p in pair]
        for tau in ctx.faces:
            old = sorted(_forms_within(sides, tau) | _forms_across(pairs, tau))
            assert vy._arrangement(pairs, tau) == tuple(old)
            for pair in pairs:  # the per-pair arrangement of _functions_equal_on_cell
                old = sorted(_forms_within(pair, tau) | _forms_across([pair], tau))
                assert vy._arrangement((pair,), tau) == tuple(old)
            combos += 1
    assert combos >= 74


def test_support_arrangement_built_once(quartic_E):
    V = variety_of_basis(quartic_E)
    for s in V.strata:
        assert vy._arrangement(V.pairs, s.tau) is vy._arrangement(V.pairs, s.tau)


def test_caches_are_bounded():
    found = {}
    for info in pkgutil.iter_modules(tropcong.__path__):
        mod = importlib.import_module("tropcong." + info.name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                found[obj.__module__ + "." + name] = obj
    for name in ("trop_core._sigma", "trop_core._faces",
                 "polyhedra.cone_generators", "polyhedra._flag_violations",
                 "congruence._pair_table", "congruence.flag_to_matrix",
                 "variety._arrangement", "variety._point_table", "variety.support_of"):
        assert "tropcong." + name in found
    for name, fn in found.items():
        assert fn.cache_info().maxsize is not None, name
