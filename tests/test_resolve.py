import json
import random
from fractions import Fraction as F

import pytest

from tropcong.congruence import (CongruencePresentation, PrimeMatrix,
                                 congruence_in_prime, has_trivial_ideal_kernel,
                                 initial_form_point, monomial_le)
from tropcong.polyhedra import feasible
from tropcong import resolve
from tropcong.resolve import (CLOSURE_VIOLATED, NO_FEASIBLE_CONE, NOT_CONTAINED,
                              ResolutionResult, ResolveFailure,
                              cancellativity_harness, resolve_boundary_prime,
                              verify_closure_hypothesis)
from tropcong.cli import main
from tropcong.trop_core import ExtPoint, ToricContext, TropPoly, parse_poly
from tropcong.variety import functions_equal_on_variety, variety_of_basis, support_of

import init_region_reference as ref
from helpers import enc_congruence, shifted_point
from init_forms import init_stability, iterated_init_region


# ---------------------------------------------------------------------------
# initial-form stability

def test_stability_monomial(ctx2):
    m = parse_poly(ctx2, "t^2*x*y")
    v = ExtPoint.dense(ctx2, 0, (1, 1))
    w = ExtPoint.dense(ctx2, 1, (0, 0))
    n0, data = init_stability(m, v, w)
    assert n0 == 0 and data.deleted == ()


def test_stability_one_plus_x():
    ctx = ToricContext.torus(1)
    f = parse_poly(ctx, "1 + x")
    v = ExtPoint.dense(ctx, 0, (1,))
    w = ExtPoint.dense(ctx, 1, (0,))
    n0, data = init_stability(f, v, w)
    # direct formula: Xi = {(0;0)} with margin 1; N0 = -(0-0)/1 = 0
    assert n0 == 0
    assert data.deleted == ((F(0), F(0)),) and data.margins == (F(1),)
    at1 = initial_form_point(f, shifted_point(w, v, 1))
    assert at1 == parse_poly(ctx, "x")


def test_stability_quartic(ctx2, quartic, quartic_Q):
    v = ExtPoint.dense(ctx2, 0, (-1, -1))
    w = ExtPoint.dense(ctx2, 1, (0, -1))
    n0, _ = init_stability(quartic, v, w)
    iterated = initial_form_point(initial_form_point(quartic, v), w)
    assert iterated == parse_poly(ctx2, "x^2 + t^1*x*y")
    assert initial_form_point(quartic, shifted_point(w, v, n0 + 1)) == iterated


def _random_poly_1d2(rng, ctx):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        u = (rng.randint(0, 5), rng.randint(0, 5))
        terms[u] = F(rng.randint(-5, 5))
    return TropPoly.make(ctx, terms)


def test_stability_property_sampled(ctx2):
    rng = random.Random(19)
    hits = 0
    for _ in range(200):
        f = _random_poly_1d2(rng, ctx2)
        v = ExtPoint.dense(ctx2, rng.randint(0, 2),
                           (rng.randint(-5, 5), rng.randint(-5, 5)))
        w = ExtPoint.dense(ctx2, rng.randint(0, 2),
                           (rng.randint(-5, 5), rng.randint(-5, 5)))
        n0, data = init_stability(f, v, w)
        iterated = initial_form_point(initial_form_point(f, v), w)
        assert initial_form_point(f, shifted_point(w, v, n0 + 1)) == iterated
        if data.deleted and n0 > 0:
            hits += 1
            below = initial_form_point(f, shifted_point(w, v, max(n0 - 1, 0)))
            # tightness is sampled, not asserted universally
    assert hits > 5


def test_stability_stratum_mismatch(ctx2, quartic):
    v = ExtPoint.make(ctx2, 0, ctx2.deep_face, (0, 0))
    w = ExtPoint.dense(ctx2, 1, (0, 0))
    with pytest.raises(ValueError):
        init_stability(quartic, v, w)


# ---------------------------------------------------------------------------
# iterated initial-form regions

def test_region_base_case_halfline():
    ctx = ToricContext.torus(1)
    f = parse_poly(ctx, "1 + x")
    xi0 = ExtPoint.dense(ctx, 1, (0,))
    xi1 = ExtPoint.dense(ctx, 0, (1,))
    Q = iterated_init_region([f], [xi0, xi1])
    assert Q.dim == 1
    n = feasible(Q)[0] + 1
    assert initial_form_point(f, shifted_point(xi0, xi1, n)) == \
        initial_form_point(initial_form_point(f, xi1), xi0)


def test_region_quartic_pair(ctx2, quartic):
    g = quartic.delete_term((2, 2))
    xi0 = ExtPoint.dense(ctx2, 1, (0, -1))
    xi1 = ExtPoint.dense(ctx2, 0, (-1, -1))
    Q = iterated_init_region([quartic, g], [xi0, xi1])
    n = feasible(Q)[0] + 1
    for p in (quartic, g):
        assert initial_form_point(p, shifted_point(xi0, xi1, n)) == \
            initial_form_point(initial_form_point(p, xi1), xi0)


def test_region_zero_vectors_whole_space(ctx2, quartic):
    origin = ExtPoint.dense(ctx2, 0, (0, 0))
    xi0 = ExtPoint.dense(ctx2, 1, (2, 3))
    Q = iterated_init_region([quartic], [xi0, origin, origin])
    assert Q.rows == ()  # all of R^2


def test_region_form_bottom_where_a_deleted_term_survives():
    # init_{xi1}(x + y) = x is bottom on the stratum of xi0, where the deleted
    # term y survives: the region is undefined, as for init_stability
    ctx = ToricContext.affine(2)
    f = parse_poly(ctx, "x + y")
    xi0 = ExtPoint.make(ctx, 1, ctx.face_from_rays([(-1, 0)]), (0, 0))
    xi1 = ExtPoint.dense(ctx, 0, (1, 0))
    with pytest.raises(ValueError, match="initial form dies at w"):
        iterated_init_region([f], [xi0, xi1])
    with pytest.raises(TypeError):
        ref.iterated_init_region([f], [xi0, xi1])


def _random_point(rng, ctx):
    face = rng.choice(ctx.faces)
    return ExtPoint.make(ctx, rng.randint(0, 2), face,
                         tuple(rng.randint(-3, 3) for _ in range(ctx.rank)))


def test_region_matches_the_recursive_reference():
    # the chain loop emits the rows of the former recursion; where that one
    # subtracted a number from bottom (TypeError), init_forms raises ValueError
    rng = random.Random(26)
    seen = {"rows": 0, "whole space": 0, "bottom": 0}
    for ctx in (ToricContext.affine(2), ToricContext.torus(2)):
        lo = -3 if ctx.is_torus() else 0
        for _ in range(200):
            polys = [TropPoly.make(ctx, {(rng.randint(lo, 3), rng.randint(lo, 3)):
                                         rng.randint(-3, 3) for _ in range(rng.randint(1, 4))})
                     for _ in range(rng.randint(1, 2))]
            xis = [_random_point(rng, ctx) for _ in range(rng.randint(1, 3))]
            try:
                want = ref.iterated_init_region(polys, xis)
            except TypeError:
                with pytest.raises(ValueError, match="initial form dies at w"):
                    iterated_init_region(polys, xis)
                seen["bottom"] += 1
                continue
            got = iterated_init_region(polys, xis)
            assert (got.dim, got.rows) == (want.dim, want.rows), (polys, xis)
            seen["rows" if got.rows else "whole space"] += 1
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# resolution

def _check_resolution(E, P, res, seed=5):
    assert isinstance(res, ResolutionResult)
    Q = res.matrix
    assert has_trivial_ideal_kernel(Q)
    assert congruence_in_prime(E, Q)
    rng = random.Random(seed)
    ctx = E.context
    for _ in range(300):
        u1 = tuple(rng.randint(0, 6) for _ in range(ctx.rank))
        u2 = tuple(rng.randint(0, 6) for _ in range(ctx.rank))
        a1 = F(0) if ctx.coeff == "B" else F(rng.randint(-4, 4))
        a2 = F(0) if ctx.coeff == "B" else F(rng.randint(-4, 4))
        m1 = TropPoly.make(ctx, {u1: a1})
        m2 = TropPoly.make(ctx, {u2: a2})
        if monomial_le(Q, m1, m2):
            assert monomial_le(P, m1, m2)
        if monomial_le(Q, m2, m1):
            assert monomial_le(P, m2, m1)


def test_resolve_quartic(ctx2, quartic_E, quartic_P):
    res = resolve_boundary_prime(quartic_E, quartic_P, samples=200)
    _check_resolution(quartic_E, quartic_P, res)
    assert res.v[0] == 0 and res.v[1] < 0 and res.v[2] < 0
    # the witnesses reconstruct the matrix rows
    assert res.matrix.rows[0] == res.v
    assert res.matrix.rows[1] == res.w_hats[0]


def test_resolve_ignores_a_redundant_row(ctx2, quartic_E, quartic_P):
    # fixtures/quartic_bend/P.json with a row in the span of the row before it
    P = PrimeMatrix.from_extended_matrix(ctx2, [["1", None, None], ["2", None, None]])
    res = resolve_boundary_prime(quartic_E, P, samples=50)
    assert res == resolve_boundary_prime(quartic_E, quartic_P, samples=50)


def test_resolve_already_trivial(ctx2, quartic_E, quartic_Q):
    res = resolve_boundary_prime(quartic_E, quartic_Q)
    assert isinstance(res, ResolutionResult)
    assert res.matrix == quartic_Q


def test_resolve_boolean_cubic(ctxB, boolean_E):
    P = PrimeMatrix.from_extended_matrix(ctxB, [[None, None, None]])
    res = resolve_boundary_prime(boolean_E, P, samples=200)
    _check_resolution(boolean_E, P, res)


CTX2 = ToricContext.affine(2)


@pytest.mark.parametrize("P", [
    # a boundary prime: stratum ray(-e1), one row
    PrimeMatrix.make(CTX2, CTX2.face_from_rays([(-1, 0)]), [(F(1), F(0), F(2))]),
    # a dense prime: its ideal-kernel is trivial, and it is refused all the same
    PrimeMatrix.from_extended_matrix(CTX2, [["0", "1", "5"]]),
], ids=["boundary", "dense"])
def test_resolve_not_containing(quartic_E, P):
    assert not congruence_in_prime(quartic_E, P)
    res = resolve_boundary_prime(quartic_E, P)
    assert isinstance(res, ResolveFailure) and res.reason == NOT_CONTAINED


def test_resolve_shrinks_the_flag_and_skips_an_infeasible_cell(ctx2, monkeypatch):
    # E = <(1 + x, 1 + x + t^-1*x^2)>: where x lives, its support is x <= r,
    # cut into the dense cells x <= 0 and 0 <= x <= r.  The flag on the
    # stratum where y dies leaves (1, 0) towards (0, 1): its prime contains E,
    # as the germ lies in the support, but its second cone does not, so the
    # flag is shrunk.  The first dense cell holds no point of the germ, so its
    # system is infeasible and the second cell gives the resolution.
    import tropcong.resolve as resolve_mod
    from tropcong.polyhedra import make_flag
    from tropcong.congruence import flag_to_matrix
    from tropcong.variety import flag_in_variety
    f = parse_poly(ctx2, "1 + x")
    E = CongruencePresentation.make(ctx2, [(f, f + parse_poly(ctx2, "t^-1*x^2"))],
                                    finite_tropical_basis=True)
    flag = make_flag(3, [(0, -1)], [[(1, 0, 0)], [(1, 0, 0), (0, 1, 0)]])
    P = flag_to_matrix(ctx2, flag)
    dense = support_of(E).stratum(ctx2.dense_face).cells
    assert congruence_in_prime(E, P) and not flag_in_variety(ctx2, flag, support_of(E))
    assert len(dense) == 2
    calls = {"shrink": 0, "infeasible": 0}
    shrink, system = resolve_mod.shrink_flag, resolve_mod._resolution_system

    def counted_shrink(*args):
        calls["shrink"] += 1
        return shrink(*args)

    def counted_system(*args):
        sol = system(*args)
        calls["infeasible"] += sol is None
        return sol
    monkeypatch.setattr(resolve_mod, "shrink_flag", counted_shrink)
    monkeypatch.setattr(resolve_mod, "_resolution_system", counted_system)
    res = resolve_boundary_prime(E, flag, samples=200)
    assert calls == {"shrink": 1, "infeasible": 1}
    _check_resolution(E, P, res)
    assert res.cone == dense[1]


def test_resolve_reports_a_rejected_shrunk_flag_as_a_bug(ctx2, monkeypatch, tmp_path, capsys):
    # shrink_flag puts its output inside the support by construction, so a
    # shrunk flag that flag_in_variety rejects is an internal inconsistency,
    # not a failed resolution: here shrink_flag returns the flag unshrunk
    from tropcong.polyhedra import make_flag
    from tropcong.congruence import flag_to_matrix
    from tropcong.variety import InternalConsistencyError
    f = parse_poly(ctx2, "1 + x")
    E = CongruencePresentation.make(ctx2, [(f, f + parse_poly(ctx2, "t^-1*x^2"))],
                                    finite_tropical_basis=True)
    flag = make_flag(3, [(0, -1)], [[(1, 0, 0)], [(1, 0, 0), (0, 1, 0)]])
    monkeypatch.setattr(resolve, "shrink_flag", lambda ctx, flag, E: flag)
    with pytest.raises(InternalConsistencyError, match="shrunk flag"):
        resolve_boundary_prime(E, flag)
    # the CLI reads a matrix; given this flag for it, it exits 4
    from tropcong import jsonio
    monkeypatch.setattr(resolve, "_flag_from_matrix", lambda ctx, theta: flag)
    cong, prime = tmp_path / "E.json", tmp_path / "P.json"
    cong.write_text(json.dumps(dict(enc_congruence(E), format="tropcong/1")))
    prime.write_text(json.dumps(dict(jsonio.enc_matrix(flag_to_matrix(ctx2, flag)),
                                     format="tropcong/1")))
    assert main(["resolve", "--cong", str(cong), "--prime", str(prime)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal consistency error: "
                            "the shrunk flag is not inside the support\n")


def test_resolve_reports_every_cell_infeasible(quartic_E, quartic_P, monkeypatch):
    monkeypatch.setattr(resolve, "_resolution_system", lambda *args: None)
    res = resolve_boundary_prime(quartic_E, quartic_P)
    cells = len(support_of(quartic_E).stratum(quartic_E.context.dense_face).cells)
    assert res == ResolveFailure(
        NO_FEASIBLE_CONE, "no dense cell admits a feasible system (%d tried)" % cells)


def _fail_containment_of_the_constructed_prime(monkeypatch):
    """congruence_in_prime as before on P, false on the dense Q resolve builds."""
    real = resolve.congruence_in_prime
    monkeypatch.setattr(resolve, "congruence_in_prime",
                        lambda E, theta: theta.tau.dim() != 0 and real(E, theta))


def _fail_refinement_of_the_constructed_prime(monkeypatch):
    monkeypatch.setattr(resolve, "_sampled_refinement", lambda *args: (False, 1))


@pytest.mark.parametrize("fail, message", [
    (_fail_containment_of_the_constructed_prime, "the constructed prime does not contain E"),
    (_fail_refinement_of_the_constructed_prime, "the constructed prime does not refine P"),
], ids=["containment", "refinement"])
def test_resolve_reports_a_failed_check_of_the_constructed_prime_as_a_bug(
        quartic_E, quartic_P, fixtures_dir, monkeypatch, capsys, fail, message):
    # Q's rows lie in a cell of the support and project onto P's flag, so
    # E <= Q <= P hold by construction: a failed check is an internal
    # inconsistency, not a cell to skip
    from tropcong.variety import InternalConsistencyError
    assert isinstance(resolve_boundary_prime(quartic_E, quartic_P), ResolutionResult)
    fail(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=message):
        resolve_boundary_prime(quartic_E, quartic_P)
    base = fixtures_dir / "quartic_bend"
    assert main(["resolve", "--cong", str(base / "E.json"),
                 "--prime", str(base / "P.json")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal consistency error: %s\n" % message


def test_resolve_closure_hypothesis_violated(ctx1):
    # E = <(t^1 x, x)>: the dense part of the support is {r = 0} but the whole
    # deep ray survives, so boundary heights are not limits of the dense part
    f = parse_poly(ctx1, "t^1*x")
    g = parse_poly(ctx1, "x")
    E = CongruencePresentation.make(ctx1, [(f, g)], finite_tropical_basis=True)
    P = PrimeMatrix.from_extended_matrix(ctx1, [["1", None]])
    assert congruence_in_prime(E, P)
    res = resolve_boundary_prime(E, P)
    assert isinstance(res, ResolveFailure) and res.reason == CLOSURE_VIOLATED
    assert verify_closure_hypothesis(support_of(E)) is not None


def test_closure_hypothesis_holds_for_a_union_of_closures(tmp_path, capsys):
    # on the stratum of tau = cone((-1,0,0), (0,-1,0)) a boundary cell lies in
    # the union of the dense cells' closures but in no single one; the
    # hypothesis concerns the closure of the whole dense part, so it holds
    ctx = ToricContext.affine(3)
    f = parse_poly(ctx, "t^-1*y^2 + y^2*z^2 + t^-2*x*z^2 + t^-1*x^2*y*z + t^1*x^2*y^2")
    E = CongruencePresentation.bend_of(f)
    assert verify_closure_hypothesis(support_of(E)) is None
    cong = tmp_path / "E.json"
    cong.write_text(json.dumps(dict(enc_congruence(E), format="tropcong/1")))
    assert main(["cancel-check", "--cong", str(cong)]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


# ---------------------------------------------------------------------------
# cancellativity harness

def test_cancellativity_quartic(quartic_E):
    report = cancellativity_harness(quartic_E, trials=60, max_degree=3, seed=7)
    assert report.trials == 60
    assert report.violations == ()


PYRAMID = ToricContext(3, [(1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)])


# bend_of(1 + x): 41 of 200 trials have equal products, so the harness reaches
# its cancellation check (paper application 2); on the pyramid every random
# exponent must be drawn inside sigma^v
@pytest.mark.parametrize("ctx, text, trials, products_equal", [
    (ToricContext.affine(1), "1 + x", 200, 41),
    (PYRAMID, "1 + z", 20, 0),
], ids=["cancels", "pyramid"])
def test_cancellativity_of_a_bend(ctx, text, trials, products_equal):
    E = CongruencePresentation.bend_of(parse_poly(ctx, text))
    report = cancellativity_harness(E, trials=trials)
    assert (report.trials, report.products_equal, report.violations) == (
        trials, products_equal, ())


@pytest.mark.parametrize("ctx", [ToricContext.affine(2), ToricContext.torus(2), PYRAMID],
                         ids=["affine", "torus", "pyramid"])
def test_random_exponents_lie_in_the_monoid(ctx):
    drawn = resolve._random_exponents(ctx, random.Random(5), 3)
    got = [next(drawn) for _ in range(100)]
    assert all(ctx.exponent_in_monoid(u) for u in got)
    assert any(x < 0 for u in got for x in u) == (not ctx.is_affine_preset())


@pytest.mark.parametrize("ctx, lo", [(ToricContext.affine(2), 0), (ToricContext.torus(2), -3)],
                         ids=["affine", "torus"])
def test_random_exponents_of_the_presets_are_the_whole_box(ctx, lo):
    # no draw is redrawn: the pinned resolve and cancel-check outputs rely on it
    drawn = resolve._random_exponents(ctx, random.Random(5), 3)
    rng = random.Random(5)
    assert [next(drawn) for _ in range(100)] == [
        tuple(rng.randint(lo, 3) for _ in range(2)) for _ in range(100)]


def test_sampled_monomial_pairs_on_the_pyramid():
    pairs = resolve._sample_monomial_pairs(PYRAMID, random.Random(5), 30, 3)
    assert len(pairs) == 30
    assert all(PYRAMID.exponent_in_monoid(u) for pair in pairs for m in pair
               for u in m.support())


def test_cancellativity_unit_multiplier(ctx2, quartic_E):
    V = support_of(quartic_E)
    one = parse_poly(ctx2, "1")
    f = parse_poly(ctx2, "x + t^1*y")
    assert functions_equal_on_variety(one * f, one * f, V)


def test_cancellativity_adversarial_torus():
    # g = x + y, f1 = x, f2 = y on the full torus: the products differ somewhere,
    # so no cancellation assertion ever fires
    ctx = ToricContext.torus(2)
    E = CongruencePresentation.make(ctx, (), finite_tropical_basis=True)
    V = variety_of_basis(E)
    g = parse_poly(ctx, "x + y")
    f1, f2 = parse_poly(ctx, "x"), parse_poly(ctx, "y")
    assert not functions_equal_on_variety(g * f1, g * f2, V)


def test_resolve_rank_two_boundary_prime(ctx2):
    # a rank-2 prime on the stratum where y dies; the resolution system now
    # carries a genuine partial sum with b_1 > 0
    from tropcong.polyhedra import make_flag
    from tropcong.congruence import flag_to_matrix
    f = parse_poly(ctx2, "1 + x + y")
    g = parse_poly(ctx2, "1 + t^1*x + t^1*y")
    E = CongruencePresentation.make(ctx2, [(f, g)], finite_tropical_basis=True)
    flag = make_flag(3, [(0, -1)], [[(1, -1, 0)], [(1, -1, 0), (0, -1, 0)]])
    P = flag_to_matrix(ctx2, flag)
    assert P.tau.dim() == 1 and P.rank() == 2
    assert congruence_in_prime(E, P)
    res = resolve_boundary_prime(E, flag, samples=200)
    _check_resolution(E, P, res)
    assert res.matrix.rank() == 3
    assert len(res.b) == 1 and res.b[0] > 0
    # witnesses reconstruct the rows: w_hat_i = (V_i - V_{i-1}) / b_i
    assert res.w_hats[0] == res.v_hats[0]
    diff = tuple((a - b) / res.b[0] for a, b in zip(res.v_hats[1], res.v_hats[0]))
    assert res.w_hats[1] == diff
    # matrix input goes through the same pipeline
    res2 = resolve_boundary_prime(E, P, samples=200)
    _check_resolution(E, P, res2)
