import random
from fractions import Fraction as F

import pytest

from tropcong import polyhedra as ph
from tropcong._linalg import primitive
from tropcong.congruence import (AddBoth, CongruencePresentation, Derivation,
                                 Generator, InvalidMatrixError, MulMono, NotFound,
                                 PrimeMatrix, RadicalCertificate, Refl, SearchBounds,
                                 Sym, Trans, congruence_in_prime, flag_to_matrix,
                                 has_trivial_ideal_kernel, initial_form_point,
                                 initial_form_prime, monomial_le,
                                 prime_contains_pair, prime_eval, search_radical_certificate,
                                 verify_derivation, verify_radical_certificate)
from tropcong.jsonio import enc_certificate
from tropcong.polyhedra import DimensionMismatchError, make_flag
from tropcong.trop_core import ExtPoint, ToricContext, TropPoly, parse_poly

from eval_reference import phi_monomial
from helpers import solve_eq


# ---------------------------------------------------------------------------
# Phi evaluation

def test_prime_eval_lex_order_on_torus():
    ctx = ToricContext.torus(2)
    theta = PrimeMatrix.from_extended_matrix(ctx, [["0", "1", "0"], ["0", "0", "1"]])
    f = parse_poly(ctx, "x + y")
    assert prime_eval(theta, f) == (F(1), F(0))  # the x term wins


def test_prime_eval_x_vs_one(ctx1):
    theta = PrimeMatrix.from_extended_matrix(ctx1, [["1", "0"], ["0", "-1"]])
    x, one = parse_poly(ctx1, "x"), parse_poly(ctx1, "1")
    assert prime_eval(theta, x) == (F(0), F(-1))
    assert prime_eval(theta, one) == (F(0), F(0))
    assert not prime_contains_pair(theta, (x, one))


def test_prime_eval_boolean_row_oracle(ctxB):
    # C1 with alpha = -1 on B[x,y,z]; oracle: Phi by direct arithmetic per term
    theta = PrimeMatrix.from_extended_matrix(ctxB, [["-1", "-1", "-1/3"]])
    lhs = parse_poly(ctxB, "x + x^2*y^2 + z^3")
    rhs = parse_poly(ctxB, "x^2*z + x^2 + y")
    th = (F(-1), F(-1), F(-1, 3))
    oracle = lambda u: sum(t * e for t, e in zip(th, u))
    assert max(oracle(u) for u, _ in lhs.terms) == F(-1)
    assert max(oracle(u) for u, _ in rhs.terms) == F(-1)
    assert prime_eval(theta, lhs) == (F(-1),) == prime_eval(theta, rhs)


def test_prime_eval_zero_poly(ctx1):
    theta = PrimeMatrix.from_extended_matrix(ctx1, [["1", "0"]])
    assert prime_eval(theta, TropPoly.zero(ctx1)) == (None,)


def test_phi_multiplicative_on_monomials(ctx2):
    rng = random.Random(3)
    theta = PrimeMatrix.from_extended_matrix(ctx2, [["1", "-2", "1/2"], ["0", "3", "-1"]])
    for _ in range(200):
        u1 = (rng.randint(0, 5), rng.randint(0, 5))
        u2 = (rng.randint(0, 5), rng.randint(0, 5))
        a1, a2 = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        lhs = phi_monomial(theta, a1 + a2, tuple(x + y for x, y in zip(u1, u2)))
        v1 = phi_monomial(theta, a1, u1)
        v2 = phi_monomial(theta, a2, u2)
        assert lhs == tuple(a + b for a, b in zip(v1, v2))


# ---------------------------------------------------------------------------
# membership on the shipped fixtures

def test_boolean_cubic_matrices_contain_generator(ctxB, boolean_E):
    mats = {
        "C1": [["-1", "-1", "-1/3"]],
        "C2": [["-1", "0", "0"], ["0", "-1", "-1/3"]],
        "C3": [["-1", "-1", "-1/2"]],
        "C4": [["0", "0", "-1"], ["-1", "-1", "0"]],
    }
    for name, rows in mats.items():
        theta = PrimeMatrix.from_extended_matrix(ctxB, rows)
        assert congruence_in_prime(boolean_E, theta), name
        assert has_trivial_ideal_kernel(theta), name


def test_quartic_bend_pairs_under_Q(quartic_E, quartic_Q):
    for pair in quartic_E.pairs:
        assert prime_contains_pair(quartic_Q, pair)


def test_kernel_faces(ctx2, ctxB, quartic_P, quartic_Q):
    assert quartic_P.tau.dim() == 2
    assert not has_trivial_ideal_kernel(quartic_P)
    assert has_trivial_ideal_kernel(quartic_Q)
    deep = PrimeMatrix.from_extended_matrix(ctxB, [[None, None, None]])
    assert deep.tau == ctxB.deep_face
    x = parse_poly(ctxB, "x")
    zero = TropPoly.zero(ctxB)
    assert prime_contains_pair(deep, (x, zero))


def test_matrix_validation(ctx2):
    with pytest.raises(InvalidMatrixError):
        PrimeMatrix.from_extended_matrix(ctx2, [["1", None, "0"], ["0", "1", "2"]])
    with pytest.raises(InvalidMatrixError):
        PrimeMatrix.make(ctx2, ctx2.dense_face, [(F(-1), F(0), F(0))])
    # a row is one (1+n)-vector, height first: a (height, coords) pair or a
    # row of another length is refused
    for rows in [(F(1), (F(0), F(0)))], [(F(1), F(0))], [(F(1), F(0), F(0), F(0))]:
        with pytest.raises(DimensionMismatchError):
            PrimeMatrix.make(ctx2, ctx2.dense_face, rows)


# ---------------------------------------------------------------------------
# initial forms

def test_initial_form_at_point(ctx2, quartic):
    w = ExtPoint.dense(ctx2, 1, (0, -1))
    init = initial_form_point(quartic, w)
    # oracle: maximizer enumeration over the four terms
    vals = {"x^2": 0, "txy": 0, "y^2": -2, "x^2y^2": -2}
    assert init == parse_poly(ctx2, "x^2 + t^1*x*y")
    assert max(vals.values()) == 0
    assert initial_form_point(init, w) == init  # idempotent


def test_initial_form_prime_is_iterated(ctx2, quartic, quartic_Q):
    rows = [ExtPoint.dense(ctx2, row[0], row[1:]) for row in quartic_Q.rows]
    step = initial_form_point(initial_form_point(quartic, rows[0]), rows[1])
    assert initial_form_prime(quartic, quartic_Q) == step
    assert initial_form_prime(quartic, quartic_Q) == parse_poly(ctx2, "x^2 + t^1*x*y")


def test_initial_form_all_dead_keeps_everything(ctx2, quartic):
    w = ExtPoint.make(ctx2, 1, ctx2.deep_face, (0, 0))
    assert initial_form_point(quartic, w) == quartic


def test_leading_term_reduction_invariant(ctx2, quartic_E, quartic_Q, quartic_P):
    for theta in (quartic_Q, quartic_P):
        for f, g in quartic_E.pairs:
            direct = prime_contains_pair(theta, (f, g))
            reduced = prime_contains_pair(
                theta, (initial_form_prime(f, theta), initial_form_prime(g, theta)))
            assert direct == reduced


# ---------------------------------------------------------------------------
# flags to matrices

def test_flag_to_matrix_single_ray(ctx2):
    flag = make_flag(3, [], [[(1, 0, -1)]])
    theta = flag_to_matrix(ctx2, flag)
    assert theta.rows == ((F(1), F(0), F(-1)),)


def test_flag_to_matrix_deep_ray(ctx2):
    flag = make_flag(3, [(-1, 0), (0, -1)], [[(1, 0, 0)]])
    theta = flag_to_matrix(ctx2, flag)
    assert theta.tau == ctx2.deep_face
    assert not has_trivial_ideal_kernel(theta)


def test_flag_to_matrix_q_flag_same_prime(ctx2, quartic_Q):
    flag = make_flag(3, [], [[(0, -1, -1)], [(0, -1, -1), (1, 0, -1)]])
    theta = flag_to_matrix(ctx2, flag)
    rng = random.Random(11)
    for _ in range(200):
        u1 = (rng.randint(0, 6), rng.randint(0, 6))
        u2 = (rng.randint(0, 6), rng.randint(0, 6))
        m1 = TropPoly.make(ctx2, {u1: F(rng.randint(-3, 3))})
        m2 = TropPoly.make(ctx2, {u2: F(rng.randint(-3, 3))})
        assert monomial_le(theta, m1, m2) == monomial_le(quartic_Q, m1, m2)


def test_flag_to_matrix_choice_independence(ctx2):
    from test_variety import ray_sums, same_prime_rows
    flag = make_flag(3, [], [[(0, -1, -1)], [(0, -1, -1), (1, 0, -1)]])
    base = flag_to_matrix(ctx2, flag)
    w = ray_sums(flag)
    rng = random.Random(0)
    pairs = []
    for _ in range(200):
        u1 = (rng.randint(0, 5), rng.randint(0, 5))
        u2 = (rng.randint(0, 5), rng.randint(0, 5))
        pairs.append((TropPoly.make(ctx2, {u1: F(rng.randint(-3, 3))}),
                      TropPoly.make(ctx2, {u2: F(rng.randint(-3, 3))})))
    for i in range(100):
        # rows at other positive combinations of each cone's rays
        draw = random.Random(1000 + i)
        rows = []
        for rays in flag.cones_rays:
            coeffs = [F(draw.randint(1, 9), draw.randint(1, 3)) for _ in rays]
            pt = primitive(tuple(sum(c * r[j] for c, r in zip(coeffs, rays))
                                 for j in range(flag.ambient_dim)))
            rows.append(pt)
        alt = PrimeMatrix.make(ctx2, ctx2.dense_face, rows)
        for m1, m2 in pairs:
            assert monomial_le(alt, m1, m2) == monomial_le(base, m1, m2)
        assert same_prime_rows(w, rows)
        # negative control: row 1 mirrored in span(C_0) inside span(C_1)
        c0, c1 = solve_eq(list(zip(*w)), rows[1])
        mirrored = tuple(c0 * a - c1 * b for a, b in zip(*w))
        assert not same_prime_rows(w, [rows[0], mirrored])


# ---------------------------------------------------------------------------
# derivations

def test_derivation_mul_trans(ctx1):
    x, one, x2 = (parse_poly(ctx1, s) for s in ("x", "1", "x^2"))
    E = CongruencePresentation.make(ctx1, [(x, one)])
    d = Derivation((Generator(0), MulMono(0, x), Trans(1, 0)))
    assert verify_derivation(E, d, (x2, one))
    # independent oracle: one-step rewrites of (x,1) up to degree 2 plus transitivity
    reach = {(str(x), str(one)), (str(x2), str(x))}
    closure = reach | {(str(x2), str(one))}
    assert (str(x2), str(one)) in closure


def test_derivation_refl_and_mismatch(ctx1):
    x, one, x2 = (parse_poly(ctx1, s) for s in ("x", "1", "x^2"))
    E = CongruencePresentation.make(ctx1, [(x, one)])
    f = parse_poly(ctx1, "1 + x^3")
    assert verify_derivation(E, Derivation((Refl(f),)), (f, f))
    d = Derivation((Generator(0), MulMono(0, x)))
    assert verify_derivation(E, d, (x2, x))
    assert not verify_derivation(E, d, (x2, one))


def test_derivation_malformed(ctx1):
    x, one = parse_poly(ctx1, "x"), parse_poly(ctx1, "1")
    E = CongruencePresentation.make(ctx1, [(x, one)])
    assert not verify_derivation(E, Derivation((Generator(5),)), (x, one))
    assert not verify_derivation(E, Derivation((Sym(0),)), (one, x))
    two_step = Derivation((Generator(0), MulMono(0, parse_poly(ctx1, "1 + x"))))
    assert not verify_derivation(E, two_step, (x, one))  # multiplier not a monomial


# ---------------------------------------------------------------------------
# radical certificates

def test_certificate_add_cofactor(ctx1):
    x, one, x2 = (parse_poly(ctx1, s) for s in ("x", "1", "x^2"))
    E = CongruencePresentation.make(ctx1, [(x2, one)])
    d = Derivation((Generator(0), AddBoth(0, x)))
    cert = RadicalCertificate(1, x, d)
    # ((x+1)^1 + x) = x+1 by idempotency; target ((x+1)x, (x+1)1) = (x^2+x, x+1)
    assert verify_radical_certificate(E, (x, one), cert)


def test_certificate_reflexive(ctx1):
    f = parse_poly(ctx1, "1 + x^2")
    E = CongruencePresentation.make(ctx1, [(parse_poly(ctx1, "x"), parse_poly(ctx1, "1"))])
    cert = RadicalCertificate(0, TropPoly.zero(ctx1), Derivation((Refl(f),)))
    assert verify_radical_certificate(E, (f, f), cert)


def test_search_finds_and_roundtrips(ctx1):
    x, one, x2 = (parse_poly(ctx1, s) for s in ("x", "1", "x^2"))
    E = CongruencePresentation.make(ctx1, [(x2, one)], finite_tropical_basis=True)
    res = search_radical_certificate(E, (x, one))
    assert isinstance(res, RadicalCertificate)
    assert res.exponent <= 1
    assert verify_radical_certificate(E, (x, one), res)


def _terms(*terms):
    return {"terms": [{"coeff": c, "exp": list(u)} for c, u in terms]}


# Certificates of several forest hops, recorded with the rerooting proof forest
# the union-find replaced: a Sym turns a generator, a Sym turns a hop to run
# along the path, and Trans chains the hops (twice in the torus case).
MULTI_HOP_SEARCHES = [
    (ToricContext.affine(1), [("1", "t^2"), ("1", "t^2*x")], ("t^1*x^2", "t^1*x"),
     {"exponent": 0, "cofactor": _terms(), "derivation": {"steps": [
         {"op": "gen", "index": 1},
         {"op": "sym", "i": 0},
         {"op": "mulmono", "i": 1, "m": _terms(("-1", [1]))},
         {"op": "addboth", "i": 2, "h": _terms()},
         {"op": "gen", "index": 0},
         {"op": "sym", "i": 4},
         {"op": "mulmono", "i": 5, "m": _terms(("-1", [1]))},
         {"op": "addboth", "i": 6, "h": _terms()},
         {"op": "sym", "i": 7},
         {"op": "trans", "i": 3, "j": 8}]}}),
    (ToricContext.torus(1), [("x^2", "t^-2*x^-2 + x^-1")], ("t^-2", "t^-2*x^-1"),
     {"exponent": 1, "cofactor": _terms(("-2", [-2])), "derivation": {"steps": [
         {"op": "gen", "index": 0},
         {"op": "mulmono", "i": 0, "m": _terms(("-6", [-3]))},
         {"op": "addboth", "i": 1, "h": _terms(("-4", [-2]), ("-4", [-1]), ("-4", [0]))},
         {"op": "gen", "index": 0},
         {"op": "mulmono", "i": 3, "m": _terms(("-4", [-2]))},
         {"op": "addboth", "i": 4, "h": _terms(("-8", [-5]), ("-6", [-4]), ("-4", [-2]),
                                               ("-4", [-1]))},
         {"op": "trans", "i": 2, "j": 5},
         {"op": "gen", "index": 0},
         {"op": "mulmono", "i": 7, "m": _terms(("-6", [-3]))},
         {"op": "addboth", "i": 8, "h": _terms(("-4", [-3]), ("-4", [-2]), ("-4", [-1]))},
         {"op": "sym", "i": 9},
         {"op": "trans", "i": 6, "j": 10}]}}),
]


@pytest.mark.parametrize("ctx,gens,pair,expected", MULTI_HOP_SEARCHES)
def test_search_multi_hop_certificate(ctx, gens, pair, expected):
    E = CongruencePresentation.make(
        ctx, [tuple(parse_poly(ctx, s) for s in g) for g in gens], finite_tropical_basis=True)
    pair = tuple(parse_poly(ctx, s) for s in pair)
    res = search_radical_certificate(
        E, pair, SearchBounds(max_exponent=2, max_degree=5, max_nodes=300))
    assert isinstance(res, RadicalCertificate)
    assert verify_radical_certificate(E, pair, res)
    assert enc_certificate(res) == expected


def test_search_prime_notfound(ctx1):
    theta = PrimeMatrix.from_extended_matrix(ctx1, [["1", "0"], ["0", "-1"]])
    x, one = parse_poly(ctx1, "x"), parse_poly(ctx1, "1")
    res = search_radical_certificate(theta, (x, one),
                                     SearchBounds(max_exponent=6, max_degree=10))
    assert isinstance(res, NotFound)
    assert res.explored > 0


def test_search_presentation_notfound(ctx1):
    # E only identifies t*x with x; x and 1 are never joined within the bounds
    x, one = parse_poly(ctx1, "x"), parse_poly(ctx1, "1")
    E = CongruencePresentation.make(ctx1, [(parse_poly(ctx1, "t^1*x"), x)])
    res = search_radical_certificate(E, (x, one),
                                     SearchBounds(max_exponent=1, max_degree=3, max_nodes=50))
    assert isinstance(res, NotFound)
    assert res.explored > 0


def test_search_prime_positive(ctx1):
    theta = PrimeMatrix.from_extended_matrix(ctx1, [["1", "0"], ["0", "-1"]])
    f = parse_poly(ctx1, "1 + x")
    one = parse_poly(ctx1, "1")
    res = search_radical_certificate(theta, (f, one))
    assert isinstance(res, RadicalCertificate)
    assert verify_radical_certificate(theta, (f, one), res)


def test_certificate_without_derivation_needs_matrix(ctx1):
    x2, one, x = (parse_poly(ctx1, s) for s in ("x^2", "1", "x"))
    E = CongruencePresentation.make(ctx1, [(x2, one)])
    cert = RadicalCertificate(1, x, None)
    assert not verify_radical_certificate(E, (x, one), cert)
