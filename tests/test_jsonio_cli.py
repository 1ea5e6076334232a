import json
import subprocess
import sys
from fractions import Fraction

import pytest

from tropcong import jsonio, polyhedra
from tropcong.cli import main
from tropcong.congruence import (AddBoth, Derivation, Generator, MulMono, PrimeMatrix,
                                 RadicalCertificate, Refl, Sym, Trans, prime_eval)
from tropcong.jsonio import ParseError
from tropcong.polyhedra import CoverBudgetExceeded
from tropcong.trop_core import ToricContext, parse_poly

from helpers import enc_congruence, enc_flag


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# round trips

def test_fixture_files_reparse(fixtures_dir):
    for path in sorted(fixtures_dir.rglob("*.json")):
        doc = jsonio.load_document(path.read_text(), str(path))
        assert doc.get("format") == "tropcong/1"
        if "context" in doc:
            ctx = jsonio.context_of_document(doc, str(path))
            if "pairs" in doc:
                E = jsonio.dec_congruence(doc, ctx, str(path))
                assert jsonio.dec_congruence(enc_congruence(E), ctx) == E
            elif "matrix" in doc or "rows" in doc and "r" in doc.get("rows", [{}])[0]:
                theta = jsonio.dec_matrix(doc, ctx, str(path))
                assert jsonio.dec_matrix(jsonio.enc_matrix(theta), ctx) == theta


def test_poly_round_trip(ctx2):
    f = parse_poly(ctx2, "x^2 + t^-3*x*y + y^2")
    doc = dict(jsonio.enc_poly(f), context=jsonio.enc_context(ctx2))
    assert jsonio.dec_poly(doc, jsonio.context_of_document(doc)) == f


def test_flag_round_trip():
    from tropcong.polyhedra import make_flag
    flag = make_flag(3, [(-1, 0)], [[(1, 0, -1)]])
    assert jsonio.dec_flag(enc_flag(flag)) == flag


def test_matrix_stratum_form_round_trip():
    # the square pyramid is neither affine nor a torus: no -inf column form,
    # so every prime matrix travels as tau_rays and rows
    ctx = ToricContext(3, [(1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)])
    for tau in ctx.faces:
        theta = PrimeMatrix.make(ctx, tau, [(2, 1, 2, 3), (Fraction(1, 2), 1, 0, -1)])
        doc = json.loads(jsonio.dumps(jsonio.enc_matrix(theta)))
        assert sorted(doc) == ["context", "format", "rows", "tau_rays"]
        assert jsonio.context_of_document(doc) == ctx
        assert jsonio.dec_matrix(doc, ctx) == theta


def test_derivation_round_trip(ctx1):
    from tropcong.congruence import (AddBoth, Derivation, Generator, MulMono,
                                     Refl, Sym, Trans)
    x = parse_poly(ctx1, "x")
    d = Derivation((Generator(0), Refl(x), Sym(0), Trans(0, 2),
                    AddBoth(3, x), MulMono(4, x)))
    assert jsonio.dec_derivation(jsonio.enc_derivation(d), ctx1) == d


_X = {"terms": [{"coeff": "0", "exp": [1]}]}  # x on T[x]
# each derivation op as the JSON document of one step, and the step it decodes to
STEP_DOCS = [
    ({"op": "gen", "index": 2}, lambda x: Generator(2)),
    ({"op": "refl", "poly": _X}, lambda x: Refl(x)),
    ({"op": "sym", "i": 1}, lambda x: Sym(1)),
    ({"op": "trans", "i": 0, "j": 3}, lambda x: Trans(0, 3)),
    ({"op": "addboth", "i": 4, "h": _X}, lambda x: AddBoth(4, x)),
    ({"op": "mulmono", "i": 5, "m": _X}, lambda x: MulMono(5, x)),
]


@pytest.mark.parametrize("doc, step", STEP_DOCS, ids=[d["op"] for d, _ in STEP_DOCS])
def test_step_round_trip(ctx1, doc, step):
    step = step(parse_poly(ctx1, "x"))
    assert jsonio.enc_step(step) == doc
    assert jsonio.dec_step(doc, ctx1, "$") == step


def test_enc_step_refuses_what_is_no_step(ctx1):
    with pytest.raises(TypeError, match="unknown step"):
        jsonio.enc_step(parse_poly(ctx1, "x"))


def _step_errors():
    """(step document, message, path) for each field of each op: missing,
    and, for an index, negative or a bool; for a polynomial, not an object.
    A step of two fields missing both is reported at its first."""
    for doc, _ in STEP_DOCS:
        op, fields = doc["op"], [k for k in doc if k != "op"]
        if len(fields) > 1:
            yield pytest.param({"op": op}, "missing key %r" % fields[0], "$",
                               id="%s-no-fields" % op)
        for k in fields:
            yield pytest.param({f: v for f, v in doc.items() if f != k},
                               "missing key %r" % k, "$", id="%s-no-%s" % (op, k))
            if isinstance(doc[k], dict):
                yield pytest.param(dict(doc, **{k: 5}), "expected an object", "$." + k,
                                   id="%s-%s-not-an-object" % (op, k))
                continue
            for value in (-1, True):
                yield pytest.param(dict(doc, **{k: value}), "expected an integer >= 0",
                                   "$." + k, id="%s-%s-%r" % (op, k, value))
    yield pytest.param({"op": "lemma"}, "unknown derivation op 'lemma'", "$.op", id="lemma")
    yield pytest.param({"op": ["gen"]}, "unknown derivation op ['gen']", "$.op", id="list")
    yield pytest.param({"index": 0}, "missing key 'op'", "$", id="no-op")


@pytest.mark.parametrize("doc, message, path", list(_step_errors()))
def test_step_decode_errors(ctx1, doc, message, path):
    with pytest.raises(ParseError) as err:
        jsonio.dec_step(doc, ctx1, "$")
    assert str(err.value) == "%s (at %s)" % (message, path)


def test_decoded_rationals_are_canonical():
    """Integral values decode to ints, others to Fractions with denominator > 1,
    and encode back to the same text."""
    for s, want in [(3, "3"), (-2, "-2"), ("4/2", "2"), ("-6/3", "-2"), ("0/5", "0"),
                    ("3/6", "1/2"), ("-7/4", "-7/4")]:
        x = jsonio.dec_frac(s, "$")
        assert type(x) is (int if "/" not in want else Fraction), s
        assert jsonio.enc_frac(x) == want


def test_malformed_rational_position():
    with pytest.raises(ParseError) as err:
        jsonio.dec_vec(["1", "1/0"], "$.x")
    assert "$.x[1]" in str(err.value)


@pytest.mark.parametrize("value", ["false", "true", [], [0], 0, 1, None])
def test_finite_basis_is_a_json_boolean(fixtures_dir, value):
    """Only true or false declare or deny a finite tropical basis; "false"
    once declared one, as any non-empty string or list did."""
    doc = json.loads((fixtures_dir / "radical_roundtrip" / "E.json").read_text())
    ctx = jsonio.context_of_document(doc)
    for flag in (True, False):
        doc["finite_basis"] = flag
        assert jsonio.dec_congruence(doc, ctx).finite_tropical_basis is flag
    doc["finite_basis"] = value
    with pytest.raises(ParseError) as err:
        jsonio.dec_congruence(doc, ctx)
    assert err.value.path == "$.finite_basis"


def test_max_dim_cap():
    doc = {"rank": 9, "sigma_rays": [], "coeff": "T"}
    with pytest.raises(ParseError):
        jsonio.dec_context(doc, max_dim=6)


# ---------------------------------------------------------------------------
# CLI runs on the fixtures

def test_cli_member_boolean_cubic(capsys, fixtures_dir):
    base = fixtures_dir / "boolean_cubic"
    for name in ("C1", "C2", "C3", "C4"):
        code, out, _ = run_cli(capsys, "member",
                               "--matrix", str(base / ("%s.json" % name)),
                               "--pair", str(base / "gen_pair.json"))
        assert code == 0, name
        assert json.loads(out)["member"] is True


def test_cli_kernel(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "kernel",
                           "--matrix", str(fixtures_dir / "quartic_bend" / "Q.json"))
    assert code == 0 and json.loads(out)["trivial"] is True
    code, out, _ = run_cli(capsys, "kernel",
                           "--matrix", str(fixtures_dir / "quartic_bend" / "P.json"))
    assert code == 1 and json.loads(out)["trivial"] is False


def test_cli_member_false_exit(capsys, fixtures_dir):
    base = fixtures_dir / "radical_roundtrip"
    code, out, _ = run_cli(capsys, "member",
                           "--matrix", str(base / "theta.json"),
                           "--pair", str(base / "pair_x_1.json"))
    assert code == 1 and json.loads(out)["member"] is False


def test_cli_closure_witness(capsys, fixtures_dir):
    base = fixtures_dir / "closure"
    code, out, _ = run_cli(capsys, "closure",
                           "--polyhedron", str(base / "cell_L.json"),
                           "--fan", str(base / "sigma_fan.json"),
                           "--point", str(base / "deep_point.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["w_hat"] == ["0", "-1"] and doc["v"] == ["-1", "-1"]


def test_cli_closure_negative(capsys, fixtures_dir):
    base = fixtures_dir / "closure"
    code, out, _ = run_cli(capsys, "closure",
                           "--polyhedron", str(base / "neg_claim3_L.json"),
                           "--fan", str(base / "sigma_fan.json"),
                           "--point", str(base / "neg_claim3_point.json"))
    assert code == 1
    assert json.loads(out)["failed_claims"] == ["claim3-direction"]


def test_cli_closure_strict_polyhedron(capsys, fixtures_dir, tmp_path):
    # cell_L with its inequality strict: {x = y + 1, y < 0} has the same closure
    base = fixtures_dir / "closure"
    doc = json.loads((base / "cell_L.json").read_text())
    doc["rows"][0]["rel"] = "<"
    strict = tmp_path / "strict_L.json"
    strict.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "closure",
                             "--polyhedron", str(strict),
                             "--fan", str(base / "sigma_fan.json"),
                             "--point", str(base / "deep_point.json"))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["w_hat"] == ["0", "-1"] and doc["v"] == ["-1", "-1"]


def test_cli_closure_checks_sizes_before_decoding_the_fan(capsys, fixtures_dir, tmp_path,
                                                          monkeypatch):
    # a fan in R^3 against a rank-2 context is refused on its "dim", before
    # any of its cones is decoded from its rays
    decoded = []
    hrep_from_rays = jsonio.hrep_from_rays

    def counted(rays, dim):
        decoded.append(dim)
        return hrep_from_rays(rays, dim)
    monkeypatch.setattr(jsonio, "hrep_from_rays", counted)
    fan = tmp_path / "fan.json"
    unit_rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    fan.write_text(json.dumps({"dim": 3, "cones": [{"rays": unit_rays}]}))
    base = fixtures_dir / "closure"
    code, out, err = run_cli(capsys, "closure", "--polyhedron", str(base / "cell_L.json"),
                             "--fan", str(fan), "--point", str(base / "deep_point.json"))
    assert (code, out) == (2, "")
    assert "dimension 3, expected 2" in err and decoded == []


@pytest.mark.parametrize("cone, code, err", [
    # the point's stratum is sigma, which the one ray is not
    ({"rays": [[-1, 0]]}, 3, "precondition violated: tau is not a face of any fan member\n"),
    ({"dim": 2, "rows": [{"a": ["1", "0"], "b": "1", "rel": "<="}]}, 2,
     "parse error: cone rows must be homogeneous (at %s.cones[0])\n"),
], ids=["tau-off-the-fan", "inhomogeneous-cone"])
def test_cli_closure_refuses_a_bad_fan(capsys, fixtures_dir, tmp_path, cone, code, err):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"dim": 2, "cones": [cone]}))
    base = fixtures_dir / "closure"
    got = run_cli(capsys, "closure", "--polyhedron", str(base / "neg_claim3_L.json"),
                  "--fan", str(fan), "--point", str(base / "neg_claim3_point.json"))
    assert got == (code, "", err.replace("%s", str(fan)))


@pytest.mark.parametrize("polyhedron, point", [
    ("cell_L.json", "deep_point.json"),
    ("neg_claim1_L.json", "neg_claim1_point.json"),
    ("neg_claim3_L.json", "neg_claim3_point.json"),
])
def test_cli_closure_on_sigma_alone_prints_the_same(capsys, fixtures_dir, tmp_path,
                                                    polyhedron, point):
    # the fixture fan lists sigma and its three proper faces; sigma alone implies them
    base = fixtures_dir / "closure"
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps({"dim": 2, "cones": [{"rays": [[-1, 0], [0, -1]]}]}))
    runs = [run_cli(capsys, "closure", "--polyhedron", str(base / polyhedron),
                    "--fan", str(fan), "--point", str(base / point))
            for fan in (base / "sigma_fan.json", sigma)]
    assert runs[0] == runs[1] and runs[0][1]


def test_dec_fan_keeps_its_cones_and_lists_no_faces():
    # the cone over 10 points of the moment curve in R^6 has 304 faces, and
    # listing them takes a generator enumeration per face; decoding takes one
    # per distinct cone and one per H-representation dual, 2 * 2 in all
    orthant = [[-int(i == j) for j in range(6)] for i in range(6)]
    cyclic = [[-t ** k for k in range(6)] for t in range(1, 11)]
    doc = {"dim": 6, "cones": [{"rays": orthant}, {"rays": cyclic}, {"rays": orthant}]}
    polyhedra.cone_generators.cache_clear()  # the cache is process-wide
    fan = jsonio.dec_fan(doc)
    assert polyhedra.cone_generators.cache_info().misses <= 2 * 2
    assert sorted(len(polyhedra.generators(c)) for c in fan.cones) == [6, 10]


def test_cli_radical_search_and_verify(capsys, fixtures_dir, tmp_path):
    base = fixtures_dir / "radical_roundtrip"
    code, out, _ = run_cli(capsys, "radical-search",
                           "--cong", str(base / "E.json"),
                           "--pair", str(base / "pair_x_1.json"),
                           "--max-i", "4", "--max-deg", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["certificate"]["exponent"] <= 1
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc["certificate"]))
    code, out, _ = run_cli(capsys, "verify",
                           "--cong", str(base / "E.json"),
                           "--pair", str(base / "pair_x_1.json"),
                           "--certificate", str(cert_path))
    assert code == 0 and json.loads(out)["verified"] is True


def test_cli_verify_derivation(capsys, fixtures_dir, tmp_path):
    # E = <(x^2, 1)>: the generator times x derives (x^3, x), and not (x, 1)
    base = fixtures_dir / "radical_roundtrip"
    doc = json.loads((base / "E.json").read_text())
    ctx = jsonio.context_of_document(doc)
    x, x3 = parse_poly(ctx, "x"), parse_poly(ctx, "x^3")
    deriv = tmp_path / "d.json"
    deriv.write_text(jsonio.dumps(jsonio.enc_derivation(
        Derivation((Generator(0), MulMono(0, x))))))
    pair = tmp_path / "pair.json"
    pair.write_text(jsonio.dumps({"context": doc["context"], "lhs": jsonio.enc_poly(x3),
                                  "rhs": jsonio.enc_poly(x)}))
    for target, want in ((pair, True), (base / "pair_x_1.json", False)):
        code, out, err = run_cli(capsys, "verify", "--cong", str(base / "E.json"),
                                 "--pair", str(target), "--derivation", str(deriv))
        assert (code, err) == (0 if want else 1, "")
        assert json.loads(out) == {"format": "tropcong/1", "kind": "derivation",
                                   "verified": want}


def test_cli_verify_without_a_proof_exit_3(capsys, fixtures_dir):
    base = fixtures_dir / "radical_roundtrip"
    code, out, err = run_cli(capsys, "verify", "--cong", str(base / "E.json"),
                             "--pair", str(base / "pair_x_1.json"))
    assert (code, out) == (3, "")
    assert err == "precondition violated: verify needs --derivation or --certificate\n"


def test_cli_verify_derivation_and_certificate_exit_2(capsys, fixtures_dir, tmp_path):
    # the certificate alone verifies; given with a derivation it was once ignored
    # exponent 0 and cofactor x ask for (x^2 + x, x + 1) in <(x^2, 1)>: the
    # generator, times 1, plus x on both sides
    base = fixtures_dir / "radical_roundtrip"
    ctx = jsonio.context_of_document(json.loads((base / "E.json").read_text()))
    x, one = parse_poly(ctx, "x"), parse_poly(ctx, "1")
    cert = tmp_path / "c.json"
    cert.write_text(jsonio.dumps(jsonio.enc_certificate(RadicalCertificate(
        0, x, Derivation((Generator(0), MulMono(0, one), AddBoth(1, x)))))))
    args = ["verify", "--cong", str(base / "E.json"), "--pair", str(base / "pair_x_1.json"),
            "--certificate", str(cert)]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["verified"] is True
    deriv = tmp_path / "d.json"
    deriv.write_text(jsonio.dumps({"steps": []}))
    with pytest.raises(SystemExit) as exc:
        main(args + ["--derivation", str(deriv)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


def test_cli_radical_search_and_verify_on_a_prime(capsys, fixtures_dir, tmp_path):
    # the certificate found on a prime has no derivation; verify reads the
    # matrix as radical-search does and accepts it
    base = fixtures_dir / "radical_roundtrip"
    doc = json.loads((base / "pair_x_1.json").read_text())
    ctx = jsonio.context_of_document(doc)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(dict(doc, lhs=jsonio.enc_poly(parse_poly(ctx, "1 + x")))))
    code, out, _ = run_cli(capsys, "radical-search", "--cong", str(base / "theta.json"),
                           "--pair", str(pair))
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert == {"exponent": 0, "cofactor": {"terms": []}, "derivation": None}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    for target, want in ((pair, 0), (base / "pair_x_1.json", 1)):
        code, out, err = run_cli(capsys, "verify", "--cong", str(base / "theta.json"),
                                 "--pair", str(target), "--certificate", str(cert_path))
        assert (code, err) == (want, "")
        assert json.loads(out) == {"format": "tropcong/1", "kind": "certificate",
                                   "verified": want == 0}


def test_cli_verify_derivation_against_a_matrix_exit_3(capsys, fixtures_dir, tmp_path):
    base = fixtures_dir / "radical_roundtrip"
    deriv = tmp_path / "d.json"
    deriv.write_text(jsonio.dumps({"steps": [{"op": "gen", "index": 0}]}))
    code, out, err = run_cli(capsys, "verify", "--cong", str(base / "theta.json"),
                             "--pair", str(base / "pair_x_1.json"), "--derivation", str(deriv))
    assert (code, out) == (3, "")
    assert err == ("precondition violated: "
                   "a derivation needs a presentation, not a prime matrix\n")


def test_cli_verify_a_large_exponent(capsys, fixtures_dir, tmp_path):
    # exponent 10^6 of the certificate for (x, 1) in <(x^2, 1)>: (x+1)^i has
    # i + 1 terms, more than either side of the derived pair, so the answer is
    # false without building the power (at 3200 it once took 10 s)
    base = fixtures_dir / "radical_roundtrip"
    ctx = jsonio.context_of_document(json.loads((base / "E.json").read_text()))
    x, one = parse_poly(ctx, "x"), parse_poly(ctx, "1")
    cert = tmp_path / "c.json"
    for exponent, want in ((0, 0), (10 ** 6, 1)):
        cert.write_text(jsonio.dumps(jsonio.enc_certificate(RadicalCertificate(
            exponent, x, Derivation((Generator(0), MulMono(0, one), AddBoth(1, x)))))))
        code, out, err = run_cli(capsys, "verify", "--cong", str(base / "E.json"),
                                 "--pair", str(base / "pair_x_1.json"),
                                 "--certificate", str(cert))
        assert (code, err) == (want, "")
        assert json.loads(out)["verified"] is (want == 0)


def test_cli_radical_search_notfound(capsys, fixtures_dir):
    base = fixtures_dir / "radical_roundtrip"
    code, out, _ = run_cli(capsys, "radical-search",
                           "--cong", str(base / "theta.json"),
                           "--pair", str(base / "pair_x_1.json"))
    assert code == 1 and json.loads(out)["found"] is False


def test_cli_resolve(capsys, fixtures_dir):
    base = fixtures_dir / "quartic_bend"
    code, out, _ = run_cli(capsys, "resolve",
                           "--cong", str(base / "E.json"),
                           "--prime", str(base / "P.json"),
                           "--samples", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["resolved"] is True
    # the whole resolution, pinned: matrix, direction and witnesses
    assert doc["matrix"]["matrix"] == [["0", "-1", "-1"], ["1", "-1", "0"]]
    assert doc["v"] == ["0", "-1", "-1"]
    assert doc["v_hats"] == doc["w_hats"] == [["1", "-1", "0"]]
    assert doc["b"] == []


def test_cli_resolve_refuses_a_dense_prime_without_E(capsys, fixtures_dir, tmp_path):
    # a dense prime has trivial ideal-kernel, but this one does not contain E
    base = fixtures_dir / "quartic_bend"
    doc = json.loads((base / "P.json").read_text())
    doc["matrix"] = [["0", "1", "5"]]
    prime = tmp_path / "P.json"
    prime.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "resolve", "--cong", str(base / "E.json"),
                             "--prime", str(prime))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"format": "tropcong/1", "resolved": False,
                               "reason": "not_contained",
                               "detail": "E is not contained in P"}


def test_cli_radical_member(capsys, fixtures_dir):
    base = fixtures_dir / "radical_roundtrip"
    code, out, _ = run_cli(capsys, "radical-member",
                           "--cong", str(base / "E.json"),
                           "--pair", str(base / "pair_x_1.json"),
                           "--finite-basis")
    assert code == 0 and json.loads(out)["radical_member"] is True


def test_cli_variety_and_hypersurface(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "hypersurface",
                           "--poly", str(fixtures_dir / "three_quadrics" / "f_1.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "tropcong/1" and doc["strata"]
    code, out2, _ = run_cli(capsys, "variety",
                            "--cong", str(fixtures_dir / "quartic_bend" / "E.json"))
    assert code == 0


def test_cli_flag_check(capsys, fixtures_dir, tmp_path):
    flag_doc = {"format": "tropcong/1", "ambient_dim": 3,
                "tau_rays": [[-1, 0], [0, -1]], "cones": [{"rays": [[1, 0, 0]]}]}
    p = tmp_path / "flag.json"
    p.write_text(json.dumps(flag_doc))
    code, out, _ = run_cli(capsys, "flag-check", "--flag", str(p),
                           "--cong", str(fixtures_dir / "quartic_bend" / "E.json"))
    assert code == 0 and json.loads(out)["in_variety"] is True


def test_cli_flag_check_rejects_a_flag_with_no_cone(capsys, fixtures_dir, tmp_path):
    # flag_to_matrix refuses such a flag, so it cannot be a valid one
    p = tmp_path / "flag.json"
    p.write_text(json.dumps({"format": "tropcong/1", "ambient_dim": 3,
                             "tau_rays": [], "cones": []}))
    code, out, _ = run_cli(capsys, "flag-check", "--flag", str(p),
                           "--cong", str(fixtures_dir / "quartic_bend" / "E.json"))
    assert code == 1
    assert json.loads(out) == {"format": "tropcong/1", "valid": False,
                               "violations": ["cones: the flag has no cone"]}


def test_cli_cancel_check(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "cancel-check",
                           "--cong", str(fixtures_dir / "quartic_bend" / "E.json"),
                           "--trials", "20")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_cli_cancel_check_on_a_support_with_no_cell_exit_3(tmp_path):
    # (0, 1), bottom against the unit, agrees nowhere on affine(1), so no
    # random g is non-bottom on the support; the harness once drew g forever.
    # A subprocess with a timeout turns a hang into a failure.
    from tropcong.congruence import CongruencePresentation
    from tropcong.trop_core import ToricContext
    ctx = ToricContext.affine(1)
    E = CongruencePresentation.make(ctx, [(parse_poly(ctx, "0"), parse_poly(ctx, "1"))], True)
    cong = tmp_path / "E.json"
    cong.write_text(json.dumps(dict(enc_congruence(E), format="tropcong/1")))
    proc = subprocess.run([sys.executable, "-m", "tropcong.cli", "cancel-check",
                           "--cong", str(cong)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("precondition violated") and proc.stderr.count("\n") == 1


def test_cli_eval_and_bend(capsys, fixtures_dir, tmp_path):
    base = fixtures_dir / "quartic_bend"
    point = {"format": "tropcong/1",
             "context": json.loads((base / "f.json").read_text())["context"],
             "r": "1", "tau_rays": [], "x": ["0", "-1"]}
    p = tmp_path / "w.json"
    p.write_text(json.dumps(point))
    code, out, _ = run_cli(capsys, "eval", "--poly", str(base / "f.json"),
                           "--point", str(p))
    assert code == 0 and json.loads(out)["value"] == "0"
    code, out, _ = run_cli(capsys, "bend", "--poly", str(base / "f.json"))
    assert code == 0 and len(json.loads(out)["pairs"]) == 4


def test_cli_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"context": {"rank": 1, "sigma_rays": [[-1]], "coeff": "T"}, '
                   '"terms": [{"coeff": "1/0", "exp": [1]}]}')
    point = tmp_path / "w.json"
    point.write_text('{"context": {"rank": 1, "sigma_rays": [[-1]], "coeff": "T"}, '
                     '"r": "1", "tau_rays": [], "x": ["0"]}')
    code, out, err = run_cli(capsys, "eval", "--poly", str(bad), "--point", str(point))
    assert code == 2
    assert "coeff" in err and "1/0" in err


def test_cli_precondition_exit_3(capsys, fixtures_dir):
    # radical-member without the finite-basis flag on an undeclared congruence
    base = fixtures_dir / "radical_roundtrip"
    import json as _json
    doc = _json.loads((base / "E.json").read_text())
    doc["finite_basis"] = False
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(_json.dumps(doc))
        name = fh.name
    try:
        code, out, err = run_cli(capsys, "radical-member", "--cong", name,
                                 "--pair", str(base / "pair_x_1.json"))
        assert code == 3
    finally:
        os.unlink(name)


def test_cli_malformed_max_dim_exit_3(capsys, fixtures_dir, monkeypatch):
    """A cap that is not an integer, or is below 1, is a bad setting, not a
    parse error in a valid input."""
    for cap in ("six", "0", "-2"):
        monkeypatch.setenv("TROPCONG_MAX_DIM", cap)
        code, out, err = run_cli(capsys, "kernel",
                                 "--matrix", str(fixtures_dir / "quartic_bend" / "Q.json"))
        assert code == 3
        assert out == ""
        assert err.startswith("precondition violated: TROPCONG_MAX_DIM")


@pytest.mark.parametrize("tag, want", [("other/9", 2), ("tropcong/1", 0), (None, 0)])
def test_cli_format_tag(capsys, fixtures_dir, tmp_path, tag, want):
    """A document naming another format is a parse error at .format; one
    without a tag is read as tropcong/1."""
    doc = json.loads((fixtures_dir / "quartic_bend" / "Q.json").read_text())
    if tag is None:
        del doc["format"]
    else:
        doc["format"] = tag
    path = tmp_path / "Q.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "kernel", "--matrix", str(path))
    assert code == want
    if want == 2:
        assert out == ""
        assert err == "parse error: format 'other/9', expected 'tropcong/1' (at %s.format)\n" % path
    else:
        assert json.loads(out)["trivial"] is True


def test_cli_internal_consistency_exit_4(capsys, fixtures_dir, monkeypatch):
    from tropcong import variety

    def disagree(*args, **kwargs):
        raise variety.InternalConsistencyError("cell index disagrees at (1, 0, 0)")

    monkeypatch.setattr(variety, "variety_of_basis", disagree)
    code, out, err = run_cli(capsys, "variety",
                             "--cong", str(fixtures_dir / "quartic_bend" / "E.json"))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "internal consistency error" in err


def test_cli_internal_consistency_exit_4_in_light_subcommand(capsys, fixtures_dir,
                                                            monkeypatch):
    """kernel imports no variety, yet an InternalConsistencyError it raises is
    still reported as one, with exit 4."""
    from tropcong import variety

    def disagree(*args, **kwargs):
        raise variety.InternalConsistencyError("cell index disagrees at (1, 0, 0)")

    monkeypatch.setattr(jsonio, "dec_matrix", disagree)
    code, out, err = run_cli(capsys, "kernel",
                             "--matrix", str(fixtures_dir / "quartic_bend" / "Q.json"))
    assert code == 4
    assert out == ""
    assert err == "internal consistency error: cell index disagrees at (1, 0, 0)\n"


@pytest.mark.parametrize("exc", [
    RecursionError("maximum recursion depth exceeded"),
    AssertionError(),
    TypeError("'<' not supported between\ninstances of 'str' and 'int'"),
    CoverBudgetExceeded("region difference exceeds 10000 nodes"),
])
def test_cli_unexpected_exception_exit_4(capsys, fixtures_dir, monkeypatch, exc):
    """A bug in a subcommand exits 4 with one stderr line, never 1 ("false")."""
    from tropcong import cli

    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "cmd_kernel", crash)
    code, out, err = run_cli(capsys, "kernel",
                             "--matrix", str(fixtures_dir / "quartic_bend" / "Q.json"))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("internal error: %s(" % type(exc).__name__)


@pytest.mark.parametrize("argv", [
    ("eval", "--poly", "quartic_bend/f.json", "--point", "three_quadrics/witness_point.json"),
    ("prime-eval", "--matrix", "quartic_bend/Q.json", "--poly", "three_quadrics/f_1.json"),
    ("member", "--matrix", "quartic_bend/Q.json", "--pair", "boolean_cubic/gen_pair.json"),
    ("radical-member", "--cong", "radical_roundtrip/E.json",
     "--pair", "quartic_bend/bend_pair_0.json", "--finite-basis"),
    # the certificate is never read: contexts are compared first
    ("verify", "--cong", "quartic_bend/E.json", "--pair", "radical_roundtrip/pair_x_1.json",
     "--certificate", "no_such_certificate.json"),
    ("radical-search", "--cong", "radical_roundtrip/theta.json",
     "--pair", "quartic_bend/bend_pair_0.json"),
    ("resolve", "--cong", "quartic_bend/E.json", "--prime", "boolean_cubic/P.json"),
], ids=lambda argv: argv[0])
def test_cli_context_mismatch_exit_3(capsys, fixtures_dir, argv):
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "precondition violated: input files use different contexts\n"


def test_cli_prime_eval_across_spellings_of_one_cone(capsys, fixtures_dir, tmp_path):
    # a context is its cone: a redundant, scaled spelling of sigma in one
    # input is the context of the other
    base = fixtures_dir / "quartic_bend"
    doc = json.loads((base / "f.json").read_text())
    doc["context"]["sigma_rays"] = [[0, -2], [-1, -1], [-1, 0]]
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "prime-eval", "--matrix", str(base / "Q.json"),
                             "--poly", str(poly))
    assert code == 0, err
    ctx = ToricContext.affine(2)
    theta = jsonio.dec_matrix(json.loads((base / "Q.json").read_text()), ctx)
    phi = prime_eval(theta, jsonio.dec_poly(doc, ctx))
    assert json.loads(out) == {"format": "tropcong/1", "phi": [
        "-inf" if x is None else jsonio.enc_frac(x) for x in phi]}


def test_cli_resolve_ignores_a_redundant_row(capsys, fixtures_dir, tmp_path):
    # a row in the span of the rows before it breaks no lex tie: same prime
    base = fixtures_dir / "quartic_bend"
    doc = json.loads((base / "P.json").read_text())
    doc["matrix"].append(["2", "-inf", "-inf"])
    redundant = tmp_path / "P.json"
    redundant.write_text(json.dumps(doc))
    outs = []
    for prime in (base / "P.json", redundant):
        code, out, _ = run_cli(capsys, "resolve", "--cong", str(base / "E.json"),
                               "--prime", str(prime), "--samples", "50")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_determinism(capsys, fixtures_dir):
    args = ("resolve", "--cong", str(fixtures_dir / "quartic_bend" / "E.json"),
            "--prime", str(fixtures_dir / "quartic_bend" / "P.json"), "--samples", "20")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_console_script_subprocess(fixtures_dir):
    base = fixtures_dir / "quartic_bend"
    proc = subprocess.run(
        [sys.executable, "-m", "tropcong.cli", "kernel", "--matrix", str(base / "Q.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trivial"] is True


def test_cli_variety_stratum_filter(capsys, fixtures_dir, tmp_path):
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"tau_rays": [[-1, 0], [0, -1]]}))
    code, out, _ = run_cli(capsys, "variety",
                           "--cong", str(fixtures_dir / "quartic_bend" / "E.json"),
                           "--stratum", str(tau))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["strata"]) == 1
    assert doc["strata"][0]["tau_rays"] == [[-1, 0], [0, -1]]
    assert len(doc["strata"][0]["cells"]) == 1


# ---------------------------------------------------------------------------
# a field that must be a list and is not is a parse error, never a traceback

def _put(value, *keys):
    def edit(doc):
        inner = doc
        for k in keys[:-1]:
            inner = inner[k]
        inner[keys[-1]] = value
        return doc
    return edit


_E = "quartic_bend/E.json"
_CLOSURE = ("closure", "--polyhedron", "closure/cell_L.json", "--fan", "closure/sigma_fan.json",
            "--point", "closure/deep_point.json")


@pytest.mark.parametrize("argv, target, edit", [
    (("kernel", "--matrix", "quartic_bend/Q.json"), "quartic_bend/Q.json",
     _put(5, "context", "sigma_rays")),
    (("variety", "--cong", _E), _E, _put(5, "pairs")),
    (("hypersurface", "--poly", "quartic_bend/f.json"), "quartic_bend/f.json", _put(5, "terms")),
    (("variety", "--cong", _E, "--stratum", "tau"), "tau", _put(5, "tau_rays")),
    (("variety", "--cong", _E, "--stratum", "tau"), "tau", lambda d: [[-1, 0]]),
    (_CLOSURE, "closure/deep_point.json", _put(5, "tau_rays")),
    (_CLOSURE, "closure/sigma_fan.json", _put(5, "cones")),
    (_CLOSURE, "closure/sigma_fan.json", _put(5, "cones", 1, "rays")),
    (_CLOSURE, "closure/cell_L.json", _put(5, "rows")),
    (("kernel", "--matrix", "quartic_bend/P.json"), "quartic_bend/P.json", _put(5, "matrix")),
    (("kernel", "--matrix", "quartic_bend/P.json"), "quartic_bend/P.json",
     _put(5, "matrix", 0)),
    (("flag-check", "--flag", "flag", "--cong", _E), "flag", _put(5, "cones")),
    (("flag-check", "--flag", "flag", "--cong", _E), "flag", lambda d: {"cones": [{"rays": 5}]}),
    (("verify", "--cong", "radical_roundtrip/E.json", "--pair", "radical_roundtrip/pair_x_1.json",
      "--derivation", "derivation"), "derivation", _put(5, "steps")),
])
def test_cli_non_list_field_exit_2(capsys, fixtures_dir, tmp_path, argv, target, edit):
    _assert_parse_error(capsys, fixtures_dir, tmp_path, argv, target, edit)


_VERIFY = ("verify", "--cong", "radical_roundtrip/E.json",
           "--pair", "radical_roundtrip/pair_x_1.json", "--derivation", "derivation")
_FLAG_CHECK = ("flag-check", "--flag", "flag", "--cong", _E)
_RANK2 = {"rank": 2, "sigma_rays": [[-1, 0], [0, -1]]}


# ---------------------------------------------------------------------------
# a vector sized for another rank or dim, or a step index that is not a
# non-negative integer, is a parse error, never a wrong boolean

@pytest.mark.parametrize("argv, target, edit", [
    (("variety", "--cong", _E), _E, _put([1, 2, 3], "pairs", 0, "lhs", "terms", 0, "exp")),
    (("eval", "--poly", "quartic_bend/f.json", "--point", "point"), "point",
     lambda d: {"context": _RANK2, "r": "0", "x": ["1", "2", "3"]}),
    (_CLOSURE, "closure/sigma_fan.json", _put([[1, 0, 0]], "cones", 1, "rays")),
    (_CLOSURE, "closure/sigma_fan.json",
     lambda d: {"dim": 3, "cones": [{"rays": [[-1, 0, 0]]}]}),
    (_CLOSURE, "closure/cell_L.json",
     lambda d: {"dim": 3, "rows": [{"a": ["1", "0", "0"], "b": "0", "rel": "<="}]}),
    (_CLOSURE, "closure/deep_point.json", _put(["0", "0", "0"], "x")),
    (_CLOSURE, "closure/deep_point.json", _put([[-1, 0, 0]], "tau_rays")),
    (("variety", "--cong", _E, "--stratum", "tau"), "tau",
     lambda d: {"tau_rays": [[-1, 0, 0]]}),
    (("kernel", "--matrix", "matrix"), "matrix",
     lambda d: {"context": _RANK2, "rows": [{"r": "1", "x": ["0", "0", "0"]}]}),
    (_FLAG_CHECK, "flag", lambda d: {"ambient_dim": 3, "cones": [{"rays": [[1, 0]]}]}),
    (_FLAG_CHECK, "flag", lambda d: {"ambient_dim": 3, "tau_rays": [[-1, 0, 0]],
                                     "cones": [{"rays": [[1, 0, 0]]}]}),
    (_FLAG_CHECK, "flag", lambda d: {"ambient_dim": 4, "cones": [{"rays": [[1, 0, 0, 0]]}]}),
    (_FLAG_CHECK, "flag", lambda d: {"ambient_dim": "3", "cones": [{"rays": [[1, 0, 0]]}]}),
    (_VERIFY, "derivation", lambda d: {"steps": [{"op": "gen", "index": "x"}]}),
    (_VERIFY, "derivation", lambda d: {"steps": [{"op": "gen", "index": True}]}),
    (_VERIFY, "derivation", lambda d: {"steps": [{"op": "gen", "index": 0},
                                                 {"op": "trans", "i": 0, "j": -1}]}),
    (("bend", "--poly", "quartic_bend/f.json"), "quartic_bend/f.json",
     _put([True, False], "terms", 0, "exp")),
    (("radical-member", "--cong", "radical_roundtrip/E.json",
      "--pair", "radical_roundtrip/pair_x_1.json"), "radical_roundtrip/E.json",
     _put("false", "finite_basis")),
    (("kernel", "--matrix", "quartic_bend/Q.json"), "quartic_bend/Q.json",
     _put({"sigma_rays": [[-1, 0], [0, -1]]}, "context")),  # no rank
    (("kernel", "--matrix", "quartic_bend/Q.json"), "quartic_bend/Q.json",
     lambda d: json.dumps(d)[:-1]),  # not JSON
] + [
    # each derivation op without its last field
    (_VERIFY, "derivation", lambda d, doc=doc: {"steps": [dict(list(doc.items())[:-1])]})
    for doc, _ in STEP_DOCS
])
def test_cli_malformed_field_exit_2(capsys, fixtures_dir, tmp_path, argv, target, edit):
    _assert_parse_error(capsys, fixtures_dir, tmp_path, argv, target, edit)


def _assert_parse_error(capsys, fixtures_dir, tmp_path, argv, target, edit):
    source = fixtures_dir / target
    doc = edit(json.loads(source.read_text()) if source.exists() else {})
    bad = tmp_path / "bad.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    args = [str(bad) if a == target else str(fixtures_dir / a) if "/" in a else a
            for a in argv]
    code, out, err = run_cli(capsys, *args)
    assert code == 2, err
    assert out == ""
    assert err.startswith("parse error") and "Traceback" not in err


# ---------------------------------------------------------------------------
# a count option below its least value is a usage error, never a vacuous result

@pytest.mark.parametrize("argv", [
    ("cancel-check", "--cong", _E, "--trials", "-5"),
    ("cancel-check", "--cong", _E, "--max-deg", "-1"),
    ("resolve", "--cong", _E, "--prime", "quartic_bend/P.json", "--samples", "-3"),
    ("resolve", "--cong", _E, "--prime", "quartic_bend/P.json", "--sample-degree", "-1"),
    ("radical-search", "--cong", "radical_roundtrip/E.json",
     "--pair", "radical_roundtrip/pair_x_1.json", "--max-i", "-1"),
    ("radical-search", "--cong", "radical_roundtrip/E.json",
     "--pair", "radical_roundtrip/pair_x_1.json", "--max-deg", "-1"),
], ids=["trials", "cancel-max-deg", "samples", "sample-degree", "max-i", "search-max-deg"])
def test_cli_count_out_of_range_exit_2(capsys, fixtures_dir, argv):
    # these once gave a vacuous result (a check over no trials, no samples
    # or no certificates) or an exit 3 from an empty random range
    args = [str(fixtures_dir / a) if "/" in a else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "expected an integer >=" in out.err


# ---------------------------------------------------------------------------
# the benchmark's CLI jobs, in process, against its pinned stdout

def test_cli_jobs_match_the_bench_goldens(capsys, monkeypatch, fixtures_dir):
    # every job of bench/workloads.CLI_JOBS at seed 0, run from the repository
    # root as the benchmark runs it, gives the exit code and the stdout that
    # bench/goldens/cli_fixtures.json pins byte for byte
    root = fixtures_dir.parent
    monkeypatch.syspath_prepend(str(root / "bench"))
    monkeypatch.chdir(root)
    from workloads import CLI_JOBS, cli_argv, cli_goldens
    goldens = cli_goldens()
    assert sorted(goldens) == sorted(job[0] for job in CLI_JOBS)
    differ = []
    for job in CLI_JOBS:
        code, out, _ = run_cli(capsys, *cli_argv(job, 0))
        want = goldens[job[0]]
        if (code, out) != (want["exit"], want["stdout"]):
            differ.append(job[0])
    assert not differ, differ
