"""tropcong command-line front end.

Results go to stdout as JSON (format tag "tropcong/1"), diagnostics to stderr.
Exit codes: 0/1 encode boolean results, 2 means a parse error, 3 a violated
precondition, 4 an internal failure: a cell index disagreeing with pointwise
evaluation, or any other unexpected exception (RecursionError, AssertionError,
TypeError, ...), each a bug reported in one stderr line without a traceback,
so no crash ever reads as "false".  TROPCONG_MAX_DIM caps the ambient
dimension (default 6); a value that is not an integer >= 1 is a violated
precondition.

`radical-search` and `verify` read --cong as a presentation, or as a prime
matrix without "pairs", where each is one Phi check and exit 1 is a theorem;
on a presentation, exit 1 of `radical-search` means only "none within bounds".

Every input that carries a context is read by one loader, `_inputs`, which
applies the rank cap and checks that all contexts are equal before decoding
any input; documents without one (polyhedra, fans, flags, ...) come after.

Only the standard library is imported at module top: each handler imports the
layers it uses, so a job loads (and, without cached bytecode, compiles) no
more of the library than its subcommand reaches.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class PreconditionError(ValueError):
    pass


def _max_dim() -> int:
    raw = os.environ.get("TROPCONG_MAX_DIM", "6")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # reported below, like any other cap below 1
    if cap < 1:
        raise PreconditionError("TROPCONG_MAX_DIM must be an integer >= 1, got %r" % (raw,))
    return cap


def _load(path: str):
    from . import jsonio
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError("cannot read %s: %s" % (path, exc))
    return jsonio.load_document(text, path_label=path)


def _inputs(max_dim, *inputs):
    """Read each (path, decoder) input, check that all of them carry one context
    under the rank cap before any is decoded, and return (context, value, ...)."""
    from . import jsonio
    docs = [(_load(path), path, decode) for path, decode in inputs]
    ctxs = [jsonio.context_of_document(doc, path=path, max_dim=max_dim)
            for doc, path, _ in docs]
    ctx = ctxs[0]
    if any(c != ctx for c in ctxs[1:]):
        raise PreconditionError("input files use different contexts")
    return (ctx,) + tuple(decode(doc, ctx, path) for doc, path, decode in docs)


def _same_dim(dim, want, label):
    """A document sized for another rank is malformed input, not a precondition."""
    from .jsonio import ParseError
    if dim != want:
        raise ParseError("dimension %d, expected %d" % (dim, want), label)


def _emit(payload: dict):
    from . import jsonio
    sys.stdout.write(jsonio.dumps(payload) + "\n")


def _bool_exit(value: bool) -> int:
    return EXIT_TRUE if value else EXIT_FALSE


# --- subcommand handlers -----------------------------------------------------


def cmd_eval(args, max_dim):
    from . import jsonio
    _, f, w = _inputs(max_dim, (args.poly, jsonio.dec_poly),
                      (args.point, jsonio.dec_ext_point))
    val = f.evaluate(w)
    _emit({"value": jsonio.enc_extfrac(val)})
    return EXIT_TRUE


def cmd_bend(args, max_dim):
    from . import jsonio
    from .trop_core import bend_relations
    _, f = _inputs(max_dim, (args.poly, jsonio.dec_poly))
    pairs = bend_relations(f)
    _emit({"pairs": [{"lhs": jsonio.enc_poly(a), "rhs": jsonio.enc_poly(b)}
                     for a, b in pairs]})
    return EXIT_TRUE


def cmd_prime_eval(args, max_dim):
    from . import jsonio
    from .congruence import prime_eval
    _, theta, f = _inputs(max_dim, (args.matrix, jsonio.dec_matrix),
                          (args.poly, jsonio.dec_poly))
    phi = prime_eval(theta, f)
    _emit({"phi": [jsonio.enc_extfrac(x) for x in phi]})
    return EXIT_TRUE


def cmd_member(args, max_dim):
    from . import jsonio
    from .congruence import prime_contains_pair
    _, theta, pair = _inputs(max_dim, (args.matrix, jsonio.dec_matrix),
                             (args.pair, jsonio.dec_pair))
    ok = prime_contains_pair(theta, pair)
    _emit({"member": ok})
    return _bool_exit(ok)


def cmd_kernel(args, max_dim):
    from . import jsonio
    from .congruence import has_trivial_ideal_kernel
    _, theta = _inputs(max_dim, (args.matrix, jsonio.dec_matrix))
    trivial = has_trivial_ideal_kernel(theta)
    _emit({"tau_rays": [jsonio.enc_vec_int(r) for r in theta.tau.rays],
           "trivial": trivial})
    return _bool_exit(trivial)


def cmd_variety(args, max_dim):
    from . import jsonio, variety as variety_mod
    ctx, E = _inputs(max_dim, (args.cong, jsonio.dec_congruence))
    strata = None
    if args.stratum:
        # a tau that spans no face raises ValueError: a violated precondition
        strata = [jsonio.dec_face(_load(args.stratum), ctx, args.stratum)]
    V = variety_mod.variety_of_basis(E, strata=strata)
    _emit(jsonio.enc_support(V))
    return EXIT_TRUE


def cmd_hypersurface(args, max_dim):
    from . import jsonio, variety as variety_mod
    _, f = _inputs(max_dim, (args.poly, jsonio.dec_poly))
    V = variety_mod.hypersurface(f)
    _emit(jsonio.enc_support(V))
    return EXIT_TRUE


def cmd_radical_member(args, max_dim):
    from . import jsonio, variety as variety_mod
    from .congruence import CongruencePresentation
    ctx, E, pair = _inputs(max_dim, (args.cong, jsonio.dec_congruence),
                           (args.pair, jsonio.dec_pair))
    if args.finite_basis:
        E = CongruencePresentation.make(ctx, E.pairs, True)
    ok = variety_mod.radical_member(E, pair)
    _emit({"radical_member": ok})
    return _bool_exit(ok)


def _dec_cong_or_matrix(doc, ctx, path):
    """A congruence presentation, or a prime matrix for a document without "pairs"."""
    from . import jsonio
    decode = jsonio.dec_congruence if "pairs" in doc else jsonio.dec_matrix
    return decode(doc, ctx, path)


def cmd_verify(args, max_dim):
    from . import jsonio
    from .congruence import PrimeMatrix, verify_derivation, verify_radical_certificate
    ctx, E, pair = _inputs(max_dim, (args.cong, _dec_cong_or_matrix),
                           (args.pair, jsonio.dec_pair))
    if args.derivation:
        if isinstance(E, PrimeMatrix):
            raise PreconditionError("a derivation needs a presentation, not a prime matrix")
        d = jsonio.dec_derivation(_load(args.derivation), ctx, args.derivation)
        ok = verify_derivation(E, d, pair)
        _emit({"verified": ok, "kind": "derivation"})
        return _bool_exit(ok)
    if args.certificate:
        cert = jsonio.dec_certificate(_load(args.certificate), ctx, args.certificate)
        ok = verify_radical_certificate(E, pair, cert)
        _emit({"verified": ok, "kind": "certificate"})
        return _bool_exit(ok)
    raise PreconditionError("verify needs --derivation or --certificate")


def cmd_radical_search(args, max_dim):
    from . import jsonio
    from .congruence import NotFound, SearchBounds, search_radical_certificate
    _, E, pair = _inputs(max_dim, (args.cong, _dec_cong_or_matrix),
                         (args.pair, jsonio.dec_pair))
    bounds = SearchBounds(max_exponent=args.max_i, max_degree=args.max_deg)
    res = search_radical_certificate(E, pair, bounds)
    if isinstance(res, NotFound):
        _emit({"found": False, "explored": res.explored})
        return EXIT_FALSE
    _emit({"found": True, "certificate": jsonio.enc_certificate(res)})
    return EXIT_TRUE


def cmd_closure(args, max_dim):
    from . import jsonio, toric_geom
    ctx, w = _inputs(max_dim, (args.point, jsonio.dec_stratum_point))
    L_doc, fan_doc = _load(args.polyhedron), _load(args.fan)
    # sizes first: a document of the wrong rank is refused on its "dim", before
    # any of its cones is decoded
    for doc, path in ((L_doc, args.polyhedron), (fan_doc, args.fan)):
        _same_dim(jsonio.dec_dim(doc, path), ctx.rank, path + ".dim")
    L = jsonio.dec_polyhedron(L_doc, args.polyhedron)
    fan = jsonio.dec_fan(fan_doc, args.fan)
    res = toric_geom.polyhedron_closure_membership(L, fan, w)
    if isinstance(res, toric_geom.NotInClosure):
        _emit({"in_closure": False, "failed_claims": list(res.failed_claims)})
        return EXIT_FALSE
    _emit({"in_closure": True,
           "w_hat": jsonio.enc_vec(res.base),
           "v": jsonio.enc_vec(res.direction)})
    return EXIT_TRUE


def cmd_resolve(args, max_dim):
    from . import jsonio, resolve as resolve_mod
    _, E, P = _inputs(max_dim, (args.cong, jsonio.dec_congruence),
                      (args.prime, jsonio.dec_matrix))
    res = resolve_mod.resolve_boundary_prime(
        E, P, sample_degree=args.sample_degree, samples=args.samples, seed=args.seed)
    if isinstance(res, resolve_mod.ResolveFailure):
        _emit({"resolved": False, "reason": res.reason, "detail": res.detail})
        return EXIT_FALSE
    _emit({"resolved": True,
           "matrix": jsonio.enc_matrix(res.matrix),
           "cone": jsonio.enc_polyhedron(res.cone),
           "v": jsonio.enc_vec(res.v),
           "v_hats": [jsonio.enc_vec(v) for v in res.v_hats],
           "b": [jsonio.enc_frac(b) for b in res.b],
           "w_hats": [jsonio.enc_vec(v) for v in res.w_hats],
           "refinement_samples": res.refinement_samples})
    return EXIT_TRUE


def cmd_flag_check(args, max_dim):
    from . import jsonio, polyhedra, variety as variety_mod
    ctx, E = _inputs(max_dim, (args.cong, jsonio.dec_congruence))
    flag = jsonio.dec_flag(_load(args.flag), args.flag)
    _same_dim(flag.ambient_dim, ctx.rank + 1, args.flag + ".ambient_dim")
    bad = polyhedra.validate_flag(flag)
    if bad:
        _emit({"valid": False, "violations": bad})
        return EXIT_FALSE
    V = variety_mod.variety_of_basis(E)
    ok = variety_mod.flag_in_variety(ctx, flag, V)
    _emit({"valid": True, "in_variety": ok})
    return _bool_exit(ok)


def cmd_cancel_check(args, max_dim):
    from . import jsonio, resolve as resolve_mod
    _, E = _inputs(max_dim, (args.cong, jsonio.dec_congruence))
    report = resolve_mod.cancellativity_harness(E, trials=args.trials,
                                                max_degree=args.max_deg, seed=args.seed)
    _emit({"trials": report.trials,
           "products_equal": report.products_equal,
           "violations": [list(v) for v in report.violations]})
    return EXIT_TRUE if not report.violations else EXIT_FALSE


def _int_at_least(least: int):
    """argparse type: an integer >= least; any other value exits 2, so a count
    option never runs a vacuous check over nothing."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %r"
                                             % (least, text))
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tropcong",
                                 description="exact computations with congruences on "
                                             "tropical polynomial semirings")
    ap.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a polynomial at an extended point")
    p.add_argument("--poly", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bend", help="bend relations of a polynomial")
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=cmd_bend)

    p = sub.add_parser("prime-eval", help="Phi-vector of a polynomial under a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=cmd_prime_eval)

    p = sub.add_parser("member", help="pair membership in a matrix-defined prime")
    p.add_argument("--matrix", required=True)
    p.add_argument("--pair", required=True)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("kernel", help="ideal-kernel stratum of a prime matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("variety", help="selected cells of the support of a congruence")
    p.add_argument("--cong", required=True)
    p.add_argument("--stratum", default=None)
    p.set_defaults(fn=cmd_variety)

    p = sub.add_parser("hypersurface", help="support of the bend congruence of one polynomial")
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=cmd_hypersurface)

    p = sub.add_parser("radical-member", help="membership in the radical via the support")
    p.add_argument("--cong", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--finite-basis", action="store_true",
                   help="declare that the generators are a finite tropical basis")
    p.set_defaults(fn=cmd_radical_member)

    p = sub.add_parser("verify", help="check a derivation or radical certificate")
    p.add_argument("--cong", required=True)
    p.add_argument("--pair", required=True)
    proof = p.add_mutually_exclusive_group()
    proof.add_argument("--derivation", default=None)
    proof.add_argument("--certificate", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("radical-search", help="bounded search for a radical certificate")
    p.add_argument("--cong", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--max-i", type=_int_at_least(0), default=4)
    p.add_argument("--max-deg", type=_int_at_least(0), default=8)
    p.set_defaults(fn=cmd_radical_search)

    p = sub.add_parser("closure", help="closure membership of a stratum point")
    p.add_argument("--polyhedron", required=True)
    p.add_argument("--fan", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("resolve", help="resolve a boundary prime to a trivial-kernel prime")
    p.add_argument("--cong", required=True)
    p.add_argument("--prime", required=True)
    p.add_argument("--sample-degree", type=_int_at_least(0), default=6)
    p.add_argument("--samples", type=_int_at_least(1), default=500)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("flag-check", help="validate a flag and test it against a support")
    p.add_argument("--flag", required=True)
    p.add_argument("--cong", required=True)
    p.set_defaults(fn=cmd_flag_check)

    p = sub.add_parser("cancel-check", help="cancellativity property run")
    p.add_argument("--cong", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p.add_argument("--max-deg", type=_int_at_least(0), default=3)
    p.set_defaults(fn=cmd_cancel_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    from .jsonio import ParseError
    from .polyhedra import InternalConsistencyError
    try:
        return args.fn(args, _max_dim())
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalConsistencyError as exc:
        print("internal consistency error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug, RecursionError included: never exit 1 ("false")
        print("internal error: %r" % (exc,), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
