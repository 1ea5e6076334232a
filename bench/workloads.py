"""The three workloads: inputs made from the seed, job lists and oracles.

`cli_fixtures` is a list of CLI invocations that run.py runs as fresh
processes; `supports` and `flags` build their inputs and jobs inside one fresh
interpreter (see child.py).  Every oracle runs after the timed jobs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures"
GOLDENS = BENCH / "goldens"

WORKLOADS = ("cli_fixtures", "supports", "flags")


# ---------------------------------------------------------------------------
# cli_fixtures: every subcommand on the fixture inputs

def _fx(*parts):
    return "/".join(("fixtures",) + parts)


def _inp(name):
    return "bench/inputs/" + name


BC, QB, RR, CL, TQ = "boolean_cubic", "quartic_bend", "radical_roundtrip", "closure", "three_quadrics"

# (job id, argv after the program name, seeded); paths are relative to the
# repository root, which is the working directory of every CLI job
CLI_JOBS = (
    [("member-%s" % c, ["member", "--matrix", _fx(BC, c + ".json"),
                        "--pair", _fx(BC, "gen_pair.json")], False)
     for c in ("C1", "C2", "C3", "C4")]
    + [("kernel-%s" % c, ["kernel", "--matrix", _fx(BC, c + ".json")], False)
       for c in ("C1", "C2", "C3", "C4")]
    + [("kernel-quartic-Q", ["kernel", "--matrix", _fx(QB, "Q.json")], False),
       ("kernel-quartic-P", ["kernel", "--matrix", _fx(QB, "P.json")], False)]
    + [("member-quartic-Q-%d" % i, ["member", "--matrix", _fx(QB, "Q.json"),
                                    "--pair", _fx(QB, "bend_pair_%d.json" % i)], False)
       for i in range(4)]
    + [("member-theta", ["member", "--matrix", _fx(RR, "theta.json"),
                         "--pair", _fx(RR, "pair_x_1.json")], False),
       ("prime-eval-quartic", ["prime-eval", "--matrix", _fx(QB, "Q.json"),
                               "--poly", _fx(QB, "f.json")], False),
       ("eval-quartic", ["eval", "--poly", _fx(QB, "f.json"),
                         "--point", _inp("quartic_point.json")], False),
       ("bend-quartic", ["bend", "--poly", _fx(QB, "f.json")], False),
       ("radical-member", ["radical-member", "--cong", _fx(RR, "E.json"),
                           "--pair", _fx(RR, "pair_x_1.json"), "--finite-basis"], False),
       ("radical-search-E", ["radical-search", "--cong", _fx(RR, "E.json"),
                             "--pair", _fx(RR, "pair_x_1.json")], False),
       ("radical-search-theta", ["radical-search", "--cong", _fx(RR, "theta.json"),
                                 "--pair", _fx(RR, "pair_x_1.json")], False),
       ("verify-certificate", ["verify", "--cong", _fx(RR, "E.json"),
                               "--pair", _fx(RR, "pair_x_1.json"),
                               "--certificate", _inp("certificate.json")], False),
       ("closure-witness", ["closure", "--polyhedron", _fx(CL, "cell_L.json"),
                            "--fan", _fx(CL, "sigma_fan.json"),
                            "--point", _fx(CL, "deep_point.json")], False),
       ("closure-neg-claim1", ["closure", "--polyhedron", _fx(CL, "neg_claim1_L.json"),
                               "--fan", _fx(CL, "sigma_fan.json"),
                               "--point", _fx(CL, "neg_claim1_point.json")], False),
       ("closure-neg-claim3", ["closure", "--polyhedron", _fx(CL, "neg_claim3_L.json"),
                               "--fan", _fx(CL, "sigma_fan.json"),
                               "--point", _fx(CL, "neg_claim3_point.json")], False),
       ("hypersurface-f1", ["hypersurface", "--poly", _fx(TQ, "f_1.json")], False),
       ("hypersurface-quartic", ["hypersurface", "--poly", _fx(QB, "f.json")], False),
       ("variety-quartic", ["variety", "--cong", _fx(QB, "E.json")], False),
       ("variety-quartic-deep", ["variety", "--cong", _fx(QB, "E.json"),
                                 "--stratum", _inp("deep_stratum.json")], False),
       ("flag-check-deep", ["flag-check", "--flag", _inp("deep_flag.json"),
                            "--cong", _fx(QB, "E.json")], False),
       ("resolve-quartic", ["resolve", "--cong", _fx(QB, "E.json"),
                            "--prime", _fx(QB, "P.json")], True),
       ("cancel-check-quartic", ["cancel-check", "--cong", _fx(QB, "E.json")], True)]
)

SUBCOMMANDS = ("eval", "bend", "prime-eval", "member", "kernel", "variety",
               "hypersurface", "radical-member", "verify", "radical-search",
               "closure", "resolve", "flag-check", "cancel-check")


def cli_argv(job, seed: int) -> list:
    """argv for one CLI job; seeded subcommands get --seed."""
    _, args, seeded = job
    return (["--seed", str(seed)] if seeded else []) + list(args)


def cli_goldens() -> dict:
    return json.loads((GOLDENS / "cli_fixtures.json").read_text())


def check_cli(job, seed: int, code: int, stdout: str, goldens: dict):
    """None when the job's output is correct, else a one-line reason."""
    job_id, args, seeded = job
    want = goldens[job_id]
    if not seeded or seed == 0:
        if code != want["exit"]:
            return "exit %d, golden %d" % (code, want["exit"])
        if stdout != want["stdout"]:
            return "stdout differs from the golden"
        return None
    # a seeded subcommand under a new seed: check the invariants
    if code != 0:
        return "exit %d" % code
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if args[0] == "cancel-check":
        if doc.get("violations") != [] or doc.get("trials") != 200:
            return "cancel-check reported violations or a wrong trial count"
        return None
    if args[0] == "resolve":
        if doc.get("resolved") is not True:
            return "resolve did not resolve"
        return _check_resolved_matrix(doc)
    return "no oracle for %s" % args[0]


def _check_resolved_matrix(doc: dict):
    """The produced matrix must contain every pair of E and have a trivial kernel."""
    from tropcong import jsonio
    from tropcong.congruence import has_trivial_ideal_kernel, prime_contains_pair
    edoc = json.loads((FIXTURES / QB / "E.json").read_text())
    ctx = jsonio.context_of_document(edoc)
    E = jsonio.dec_congruence(edoc, ctx)
    Q = jsonio.dec_matrix(dict(doc["matrix"], context=edoc["context"]), ctx)
    if not has_trivial_ideal_kernel(Q):
        return "resolved matrix has a nontrivial ideal kernel"
    if not all(prime_contains_pair(Q, pair) for pair in E.pairs):
        return "resolved matrix misses a pair of E"
    return None


# ---------------------------------------------------------------------------
# shared job shape for the in-process workloads

class Job:
    """A timed call; `check(result)` returns None or a failure reason."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _load(*parts):
    return json.loads(FIXTURES.joinpath(*parts).read_text())


# ---------------------------------------------------------------------------
# supports: the three-quadrics pipeline

# seed -> positive cross-term coefficient t^c; seed 0 is the fixture's c = 1
SUPPORT_C = (Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2))
QUADRICS = ("g_xy", "g_xz", "g_yz")
LINEAR = ("f_1", "f_2", "f_3", "f_5")


def support_c(seed: int) -> Fraction:
    return SUPPORT_C[seed % len(SUPPORT_C)]


def _with_cross_coeff(doc: dict, c: Fraction) -> dict:
    terms = []
    for t in doc["terms"]:
        if sorted(t["exp"]) == [0, 1, 1]:
            t = dict(t, coeff=str(c))
        terms.append(t)
    return dict(doc, terms=terms)


def _scaled_pieces(doc: dict, c: Fraction) -> list:
    # V_c at height 1 is c * V_1: a.x <= b becomes a.x <= c*b
    return [dict(p, rows=[dict(r, b=str(Fraction(r["b"]) * c)) for r in p["rows"]])
            for p in doc["pieces"]]


def _point_piece(coord: Fraction, dim: int) -> dict:
    rows = [{"a": ["1" if j == i else "0" for j in range(dim)], "b": str(coord), "rel": "="}
            for i in range(dim)]
    return {"dim": dim, "rows": rows}


def supports_setup(seed: int):
    from tropcong import jsonio
    from tropcong.polyhedra import covers_equal
    from tropcong.variety import (hypersurface, intersect_supports,
                                  point_in_variety, slice_at_height)
    from tropcong.trop_core import ExtPoint

    c = support_c(seed)
    docs = {n: _load(TQ, n + ".json") for n in QUADRICS + LINEAR}
    for n in QUADRICS:
        docs[n] = _with_cross_coeff(docs[n], c)
    ctx = jsonio.context_of_document(docs["f_1"])
    polys = {n: jsonio.dec_poly(d, ctx, n) for n, d in docs.items()}
    dense_face = ctx.dense_face
    dense = [dense_face]
    expected_f1 = [jsonio.dec_polyhedron(p) for p in _load(TQ, "expected_f1_dense.json")["pieces"]]
    # the pinned true cover: the displayed pieces plus the isolated triple tie
    expected_g = [jsonio.dec_polyhedron(p) for p in
                  _scaled_pieces(_load(TQ, "expected_g_intersection_dense.json"), c)
                  + [_point_piece(-c / 2, 3)]]
    witness = ExtPoint.dense(ctx, 0, (1, 1, 0))
    state = {}

    def cell_samples(V):
        from tropcong import polyhedra
        out = []
        for tau, cell in V.all_cells():
            gens = polyhedra.generators(cell)
            w = tuple(sum(g[j] for g in gens) for j in range(cell.dim)) if gens \
                else (0,) * cell.dim
            out.append(ExtPoint.make(ctx, w[0], tau, w[1:]))
        return out

    def hypersurfaces():
        for n in QUADRICS + LINEAR:
            state[n] = hypersurface(polys[n], strata=dense)
        return [state[n] for n in QUADRICS + LINEAR]

    def check_hypersurfaces(supports):
        for V in supports:
            if not point_in_variety(V, witness):
                return "height-0 witness (1,1,0) not in a hypersurface"
            if not all(point_in_variety(V, w) for w in cell_samples(V)):
                return "a cell sample is not in its hypersurface"
        return None

    def check_intersection(I):
        if not point_in_variety(I, witness):
            return "height-0 witness (1,1,0) not in the intersection"
        for w in cell_samples(I):
            if not (point_in_variety(I, w)
                    and all(point_in_variety(state[n], w) for n in QUADRICS)):
                return "an intersection cell sample is off some quadric"
        return None

    def slice_and_compare():
        state["slice"] = slice_at_height(state["I"], dense_face, 1)
        return (state["slice"],
                covers_equal(slice_at_height(state["f_1"], dense_face, 1), expected_f1),
                covers_equal(state["slice"], expected_g))

    def check_slices(res):
        pieces, ok_f1, ok_g = res
        bad = [what for what, ok in (("f_1", ok_f1), ("g intersection", ok_g)) if ok is not True]
        if bad:
            return " and ".join(bad) + " cover differs from the pinned one"
        return None if pieces else "empty slice"

    # one job per pipeline stage, so that job_p50_s is the seven ~0.2 s
    # hypersurfaces together rather than whichever single short call is the
    # middle one
    jobs = [Job("hypersurfaces", hypersurfaces, check_hypersurfaces),
            Job("intersect_supports", lambda: state.setdefault(
                "I", intersect_supports([state[n] for n in QUADRICS])), check_intersection),
            Job("slice_and_covers_equal", slice_and_compare, check_slices)]
    return jobs, lambda: None


# ---------------------------------------------------------------------------
# flags: the 500-flag containment theorem

FLAG_SEEDS = 32  # hit counts are pinned for seed % FLAG_SEEDS
FLAG_SETS = (("quartic", (QB, "E.json"), 400, 3006), ("line", (RR, "E.json"), 100, 3007))


def random_flag(ctx, V, rng):
    """A random flag, same shape as the acceptance suite's generator."""
    from tropcong import polyhedra as ph
    from tropcong._linalg import rank_of
    n = ctx.rank
    kind = rng.random()
    if kind < 0.1:
        return ph.make_flag(n + 1, ctx.deep_face.rays, [[(1,) + (0,) * n]])

    def ray():
        while True:
            r = (Fraction(rng.randint(0, 3)),) + tuple(Fraction(rng.randint(-4, 4))
                                                       for _ in range(n))
            if any(x != 0 for x in r):
                return r

    def cell_ray():
        cells = V.stratum(ctx.dense_face).cells
        gens = ph.generators(rng.choice(cells))
        while True:
            weights = [rng.randint(0, 3) for _ in gens]
            if not any(weights):
                continue
            r = tuple(sum(w * g[j] for w, g in zip(weights, gens)) for j in range(n + 1))
            if any(x != 0 for x in r):
                return r

    pick = cell_ray if kind < 0.45 else ray
    if kind < 0.35 or 0.45 <= kind < 0.8:
        return ph.make_flag(n + 1, [], [[pick()]])
    while True:
        for _ in range(20):
            r1, r2 = pick(), pick()
            if rank_of([r1, r2]) == 2:
                flag = ph.make_flag(n + 1, [], [[r1], [r1, r2]])
                if not ph.validate_flag(flag):
                    return flag
        pick = ray


def flags_setup(seed: int):
    from tropcong import jsonio
    from tropcong.congruence import congruence_in_prime, flag_to_matrix
    from tropcong.variety import flag_in_variety, shrink_flag, support_of

    k = seed % FLAG_SEEDS
    jobs = []
    hits = {}
    for label, path, count, base in FLAG_SETS:
        doc = _load(*path)
        ctx = jsonio.context_of_document(doc)
        E = jsonio.dec_congruence(doc, ctx)
        V = support_of(E)
        rng = random.Random(base + 2 * k)
        hits[label] = [0, 0]
        for i in range(count):
            flag = random_flag(ctx, V, rng)

            def run(ctx=ctx, E=E, V=V, flag=flag):
                in_variety = flag_in_variety(ctx, flag, V)
                contains = congruence_in_prime(E, flag_to_matrix(ctx, flag))
                shrunk_in = None
                if contains:
                    shrunk = shrink_flag(ctx, flag, E, sample_pairs=40, seed=9)
                    shrunk_in = flag_in_variety(ctx, shrunk, V)
                return in_variety, contains, shrunk_in

            def check(res, tally=hits[label]):
                in_variety, contains, shrunk_in = res
                tally[0] += in_variety
                tally[1] += contains
                if in_variety and not contains:
                    return "flag in the support but E not in its prime"
                if contains and shrunk_in is not True:
                    return "shrunk flag not in the support"
                return None

            jobs.append(Job("%s-%d" % (label, i), run, check))

    def final_check():
        want = json.loads((GOLDENS / "flags.json").read_text())[str(k)]
        if hits != want:
            return "forward/converse hits %r, pinned %r" % (hits, want)
        return None

    return jobs, final_check


SETUPS = {"supports": supports_setup, "flags": flags_setup}
