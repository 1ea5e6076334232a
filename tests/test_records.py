"""Record classes: construction, equality, hashing, repr and immutability.

One table row per record class: the class, its compared fields in order, and
an example instance built through the library.  The checks pin the behaviour
that set, dict and lru_cache keys, goldens and error messages rely on.
"""

import ast
import json
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from tropcong.congruence import (AddBoth, CongruencePresentation, Derivation,
                                 Generator, MulMono, NotFound, PrimeMatrix,
                                 RadicalCertificate, Refl, SearchBounds, Sym,
                                 Trans, flag_to_matrix)
from tropcong.polyhedra import (EQ, LE, ConeH, DimensionMismatchError, Fan,
                                FlagOfCones, HRow, PolyhedronH, cone_generators,
                                make_flag, row, validate_flag)
from tropcong.resolve import (CancellativityReport, ResolutionResult,
                              ResolveFailure)
from tropcong.toric_geom import ClosureWitness, NotInClosure
from tropcong.trop_core import ExtPoint, Face, ToricContext, TropPoly, parse_poly
from tropcong.variety import StratumSupport, VarietySupport, hypersurface

from init_forms import StabilityData

ROOT = pathlib.Path(__file__).resolve().parent.parent

CTX = ToricContext.affine(2)
X = parse_poly(CTX, "x")
F = parse_poly(CTX, "x^2 + t*x*y + y^2")
TAU = CTX.face_from_rays([(-1, 0)])
CONE = ConeH.make(2, [row((1, 0), 0, LE), row((0, 1), 0, EQ)])
POLY = PolyhedronH.make(2, [row((1, 1), 2, LE)])
THETA = PrimeMatrix.from_extended_matrix(CTX, [["1", None, "0"]])
DERIV = Derivation((Generator(0), Refl(X), Sym(0), Trans(0, 2), AddBoth(3, X),
                    MulMono(4, X)))


def _q(*xs):
    return tuple(Fraction(x) for x in xs)


# (class, compared fields, example); examples are built once, at collection
RECORDS = [
    (ToricContext, ("rank", "sigma_rays", "coeff"), CTX),
    (Face, ("ambient", "rays", "span_rref", "pivots"), TAU),
    (TropPoly, ("context", "terms"), F),
    (ExtPoint, ("context", "r", "tau", "coords"), ExtPoint.make(CTX, 1, TAU, (2, 5))),
    (ClosureWitness, ("base", "direction"), ClosureWitness(_q(1, 2), _q(0, -1))),
    (NotInClosure, ("failed_claims",), NotInClosure(("no cone", "no ray"))),
    (HRow, ("a", "b", "rel"), row((1, -2), Fraction(1, 3), LE)),
    (PolyhedronH, ("dim", "rows"), POLY),
    (Fan, ("dim", "cones"), Fan.make(2, [CONE])),
    (FlagOfCones, ("ambient_dim", "tau_rays", "cones_rays"),
     make_flag(3, [(-1, 0)], [[(1, 0, 1)]])),
    (PrimeMatrix, ("context", "tau", "rows"), THETA),
    (CongruencePresentation, ("context", "pairs", "finite_tropical_basis"),
     CongruencePresentation.bend_of(F)),
    (Generator, ("index",), Generator(0)),
    (Refl, ("poly",), Refl(X)),
    (Sym, ("i",), Sym(1)),
    (Trans, ("i", "j"), Trans(0, 2)),
    (AddBoth, ("i", "h"), AddBoth(3, X)),
    (MulMono, ("i", "m"), MulMono(4, X)),
    (Derivation, ("steps",), DERIV),
    (RadicalCertificate, ("exponent", "cofactor", "derivation"),
     RadicalCertificate(1, X, DERIV)),
    (SearchBounds, ("max_exponent", "max_degree", "max_nodes"), SearchBounds(2, 5, 300)),
    (NotFound, ("explored",), NotFound(17)),
    (StratumSupport, ("tau", "cells"), StratumSupport(TAU, (CONE,))),
    (VarietySupport, ("context", "pairs", "strata"), hypersurface(F)),
    (StabilityData, ("deleted", "margins"), StabilityData((_q(0, 2, 0),), _q(1))),
    (ResolutionResult, ("matrix", "cone", "v", "v_hats", "b", "w_hats",
                        "refinement_samples"),
     ResolutionResult(THETA, CONE, _q(1, 0), (_q(0, 1),), _q(2), (_q(1, 1),), 500)),
    (ResolveFailure, ("reason", "detail"), ResolveFailure("not_contained", "none")),
    (CancellativityReport, ("trials", "products_equal", "violations"),
     CancellativityReport(200, 12, ())),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]

# the records whose last field has a default, pinned in test_defaults
DEFAULTED = (ToricContext, CongruencePresentation, SearchBounds)


def _values(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


def test_table_covers_every_record():
    assert len(RECORDS) == 28
    for cls, _, obj in RECORDS:
        assert type(obj) is cls


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, fields, obj):
    values = _values(obj, fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == obj and by_keyword == obj
    assert not (by_position != obj)
    assert _values(by_keyword, fields) == values
    named = dict(zip(fields, values))
    bad_calls = [
        lambda: cls(*values, None),  # an extra field
        lambda: cls(*values, extra=None),  # an unknown keyword
        lambda: cls(**named, extra=None),
        lambda: cls(*values[:1], **named),  # the first field by position and keyword
        lambda: cls(*values, **{fields[-1]: values[-1]}),  # the last one likewise
    ]
    if cls not in DEFAULTED:
        bad_calls += [lambda: cls(*values[:-1]),  # the last field missing
                      lambda: cls(**dict(zip(fields[:-1], values[:-1])))]
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()


def test_pickle_rebuilds_each_record():
    for cls, fields, obj in RECORDS:
        hash(obj)
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is cls and back == obj
        assert _values(back, fields) == _values(obj, fields)
        assert "_hash" not in vars(back)


_UNPICKLE = """
import json, pickle, sys
from tropcong.polyhedra import LE, row
from tropcong.trop_core import ToricContext, parse_poly
ctx = ToricContext.affine(2)
fresh = [row((1, -2), 0, LE), ctx, parse_poly(ctx, "x^2 + t*x*y + y^2")]
loaded = pickle.loads(sys.stdin.buffer.read())
print(json.dumps([hash("<="), [a == b for a, b in zip(loaded, fresh)],
                  [a in {b} for a, b in zip(loaded, fresh)]]))
"""


def test_unpickled_hash_is_the_new_process_hash():
    """A record or context keeps a hash over a `str` field, and `str` hashes are
    seeded per process: a pickle must not carry the hash along."""
    objs = [row((1, -2), 0, LE), CTX, F]
    for obj in objs:
        hash(obj)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-S", "-c", _UNPICKLE], env=env,
                          input=pickle.dumps(objs), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    str_hash, equal, found = json.loads(proc.stdout)
    assert str_hash != hash("<=")
    assert equal == found == [True] * len(objs)


def test_defaults():
    E = CongruencePresentation(CTX, ((X, X),))
    assert E.finite_tropical_basis is False
    assert E == CongruencePresentation(CTX, ((X, X),), False)
    assert SearchBounds() == SearchBounds(4, 8, 4000)
    assert SearchBounds(max_degree=5) == SearchBounds(4, 5, 4000)
    assert ToricContext(2, CTX.sigma_rays) == ToricContext(2, CTX.sigma_rays, "T") == CTX


# a context checks its fields before it is stored
@pytest.mark.parametrize("args, error, match", [
    ((2, [(-1, 0, 0)]), DimensionMismatchError, "ray length != rank"),
    ((2, [(-1, 0), (0, -1)], "Q"), ValueError, "coeff mode"),
    ((2, [(1, 0), (-1, 0)]), ValueError, "not strongly convex"),
    ((1, [(1,), (-1,)], "B"), ValueError, "not strongly convex"),
], ids=["ray length", "coeff", "line", "line in rank 1"])
def test_context_construction_errors(args, error, match):
    with pytest.raises(error, match=match):
        ToricContext(*args)


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_hash_is_hash_of_compared_fields(cls, fields, obj):
    values = _values(obj, fields)
    assert hash(obj) == hash(values)
    assert hash(cls(*values)) == hash(obj)
    assert len({obj, cls(*values)}) == 1


class _CountingHash:
    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


@pytest.mark.parametrize("make", [lambda x: NotFound(x), lambda x: Trans(x, 2)],
                         ids=["one field", "two fields"])
def test_hash_is_computed_once(make):
    field = _CountingHash()
    rec = make(field)
    first, second = hash(rec), hash(rec)
    assert field.calls == 1
    assert first == second == hash(_values(rec, type(rec)._fields))


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_equality_stays_within_one_class(cls, fields, obj):
    assert cls.__eq__(obj, object()) is NotImplemented
    assert obj != _values(obj, fields)
    assert obj != "x"


def test_cone_never_equals_polyhedron_with_same_fields():
    poly = PolyhedronH(CONE.dim, CONE.rows)
    assert CONE != poly and poly != CONE
    assert not (CONE == poly)
    assert ConeH.__eq__(CONE, poly) is NotImplemented
    assert PolyhedronH.__eq__(poly, CONE) is NotImplemented
    assert ConeH(CONE.dim, CONE.rows) == CONE
    assert hash(poly) == hash(CONE) == hash((CONE.dim, CONE.rows))
    assert repr(poly) == "PolyhedronH" + repr(CONE)[len("ConeH"):]


def test_some_field_differs():
    assert HRow(_q(1, 0), Fraction(0), LE) != HRow(_q(1, 0), Fraction(0), EQ)
    assert Trans(0, 2) != Trans(2, 0)
    assert Generator(0) != Generator(1)


def test_caches_stay_out_of_eq_hash_and_repr():
    flag = make_flag(3, [], [[(1, 1, 0)], [(1, 1, 0), (1, 0, 1)]])
    fresh = make_flag(3, [], [[(1, 1, 0)], [(1, 1, 0), (1, 0, 1)]])
    assert validate_flag(flag) == []
    flag_to_matrix(CTX, flag)
    assert flag == fresh and hash(flag) == hash(fresh) and repr(flag) == repr(fresh)

    V = hypersurface(F)
    W = VarietySupport(V.context, V.pairs, V.strata)
    assert V == W and hash(V) == hash(W) and repr(V) == repr(W)

    E = CongruencePresentation.bend_of(F)
    fresh_E = CongruencePresentation(E.context, E.pairs, E.finite_tropical_basis)
    assert E == fresh_E and hash(E) == hash(fresh_E) and repr(E) == repr(fresh_E)

    g = TropPoly(F.context, F.terms)
    hash(F)
    assert g == F and hash(g) == hash(F) == hash((F.context, F.terms))
    assert repr(g) == repr(F)


def test_restriction_cache_stays_out_of_eq_hash_and_repr():
    f = parse_poly(CTX, "x^2 + t*x*y + y^2 + 1")
    fresh = TropPoly(f.context, f.terms)
    for tau in CTX.faces:
        assert f.restrict(tau) == TropPoly(CTX, tuple(
            (u, a) for u, a in f.terms if tau.perp_contains(u)))
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, obj):
    before = _values(obj, fields)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _values(obj, fields) == before


def test_cone_fields_are_frozen():
    with pytest.raises(AttributeError):
        CONE.rows = ()
    with pytest.raises(AttributeError):
        del CONE.dim


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_repr_lists_fields(cls, fields, obj):
    if cls is TropPoly:
        return  # printed as the polynomial itself, pinned below
    inner = ", ".join("%s=%r" % (f, getattr(obj, f)) for f in fields)
    assert repr(obj) == "%s(%s)" % (cls.__qualname__, inner)


def test_repr_text():
    assert repr(F) == str(F) == "y^2 + t^1*x*y + x^2"
    assert repr(row((1, -2), Fraction(1, 3), LE)) == (
        "HRow(a=(1, -2), b=Fraction(1, 3), rel='<=')")
    assert repr(CONE) == (
        "ConeH(dim=2, rows=(HRow(a=(1, 0), b=0, rel='<='), HRow(a=(0, 1), b=0, rel='=')))")
    assert repr(Trans(0, 2)) == "Trans(i=0, j=2)"
    assert repr(SearchBounds()) == "SearchBounds(max_exponent=4, max_degree=8, max_nodes=4000)"
    assert repr(NotFound(17)) == "NotFound(explored=17)"
    assert repr(ResolveFailure("not_contained", "none")) == (
        "ResolveFailure(reason='not_contained', detail='none')")
    assert repr(make_flag(3, [], [[(1, 1, 0)]])) == (
        "FlagOfCones(ambient_dim=3, tau_rays=(), "
        "cones_rays=(((1, 1, 0),),))")
    assert repr(Refl(X)) == "Refl(poly=x)"
    assert repr(CTX) == "ToricContext(rank=2, sigma_rays=((-1, 0), (0, -1)), coeff='T')"


def test_int_and_fraction_forms_are_one_record():
    """Canonical ints and equal Fractions build equal records with equal hashes,
    so set, dict and lru_cache keys do not see the form."""
    rows = (HRow((3, -7), 0, LE), HRow((-2, 5), 0, LE))
    cone = ConeH(2, rows)
    boxed_cone = ConeH(2, tuple(HRow(_q(*r.a), Fraction(r.b), r.rel) for r in rows))
    point = ExtPoint.make(CTX, 2, TAU, (0, 5))
    pairs = [
        (rows[0], boxed_cone.rows[0]),
        (cone, boxed_cone),
        (F, TropPoly(CTX, tuple((u, Fraction(a)) for u, a in F.terms))),
        (point, ExtPoint(CTX, Fraction(2), TAU, _q(*point.coords))),
    ]
    assert type(F.terms[0][1]) is type(point.r) is type(point.coords[1]) is int
    for ints, boxed in pairs:
        assert ints == boxed and boxed == ints and hash(ints) == hash(boxed)
        assert len({ints, boxed}) == 1

    before = cone_generators.cache_info()
    gens = cone_generators(boxed_cone)
    assert cone_generators(cone) == gens
    after = cone_generators.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def _setattr_calls(tree):
    """Line numbers of every `object.__setattr__`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"]


def test_only_the_record_base_stores_fields():
    """`_Record.__init__` is the one storage rule: no other module of the
    library calls `object.__setattr__`."""
    src = ROOT / "src" / "tropcong"
    found = {f.name: _setattr_calls(ast.parse(f.read_text(), str(f)))
             for f in sorted(src.glob("*.py"))}
    assert len(found) > 10 and found.pop("_record.py")  # the scan sees the base
    assert {name: lines for name, lines in found.items() if lines} == {}


_IDENTITY = {"__eq__", "__hash__", "__reduce__", "__repr__"}


def _identity_methods(tree):
    """(class, name) of every identity method a class body defines or assigns."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(cls.name, name) for name in names if name in _IDENTITY]
    return found


def test_only_the_record_base_defines_identity():
    """Equality, hashing, pickling and repr come from `_Record` alone.  The one
    other definition is the polynomial's repr, its printed form (`__str__`)."""
    src = ROOT / "src" / "tropcong"
    found = {f.name: _identity_methods(ast.parse(f.read_text(), str(f)))
             for f in sorted(src.glob("*.py"))}
    assert len(found) > 10 and found.pop("_record.py")  # the scan sees the base
    assert {name: defs for name, defs in found.items() if defs} == {
        "trop_core.py": [("TropPoly", "__repr__")]}


def test_cli_import_skips_dataclasses_and_inspect():
    """The CLI's cold start builds its records without generated code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import tropcong.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_QB = ROOT / "fixtures" / "quartic_bend"
_CL = ROOT / "fixtures" / "closure"
_HEAVY = {"tropcong.variety", "tropcong.resolve", "tropcong.toric_geom", "tropcong._lp"}
_POINT = {"context": {"rank": 2, "sigma_rays": [[-1, 0], [0, -1]]},
          "format": "tropcong/1", "r": "1", "x": ["0", "-1"]}


def _cli_modules(argv):
    """Exit code and tropcong modules loaded after tropcong.cli.main(argv) in a
    fresh `python -S` interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import contextlib, io, sys, tropcong.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = tropcong.cli.main(sys.argv[1:])\n"
            "print(rc, ' '.join(sorted(m for m in sys.modules if m.startswith('tropcong'))))")
    proc = subprocess.run([sys.executable, "-S", "-c", code] + [str(a) for a in argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, modules = proc.stdout.split(" ", 1)
    return int(rc), set(modules.split())


@pytest.mark.parametrize("argv", [
    ("kernel", "--matrix", _QB / "Q.json"),
    ("member", "--matrix", _QB / "Q.json", "--pair", _QB / "bend_pair_0.json"),
    ("eval", "--poly", _QB / "f.json", "--point", "POINT"),
    ("bend", "--poly", _QB / "f.json"),
    ("prime-eval", "--matrix", _QB / "Q.json", "--poly", _QB / "f.json"),
], ids=lambda argv: argv[0])
def test_light_subcommands_skip_heavy_layers(argv, tmp_path):
    """Matrix, pair and polynomial queries never load the support, resolution,
    stratum or LP layers."""
    point = tmp_path / "point.json"
    point.write_text(json.dumps(_POINT))
    rc, modules = _cli_modules([point if a == "POINT" else a for a in argv])
    assert rc == 0
    assert {"tropcong.cli", "tropcong.jsonio", "tropcong.trop_core"} <= modules
    assert not modules & _HEAVY


def test_closure_skips_support_and_resolution_layers():
    """closure reaches toric_geom, but neither variety nor resolve (nor
    congruence), and its witness point is polished without the LP."""
    rc, modules = _cli_modules(["closure", "--polyhedron", _CL / "cell_L.json",
                                "--fan", _CL / "sigma_fan.json",
                                "--point", _CL / "deep_point.json"])
    assert rc == 0
    assert "tropcong.toric_geom" in modules
    assert not modules & {"tropcong.variety", "tropcong.resolve", "tropcong.congruence",
                          "tropcong._lp"}


def test_bare_package_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, tropcong; print(sorted(m for m in sys.modules if m.startswith('tropcong')))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['tropcong']"
