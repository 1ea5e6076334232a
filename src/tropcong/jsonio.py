"""JSON encoding and decoding for every value the tool reads or emits.

Rationals travel as strings "p/q" (or "p"); bottom is "-inf"; exponents and
ray entries are integers.  Top-level documents carry "format": "tropcong/1"; a
document without the tag is read as tropcong/1, one with another tag rejected.
Decoders raise ParseError with a JSON-path position.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from ._linalg import Vec, frac
from .polyhedra import (EQ, LE, LT, ConeH, Fan, FlagOfCones, HRow, PolyhedronH,
                        hrep_from_rays, make_flag)
from .trop_core import COEFF_B, COEFF_T, ExtPoint, Face, ToricContext, TropPoly

# congruence is imported by the functions that use it, so that a CLI job
# loads only the layers its subcommand reaches; variety is needed only in
# annotations.
if TYPE_CHECKING:
    from .congruence import (CongruencePresentation, Derivation, PrimeMatrix,
                             RadicalCertificate)
    from .variety import VarietySupport

FORMAT_TAG = "tropcong/1"


class ParseError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__("%s (at %s)" % (message, path))
        self.path = path


def _get(data, key, path, required=True, default=None):
    if not isinstance(data, dict):
        raise ParseError("expected an object", path)
    if key not in data:
        if required:
            raise ParseError("missing key %r" % key, path)
        return default
    return data[key]


def _as_list(value, path):
    if not isinstance(value, list):
        raise ParseError("expected a list", path)
    return value


def _get_list(data, key, path, required=True):
    return _as_list(_get(data, key, path, required, default=[]), "%s.%s" % (path, key))


def _sized(v, n, path):
    """v, after checking that it has the n entries of the rank or dim it lives in."""
    if len(v) != n:
        raise ParseError("expected %d entries, got %d" % (n, len(v)), path)
    return v


def _as_int(value, least, path):
    """value, after checking that it is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ParseError("expected an integer >= %d" % least, path)
    return value


def _get_index(data, key, path):
    return _as_int(_get(data, key, path), 0, "%s.%s" % (path, key))


def _at(path, make, *args):
    """make(*args), a ValueError it raises reported as a ParseError at path;
    a ParseError keeps its own path."""
    try:
        return make(*args)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), path)


# --- rationals --------------------------------------------------------------

def enc_frac(x: Fraction) -> str:
    return str(x)


def dec_frac(s, path: str) -> Fraction:
    if isinstance(s, bool):
        raise ParseError("expected a rational", path)
    if isinstance(s, int):
        return s
    if not isinstance(s, str):
        raise ParseError("expected a rational string", path)
    try:
        return frac(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("malformed rational %r: %s" % (s, exc), path)


def enc_extfrac(x) -> str:
    return "-inf" if x is None else enc_frac(x)


def dec_extfrac(s, path: str) -> Optional[Fraction]:
    if s == "-inf":
        return None
    return dec_frac(s, path)


def enc_vec_int(v) -> list:
    return [int(x) for x in v]


def enc_vec(v) -> list:
    return [enc_frac(x) for x in v]


def dec_vec(data, path: str) -> Vec:
    return tuple(dec_frac(x, "%s[%d]" % (path, i)) for i, x in enumerate(_as_list(data, path)))


# --- context ----------------------------------------------------------------

def enc_context(ctx: ToricContext) -> dict:
    return {"rank": ctx.rank,
            "sigma_rays": [enc_vec_int(r) for r in ctx.sigma_rays],
            "coeff": ctx.coeff}


def dec_context(data, path: str = "$.context", max_dim: Optional[int] = None) -> ToricContext:
    rank = _as_int(_get(data, "rank", path), 1, path + ".rank")
    if max_dim is not None and rank > max_dim:
        raise ParseError("rank %d exceeds the ambient-dimension cap %d" % (rank, max_dim),
                         path + ".rank")
    rays = [dec_vec(r, "%s.sigma_rays[%d]" % (path, i))
            for i, r in enumerate(_get_list(data, "sigma_rays", path))]
    coeff = _get(data, "coeff", path, required=False, default=COEFF_T)
    if coeff not in (COEFF_T, COEFF_B):
        raise ParseError("coeff must be 'T' or 'B'", path + ".coeff")
    return _at(path, ToricContext, rank, rays, coeff)


# --- polynomials ------------------------------------------------------------

def enc_poly(f: TropPoly) -> dict:
    return {"terms": [{"coeff": enc_frac(a), "exp": enc_vec_int(u)} for u, a in f.terms]}


def dec_poly(data, ctx: ToricContext, path: str = "$") -> TropPoly:
    terms = []
    for i, t in enumerate(_get_list(data, "terms", path)):
        tpath = "%s.terms[%d]" % (path, i)
        u = _get(t, "exp", tpath)
        if not isinstance(u, list) or any(type(x) is not int for x in u):  # no bools
            raise ParseError("exponent must be a list of integers", tpath + ".exp")
        _sized(u, ctx.rank, tpath + ".exp")
        terms.append((u, dec_frac(_get(t, "coeff", tpath), tpath + ".coeff")))
    return _at(path, TropPoly.make, ctx, terms)


def dec_pair(data, ctx: ToricContext, path: str = "$"):
    return (dec_poly(_get(data, "lhs", path), ctx, path + ".lhs"),
            dec_poly(_get(data, "rhs", path), ctx, path + ".rhs"))


def dec_congruence(data, ctx: ToricContext, path: str = "$") -> CongruencePresentation:
    from .congruence import CongruencePresentation
    pairs = [dec_pair(p, ctx, "%s.pairs[%d]" % (path, i))
             for i, p in enumerate(_get_list(data, "pairs", path))]
    fb = _get(data, "finite_basis", path, required=False, default=False)
    if not isinstance(fb, bool):  # "false" or [0] must not declare a basis
        raise ParseError("finite_basis must be true or false", path + ".finite_basis")
    return CongruencePresentation.make(ctx, pairs, fb)


# --- geometry ---------------------------------------------------------------

def enc_polyhedron(p: PolyhedronH) -> dict:
    return {"dim": p.dim,
            "rows": [{"a": enc_vec(r.a), "b": enc_frac(r.b), "rel": r.rel}
                     for r in p.rows]}


def dec_dim(data, path: str = "$") -> int:
    """The "dim" of a polyhedron or fan document, read before anything else."""
    return _as_int(_get(data, "dim", path), 1, path + ".dim")


def dec_polyhedron(data, path: str = "$") -> PolyhedronH:
    dim = dec_dim(data, path)
    rows = []
    for i, r in enumerate(_get_list(data, "rows", path, required=False)):
        rpath = "%s.rows[%d]" % (path, i)
        a = _sized(dec_vec(_get(r, "a", rpath), rpath + ".a"), dim, rpath + ".a")
        b = dec_frac(_get(r, "b", rpath), rpath + ".b")
        rel = _get(r, "rel", rpath)
        if rel not in (LE, LT, EQ):
            raise ParseError("rel must be one of <=, <, =", rpath + ".rel")
        rows.append(HRow(a, b, rel))
    return _at(path, PolyhedronH.make, dim, tuple(rows))


def dec_cone(data, path: str = "$", default_dim: Optional[int] = None) -> ConeH:
    if isinstance(data, dict) and "rays" in data and "rows" not in data:
        rays = [dec_vec(r, "%s.rays[%d]" % (path, i))
                for i, r in enumerate(_get_list(data, "rays", path))]
        dim = _get(data, "dim", path, required=False,
                   default=len(rays[0]) if rays else default_dim)
        if dim is None:
            raise ParseError("cone needs rays or a dim", path)
        _as_int(dim, 1, path + ".dim")
        for i, r in enumerate(rays):
            _sized(r, dim, "%s.rays[%d]" % (path, i))
        return hrep_from_rays(rays, dim)
    p = dec_polyhedron(data, path)
    return _at(path, ConeH, p.dim, p.rows)  # rows already canonical


def dec_fan(data, path: str = "$") -> Fan:
    dim = dec_dim(data, path)
    cones = [dec_cone(c, "%s.cones[%d]" % (path, i), default_dim=dim)
             for i, c in enumerate(_get_list(data, "cones", path))]
    for i, c in enumerate(cones):
        if c.dim != dim:
            raise ParseError("cone dim %d != fan dim %d" % (c.dim, dim),
                             "%s.cones[%d]" % (path, i))
    return Fan.make(dim, cones)


def dec_flag(data, path: str = "$") -> FlagOfCones:
    tau_rays = [dec_vec(r, "%s.tau_rays[%d]" % (path, i))
                for i, r in enumerate(_get_list(data, "tau_rays", path, required=False))]
    cones = []
    for i, c in enumerate(_get_list(data, "cones", path)):
        cpath = "%s.cones[%d]" % (path, i)
        cones.append([dec_vec(r, "%s.rays[%d]" % (cpath, j))
                      for j, r in enumerate(_get_list(c, "rays", cpath))])
    ambient = _get(data, "ambient_dim", path, required=False,
                   default=len(cones[0][0]) if cones and cones[0] else None)
    if ambient is None:
        raise ParseError("flag needs ambient_dim or at least one ray", path)
    _as_int(ambient, 1, path + ".ambient_dim")
    for i, t in enumerate(tau_rays):
        _sized(t, ambient - 1, "%s.tau_rays[%d]" % (path, i))
    for i, rays in enumerate(cones):
        for j, r in enumerate(rays):
            _sized(r, ambient, "%s.cones[%d].rays[%d]" % (path, i, j))
    return make_flag(ambient, tau_rays, cones)


# --- prime matrices ---------------------------------------------------------

def enc_matrix(theta: PrimeMatrix) -> dict:
    ctx = theta.context
    out = {"context": enc_context(ctx)}
    if ctx.is_affine_preset() or ctx.is_torus():
        # column i leaves tau-perp iff some ray of tau has a nonzero i-th entry
        dead = {i for r in theta.tau.rays for i, x in enumerate(r) if x}
        matrix = []
        for row in theta.rows:
            body = [enc_extfrac(None if i in dead else x) for i, x in enumerate(row[1:])]
            matrix.append(body if ctx.coeff == COEFF_B else [enc_frac(row[0])] + body)
        out["matrix"] = matrix
        return out
    out["tau_rays"] = [enc_vec_int(r) for r in theta.tau.rays]
    out["rows"] = [{"r": enc_frac(row[0]), "x": enc_vec(row[1:])} for row in theta.rows]
    return out


def dec_matrix(data, ctx: ToricContext, path: str = "$") -> PrimeMatrix:
    from .congruence import PrimeMatrix
    if "matrix" in data:
        entries = []
        for i, raw in enumerate(_get_list(data, "matrix", path)):
            rpath = "%s.matrix[%d]" % (path, i)
            entries.append([dec_extfrac(x, "%s[%d]" % (rpath, j))
                            for j, x in enumerate(_as_list(raw, rpath))])
        return _at(path, PrimeMatrix.from_extended_matrix, ctx, entries)
    tau = _at(path, dec_face, data, ctx, path)
    rows = []
    for i, r in enumerate(_get_list(data, "rows", path)):
        rpath = "%s.rows[%d]" % (path, i)
        rows.append((dec_frac(_get(r, "r", rpath), rpath + ".r"),)
                    + _sized(dec_vec(_get(r, "x", rpath), rpath + ".x"), ctx.rank,
                             rpath + ".x"))
    return _at(path, PrimeMatrix.make, ctx, tau, rows)


# --- points -----------------------------------------------------------------

def dec_face(data, ctx: ToricContext, path: str = "$") -> Face:
    """The face of sigma spanned by the optional "tau_rays" (the dense face if none).

    A set of rays that spans no face raises ValueError, which callers map."""
    tau_rays = []
    for i, t in enumerate(_get_list(data, "tau_rays", path, required=False)):
        tpath = "%s.tau_rays[%d]" % (path, i)
        tau_rays.append(_sized(dec_vec(t, tpath), ctx.rank, tpath))
    return ctx.face_from_rays(tau_rays)


def _dec_point(data, ctx: ToricContext, path: str, r) -> ExtPoint:
    """The ExtPoint at height r of "x" on the stratum of "tau_rays"."""
    tau = _at(path, dec_face, data, ctx, path)
    x = _sized(dec_vec(_get(data, "x", path), path + ".x"), ctx.rank, path + ".x")
    return _at(path, ExtPoint.make, ctx, r, tau, x)


def dec_ext_point(data, ctx: ToricContext, path: str = "$") -> ExtPoint:
    return _dec_point(data, ctx, path, dec_frac(_get(data, "r", path), path + ".r"))


def dec_stratum_point(data, ctx: ToricContext, path: str = "$") -> ExtPoint:
    """A point of N_R(sigma): the height-1 ExtPoint of "x" on the stratum of "tau_rays"."""
    return _dec_point(data, ctx, path, 1)


# --- derivations and certificates -------------------------------------------

def _step_ops() -> dict:
    """The derivation step classes by their JSON op."""
    from .congruence import AddBoth, Generator, MulMono, Refl, Sym, Trans
    return {"gen": Generator, "refl": Refl, "sym": Sym, "trans": Trans,
            "addboth": AddBoth, "mulmono": MulMono}


_POLY_FIELDS = ("poly", "h", "m")  # of a step; its other fields are indices


def enc_step(s) -> dict:
    op = next((op for op, cls in _step_ops().items() if isinstance(s, cls)), None)
    if op is None:
        raise TypeError("unknown step %r" % (s,))
    doc = {"op": op}
    for name in s._fields:
        value = getattr(s, name)
        doc[name] = enc_poly(value) if name in _POLY_FIELDS else value
    return doc


def dec_step(data, ctx: ToricContext, path: str):
    op = _get(data, "op", path)
    cls = _step_ops().get(op) if isinstance(op, str) else None
    if cls is None:
        raise ParseError("unknown derivation op %r" % op, path + ".op")
    return cls(*(dec_poly(_get(data, name, path), ctx, "%s.%s" % (path, name))
                 if name in _POLY_FIELDS else _get_index(data, name, path)
                 for name in cls._fields))


def enc_derivation(d: Derivation) -> dict:
    return {"steps": [enc_step(s) for s in d.steps]}


def dec_derivation(data, ctx: ToricContext, path: str = "$") -> Derivation:
    from .congruence import Derivation
    return Derivation(tuple(dec_step(s, ctx, "%s.steps[%d]" % (path, i))
                            for i, s in enumerate(_get_list(data, "steps", path))))


def enc_certificate(c: RadicalCertificate) -> dict:
    return {"exponent": c.exponent,
            "cofactor": enc_poly(c.cofactor),
            "derivation": None if c.derivation is None else enc_derivation(c.derivation)}


def dec_certificate(data, ctx: ToricContext, path: str = "$") -> RadicalCertificate:
    from .congruence import RadicalCertificate
    i = _get_index(data, "exponent", path)
    h = dec_poly(_get(data, "cofactor", path), ctx, path + ".cofactor")
    d = _get(data, "derivation", path, required=False)
    return RadicalCertificate(i, h, None if d is None else
                              dec_derivation(d, ctx, path + ".derivation"))


# --- variety supports -------------------------------------------------------

def enc_support(V: VarietySupport) -> dict:
    return {"context": enc_context(V.context),
            "strata": [{"tau_rays": [enc_vec_int(r) for r in s.tau.rays],
                        "cells": [enc_polyhedron(c) for c in s.cells]}
                       for s in V.strata]}


# --- top-level helpers -------------------------------------------------------

def dumps(obj) -> str:
    doc = dict(obj)
    doc.setdefault("format", FORMAT_TAG)
    return json.dumps(doc, sort_keys=True, indent=1)


def load_document(text: str, path_label: str = "$"):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc, path_label)
    if isinstance(doc, dict) and doc.get("format", FORMAT_TAG) != FORMAT_TAG:
        raise ParseError("format %r, expected %r" % (doc["format"], FORMAT_TAG),
                         path_label + ".format")
    return doc


def context_of_document(data, path: str = "$", max_dim: Optional[int] = None) -> ToricContext:
    return dec_context(_get(data, "context", path), path + ".context", max_dim=max_dim)
