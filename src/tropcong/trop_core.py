"""Toric contexts, polynomials, and extended-point evaluation.

A value of the max-plus semifield T = (Q u {-inf}, max, +) is an exact number
(an `int` when integral, else a `Fraction`), or None for bottom (-inf); the
coefficient group is Q (mode "T") or {0} (mode "B").  Polynomials are finite
maps from monoid exponents to coefficient exponents; the zero polynomial is
the empty map.  Everything is immutable.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Sequence

from . import polyhedra
from ._linalg import (ONE, ZERO, Vec, dot, frac, primitive, reduce_mod_rref, rref,
                      vec)
from ._record import _Record
from .polyhedra import ConeH

COEFF_T = "T"
COEFF_B = "B"


class ContextMismatchError(ValueError):
    pass


class ZeroPolynomialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# toric context

_DEFAULT_NAMES = ("x", "y", "z", "w")


class Face(_Record):
    """Face tau <= sigma; rays primitive and sorted, pivots of span(rays) cached."""

    _fields = ("ambient", "rays", "span_rref", "pivots")

    @staticmethod
    def from_rays(ambient: int, rays: Iterable[Vec]) -> "Face":
        rays = tuple(sorted(primitive(r) for r in rays))
        red, piv = rref(rays) if rays else ([], [])
        return Face(ambient, rays, tuple(red), tuple(piv))

    def dim(self) -> int:
        return len(self.pivots)

    def perp_contains(self, u: Sequence) -> bool:
        """u in tau-perp, i.e. <v, u> = 0 for every ray v of tau."""
        return all(dot(r, u) == 0 for r in self.rays)

    def canonical(self, x: Sequence) -> Vec:
        """x reduced mod span(tau); x must have the ambient length."""
        if len(x) != self.ambient:
            raise polyhedra.DimensionMismatchError(
                "vector of length %d in rank %d" % (len(x), self.ambient))
        return reduce_mod_rref(x, self.span_rref, self.pivots)

    def cone(self) -> ConeH:
        return polyhedra.hrep_from_rays(self.rays, self.ambient)


class ToricContext(_Record):
    """Rank-n lattice, strongly convex rational cone sigma, monoid M = sigma^v cap Z^n.

    Uses the dual convention sigma^v = {u : <v, u> <= 0 for all v in sigma}.
    A context is identified by its cone: `sigma_rays` holds the primitive
    extreme rays of sigma, sorted, whatever rays spanned it.
    """

    _fields = ("rank", "sigma_rays", "coeff")

    def __init__(self, rank: int, sigma_rays: Iterable[Vec], coeff: str = COEFF_T):
        rays = tuple(map(tuple, sigma_rays))
        if any(len(r) != rank for r in rays):
            raise polyhedra.DimensionMismatchError("ray length != rank")
        if coeff not in (COEFF_T, COEFF_B):
            raise ValueError("coeff mode must be 'T' or 'B'")
        lin, rays = polyhedra.cone_generators(_sigma(rank, rays))
        if lin:
            raise ValueError("sigma contains a line; not strongly convex")
        super().__init__(rank, rays, coeff)

    # presets ---------------------------------------------------------------
    @classmethod
    def affine(cls, n: int, coeff: str = COEFF_T) -> "ToricContext":
        rays = [tuple(-ONE if j == i else ZERO for j in range(n)) for i in range(n)]
        return cls(n, rays, coeff)

    @classmethod
    def torus(cls, n: int, coeff: str = COEFF_T) -> "ToricContext":
        return cls(n, (), coeff)

    @property
    def var_names(self) -> tuple:
        n = self.rank
        return (_DEFAULT_NAMES[:n] if n <= len(_DEFAULT_NAMES)
                else tuple("x%d" % (i + 1) for i in range(n)))

    # geometry ---------------------------------------------------------------
    @property
    def sigma(self) -> ConeH:
        return _sigma(self.rank, self.sigma_rays)

    @property
    def faces(self) -> tuple:
        """The faces of sigma, by dimension then rays: the dense face first."""
        return _faces(self)

    @property
    def dense_face(self) -> Face:
        return self.faces[0]

    @property
    def deep_face(self) -> Face:
        return self.faces[-1]

    def face_from_rays(self, rays: Iterable[Vec]) -> Face:
        want = tuple(sorted(primitive(r) for r in rays))
        for f in self.faces:
            if f.rays == want:
                return f
        raise ValueError("not a face of sigma: %r" % (want,))

    def exponent_in_monoid(self, u: Sequence) -> bool:
        u = vec(u)
        if any(x.denominator != 1 for x in u):
            return False
        return all(dot(r, u) <= 0 for r in self.sigma_rays)

    def is_affine_preset(self) -> bool:
        return self == ToricContext.affine(self.rank, self.coeff)

    def is_torus(self) -> bool:
        return not self.sigma_rays


@lru_cache(maxsize=polyhedra.CACHE_SIZE)
def _sigma(rank: int, rays: tuple) -> ConeH:
    """cone(rays); a canonical spelling (a preset's) shares its context's key."""
    return polyhedra.hrep_from_rays(rays, rank)


@lru_cache(maxsize=polyhedra.CACHE_SIZE)
def _faces(ctx: ToricContext) -> tuple:
    """The faces of sigma, read off ray incidence.

    sigma is pointed, so each face is spanned by the extreme rays of sigma
    tight on some set of its rows (Fukuda & Prodon 1996): the ray sets are
    all of `sigma_rays` closed under intersection with each row's tight rays,
    and no face runs a generator enumeration of its own."""
    found = {frozenset(ctx.sigma_rays)}
    for r in ctx.sigma.rows:
        tight = {g for g in ctx.sigma_rays if dot(r.a, g) == 0}
        found |= {s & tight for s in found}
    fs = [Face.from_rays(ctx.rank, s) for s in found]
    return tuple(sorted(fs, key=lambda f: (f.dim(), f.rays)))


# ---------------------------------------------------------------------------
# polynomials

class TropPoly(_Record):
    """f = sum over u of t^{a_u} chi^u; empty term map is the zero polynomial.

    `terms` is a sorted tuple of (exponent tuple of ints, exact
    coefficient-exponent)."""

    _fields = ("context", "terms")

    @staticmethod
    def make(context: ToricContext, terms) -> "TropPoly":
        """The polynomial of (exponent, coefficient) terms, from a dict or pairs;
        a None coefficient is bottom and drops its term."""
        out = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for u, a in items:
            u = vec(u)
            if len(u) != context.rank:
                raise polyhedra.DimensionMismatchError(
                    "exponent %r in rank %d" % (u, context.rank))
            if a is None:
                continue
            a = frac(a)
            if not context.exponent_in_monoid(u):
                raise ValueError("exponent %r outside the monoid" % (u,))
            if context.coeff == COEFF_B and a != 0:
                raise ValueError("Boolean coefficients force coefficient exponent 0")
            if u in out:
                out[u] = max(out[u], a)
            else:
                out[u] = a
        return TropPoly(context, tuple(sorted(out.items())))

    @staticmethod
    def zero(context: ToricContext) -> "TropPoly":
        return TropPoly(context, ())

    @staticmethod
    def one(context: ToricContext) -> "TropPoly":
        return TropPoly.make(context, {(0,) * context.rank: ZERO})

    # --- basic structure ---
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> tuple:
        return tuple(u for u, _ in self.terms)

    def term_vectors(self) -> tuple:
        """The (1+n) term vector (a,) + u of each term t^a z^u, in the order of
        `terms`: its value at a (1+n)-vector w, a point or a matrix row, is
        one dot with w."""
        return tuple((a,) + u for u, a in self.terms)

    def degree(self) -> int:
        return max((sum(abs(x) for x in u) for u, _ in self.terms), default=0)

    # --- semiring operations ---
    def _check(self, other: "TropPoly"):
        if self.context != other.context:
            raise ContextMismatchError("operands come from different contexts")

    def __add__(self, other: "TropPoly") -> "TropPoly":
        self._check(other)
        out = dict(self.terms)
        for u, a in other.terms:
            out[u] = max(out[u], a) if u in out else a
        return TropPoly(self.context, tuple(sorted(out.items())))

    def __mul__(self, other: "TropPoly") -> "TropPoly":
        self._check(other)
        out = {}
        for u1, a1 in self.terms:
            for u2, a2 in other.terms:
                u = tuple(x + y for x, y in zip(u1, u2))
                a = a1 + a2
                if u not in out or out[u] < a:
                    out[u] = a
        return TropPoly(self.context, tuple(sorted(out.items())))

    def __pow__(self, k: int) -> "TropPoly":
        if k < 0:
            raise ValueError("negative power")
        acc, base = TropPoly.one(self.context), self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    # --- evaluation ---
    def evaluate(self, w: "ExtPoint"):
        """f~(w): the max of r*a + <x, u> over the terms alive on w's stratum,
        an exact number, or None (bottom, -inf) if no term is alive."""
        if self.context != w.context:
            raise ContextMismatchError("polynomial and point contexts differ")
        full = w.full_vector()
        return max((dot(m, full) for m in self.restrict(w.tau).term_vectors()),
                   default=None)

    def restrict(self, tau: Face) -> "TropPoly":
        """Terms whose exponents survive on the stratum of tau (u in tau-perp).

        tau is a face of sigma.  On the dense stratum every term survives."""
        if not tau.rays:
            return self
        return TropPoly(self.context, tuple(
            (u, a) for u, a in self.terms if tau.perp_contains(u)))

    def delete_term(self, u) -> "TropPoly":
        u = vec(u)
        return TropPoly(self.context, tuple(t for t in self.terms if t[0] != u))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.context.var_names
        parts = []
        for u, a in self.terms:
            factors = []
            if a != 0:
                factors.append("t^%s" % a)
            for i, e in enumerate(u):
                if e == 1:
                    factors.append(names[i])
                elif e != 0:
                    factors.append("%s^%d" % (names[i], e))
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# extended points

class ExtPoint(_Record):
    """Point (r, x) of R_{>=0} x N_R(sigma): height r, stratum face tau, coords mod span(tau)."""

    _fields = ("context", "r", "tau", "coords")

    @staticmethod
    def make(context: ToricContext, r, tau: Face, coords) -> "ExtPoint":
        r = frac(r)
        if r < 0:
            raise ValueError("height must be non-negative")
        if tau not in context.faces:
            raise ValueError("tau is not a face of sigma")
        return ExtPoint(context, r, tau, tau.canonical(coords))

    @staticmethod
    def dense(context: ToricContext, r, coords) -> "ExtPoint":
        return ExtPoint.make(context, r, context.dense_face, coords)

    def pair(self, m: Sequence):
        """<m, (r, x)> = r*a + <x, u> for the term vector m = (a,) + u, an
        exact number, if u is in tau-perp; else None (bottom, -inf)."""
        if not self.tau.perp_contains(m[1:]):
            return None
        return dot(m, self.full_vector())

    def full_vector(self) -> Vec:
        return (self.r,) + self.coords


# ---------------------------------------------------------------------------
# bend relations

def bend_relations(f: TropPoly) -> list:
    """One pair (f, f with term i deleted) per support element; f must be nonzero."""
    if f.is_zero():
        raise ZeroPolynomialError("bend relations of the zero polynomial")
    return [(f, f.delete_term(u)) for u in f.support()]


# ---------------------------------------------------------------------------
# parsing (used by fixtures and tests)

def parse_poly(context: ToricContext, text: str) -> TropPoly:
    """Parse '1 + t^2*x*y^2' style input; '1' is the unit, '0' the zero polynomial."""
    text = text.strip()
    if text == "0":
        return TropPoly.zero(context)
    names = context.var_names
    terms = []
    for chunk in text.split("+"):
        a = ZERO
        u = [0] * context.rank
        for fac in chunk.split("*"):
            fac = fac.strip()
            if not fac:
                raise ValueError("empty factor in %r" % (chunk,))
            if fac == "1":
                continue
            if fac == "t":
                a += 1
                continue
            m = re.fullmatch(r"t\^(-?\d+(?:/\d+)?)", fac)
            if m:
                a += frac(m.group(1))
                continue
            m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?", fac)
            if m and m.group(1) in names:
                i = names.index(m.group(1))
                u[i] += int(m.group(2)) if m.group(2) else 1
                continue
            raise ValueError("cannot parse factor %r" % (fac,))
        terms.append((u, a))
    return TropPoly.make(context, terms)
