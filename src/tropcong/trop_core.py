"""Toric contexts, polynomials, and extended-point evaluation.

A value of the max-plus semifield T = (Q u {-inf}, max, +) is an exact number
(an `int` when integral, else a `Fraction`), or None for bottom (-inf); the
coefficient group is Q (mode "T") or {0} (mode "B").  Polynomials are finite
maps from monoid exponents to coefficient exponents; the zero polynomial is
the empty map.  Everything is immutable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from . import polyhedra
from ._linalg import (ONE, ZERO, Vec, canon, dot, frac, primitive, reduce_mod_span,
                      rref, vec)
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

    def __init__(self, ambient: int, rays: tuple, span_rref: tuple, pivots: tuple):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "span_rref", span_rref)
        object.__setattr__(self, "pivots", pivots)

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
        return reduce_mod_span(vec(x), self.span_rref)

    def cone(self) -> ConeH:
        return polyhedra.hrep_from_rays(self.rays, self.ambient)


class ToricContext:
    """Rank-n lattice, strongly convex rational cone sigma, monoid M = sigma^v cap Z^n.

    Uses the dual convention sigma^v = {u : <v, u> <= 0 for all v in sigma}.
    """

    def __init__(self, rank: int, sigma_rays: Iterable[Vec], coeff: str = COEFF_T):
        self.rank = rank
        self.sigma_rays = tuple(sorted(primitive(r) for r in sigma_rays))
        for r in self.sigma_rays:
            if len(r) != rank:
                raise polyhedra.DimensionMismatchError("ray length != rank")
        if coeff not in (COEFF_T, COEFF_B):
            raise ValueError("coeff mode must be 'T' or 'B'")
        self.coeff = coeff
        self.var_names = (_DEFAULT_NAMES[:rank] if rank <= len(_DEFAULT_NAMES)
                          else tuple("x%d" % (i + 1) for i in range(rank)))
        self._sigma = polyhedra.hrep_from_rays(self.sigma_rays, rank) if self.sigma_rays \
            else polyhedra.origin_cone(rank)
        lin, _ = polyhedra.cone_generators(self._sigma)
        if lin:
            raise ValueError("sigma contains a line; not strongly convex")
        self._faces = None
        self._hash = hash(self._key())

    # presets ---------------------------------------------------------------
    @classmethod
    def affine(cls, n: int, coeff: str = COEFF_T) -> "ToricContext":
        rays = [tuple(-ONE if j == i else ZERO for j in range(n)) for i in range(n)]
        return cls(n, rays, coeff)

    @classmethod
    def torus(cls, n: int, coeff: str = COEFF_T) -> "ToricContext":
        return cls(n, (), coeff)

    # identity ---------------------------------------------------------------
    def _key(self):
        return (self.rank, self.sigma_rays, self.coeff)

    def __eq__(self, other):
        return self is other or (isinstance(other, ToricContext)
                                 and self._key() == other._key())

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ToricContext(rank=%d, sigma_rays=%r, coeff=%s)" % (
            self.rank, self.sigma_rays, self.coeff)

    # geometry ---------------------------------------------------------------
    @property
    def sigma(self) -> ConeH:
        return self._sigma

    @property
    def faces(self) -> tuple:
        if self._faces is None:
            fs = []
            for c in polyhedra.faces_of(self._sigma):
                _, rays = polyhedra.cone_generators(c)
                fs.append(Face.from_rays(self.rank, rays))
            fs.sort(key=lambda f: (f.dim(), f.rays))
            self._faces = tuple(fs)
        return self._faces

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
        want = tuple(sorted(tuple(-ONE if j == i else ZERO for j in range(self.rank))
                            for i in range(self.rank)))
        return self.sigma_rays == want

    def is_torus(self) -> bool:
        return not self.sigma_rays


# ---------------------------------------------------------------------------
# polynomials

class TropPoly(_Record):
    """f = sum over u of t^{a_u} chi^u; empty term map is the zero polynomial.

    `terms` is a sorted tuple of (exponent tuple of ints, exact
    coefficient-exponent)."""

    _fields = ("context", "terms")
    _restricted = None  # {face: restriction}, filled by restrict

    def __init__(self, context: ToricContext, terms: tuple):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", terms)

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
        acc = TropPoly.one(self.context)
        for _ in range(k):
            acc = acc * self
        return acc

    # --- evaluation ---
    def evaluate(self, w: "ExtPoint"):
        """f~(w): the max of r*a + <x, u> over the terms alive on w's stratum,
        an exact number, or None (bottom, -inf) if no term is alive."""
        if self.context != w.context:
            raise ContextMismatchError("polynomial and point contexts differ")
        live = self.restrict(w.tau).terms
        if not live:
            return None
        r, x = w.r, w.coords
        return max(pair_term(r, x, a, u) for u, a in live)

    def restrict(self, tau: Face) -> "TropPoly":
        """Terms whose exponents survive on the stratum of tau (u in tau-perp).

        tau is a face of sigma.  On the dense stratum every term survives;
        any other restriction is kept per face, in a cache left out of ==,
        the hash and the repr: a flag query evaluates the same polynomials on
        one deep stratum again and again."""
        if not tau.rays:
            return self
        memo = self._restricted
        if memo is None:
            memo = {}
            object.__setattr__(self, "_restricted", memo)
        out = memo.get(tau)
        if out is None:
            out = memo[tau] = TropPoly(self.context, tuple(
                (u, a) for u, a in self.terms if tau.perp_contains(u)))
        return out

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

def pair_term(r, x: Sequence, a, u: Sequence):
    """< (a, u), (r, x) > = r*a + <x, u>, canonical: the value of the term
    t^a z^u at a point or a matrix row (r, x), with no check that u is in
    tau-perp."""
    return canon(r * a + dot(x, u))


class ExtPoint(_Record):
    """Point (r, x) of R_{>=0} x N_R(sigma): height r, stratum face tau, coords mod span(tau)."""

    _fields = ("context", "r", "tau", "coords")

    def __init__(self, context: ToricContext, r: Fraction, tau: Face, coords: Vec):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def make(context: ToricContext, r, tau: Face, coords) -> "ExtPoint":
        r = frac(r)
        if r < 0:
            raise ValueError("height must be non-negative")
        return ExtPoint(context, r, tau, tau.canonical(coords))

    @staticmethod
    def dense(context: ToricContext, r, coords) -> "ExtPoint":
        return ExtPoint.make(context, r, context.dense_face, coords)

    def pair(self, a: Fraction, u: Sequence):
        """< (a, u), (r, x) > = r*a + <x, u>, an exact number, if u is in
        tau-perp; else None (bottom, -inf)."""
        if not self.tau.perp_contains(u):
            return None
        return pair_term(self.r, self.coords, a, u)

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
    terms = {}
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
            if m and m.group(1) in context.var_names:
                i = context.var_names.index(m.group(1))
                u[i] += int(m.group(2)) if m.group(2) else 1
                continue
            raise ValueError("cannot parse factor %r" % (fac,))
        key = tuple(u)
        terms[key] = max(terms[key], a) if key in terms else a
    return TropPoly.make(context, terms)
