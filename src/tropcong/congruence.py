"""Congruence presentations, matrix-defined primes, derivations, certificates.

A prime congruence on S[M] is given by a matrix whose rows live in a single
stratum R_{>=0} x N_R/tau; monomials evaluate to lexicographically compared
vectors Phi(m), with the convention that an exponent outside tau-perp kills
the whole row vector.  Membership of a pair is Phi-equality, which makes every
check here exact and fast.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import polyhedra
from ._linalg import ONE, ZERO, Vec, frac, primitive, vec
from ._record import _Record
from .polyhedra import FlagOfCones, validate_flag
from .trop_core import (COEFF_B, ContextMismatchError, ExtPoint, Face,
                        ToricContext, TropPoly, ZeroPolynomialError,
                        bend_relations, pair_term)


class InvalidMatrixError(ValueError):
    pass


# ---------------------------------------------------------------------------
# prime matrices

class PrimeMatrix(_Record):
    """Defining matrix of a prime congruence: rows (height, coords) in one stratum."""

    _fields = ("context", "tau", "rows")

    def __init__(self, context: ToricContext, tau: Face, rows: tuple):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "rows", rows)  # tuple of (exact height, Vec coords)

    @staticmethod
    def make(context: ToricContext, tau: Face, rows) -> "PrimeMatrix":
        canon = []
        for r, x in rows:
            r = frac(r)
            if context.coeff == COEFF_B:
                r = ZERO  # the coefficient column is inert over B
            if r < 0:
                raise InvalidMatrixError("row height must be non-negative")
            canon.append((r, tau.canonical(x)))
        if not canon:
            raise InvalidMatrixError("a prime matrix needs at least one row")
        heights = tuple(r for r, _ in canon)
        if _lex_negative(heights):
            raise InvalidMatrixError("first column must be lexicographically >= 0")
        return PrimeMatrix(context, tau, tuple(canon))

    @staticmethod
    def from_extended_matrix(context: ToricContext, entries) -> "PrimeMatrix":
        """Rows of extended rationals; None means -inf.  Over T the first column is
        the coefficient column; over B only the variable columns are given.
        Columns of -inf must be full and must span a face of sigma."""
        n = context.rank
        rows = []
        dead_cols = None
        for raw in entries:
            raw = list(raw)
            if context.coeff == COEFF_B:
                if len(raw) != n:
                    raise InvalidMatrixError("expected %d variable columns" % n)
                height, coords = ZERO, raw
            else:
                if len(raw) != n + 1:
                    raise InvalidMatrixError("expected %d columns" % (n + 1))
                height, coords = raw[0], raw[1:]
                if height is None:
                    raise InvalidMatrixError("coefficient column cannot be -inf over T")
            dead = frozenset(i for i, x in enumerate(coords) if x is None)
            if dead_cols is None:
                dead_cols = dead
            elif dead_cols != dead:
                raise InvalidMatrixError("-inf entries must fill whole columns")
            rows.append((height, coords))
        tau = _face_of_dead_columns(context, dead_cols or frozenset())
        fixed = []
        for height, coords in rows:
            full = [ZERO if x is None else frac(x) for x in coords]
            fixed.append((height, tuple(full)))
        return PrimeMatrix.make(context, tau, fixed)

    def rank(self) -> int:
        return len(self.rows)


def _lex_negative(v: Sequence) -> bool:
    for x in v:
        if x < 0:
            return True
        if x > 0:
            return False
    return False


def _face_of_dead_columns(context: ToricContext, dead) -> Face:
    if not dead:
        return context.dense_face
    if not context.is_affine_preset():
        raise InvalidMatrixError(
            "-inf column form only applies to the affine preset; use the stratum form")
    rays = []
    for i in sorted(dead):
        e = [ZERO] * context.rank
        e[i] = -ONE
        rays.append(tuple(e))
    return context.face_from_rays(rays)


# ---------------------------------------------------------------------------
# Phi evaluation

LexVec = tuple  # entries exact numbers or None (= -inf)


def phi_monomial(theta: PrimeMatrix, a: Fraction, u: Sequence) -> LexVec:
    if not theta.tau.perp_contains(u):
        return (None,) * theta.rank()
    return tuple(pair_term(r, x, a, u) for r, x in theta.rows)


def lex_le(v1: LexVec, v2: LexVec) -> bool:
    for a, b in zip(v1, v2):
        if a == b:
            continue
        if a is None:
            return True
        if b is None:
            return False
        return a < b
    return True


def _live_phis(theta: PrimeMatrix, f: TropPoly) -> tuple:
    """The terms of f alive on theta's stratum and their Phi-vectors, which
    hold exact numbers only: tuples of them compare lexicographically."""
    live = f.restrict(theta.tau).terms
    rows = theta.rows
    return live, [tuple(pair_term(r, x, a, u) for r, x in rows) for u, a in live]


def prime_eval(theta: PrimeMatrix, f: TropPoly) -> LexVec:
    """Phi(f) = lex-max over terms of Theta.(a;u); the all-bottom vector when no
    term is alive on theta's stratum, as for the zero polynomial."""
    if theta.context != f.context:
        raise ContextMismatchError("matrix and polynomial contexts differ")
    _, vals = _live_phis(theta, f)
    if not vals:
        return (None,) * theta.rank()
    return max(vals)


def prime_contains_pair(theta: PrimeMatrix, pair) -> bool:
    f, g = pair
    return prime_eval(theta, f) == prime_eval(theta, g)


def monomial_le(theta: PrimeMatrix, m1: TropPoly, m2: TropPoly) -> bool:
    return lex_le(prime_eval(theta, m1), prime_eval(theta, m2))


# ---------------------------------------------------------------------------
# congruence presentations

class CongruencePresentation(_Record):
    _fields = ("context", "pairs", "finite_tropical_basis")

    def __init__(self, context: ToricContext, pairs: tuple,
                 finite_tropical_basis: bool = False):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "pairs", pairs)  # tuple of (TropPoly, TropPoly)
        object.__setattr__(self, "finite_tropical_basis", finite_tropical_basis)

    @staticmethod
    def make(context, pairs, finite_tropical_basis=False) -> "CongruencePresentation":
        for f, g in pairs:
            if f.context != context or g.context != context:
                raise ContextMismatchError("generator pair from a different context")
        return CongruencePresentation(context, tuple(pairs), finite_tropical_basis)

    @staticmethod
    def bend_of(f: TropPoly, finite_tropical_basis=True) -> "CongruencePresentation":
        return CongruencePresentation.make(f.context, bend_relations(f),
                                           finite_tropical_basis)


def congruence_in_prime(E: CongruencePresentation, theta: PrimeMatrix) -> bool:
    return all(prime_contains_pair(theta, p) for p in E.pairs)


# ---------------------------------------------------------------------------
# initial forms

def initial_form_point(f: TropPoly, w: ExtPoint) -> TropPoly:
    """Sum of the terms maximizing <(a_u, u), w>; all-bottom keeps every term."""
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial")
    live = f.restrict(w.tau).terms
    if not live:
        return f
    r, x = w.r, w.coords
    vals = [pair_term(r, x, a, u) for u, a in live]
    top = max(vals)
    return TropPoly(f.context, tuple(t for t, v in zip(live, vals) if v == top))


def initial_form_prime(f: TropPoly, theta: PrimeMatrix) -> TropPoly:
    """Terms whose Phi-vector is lexicographically maximal; all-bottom keeps every term."""
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial")
    if theta.context != f.context:
        raise ContextMismatchError("matrix and polynomial contexts differ")
    live, vals = _live_phis(theta, f)
    if not live:
        return f
    top = max(vals)
    return TropPoly(f.context, tuple(t for t, v in zip(live, vals) if v == top))


# ---------------------------------------------------------------------------
# ideal-kernel

def ideal_kernel_face(theta: PrimeMatrix) -> Face:
    return theta.tau


def has_trivial_ideal_kernel(theta: PrimeMatrix) -> bool:
    return theta.tau.dim() == 0


# ---------------------------------------------------------------------------
# flags -> matrices

def flag_to_matrix(context: ToricContext, flag: FlagOfCones) -> PrimeMatrix:
    """Row i is the primitive sum of the rays of C_i, a relative-interior point.

    Any choice of w_i in C_i \\ C_{i-1} induces the same congruence; this one
    is canonical.
    """
    bad = validate_flag(flag)
    if bad:
        raise ValueError("invalid flag: " + "; ".join(bad))
    tau = context.face_from_rays(flag.tau_rays)
    rows = []
    for rays in flag.cones_rays:
        # the sum of the rays of a simplicial cone is a relative interior point
        pt = primitive(vec([sum(r[j] for r in rays) for j in range(flag.ambient_dim)]))
        rows.append((pt[0], pt[1:]))
    return PrimeMatrix.make(context, tau, rows)


# ---------------------------------------------------------------------------
# derivations

class Generator(_Record):
    _fields = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Refl(_Record):
    _fields = ("poly",)

    def __init__(self, poly: TropPoly):
        object.__setattr__(self, "poly", poly)


class Sym(_Record):
    _fields = ("i",)

    def __init__(self, i: int):
        object.__setattr__(self, "i", i)


class Trans(_Record):
    _fields = ("i", "j")

    def __init__(self, i: int, j: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)


class AddBoth(_Record):
    _fields = ("i", "h")

    def __init__(self, i: int, h: TropPoly):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "h", h)


class MulMono(_Record):
    _fields = ("i", "m")

    def __init__(self, i: int, m: TropPoly):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "m", m)


Step = Union[Generator, Refl, Sym, Trans, AddBoth, MulMono]


class Derivation(_Record):
    _fields = ("steps",)

    def __init__(self, steps: tuple):
        object.__setattr__(self, "steps", steps)


class DerivationError(ValueError):
    pass


def pairs_equal_unordered(p, q) -> bool:
    return (p[0] == q[0] and p[1] == q[1]) or (p[0] == q[1] and p[1] == q[0])


def run_derivation(E: CongruencePresentation, d: Derivation):
    """Replay steps, returning the produced pairs; raises on malformed steps."""
    produced = []
    for s in d.steps:
        if isinstance(s, Generator):
            if not 0 <= s.index < len(E.pairs):
                raise DerivationError("generator index out of range")
            produced.append(E.pairs[s.index])
        elif isinstance(s, Refl):
            produced.append((s.poly, s.poly))
        elif isinstance(s, Sym):
            a, b = _prior(produced, s.i)
            produced.append((b, a))
        elif isinstance(s, Trans):
            a, b = _prior(produced, s.i)
            b2, c = _prior(produced, s.j)
            if b != b2:
                raise DerivationError("transitivity endpoints do not meet")
            produced.append((a, c))
        elif isinstance(s, AddBoth):
            a, b = _prior(produced, s.i)
            produced.append((a + s.h, b + s.h))
        elif isinstance(s, MulMono):
            if not s.m.is_monomial():
                raise DerivationError("MulMono multiplier must be a monomial")
            a, b = _prior(produced, s.i)
            produced.append((s.m * a, s.m * b))
        else:
            raise DerivationError("unknown step %r" % (s,))
    return produced


def _prior(produced, i):
    if not 0 <= i < len(produced):
        raise DerivationError("step references a later or missing pair")
    return produced[i]


def verify_derivation(E: CongruencePresentation, d: Derivation, target) -> bool:
    try:
        produced = run_derivation(E, d)
    except DerivationError:
        return False
    return bool(produced) and pairs_equal_unordered(produced[-1], target)


# ---------------------------------------------------------------------------
# radical certificates

class RadicalCertificate(_Record):
    _fields = ("exponent", "cofactor", "derivation")

    def __init__(self, exponent: int, cofactor: TropPoly, derivation: Optional[Derivation]):
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "cofactor", cofactor)
        # None when the congruence is matrix-backed
        object.__setattr__(self, "derivation", derivation)


Congruence = Union[CongruencePresentation, PrimeMatrix]


def _scaled_pair(f: TropPoly, g: TropPoly, i: int, h: TropPoly):
    s = (f + g) ** i + h
    return (s * f, s * g)


def verify_radical_certificate(E: Congruence, pair, cert: RadicalCertificate) -> bool:
    f, g = pair
    target = _scaled_pair(f, g, cert.exponent, cert.cofactor)
    if isinstance(E, PrimeMatrix):
        return prime_contains_pair(E, target)
    if cert.derivation is None:
        return False
    return verify_derivation(E, cert.derivation, target)


class SearchBounds(_Record):
    """Search limits."""

    _fields = ("max_exponent", "max_degree", "max_nodes")

    def __init__(self, max_exponent: int = 4, max_degree: int = 8, max_nodes: int = 4000):
        object.__setattr__(self, "max_exponent", max_exponent)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "max_nodes", max_nodes)


class NotFound(_Record):
    _fields = ("explored",)

    def __init__(self, explored: int):
        object.__setattr__(self, "explored", explored)


class _ProofForest:
    """Union-find over polynomials, plus the edges that joined two classes.

    Each union adds one edge between classes, so the edges form a spanning
    forest and explain() walks its unique path between two nodes."""

    def __init__(self):
        self.parent = {}
        self.edges = {}  # node -> [(other, reason)], both directions

    def add(self, x):
        self.parent[x] = x
        self.edges[x] = []

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]  # path halving
            x = self.parent[x]
        return x

    def union(self, x, y, reason):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry
            self.edges[x].append((y, reason))
            self.edges[y].append((x, reason))

    def connected(self, x, y):
        return self.find(x) == self.find(y)

    def explain(self, x, y):
        """Tree path x -> y as (node, other, reason) hops."""
        via = {x: None}  # node -> (previous node, reason)
        stack = [x]
        while y not in via:
            cur = stack.pop()
            for other, reason in self.edges[cur]:
                if other not in via:
                    via[other] = (cur, reason)
                    stack.append(other)
        path = []
        while via[y] is not None:
            prev, reason = via[y]
            path.append((prev, y, reason))
            y = prev
        return path[::-1]


def _minimal_completion(big: TropPoly, small: TropPoly) -> Optional[TropPoly]:
    """h with small + h == big and h minimal, or None if small exceeds big."""
    bigd = dict(big.terms)
    for u, a in small.terms:
        if u not in bigd or a > bigd[u]:
            return None
    smalld = dict(small.terms)
    keep = [(u, a) for u, a in big.terms if u not in smalld or smalld[u] < a]
    return TropPoly(big.context, tuple(sorted(keep)))


def search_radical_certificate(E: Congruence, pair, bounds: SearchBounds = None):
    """Bounded search for ((f+g)^i + h)(f, g) in <E>.

    For matrix-backed congruences this is a direct Phi check per candidate.
    For presentations it saturates one-step rewrites m*(a,b) + (h,h) under
    transitivity over a bounded universe, keeping a union-find of the reached
    polynomials and the rewrite that joined each two classes.  Those rewrites
    form a spanning forest; the forest path between the two sides of a target
    replays into a verifiable derivation.  NotFound is not a proof of
    non-membership.
    """
    bounds = bounds or SearchBounds()
    f, g = pair
    ctx = f.context
    cofactors = [TropPoly.zero(ctx)]
    seen_cof = {()}
    powers = [(f + g) ** i for i in range(bounds.max_exponent + 1)]
    pool = []
    if isinstance(E, PrimeMatrix):
        gen_pairs = ()
    else:
        gen_pairs = E.pairs
    for p in powers:
        pool.extend(p.terms)
    for a, b in gen_pairs:
        pool.extend(a.terms)
        pool.extend(b.terms)
    for u, c in sorted(set(pool)):
        key = ((u, c),)
        if key not in seen_cof:
            seen_cof.add(key)
            cofactors.append(TropPoly(ctx, key))

    if isinstance(E, PrimeMatrix):
        explored = 0
        for i in range(bounds.max_exponent + 1):
            for h in cofactors:
                explored += 1
                if prime_contains_pair(E, _scaled_pair(f, g, i, h)):
                    return RadicalCertificate(i, h, None)
        return NotFound(explored)

    targets = []
    for i in range(bounds.max_exponent + 1):
        for h in cofactors:
            lhs, rhs = _scaled_pair(f, g, i, h)
            if lhs.degree() <= bounds.max_degree and rhs.degree() <= bounds.max_degree:
                targets.append((i, h, lhs, rhs))

    multipliers = _multiplier_universe(ctx, gen_pairs, targets, bounds)
    forest = _ProofForest()
    frontier = deque()
    for _, _, lhs, rhs in targets:
        for node in (lhs, rhs):
            if node not in forest.parent:
                forest.add(node)
                frontier.append(node)
    for a, b in gen_pairs:
        for node in (a, b):
            if node not in forest.parent:
                forest.add(node)
                frontier.append(node)
    explored = 0
    while frontier and explored < bounds.max_nodes:
        x = frontier.popleft()
        explored += 1
        for gi, (a, b) in enumerate(gen_pairs):
            for src, dst in ((a, b), (b, a)):
                for m in multipliers:
                    ma = m * src
                    if ma.degree() > bounds.max_degree:
                        continue
                    h = _minimal_completion(x, ma)
                    if h is None:
                        continue
                    for hh in (h, x):
                        y = m * dst + hh
                        if y.degree() > bounds.max_degree:
                            continue
                        new = y not in forest.parent
                        if new:
                            forest.add(y)
                            frontier.append(y)
                        forest.union(x, y, (gi, m, hh, src is a))
    for i, h, lhs, rhs in targets:
        if forest.connected(lhs, rhs):
            deriv = _extract_derivation(E, forest, lhs, rhs)
            cert = RadicalCertificate(i, h, deriv)
            if verify_radical_certificate(E, pair, cert):
                return cert
    return NotFound(explored)


def _multiplier_universe(ctx, gen_pairs, targets, bounds):
    mult = {TropPoly.one(ctx)}
    target_terms = set()
    for _, _, lhs, rhs in targets:
        target_terms.update(lhs.terms)
        target_terms.update(rhs.terms)
    gen_terms = set()
    for a, b in gen_pairs:
        gen_terms.update(a.terms)
        gen_terms.update(b.terms)
    for (ut, at) in target_terms:
        for (ug, ag) in gen_terms:
            u = tuple(x - y for x, y in zip(ut, ug))
            if not ctx.exponent_in_monoid(u):
                continue
            a = at - ag
            if ctx.coeff == COEFF_B:
                a = ZERO
            if sum(abs(x) for x in u) <= bounds.max_degree:
                mult.add(TropPoly.make(ctx, {u: a}))
    return sorted(mult, key=lambda m: m.terms)


def _extract_derivation(E: CongruencePresentation, forest: _ProofForest, lhs, rhs):
    """Replay the proof-forest path into Generator/MulMono/AddBoth/Sym/Trans steps."""
    hops = forest.explain(lhs, rhs)
    steps = []
    produced = []

    def emit(step, pair):
        steps.append(step)
        produced.append(pair)
        return len(produced) - 1

    if not hops:
        return Derivation((Refl(lhs),))
    prev_idx = None
    for node, other, reason in hops:
        gi, m, h, src_is_a = reason
        a, b = E.pairs[gi]
        gidx = emit(Generator(gi), (a, b))
        if not src_is_a:
            gidx = emit(Sym(gidx), (b, a))
            a, b = b, a
        midx = emit(MulMono(gidx, m), (m * a, m * b))
        aidx = emit(AddBoth(midx, h), (m * a + h, m * b + h))
        # oriented edge is node -> other
        cur = produced[aidx]
        if not (cur[0] == node and cur[1] == other):
            aidx = emit(Sym(aidx), (cur[1], cur[0]))
        if prev_idx is None:
            prev_idx = aidx
        else:
            pa, pb = produced[prev_idx]
            ca, cb = produced[aidx]
            prev_idx = emit(Trans(prev_idx, aidx), (pa, cb))
    return Derivation(tuple(steps))
