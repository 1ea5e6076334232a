"""Congruence presentations, matrix-defined primes, derivations, certificates.

A prime congruence on S[M] is given by a matrix whose rows live in a single
stratum R_{>=0} x N_R/tau, each a (1+n)-vector, height first; a term t^a z^u
pairs with a row as its term vector (a,) + u by one dot, so monomials
evaluate to lexicographically compared vectors Phi(m), with the convention
that an exponent outside tau-perp kills the whole row vector.  Membership of
a pair is Phi-equality, which makes every check here exact and fast.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Optional, Union

from . import polyhedra
from ._linalg import ONE, ZERO, dot, frac, primitive
from ._record import _Record
from .polyhedra import FlagOfCones, validate_flag
from .trop_core import (COEFF_B, ContextMismatchError, ExtPoint, Face,
                        ToricContext, TropPoly, ZeroPolynomialError,
                        bend_relations)


class InvalidMatrixError(ValueError):
    pass


# ---------------------------------------------------------------------------
# prime matrices

class PrimeMatrix(_Record):
    """Defining matrix of a prime congruence: rows in one stratum.

    `rows` is a tuple of (1+n)-vectors (height,) + coords, the coords
    canonical mod span(tau)."""

    _fields = ("context", "tau", "rows")

    @staticmethod
    def make(context: ToricContext, tau: Face, rows) -> "PrimeMatrix":
        canon = []
        for row in rows:
            if len(row) != 1 + context.rank:
                raise polyhedra.DimensionMismatchError(
                    "matrix row of length %d in rank %d" % (len(row), context.rank))
            r = ZERO if context.coeff == COEFF_B else frac(row[0])  # inert over B
            if r < 0:
                raise InvalidMatrixError("row height must be non-negative")
            canon.append((r,) + tau.canonical(row[1:]))
        if not canon:
            raise InvalidMatrixError("a prime matrix needs at least one row")
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
                raw = [ZERO] + raw
            else:
                if len(raw) != n + 1:
                    raise InvalidMatrixError("expected %d columns" % (n + 1))
                if raw[0] is None:
                    raise InvalidMatrixError("coefficient column cannot be -inf over T")
            dead = frozenset(i for i, x in enumerate(raw[1:]) if x is None)
            if dead_cols is None:
                dead_cols = dead
            elif dead_cols != dead:
                raise InvalidMatrixError("-inf entries must fill whole columns")
            rows.append([ZERO if x is None else x for x in raw])
        tau = _face_of_dead_columns(context, dead_cols or frozenset())
        return PrimeMatrix.make(context, tau, rows)

    def rank(self) -> int:
        return len(self.rows)


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


def _phis(theta: PrimeMatrix, tvs) -> list:
    """The Phi-vectors of the term vectors tvs of terms alive on theta's
    stratum, which hold exact numbers only: tuples of them compare
    lexicographically."""
    rows = theta.rows
    return [tuple(dot(row, m) for row in rows) for m in tvs]


def prime_eval(theta: PrimeMatrix, f: TropPoly) -> LexVec:
    """Phi(f) = lex-max over terms of Theta.(a;u); the all-bottom vector when no
    term is alive on theta's stratum, as for the zero polynomial."""
    if theta.context != f.context:
        raise ContextMismatchError("matrix and polynomial contexts differ")
    vals = _phis(theta, f.restrict(theta.tau).term_vectors())
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

@lru_cache(maxsize=polyhedra.CACHE_SIZE)
def _pair_table(pairs: tuple, tau: Face) -> tuple:
    """(tvs, sides): the term vectors of the distinct terms alive on tau's
    stratum across every side of pairs, in first-seen order, and each pair as
    two tuples of indices into tvs, each in the order of its side's terms.  A
    side with no live term gets the empty tuple: it is bottom.

    The k pairs of the bend presentation of a k-term f have 2k^2 - k term
    slots but only the k terms of f, so a query values k terms.  A flag query
    asks for the same stratum again and again, so tables are cached; a
    presentation and its support share one table per stratum."""
    index = {}  # term vector -> its position in tvs

    def side(p):
        return tuple(index.setdefault(m, len(index))
                     for m in p.restrict(tau).term_vectors())

    sides = tuple((side(f), side(g)) for f, g in pairs)
    return tuple(index), sides


def _side_max(values, side):
    """The max of values over the indices of one side; None (bottom) for a
    side with no live term."""
    return max(map(values.__getitem__, side), default=None)


def _sides_equal(values, sides) -> bool:
    """The two sides of each pair in sides have the same max over values."""
    return all(_side_max(values, fs) == _side_max(values, gs) for fs, gs in sides)


class CongruencePresentation(_Record):
    """`pairs` is a tuple of (TropPoly, TropPoly)."""

    _fields = ("context", "pairs", "finite_tropical_basis")

    def __init__(self, context: ToricContext, pairs: tuple,
                 finite_tropical_basis: bool = False):
        super().__init__(context, pairs, finite_tropical_basis)

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


def _phi_table(E: CongruencePresentation, theta: PrimeMatrix) -> tuple:
    """(term vectors, Phi-vectors, sides): E's pair table on theta's stratum
    with the Phi-vector of each distinct live term."""
    if theta.context != E.context:
        raise ContextMismatchError("matrix and polynomial contexts differ")
    tvs, sides = _pair_table(E.pairs, theta.tau)
    return tvs, _phis(theta, tvs), sides


def congruence_in_prime(E: CongruencePresentation, theta: PrimeMatrix) -> bool:
    """E in the prime of theta: Phi(f) = Phi(g) for every pair.  Each distinct
    term alive on theta's stratum is valued once, and each side's Phi is the
    max of its terms' values; a side with no live term is bottom, equal to
    another dead side and to no live one."""
    _, phis, sides = _phi_table(E, theta)
    return _sides_equal(phis, sides)


# ---------------------------------------------------------------------------
# initial forms

def initial_form_point(f: TropPoly, w: ExtPoint) -> TropPoly:
    """Sum of the terms maximizing <(a_u, u), w>; all-bottom keeps every term."""
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial")
    live = f.restrict(w.tau)
    full = w.full_vector()
    return _top_terms(f, live.terms, [dot(m, full) for m in live.term_vectors()])


def initial_form_prime(f: TropPoly, theta: PrimeMatrix) -> TropPoly:
    """Terms whose Phi-vector is lexicographically maximal; all-bottom keeps every term."""
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial")
    if theta.context != f.context:
        raise ContextMismatchError("matrix and polynomial contexts differ")
    live = f.restrict(theta.tau)
    return _top_terms(f, live.terms, _phis(theta, live.term_vectors()))


def _top_terms(f: TropPoly, live, vals) -> TropPoly:
    """The live terms of f whose value in vals is the maximum; f itself when
    no term is alive, as every term is bottom."""
    if not live:
        return f
    top = max(vals)
    return TropPoly(f.context, tuple(t for t, v in zip(live, vals) if v == top))


# ---------------------------------------------------------------------------
# ideal-kernel

def has_trivial_ideal_kernel(theta: PrimeMatrix) -> bool:
    return theta.tau.dim() == 0


# ---------------------------------------------------------------------------
# flags -> matrices

@lru_cache(maxsize=polyhedra.CACHE_SIZE)
def flag_to_matrix(context: ToricContext, flag: FlagOfCones) -> PrimeMatrix:
    """Row i is the primitive sum of the rays of C_i, a relative-interior point.

    Any choice of w_i in C_i \\ C_{i-1} induces the same congruence; this one
    is canonical.  The matrix of a valid flag is cached per context (a flag
    is immutable), so a second call returns the same PrimeMatrix; an invalid
    flag raises ValueError on every call.
    """
    bad = validate_flag(flag)
    if bad:
        raise ValueError("invalid flag: " + "; ".join(bad))
    tau = context.face_from_rays(flag.tau_rays)
    # the sum of the rays of a simplicial cone is a relative interior point
    return PrimeMatrix.make(context, tau, [primitive(tuple(map(sum, zip(*rays))))
                                           for rays in flag.cones_rays])


# ---------------------------------------------------------------------------
# derivations

class Generator(_Record):
    _fields = ("index",)


class Refl(_Record):
    _fields = ("poly",)


class Sym(_Record):
    _fields = ("i",)


class Trans(_Record):
    _fields = ("i", "j")


class AddBoth(_Record):
    _fields = ("i", "h")


class MulMono(_Record):
    _fields = ("i", "m")


class Derivation(_Record):
    _fields = ("steps",)


class DerivationError(ValueError):
    pass


def run_derivation(E: CongruencePresentation, d: Derivation):
    """Replay the steps and return the pair the last one derives; raises
    DerivationError on a malformed or empty derivation."""
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
    if not produced:
        raise DerivationError("a derivation needs at least one step")
    return produced[-1]


def _prior(produced, i):
    if not 0 <= i < len(produced):
        raise DerivationError("step references a later or missing pair")
    return produced[i]


def verify_derivation(E: CongruencePresentation, d: Derivation, target) -> bool:
    try:
        return set(run_derivation(E, d)) == set(target)  # in either order
    except DerivationError:
        return False


# ---------------------------------------------------------------------------
# radical certificates

class RadicalCertificate(_Record):
    """`derivation` is None when the congruence is matrix-backed."""

    _fields = ("exponent", "cofactor", "derivation")


Congruence = Union[CongruencePresentation, PrimeMatrix]


def verify_radical_certificate(E: Congruence, pair, cert: RadicalCertificate) -> bool:
    """((f+g)^i + h)(f, g) in E for the certificate's exponent i and cofactor h.

    On a prime this is (f, g) in E: its quotient is totally ordered and
    cancellative (JM17), so with s = (f+g)^i + h, Phi(s*f) = Phi(s) + Phi(f)
    and s*f ~ s*g iff f ~ g or Phi(s) is bottom.  Phi(s) >= Phi(1) = 0 for
    i = 0; for i >= 1 it is bottom only when Phi(f) and Phi(g) are: f ~ g.

    On a presentation the derivation is replayed first.  When f + g has two or
    more terms, (f+g)^i has at least i + 1 terms (its support is the i-fold
    Minkowski sum of theirs), and so has s*f or s*g; an i at least the term
    count of both sides of the derived pair is refused without building s.
    """
    if isinstance(E, PrimeMatrix):
        return prime_contains_pair(E, pair)
    if cert.derivation is None:
        return False
    try:
        last = run_derivation(E, cert.derivation)
    except DerivationError:
        return False
    f, g = pair
    if len((f + g).terms) >= 2 and cert.exponent >= max(len(p.terms) for p in last):
        return False
    s = (f + g) ** cert.exponent + cert.cofactor
    return set(last) == {s * f, s * g}


class SearchBounds(_Record):
    """Search limits."""

    _fields = ("max_exponent", "max_degree", "max_nodes")

    def __init__(self, max_exponent: int = 4, max_degree: int = 8, max_nodes: int = 4000):
        super().__init__(max_exponent, max_degree, max_nodes)


class NotFound(_Record):
    _fields = ("explored",)


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

    On a prime matrix one Phi check decides every candidate (see
    verify_radical_certificate): the answer is the first, (0, bottom), the
    pair itself, or NotFound, a proof that no candidate the bounds allow holds.
    On a presentation it saturates one-step rewrites m*(a,b) + (h,h) under
    transitivity over a bounded universe, keeping a union-find of the reached
    polynomials and the rewrite that joined each two classes.  Those rewrites
    form a spanning forest; the forest path between the two sides of a target
    replays into a verifiable derivation.  NotFound there proves nothing.
    """
    bounds = bounds or SearchBounds()
    f, g = pair
    ctx = f.context
    exponents = range(bounds.max_exponent + 1)
    gen_pairs = () if isinstance(E, PrimeMatrix) else E.pairs
    # the cofactors: bottom, then each distinct term of a power of f + g or of
    # a generator, as a monomial
    powers = [(f + g) ** i for i in exponents]
    pool = {t for p in powers + [q for gp in gen_pairs for q in gp] for t in p.terms}
    cofactors = [TropPoly.zero(ctx)] + [TropPoly(ctx, (t,)) for t in sorted(pool)]
    candidates = [(i, h) for i in exponents for h in cofactors]

    if isinstance(E, PrimeMatrix):
        if prime_contains_pair(E, pair):
            return RadicalCertificate(0, cofactors[0], None)
        return NotFound(len(candidates))

    targets = []
    for i, h in candidates:
        s = powers[i] + h
        lhs, rhs = s * f, s * g
        if lhs.degree() <= bounds.max_degree and rhs.degree() <= bounds.max_degree:
            targets.append((i, h, lhs, rhs))

    multipliers = _multiplier_universe(ctx, gen_pairs, targets, bounds)
    # the rewrites (generator, m, m*src, m*dst, src is a), built once
    rewrites = [(gi, m, ma, m * dst, src is a)
                for gi, (a, b) in enumerate(gen_pairs) for src, dst in ((a, b), (b, a))
                for m in multipliers if (ma := m * src).degree() <= bounds.max_degree]
    forest = _ProofForest()
    frontier = deque()
    sides = [x for _, _, lhs, rhs in targets for x in (lhs, rhs)]
    for node in sides + [x for gp in gen_pairs for x in gp]:
        if node not in forest.parent:
            forest.add(node)
            frontier.append(node)
    explored = 0
    while frontier and explored < bounds.max_nodes:
        x = frontier.popleft()
        explored += 1
        for gi, m, ma, mb, src_is_a in rewrites:
            h = _minimal_completion(x, ma)
            if h is None:
                continue
            for hh in (h, x):
                y = mb + hh
                if y.degree() > bounds.max_degree:
                    continue
                if y not in forest.parent:
                    forest.add(y)
                    frontier.append(y)
                forest.union(x, y, (gi, m, hh, src_is_a))
    for i, h, lhs, rhs in targets:
        if forest.find(lhs) == forest.find(rhs):
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
            if sum(abs(x) for x in u) <= bounds.max_degree:
                mult.add(TropPoly.make(ctx, {u: at - ag}))
    return sorted(mult, key=lambda m: m.terms)


def _extract_derivation(E: CongruencePresentation, forest: _ProofForest, lhs, rhs):
    """The forest path lhs -> rhs as steps.  A hop's edge joins m*src + h to
    m*dst + h, so the hop runs along it iff its node is m*src + h."""
    hops = forest.explain(lhs, rhs)
    if not hops:
        return Derivation((Refl(lhs),))
    steps, prev = [], None  # each step but Trans acts on the one before it
    for node, _, (gi, m, h, src_is_a) in hops:
        steps.append(Generator(gi))
        if not src_is_a:
            steps.append(Sym(len(steps) - 1))
        steps.append(MulMono(len(steps) - 1, m))
        steps.append(AddBoth(len(steps) - 1, h))
        if m * E.pairs[gi][0 if src_is_a else 1] + h != node:
            steps.append(Sym(len(steps) - 1))
        if prev is not None:
            steps.append(Trans(prev, len(steps) - 1))
        prev = len(steps) - 1
    return Derivation(tuple(steps))
