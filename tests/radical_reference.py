"""Reference radical-certificate search and verification.

These were the library's `congruence.search_radical_certificate`,
`verify_radical_certificate` and `_extract_derivation` before a prime
decided by one Phi check and the presentation search built its rewrites once:

* on a `PrimeMatrix` the search tries every candidate `(i, h)` in turn,
  expanding `((f+g)^i + h)(f, g)` and checking it by Phi-equality, and the
  verifier checks the expanded target of the certificate the same way;
* on a presentation the search forms `m*src`, applies the degree filter and
  builds `m*dst + hh` again for every node it visits, and the verifier
  replays the derivation against the expanded target, with no guard on the
  exponent;
* `extract_derivation` replays the forest path, keeping the pair each step
  produces and reading a hop's orientation off the last one.

They are the oracles of tests/test_radical.py.  The proof forest, the
multiplier universe and `_minimal_completion` are the library's own: the
search differs only in the order of its work, so its unions, forest and
derivations must not.

Test use only.
"""

from __future__ import annotations

from collections import deque

from tropcong.congruence import (AddBoth, Derivation, Generator, MulMono, NotFound,
                                 PrimeMatrix, RadicalCertificate, Refl, SearchBounds,
                                 Sym, Trans, _minimal_completion, _multiplier_universe,
                                 _ProofForest, prime_contains_pair, verify_derivation)
from tropcong.trop_core import TropPoly


def scaled_pair(f: TropPoly, g: TropPoly, i: int, h: TropPoly):
    s = (f + g) ** i + h
    return (s * f, s * g)


def verify_radical_certificate(E, pair, cert: RadicalCertificate) -> bool:
    f, g = pair
    target = scaled_pair(f, g, cert.exponent, cert.cofactor)
    if isinstance(E, PrimeMatrix):
        return prime_contains_pair(E, target)
    if cert.derivation is None:
        return False
    return verify_derivation(E, cert.derivation, target)


def search_radical_certificate(E, pair, bounds: SearchBounds = None):
    bounds = bounds or SearchBounds()
    f, g = pair
    ctx = f.context
    exponents = range(bounds.max_exponent + 1)
    gen_pairs = () if isinstance(E, PrimeMatrix) else E.pairs
    polys = [(f + g) ** i for i in exponents] + [p for gp in gen_pairs for p in gp]
    pool = {t for p in polys for t in p.terms}
    cofactors = [TropPoly.zero(ctx)] + [TropPoly(ctx, (t,)) for t in sorted(pool)]
    candidates = [(i, h) for i in exponents for h in cofactors]

    if isinstance(E, PrimeMatrix):
        for i, h in candidates:
            if prime_contains_pair(E, scaled_pair(f, g, i, h)):
                return RadicalCertificate(i, h, None)
        return NotFound(len(candidates))

    targets = []
    for i, h in candidates:
        lhs, rhs = scaled_pair(f, g, i, h)
        if lhs.degree() <= bounds.max_degree and rhs.degree() <= bounds.max_degree:
            targets.append((i, h, lhs, rhs))

    multipliers = _multiplier_universe(ctx, gen_pairs, targets, bounds)
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
        if forest.find(lhs) == forest.find(rhs):
            deriv = extract_derivation(E, forest, lhs, rhs)
            cert = RadicalCertificate(i, h, deriv)
            if verify_radical_certificate(E, pair, cert):
                return cert
    return NotFound(explored)


def extract_derivation(E, forest, lhs, rhs):
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
            prev_idx = emit(Trans(prev_idx, aidx), (produced[prev_idx][0], produced[aidx][1]))
    return Derivation(tuple(steps))
