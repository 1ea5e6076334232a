"""Reference flag shrinking: every flag cone rebuilt and cut in R^{1+n}.

This was the library's `variety.shrink_flag` before it cut each flag cone in
its own ray coordinates.  It is kept as an independent oracle for
tests/test_flag_rays.py and tests/test_pair_table.py: containment is decided
pair by pair with `prime_contains_pair` (the library's `congruence_in_prime`
now reads a term table shared by all pairs, so the reference keeps the
former per-pair path), each leading term by a second pass through
`initial_form_prime`, and every
cut cone is `flag.cone(i)` (an H-representation from the rays, one double
description) with the domination rows appended, enumerated again by
`cone_dim` and `generators`.  A cut with more extreme rays than its
dimension makes the output fail `validate_flag`, which it reports as an
`InternalConsistencyError`.  Test use only.
"""

from __future__ import annotations

from typing import Optional

from tropcong import polyhedra
from tropcong._linalg import ZERO, Vec, vsub
from tropcong.congruence import (CongruencePresentation, PrimeMatrix, flag_to_matrix,
                                 initial_form_prime, prime_contains_pair)
from tropcong.polyhedra import EQ, FlagOfCones, HRow, validate_flag
from tropcong.trop_core import ToricContext, TropPoly
from tropcong.variety import InternalConsistencyError, _difference_rows


def shrink_flag(context: ToricContext, flag: FlagOfCones,
                E: CongruencePresentation) -> FlagOfCones:
    theta = flag_to_matrix(context, flag)
    if not all(prime_contains_pair(theta, p) for p in E.pairs):
        raise ValueError("E is not contained in the prime of the flag")
    rows = []
    for f, g in E.pairs:
        mf = _leading_term_vec(f, theta)
        mg = _leading_term_vec(g, theta)
        if mf is None or mg is None:
            if mf is None and mg is None:
                continue
            raise InternalConsistencyError("one side dead, yet the pair is in the prime")
        for p, vcs in ((f, mf), (g, mg)):
            tvs = p.restrict(theta.tau).term_vectors()
            rows.extend(_difference_rows(vcs, tvs))
        rows.append(HRow(vsub(mf, mg), ZERO, EQ))
    new_cones = []
    for i in range(len(flag.cones_rays)):
        c = flag.cone(i).with_rows(tuple(rows))
        if polyhedra.cone_dim(c) != i + 1:
            raise InternalConsistencyError(
                "dimension dropped while shrinking; the cut should be a neighborhood")
        new_cones.append(polyhedra.generators(c))
    out = polyhedra.make_flag(flag.ambient_dim, flag.tau_rays, new_cones)
    bad = validate_flag(out)
    if bad:
        raise InternalConsistencyError("shrunk flag invalid: " + "; ".join(bad))
    return out


def _leading_term_vec(p: TropPoly, theta: PrimeMatrix) -> Optional[Vec]:
    pr = p.restrict(theta.tau)
    if pr.is_zero():
        return None
    lead = initial_form_prime(p, theta)
    return lead.term_vectors()[0]
