"""Reference flag validation and flag containment: every cone looked at.

`flag_violations` was the library's `polyhedra._flag_violations` before it
read the flag off its rays.  It is kept verbatim as an independent oracle for
tests/test_flag_rays.py: each flag cone gets an H-representation from its
rays (`hrep_from_rays`, one double description), its dimension is the rank
of its generators (`cone_dim`, a second one), and every nesting is decided
by `is_face` on the two rebuilt cones.

`flag_in_variety` was the library's `variety.flag_in_variety` before only
the top cone was tested: every flag cone, one-ray cones included, is split
by the tie arrangement and every piece is tested at the sum of its
generators, pointwise only, each side valued by `_sides_agree` through the
pair table.  It is the oracle of tests/test_flag_query.py.  Test use only.
"""

from __future__ import annotations

from tropcong._linalg import rref, vec
from tropcong.congruence import _pair_table
from tropcong.polyhedra import FlagOfCones, cone_dim, is_face, validate_flag
from tropcong.trop_core import ContextMismatchError
from tropcong.variety import (_arrangement, _relint_sample, _sides_agree,
                              split_generators_by_forms)

from helpers import reduce_mod_span


def flag_violations(flag: FlagOfCones) -> list[str]:
    out = []
    span_tau, _ = rref(flag.tau_rays) if flag.tau_rays else ([], [])
    prev = None
    for i, rays in enumerate(flag.cones_rays):
        c = flag.cone(i)
        d = cone_dim(c)
        if d != i + 1:
            out.append("dimension: cone %d has dim %d, expected %d" % (i, d, i + 1))
        if len(rays) != d:
            out.append("simplicial: cone %d has %d rays for dim %d" % (i, len(rays), d))
        for rr in rays:
            if rr[0] < 0:
                out.append("stratum: cone %d ray has negative height" % i)
            space = rr[1:]
            if span_tau and reduce_mod_span(space, span_tau) != vec(space):
                out.append("stratum: cone %d ray not a canonical representative mod tau" % i)
        if prev is not None and not is_face(prev, c):
            out.append("nesting: cone %d is not a face of cone %d" % (i - 1, i))
        prev = c
    return out


def flag_in_variety(context, flag: FlagOfCones, V) -> bool:
    if context != V.context:
        raise ContextMismatchError("flag and support contexts differ")
    bad = validate_flag(flag)
    if bad:
        raise ValueError("invalid flag: " + "; ".join(bad))
    tau = context.face_from_rays(flag.tau_rays)
    try:
        V.stratum(tau)
    except ValueError:
        raise ValueError("flag stratum not represented in the support")
    forms = _arrangement(V.pairs, tau)
    table = _pair_table(V.pairs, tau)
    for rays in flag.cones_rays:
        k = len(rays)
        start = ([], rays, [((1 << k) - 1) ^ (1 << j) for j in range(k)])
        for _, piece, _ in split_generators_by_forms(start, 1 << k, forms):
            if not _sides_agree(*table, _relint_sample(piece)):
                return False
    return True
