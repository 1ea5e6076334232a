"""Reference flag validation: every cone rebuilt and enumerated.

This was the library's `polyhedra._flag_violations` before it read the flag
off its rays.  It is kept verbatim as an independent oracle for
tests/test_flag_rays.py: each flag cone gets an H-representation from its
rays (`hrep_from_rays`, one double description), its dimension is the rank
of its generators (`cone_dim`, a second one), and every nesting is decided
by `is_face` on the two rebuilt cones.  Test use only.
"""

from __future__ import annotations

from tropcong._linalg import rref, vec
from tropcong.polyhedra import FlagOfCones, cone_dim, is_face

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
